//! Persistent evaluation workspaces: the allocation-amortization layer of
//! the force engines.
//!
//! A naive TBMD loop rebuilds the neighbour list and allocates the
//! Hamiltonian, eigenvector and density matrices (all `n_orb²`-sized) at
//! every step. A [`Workspace`] owns all of that state and is threaded
//! through [`crate::provider::ForceProvider::evaluate_with`], so a
//! 1000-step MD run performs O(1) large allocations after the first step:
//!
//! * **neighbours** — a Verlet skin list built at `cutoff + skin` is kept as
//!   long as no atom has moved more than `skin/2`; between rebuilds only the
//!   cached displacements are refreshed (O(entries), no spatial search).
//!   When the cell is too small for the unique-image condition at
//!   `cutoff + skin` (e.g. the 8-atom Si cell), the workspace transparently
//!   falls back to a per-step [`NeighborList::build`].
//! * **bond table** — the radial terms of every neighbour-list entry and
//!   every atom's embedding ([`BondTable`]), refilled in place each
//!   evaluation.
//! * **matrices** — the H/eigenvector buffer (diagonalized in place) is
//!   reused across steps via [`Matrix::resize_zeroed`], and `ρ`, kept on
//!   the bond blocks alone ([`RhoBlocks`]), is refilled in place.
//! * **eigensolver scratch** — subdiagonal and sort-permutation buffers for
//!   [`tbmd_linalg::eigh_into`], the tridiagonal factor, reduction panels
//!   and inverse-iteration buffers of the two-stage solver.
//!
//! The workspace also keeps counters (rebuilds vs refreshes vs fallback
//! builds, buffer-growth events) that the benchmark reports surface.

use crate::stages::{BondTable, RhoBlocks};
use tbmd_linalg::{EighWorkspace, Matrix};
use tbmd_structure::{NeighborList, Structure, VerletNeighborList};

/// Where (if anywhere) the last evaluation left a consumable set of dense
/// eigenpairs in this workspace. The incremental health probe
/// (`crate::health::cached_eigensolver_health`) reads this marker to verify
/// `‖Hv − λv‖∞` on the production solve's own output without re-solving.
/// Engines that don't leave dense eigenvectors behind (O(N), distributed)
/// reset it to [`DenseCache::None`] so a stale marker from an earlier engine
/// can never be misread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DenseCache {
    /// No cached eigenpairs (fresh workspace, or last engine left none).
    #[default]
    None,
    /// Two-stage sliced solve: the `occupied` eigenvectors sit in
    /// [`Workspace::c`], the full spectrum in [`Workspace::values`], and
    /// [`Workspace::h`] holds packed reflectors (not `H`).
    Sliced {
        /// Number of occupied columns in [`Workspace::c`].
        occupied: usize,
    },
    /// One-stage solve: all eigenvectors overwrote [`Workspace::h`] in
    /// place; the spectrum is in [`Workspace::values`].
    Full {
        /// Number of occupied states at the head of the spectrum.
        occupied: usize,
    },
}

impl DenseCache {
    /// The eigenvector block this marker points at — `c` for a sliced
    /// solve, `h` for a full one — and how many of its leading columns the
    /// solve produced. `None` when nothing is cached.
    pub fn vectors<'w>(self, h: &'w Matrix, c: &'w Matrix) -> Option<(&'w Matrix, usize)> {
        match self {
            DenseCache::None => None,
            DenseCache::Sliced { occupied } => Some((c, occupied)),
            DenseCache::Full { .. } => Some((h, h.cols())),
        }
    }
}

/// Default Verlet skin in Å. Half an ångström keeps the list valid for many
/// steps of near-melting silicon MD while adding only ~40% more candidate
/// pairs (all beyond the radial cutoff, where the model terms vanish).
pub const DEFAULT_SKIN: f64 = 0.5;

/// What [`NeighborWorkspace::update`] did for one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborOutcome {
    /// Full spatial (re)build of the skin list.
    Rebuilt,
    /// Skin intact: only cached displacements were recomputed.
    Refreshed,
    /// Unique-image condition failed at `cutoff + skin`; a plain per-step
    /// list was built at the bare cutoff.
    Fallback,
}

/// Cumulative neighbour-list accounting across a workspace's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborStats {
    /// Full skin-list builds (including the initial one).
    pub rebuilds: usize,
    /// O(entries) displacement refreshes.
    pub refreshes: usize,
    /// Per-step plain builds taken on the fallback path.
    pub fallback_builds: usize,
}

enum NeighborMode {
    Verlet(VerletNeighborList),
    PerStep(NeighborList),
}

/// Amortized neighbour-list state: a Verlet skin list when the cell permits
/// it, a per-step plain build otherwise. The skin is [`DEFAULT_SKIN`].
#[derive(Default)]
pub struct NeighborWorkspace {
    mode: Option<NeighborMode>,
    stats: NeighborStats,
}

impl NeighborWorkspace {
    /// Bring the list up to date with `s` at the given interaction cutoff.
    ///
    /// Reuses the existing Verlet list when possible (same cutoff and atom
    /// count, no atom moved beyond `skin/2`); otherwise rebuilds, preferring
    /// the skin list whenever `cutoff + skin` satisfies the cell's
    /// unique-image condition.
    pub fn update(&mut self, s: &Structure, cutoff: f64) -> NeighborOutcome {
        if let Some(NeighborMode::Verlet(vl)) = &mut self.mode {
            if vl.cutoff() == cutoff && vl.as_neighbor_list().n_atoms() == s.n_atoms() {
                return if vl.update(s) {
                    self.stats.rebuilds += 1;
                    NeighborOutcome::Rebuilt
                } else {
                    self.stats.refreshes += 1;
                    NeighborOutcome::Refreshed
                };
            }
        }
        if s.cell().supports_cutoff(cutoff + DEFAULT_SKIN) {
            self.mode = Some(NeighborMode::Verlet(VerletNeighborList::new(
                s,
                cutoff,
                DEFAULT_SKIN,
            )));
            self.stats.rebuilds += 1;
            NeighborOutcome::Rebuilt
        } else {
            self.mode = Some(NeighborMode::PerStep(NeighborList::build(s, cutoff)));
            self.stats.fallback_builds += 1;
            NeighborOutcome::Fallback
        }
    }

    /// The current list. Entries may extend into the skin; the tight-binding
    /// radial functions vanish beyond the cutoff, so consumers need no
    /// explicit filter.
    ///
    /// # Panics
    /// Panics if [`NeighborWorkspace::update`] has never been called.
    pub fn list(&self) -> &NeighborList {
        match self
            .mode
            .as_ref()
            .expect("NeighborWorkspace::update not called")
        {
            NeighborMode::Verlet(vl) => vl.as_neighbor_list(),
            NeighborMode::PerStep(nl) => nl,
        }
    }

    /// Whether the Verlet path is currently active (vs per-step fallback).
    pub fn is_verlet(&self) -> bool {
        matches!(self.mode, Some(NeighborMode::Verlet(_)))
    }

    /// Cumulative rebuild/refresh/fallback counts.
    pub fn stats(&self) -> NeighborStats {
        self.stats
    }
}

/// Persistent evaluation state for the dense engines: neighbour machinery,
/// matrix buffers, the bond-block `ρ` and eigensolver scratch. Construct
/// once per MD run and thread it through
/// [`crate::provider::ForceProvider::evaluate_with`].
#[derive(Default)]
pub struct Workspace {
    /// Amortized neighbour lists.
    pub neighbors: NeighborWorkspace,
    /// The radial terms of every entry of the neighbour list and every
    /// atom's embedding, filled once per evaluation in the Hamiltonian
    /// phase; the H build, the forces and the stress read them.
    pub bonds: BondTable,
    /// Hamiltonian buffer. The full-QL path overwrites it in place with the
    /// eigenvector matrix; the two-stage path leaves the packed Householder
    /// reflectors of the blocked reduction in it.
    pub h: Matrix,
    /// Occupied-subspace eigenvector block (`n_orb × k`) produced by the
    /// two-stage solver's inverse-iteration + back-transform stage.
    pub c: Matrix,
    /// `W = C·diag(√(2f))` and the full `ρ = W·Wᵀ` of the reference
    /// [`crate::density_matrix_into`]: no engine touches them; they serve the
    /// frozen benchmark's twin and leave with ROADMAP item 7 (g).
    pub w: Matrix,
    /// See `w`.
    pub rho: Matrix,
    /// `ρ` on the bond blocks, as the dense pipeline leaves it.
    pub(crate) rho_blocks: RhoBlocks,
    /// Eigenvalues of the last evaluation (ascending).
    pub values: Vec<f64>,
    /// Eigensolver scratch (subdiagonal + sort permutation, blocked-reduction
    /// panels, inverse-iteration buffers).
    pub eigh: EighWorkspace,
    /// Which eigenpairs (if any) the last evaluation left behind for the
    /// incremental health probe.
    pub dense_cache: DenseCache,
    /// Pristine-Hamiltonian scratch for the incremental health probe (the
    /// solve paths consume `h` in place, so the probe rebuilds `H` here).
    pub health_h: Matrix,
    /// Count of large-buffer capacity growths (see
    /// [`Workspace::large_alloc_events`]).
    pub grown: usize,
}

impl Workspace {
    /// Fresh workspace with the default Verlet skin.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of times an `n_orb²`-sized buffer (`H`, the health probe's
    /// `H`) had to grow its allocation. Stays constant after the first
    /// evaluation of the largest system seen — the O(1)-allocations guarantee the MD loop relies on.
    pub fn large_alloc_events(&self) -> usize {
        self.grown
    }

    /// `ρ` on the bond blocks of the last dense evaluation's neighbour list
    /// ([`crate::stages::bond_density`]).
    pub fn rho_blocks(&self) -> &RhoBlocks {
        &self.rho_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_structure::{bulk_diamond, Species};

    #[test]
    fn verlet_path_engages_in_large_cell() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut nw = NeighborWorkspace::default();
        // silicon_gsp-like cutoff: 4.16 + 0.5 < L/2 = 5.43.
        assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Rebuilt);
        assert!(nw.is_verlet());
        assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Refreshed);
        assert_eq!(
            nw.stats(),
            NeighborStats {
                rebuilds: 1,
                refreshes: 1,
                fallback_builds: 0
            }
        );
    }

    #[test]
    fn fallback_in_small_cell() {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1); // L/2 = 2.715
        let mut nw = NeighborWorkspace::default();
        assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Fallback);
        assert!(!nw.is_verlet());
        assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Fallback);
        assert_eq!(nw.stats().fallback_builds, 2);
    }

    #[test]
    fn cutoff_change_forces_rebuild() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut nw = NeighborWorkspace::default();
        assert_eq!(nw.update(&s, 3.0), NeighborOutcome::Rebuilt);
        assert_eq!(nw.update(&s, 4.0), NeighborOutcome::Rebuilt);
        assert_eq!(nw.stats().rebuilds, 2);
    }

    #[test]
    fn fallback_list_matches_plain_build() {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut nw = NeighborWorkspace::default();
        nw.update(&s, 4.16);
        let plain = NeighborList::build(&s, 4.16);
        assert_eq!(nw.list().n_entries(), plain.n_entries());
    }
}

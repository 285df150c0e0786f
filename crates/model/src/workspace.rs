//! Persistent evaluation workspaces: the allocation-amortization layer of
//! the force engines.
//!
//! A naive TBMD loop rebuilds the neighbour list and allocates the
//! Hamiltonian, eigenvector and density matrices (all `n_orb²`-sized) at
//! every step. A [`Workspace`] owns all of that state and is threaded
//! through [`crate::provider::ForceProvider::evaluate_with`], so a
//! 1000-step MD run performs O(1) large allocations after the first step:
//!
//! * **neighbours** — one candidate list built at `cutoff + skin`, in any
//!   cell, is kept as long as no atom has moved more than `skin/2`; each
//!   evaluation recomputes its entries and keeps those within the cutoff
//!   (O(entries), no spatial search), which is bit for bit a fresh
//!   [`NeighborList::build`].
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
//! The workspace also keeps counters (rebuilds vs refreshes, buffer-growth
//! events) that the benchmark reports surface.

use crate::stages::{BondTable, RhoBlocks};
use std::collections::BTreeSet;
use tbmd_linalg::{EighWorkspace, Matrix, Vec3};
use tbmd_structure::{Cell, NeighborList, Structure};

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

/// Neighbour-list skin in Å. Half an ångström keeps the list valid for many
/// steps of near-melting silicon MD.
pub const DEFAULT_SKIN: f64 = 0.5;

/// What [`NeighborWorkspace::update`] did for one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborOutcome {
    /// Full spatial (re)build of the candidate list.
    Rebuilt,
    /// Skin intact: only the entries were recomputed.
    Refreshed,
}

/// Cumulative neighbour-list accounting across a workspace's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeighborStats {
    /// Full candidate-list builds (including the initial one).
    pub rebuilds: usize,
    /// O(entries) refreshes.
    pub refreshes: usize,
    /// Always 0: no evaluation builds a list outside the kept one. Read by
    /// the frozen benchmark; leaves with ROADMAP item 7.
    pub fallback_builds: usize,
}

/// The reference positions of a list kept across steps: a list built at
/// `radius + `[`DEFAULT_SKIN`] at them holds every pair within `radius`
/// until some atom's raw coordinates move more than `skin/2` (entries are
/// in caller coordinates, so a wrapped coordinate reads as a long move).
#[derive(Default)]
pub struct KeptSkin {
    radius: f64,
    cell: Option<Cell>,
    reference: Vec<Vec3>,
}

impl KeptSkin {
    /// Whether a list built at the reference still holds at `s` and
    /// `radius`: same atom count, cell and radius, and no atom moved past
    /// `skin/2`.
    pub fn holds(&self, s: &Structure, radius: f64) -> bool {
        let half_skin_sq = 0.25 * DEFAULT_SKIN * DEFAULT_SKIN;
        self.radius == radius
            && self.cell == Some(*s.cell())
            && self.reference.len() == s.n_atoms()
            && s.positions()
                .iter()
                .zip(&self.reference)
                .all(|(&now, &then)| (now - then).norm_sq() <= half_skin_sq)
    }

    /// Take `s` as the reference of a list just built at `radius + skin`.
    pub fn reset(&mut self, s: &Structure, radius: f64) {
        (self.radius, self.cell) = (radius, Some(*s.cell()));
        self.reference.clear();
        self.reference.extend_from_slice(s.positions());
    }
}

/// For each atom, the atoms within `radius + `[`DEFAULT_SKIN`] of it at the
/// reference positions (itself included), kept across steps while they
/// hold ([`KeptSkin`]): until then they include every atom within `radius`
/// of it at the minimum-image distance. Where `radius + skin` reaches past a
/// periodic edge (or is infinite) there are no lists, and every atom is a
/// candidate.
#[derive(Default)]
pub struct KeptCandidates {
    skin: KeptSkin,
    /// Candidates of atom `i` are `atoms[ptr[i]..ptr[i + 1]]`, ascending.
    ptr: Vec<usize>,
    atoms: Vec<u32>,
}

impl KeptCandidates {
    /// Bring the candidates up to date with `s` at `radius`.
    pub fn update(&mut self, s: &Structure, radius: f64) {
        if self.skin.holds(s, radius) {
            return;
        }
        let (reach, cell) = (radius + DEFAULT_SKIN, s.cell());
        let (mut ptr, mut atoms) = (Vec::new(), Vec::new());
        if reach.is_finite() && (0..3).all(|a| !cell.periodic[a] || reach <= cell.lengths[a]) {
            let nl = NeighborList::build(s, reach);
            ptr.push(0);
            for i in 0..s.n_atoms() {
                let near = nl.neighbors(i).iter().map(|nb| nb.j as u32);
                atoms.extend(near.chain([i as u32]).collect::<BTreeSet<_>>());
                ptr.push(atoms.len());
            }
        }
        (self.ptr, self.atoms) = (ptr, atoms);
        self.skin.reset(s, radius);
    }

    /// The candidates of atom `i`, ascending; `None`: every atom.
    pub fn of(&self, i: usize) -> Option<&[u32]> {
        let range = self.ptr.get(i..i + 2)?;
        Some(&self.atoms[range[0]..range[1]])
    }
}

/// Amortized neighbour-list state: the candidates within
/// `cutoff + `[`DEFAULT_SKIN`] at the reference positions, and the view
/// within the cutoff at the latest positions.
#[derive(Default)]
pub struct NeighborWorkspace {
    candidates: NeighborList,
    skin: KeptSkin,
    view: NeighborList,
    stats: NeighborStats,
}

impl NeighborWorkspace {
    /// Bring the list up to date with `s` at the given interaction cutoff.
    ///
    /// Rebuilds the candidates unless they still hold ([`KeptSkin`]).
    /// Either way [`Self::list`] is then bit for bit
    /// `NeighborList::build(s, cutoff)`.
    pub fn update(&mut self, s: &Structure, cutoff: f64) -> NeighborOutcome {
        let outcome = if self.skin.holds(s, cutoff) {
            self.stats.refreshes += 1;
            NeighborOutcome::Refreshed
        } else {
            self.candidates = NeighborList::build(s, cutoff + DEFAULT_SKIN);
            self.skin.reset(s, cutoff);
            self.stats.rebuilds += 1;
            NeighborOutcome::Rebuilt
        };
        self.candidates.within_into(s, cutoff, &mut self.view);
        outcome
    }

    /// The entries within the cutoff at the positions of the last
    /// [`NeighborWorkspace::update`] (empty before the first).
    pub fn list(&self) -> &NeighborList {
        &self.view
    }

    /// Cumulative rebuild/refresh counts.
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
    /// Fresh, empty workspace.
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

    /// `(j, shift, [disp, dist] bits)` of one entry.
    type EntryBits = (usize, [i32; 3], [u64; 4]);

    /// Entries as raw bits, for bitwise comparison of lists.
    fn bits(nl: &NeighborList) -> Vec<Vec<EntryBits>> {
        (0..nl.n_atoms())
            .map(|i| {
                nl.neighbors(i)
                    .iter()
                    .map(|nb| {
                        let d = nb.disp;
                        let b = [d.x, d.y, d.z, nb.dist].map(f64::to_bits);
                        (nb.j, nb.shift, b)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn kept_list_refreshes_in_every_cell() {
        // Si-8 (L/2 = 2.715 Å, several images per pair) and Si-64.
        for reps in [1, 2] {
            let mut s = bulk_diamond(Species::Silicon, reps, reps, reps);
            let mut nw = NeighborWorkspace::default();
            assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Rebuilt);
            s.positions_mut()[1] += Vec3::new(0.2, -0.1, 0.05);
            assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Refreshed);
            assert_eq!(bits(nw.list()), bits(&NeighborList::build(&s, 4.16)));
            assert_eq!(
                nw.stats(),
                NeighborStats {
                    rebuilds: 1,
                    refreshes: 1,
                    fallback_builds: 0
                }
            );
        }
    }

    #[test]
    fn a_long_move_or_a_wrapped_coordinate_rebuilds() {
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut nw = NeighborWorkspace::default();
        nw.update(&s, 4.16);
        s.positions_mut()[3] += Vec3::new(0.3, 0.0, 0.0); // > skin/2
        assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Rebuilt);
        // The same point one cell edge away: same physics, new labels.
        let edge = s.cell().lengths.x;
        s.positions_mut()[3] -= Vec3::new(edge, 0.0, 0.0);
        assert_eq!(nw.update(&s, 4.16), NeighborOutcome::Rebuilt);
        assert_eq!(bits(nw.list()), bits(&NeighborList::build(&s, 4.16)));
    }

    #[test]
    fn cutoff_or_cell_change_forces_rebuild() {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut nw = NeighborWorkspace::default();
        assert_eq!(nw.update(&s, 3.0), NeighborOutcome::Rebuilt);
        assert_eq!(nw.update(&s, 4.0), NeighborOutcome::Rebuilt);
        let mut strained = s.clone();
        tbmd_structure::apply_strain(&mut strained, [1e-3, 0.0, 0.0]);
        assert_eq!(nw.update(&strained, 4.0), NeighborOutcome::Rebuilt);
        assert_eq!(nw.stats().rebuilds, 3);
    }
}

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
//! * **matrices** — `H`'s lower triangle ([`LowerTriangle`], reduced in
//!   place) is reused across steps
//!   ([`tbmd_linalg::RowStore::resize_square`]), and `ρ`, kept on the bond
//!   blocks alone ([`RhoBlocks`]), is refilled in place.
//! * **eigensolver scratch** — subdiagonal and sort-permutation buffers for
//!   [`tbmd_linalg::eigh_into`], the tridiagonal factor, and the two-stage
//!   solver's inverse-iteration buffers and per-thread staging bands, which
//!   each strip of occupied eigenvectors passes through on its way into `ρ`
//!   (and which the reduction's panels borrow before that).
//!
//! The workspace also keeps counters (rebuilds vs refreshes, buffer-growth
//! events) that the benchmark reports surface.

use crate::stages::{BondTable, RhoBlocks};
use tbmd_linalg::{EighWorkspace, LowerTriangle, Matrix, Vec3};
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
    /// Two-stage sliced solve: the `occupied` eigenvectors were streamed
    /// into `ρ`, and only the probe's sampled pair (column `occupied / 2`
    /// and its [`DenseCache::neighbour`]) was copied out of its strips; the
    /// full spectrum is in [`Workspace::values`], and
    /// [`Workspace::h_lower`] holds packed reflectors (not `H`).
    Sliced {
        /// Number of occupied states the solve streamed.
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
    /// The column the probes check eigenpair `sampled` of a `k`-column
    /// window against for orthogonality: the next one, the previous one at
    /// the window's end, `usize::MAX` when the window has one column.
    pub fn neighbour(sampled: usize, k: usize) -> usize {
        if sampled + 1 < k {
            sampled + 1
        } else {
            sampled.wrapping_sub(1)
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
/// of it at the minimum-image distance. An infinite radius has no lists:
/// every atom is a candidate.
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
        (self.ptr, self.atoms) = (vec![0], Vec::new());
        if radius.is_finite() {
            // Each atom's entries ascend in `j` (an atom seen through several
            // images repeats): insert the atom itself and drop the repeats.
            let nl = NeighborList::build(s, radius + DEFAULT_SKIN);
            let mut row = Vec::new();
            for i in 0..s.n_atoms() as u32 {
                row.clear();
                row.extend(nl.neighbors(i as usize).iter().map(|nb| nb.j as u32));
                row.insert(row.partition_point(|&j| j < i), i);
                row.dedup();
                self.atoms.extend_from_slice(&row);
                self.ptr.push(self.atoms.len());
            }
        }
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

/// Persistent evaluation state of an evaluation body: neighbour machinery,
/// matrix buffers, the bond-block `ρ` and eigensolver scratch (the O(N)
/// body keeps its region candidates here too). Construct
/// once per MD run and thread it through
/// [`crate::provider::ForceProvider::evaluate_with`].
#[derive(Default)]
pub struct Workspace {
    /// Amortized neighbour lists.
    pub neighbors: NeighborWorkspace,
    /// The O(N) engines' localization-region candidates, kept at `r_loc`.
    pub regions: KeptCandidates,
    /// The radial terms of every entry of the neighbour list and every
    /// atom's embedding, filled once per evaluation in the Hamiltonian
    /// phase; the H build, the forces and the stress read them.
    pub bonds: BondTable,
    /// `H`'s lower triangle, as the H stage assembles it. The two-stage path
    /// leaves the packed Householder reflectors of the blocked reduction in
    /// it.
    pub h_lower: LowerTriangle,
    /// The one-stage solve's `n × n` buffer (below
    /// [`crate::TWO_STAGE_MIN_DIM`], or [`crate::DenseSolver::FullQl`]):
    /// `H`'s lower triangle copied in, all eigenvectors out. The frozen
    /// benchmark's twin also builds a full `H` here; that path leaves with
    /// ROADMAP item 7 (g).
    pub h: Matrix,
    /// An `n_orb × k` eigenvector block, the reference
    /// [`crate::density_matrix_into`]'s `W = C·diag(√(2f))` and its full
    /// `ρ = W·Wᵀ`: no engine touches them (the two-stage solve streams its
    /// eigenvectors into `ρ`, [`crate::TbCalculator::compute_on`]); they serve
    /// the frozen benchmark's twin and leave with ROADMAP item 7 (g).
    pub c: Matrix,
    /// See `c`.
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
    /// The probe's sampled eigenvector and its neighbour (`2 × n_orb`),
    /// copied out of their strips by a two-stage solve.
    pub(crate) probe_pair: Vec<f64>,
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

    /// Number of times an `n_orb`-sized buffer had to grow its allocation:
    /// `H`, the one-stage buffer, the health probe's `H` (all counted in
    /// `grown`) and the
    /// eigenvector stage's staging bands
    /// ([`EighWorkspace::large_alloc_events`]). Stays constant after the
    /// first evaluation of the largest system seen — the O(1)-allocations
    /// guarantee the MD loop relies on.
    pub fn large_alloc_events(&self) -> usize {
        self.grown + self.eigh.large_alloc_events()
    }

    /// `ρ` on the bond blocks of the last dense evaluation's neighbour list
    /// ([`crate::stages::bond_density`]).
    pub fn rho_blocks(&self) -> &RhoBlocks {
        &self.rho_blocks
    }

    /// The bytes the dense pipeline's buffers hold, by buffer.
    pub fn bytes(&self) -> WorkspaceBytes {
        WorkspaceBytes {
            h: self.h_lower.heap_bytes() + self.h.heap_bytes(),
            strips: self.eigh.strip_bytes(),
            eigensolver: self.eigh.heap_bytes() - self.eigh.strip_bytes(),
            bonds: self.bonds.heap_bytes(),
            rho_blocks: self.rho_blocks.heap_bytes(),
        }
    }
}

/// The bytes of a dense engine's buffers ([`Workspace::bytes`]). No field
/// holds an `n × k` eigenvector block: the occupied window passes through
/// `strips` one strip at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceBytes {
    /// `H`: its lower triangle (packed reflectors after a two-stage solve),
    /// plus the one-stage solve's `n × n` buffer where one ran.
    pub h: usize,
    /// The eigenvector stage's staging bands: one strip of at most
    /// `STRIP_COLS` (96) vectors of length `n` per thread that ran one (more
    /// only where a cluster of near-equal eigenvalues widened a strip).
    pub strips: usize,
    /// The rest of the eigensolver scratch: reduction panels and factors,
    /// inverse-iteration buffers.
    pub eigensolver: usize,
    /// The bond table's radial terms.
    pub bonds: usize,
    /// `ρ` on the bond blocks, with its block index.
    pub rho_blocks: usize,
}

impl WorkspaceBytes {
    /// All of them.
    pub fn total(&self) -> usize {
        self.h + self.strips + self.eigensolver + self.bonds + self.rho_blocks
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
    fn h_is_one_packed_triangle_grown_once() {
        // Perturbed Si-64 (the perfect crystal's degenerate clusters widen
        // strips by thread timing): 256 orbitals, rows of 8(m + 1) doubles
        // for m = r / 8, in all 64 · (1 + … + 32) doubles = 0.26 MiB, and 7
        // to align them; no n × n buffer.
        let (model, mut s) = (
            crate::silicon_gsp(),
            bulk_diamond(Species::Silicon, 2, 2, 2),
        );
        tbmd_structure::displacement_disorder(&mut s, 0.05, 64);
        let calc = crate::TbCalculator::new(&model);
        let mut ws = Workspace::new();
        calc.compute_with(&s, &mut ws).unwrap();
        assert_eq!(ws.bytes().h, 8 * (64 * (32 * 33 / 2) + 7));
        let events = ws.large_alloc_events();
        for _ in 0..5 {
            calc.compute_with(&s, &mut ws).unwrap();
            assert_eq!(ws.large_alloc_events(), events);
        }
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

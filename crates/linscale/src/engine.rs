//! The linear-scaling tight-binding engine.
//!
//! Per atom, the engine expands the four density-matrix columns of that
//! atom's orbitals in Chebyshev polynomials of the sparse Hamiltonian,
//! truncated to a localization region of radius `r_loc` — the four columns
//! advance together through one block recurrence
//! ([`BlockRecurrence`]), cost O(order · region_nnz) per column, hence
//! **O(N) total** at fixed radius and order.
//!
//! One pass per atom does everything: it reads the centre's diagonal of
//! every iterate into the Chebyshev *moments*, and it sums the ρ columns on
//! the bond rows as a Taylor series in μ about an expansion point `g`
//! ([`Expansion`]). The chemical potential then comes from the moments by
//! bisection ([`solve_mu`](crate::solve_mu): re-pricing a candidate costs
//! O(order)), and each atom's ρ is carried from `g` to μ. `g` is μ rounded to
//! a grid of spacing kT/2 ([`grid_point`]); the engine starts at the last
//! evaluation's grid point, and runs the pass again at μ's if that was not
//! it. The moments do not depend on `g`, so the pass whose
//! ρ is kept — at `grid_point(μ)` — is a function of the positions alone: a
//! hot evaluation is bit for bit a cold one. Forces come from the corrected
//! ρ blocks via the standard Hellmann–Feynman contraction.
//!
//! Accuracy knobs: `order` is a ceiling. On the window of a 30-step Lanczos
//! estimate of the spectrum ([`window`]) the engine runs
//! `K = min(order, ⌈c·scale/(π·kT)⌉)` steps, ≈ 175 at Si-216 and kT 0.2 eV,
//! so raising `order` past K changes nothing; if an even moment then exceeds
//! the orbital count, the pass reruns on the Gershgorin window at
//! `order`. `r_loc` sets the density-matrix
//! truncation (exponentially convergent for gapped systems — Si diamond is
//! the friendly case, metals are not; that is the method's physics).
//!
//! Like the dense engines, the reported energy includes the Mermin
//! electronic-entropy term `−T_e S`: the entropy is a spectral trace
//! `S = −2 k_B Tr[f ln f + (1−f) ln(1−f)](H)`, so it comes from the *same
//! diagonal Chebyshev moments* as the electron count — O(order) extra work,
//! no additional matvecs. Without it the reported potential is not the
//! quantity the Hellmann–Feynman forces conserve, and NVE trajectories show
//! a spurious drift proportional to the variation of `T_e S`.

use crate::chebyshev::{grid_point, settle, window, BlockRecurrence, Expansion, Window, SETS};
use crate::sparse::{LocalRegion, SparseH};
use std::sync::{Mutex, PoisonError};
use tbmd_linalg::kernels::Block4;
use tbmd_linalg::team;
use tbmd_model::{
    bond_forces, prologue, validate, Collectives, DenseCache, ForceEvaluation, ForceProvider,
    KeptCandidates, OrbitalIndex, PhaseTimings, Solo, TbError, TbModel, Workspace,
};
use tbmd_structure::{NeighborList, Structure};
use tbmd_trace::{Counter, Phase};

/// Diagnostics of the most recent evaluation (for experiment F5).
#[derive(Debug, Clone)]
pub struct LinScaleReport {
    /// Chemical potential found by moment bisection (eV).
    pub mu: f64,
    /// Electron count reproduced at that μ.
    pub electron_count: f64,
    /// Mermin correction `−T_e S` included in the reported energy (eV).
    pub entropy_term: f64,
    /// Sum of localization-region orbital counts.
    pub total_region_orbitals: usize,
    /// Heap bytes of the regions' index views (they hold no block values).
    pub region_bytes: usize,
    /// Multiply-adds executed by the block recurrence in every pass the
    /// evaluation ran (`passes` of them) — the O(N) cost metric.
    pub total_matvec_ops: u64,
    /// Passes run: one when the last evaluation's grid point was μ's, two
    /// when it was not (always on a cold engine), one more when the window
    /// missed the spectrum.
    pub passes: usize,
    /// The window and the Chebyshev order the evaluation ran.
    pub window: Window,
}

/// O(N) Chebyshev Fermi-operator TBMD engine.
pub struct LinearScalingTb<'m> {
    pub(crate) model: &'m dyn TbModel,
    /// Electronic temperature (eV); must be positive — the expansion cannot
    /// represent a step function.
    pub kt: f64,
    /// Ceiling on the Chebyshev order: an evaluation runs the order its
    /// [`window`] derives, and raising the ceiling past that changes
    /// nothing (all of it runs on the Gershgorin window if the moment guard
    /// trips).
    pub order: usize,
    /// Localization radius (Å); `f64::INFINITY` disables truncation.
    pub r_loc: f64,
    /// [`window`]: a crate test plants a narrower one to trip the guard.
    pub(crate) window: fn(&SparseH, f64, usize) -> Window,
    last_report: Mutex<Option<LinScaleReport>>,
}

impl<'m> LinearScalingTb<'m> {
    /// Engine with sensible defaults for the bundled gapped systems:
    /// kT = 0.2 eV, order 350, untruncated.
    pub fn new(model: &'m dyn TbModel) -> Self {
        LinearScalingTb {
            model,
            kt: 0.2,
            order: 350,
            r_loc: f64::INFINITY,
            window,
            last_report: Mutex::new(None),
        }
    }

    /// Set the localization radius.
    pub fn with_r_loc(mut self, r_loc: f64) -> Self {
        assert!(r_loc > 0.0);
        self.r_loc = r_loc;
        self
    }

    /// Set the ceiling on the Chebyshev order ([`LinearScalingTb::order`]):
    /// past the order the window derives it changes nothing.
    pub fn with_order(mut self, order: usize) -> Self {
        assert!(order >= 8);
        self.order = order;
        self
    }

    /// Set the electronic temperature (eV).
    pub fn with_kt(mut self, kt: f64) -> Self {
        assert!(kt > 0.0, "the Chebyshev engine requires finite smearing");
        self.kt = kt;
        self
    }

    /// Diagnostics of the most recent evaluation.
    pub fn last_report(&self) -> Option<LinScaleReport> {
        self.last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The members of `center`'s region at the positions of `s`, ascending: the
/// centre, and those of its `candidates` (kept at `r_loc`) within `r_loc` of
/// it at the minimum-image distance.
pub(crate) fn members(s: &Structure, c: &KeptCandidates, center: usize, r_loc: f64) -> Vec<u32> {
    let every = || (0..s.n_atoms() as u32).collect();
    let mut members: Vec<u32> = c.of(center).map_or_else(every, <[u32]>::to_vec);
    members.retain(|&a| a as usize == center || s.distance(center, a as usize) <= r_loc);
    members
}

/// Atoms whose moments one task sums before the sum joins the total, so the
/// order of the additions, and their bits, do not depend on the team's
/// width.
const MOMENT_CHUNK: usize = 8;

/// One atom's localization region with the recurrence seeded at its
/// orbitals — the unit of work both engines distribute.
pub(crate) struct AtomRegion<'h> {
    region: LocalRegion<'h>,
    /// The centre atom, its first padded row and its orbital count.
    atom: usize,
    row0: usize,
    n_orbitals: usize,
}

impl<'h> AtomRegion<'h> {
    /// The region of `atom` over the members `candidates` picks at `s`.
    pub(crate) fn new(
        s: &Structure,
        h: &'h SparseH,
        candidates: &KeptCandidates,
        atom: usize,
        r_loc: f64,
    ) -> Self {
        let region = LocalRegion::new(h, members(s, candidates, atom, r_loc));
        let row0 = 4 * region.slot(atom).expect("centre inside its region");
        AtomRegion {
            region,
            atom,
            row0,
            n_orbitals: s.species(atom).n_orbitals(),
        }
    }

    /// Multiply-adds of `steps` recurrence steps: all four columns run,
    /// padded or not.
    pub(crate) fn step_ops(&self, steps: usize) -> u64 {
        (4 * self.region.nnz() * steps) as u64
    }

    fn recurrence(&self, w: Window) -> BlockRecurrence<'_> {
        BlockRecurrence::new(&self.region, self.row0, self.n_orbitals, w.shift, w.scale)
    }

    /// The one pass (`w.order − 1` steps): add this atom's diagonal samples
    /// `Σ_ν T_k(H̃)_νν`, `k < w.order`, into `moments`, and with an expansion
    /// return its ρ columns' sets ([`BlockRecurrence::pass`]) on the block
    /// rows read here — the centre's and its neighbours' — as bond blocks
    /// and band terms.
    pub(crate) fn pass(
        &self,
        nl: &NeighborList,
        w: Window,
        e: Option<&Expansion>,
        moments: &mut [f64],
    ) -> AtomPass {
        // Distinct neighbour atoms (images of a pair share a block).
        let mut neighbor_atoms: Vec<usize> = nl
            .neighbors(self.atom)
            .iter()
            .map(|nb| nb.j)
            .filter(|&j| j != self.atom)
            .collect();
        neighbor_atoms.sort_unstable();
        neighbor_atoms.dedup();
        // The centre's block row has no column outside these.
        let slots: Vec<_> = neighbor_atoms
            .iter()
            .map(|&j| self.region.slot(j))
            .collect();
        let mut kept: Vec<usize> = slots.iter().flatten().copied().collect();
        kept.push(self.row0 / 4);
        kept.sort_unstable();
        let rho = self.recurrence(w).pass(moments, e.map(|e| (e, &kept[..])));
        let Some(rho) = rho else {
            return AtomPass::default();
        };
        // Rows `4p + β` of a set hold ρ_s[o_j+β, o_a+ν] in column ν for the
        // p-th kept slot, the slot of atom j; a neighbour outside the region
        // has no density.
        let set = |s: usize| &rho[s * 4 * kept.len()..][..4 * kept.len()];
        let at = |slot: usize| 4 * kept.binary_search(&slot).expect("a kept slot");
        let blocks = slots
            .iter()
            .map(|slot| {
                std::array::from_fn(|s| match slot {
                    Some(sj) => std::array::from_fn(|beta| set(s)[at(*sj) + beta]),
                    None => [[0.0; 4]; 4],
                })
            })
            .collect();
        // The band term reads the centre's block row, whose columns are kept.
        let mut x = vec![[0.0; 4]; self.region.padded_len()];
        let band = std::array::from_fn(|s| {
            for (p, &slot) in kept.iter().enumerate() {
                x[4 * slot..4 * slot + 4].copy_from_slice(&set(s)[4 * p..4 * p + 4]);
            }
            self.region.block_row_trace(self.row0, &x)
        });
        AtomPass {
            band,
            neighbor_atoms,
            blocks,
        }
    }
}

/// Per-atom output of a pass with an expansion about `g`: the [`SETS`]
/// sets `∂ˢρ/∂μˢ / s!` at `g` of its band term and bond blocks, until
/// [`AtomPass::at`] folds them into the first.
#[derive(Default)]
pub(crate) struct AtomPass {
    /// Band-energy contribution Σ_ν (ρ column_ν · H column_ν) of each set.
    band: [f64; SETS],
    /// Distinct neighbour atoms, ascending, and for the e-th of them
    /// `blocks[e][s][beta][alpha] = ρ_s[o_j+β, o_i+α]`.
    neighbor_atoms: Vec<usize>,
    blocks: Vec<[Block4; SETS]>,
}

impl AtomPass {
    /// ρ at `μ = g + delta` (Horner in `delta`), into the first set; returns
    /// this atom's band term there.
    pub(crate) fn at(&mut self, delta: f64) -> f64 {
        let series = |x: [f64; SETS]| x.iter().rev().fold(0.0, |acc, &x| acc * delta + x);
        for sets in &mut self.blocks {
            let entry = |r: usize, c: usize| series(std::array::from_fn(|s| sets[s][r][c]));
            sets[0] = std::array::from_fn(|r| std::array::from_fn(|c| entry(r, c)));
        }
        self.band[0] = series(self.band);
        self.band[0]
    }

    /// The `(μ, ν)` reader of `ρ_ij` for neighbour atom `j` of this atom
    /// `i`: `ρ_ij[μ][ν] = block[ν][μ]` (atom i's columns hold
    /// `ρ[o_j+β, o_i+α]`) — what [`bond_force`] contracts.
    pub(crate) fn block(&self, j: usize) -> impl Fn(usize, usize) -> f64 + '_ {
        let e = self
            .neighbor_atoms
            .binary_search(&j)
            .expect("neighbour present");
        let block = &self.blocks[e][0];
        move |mu, nu| block[nu][mu]
    }
}

impl LinearScalingTb<'_> {
    /// The O(N) evaluation of rank `c` of its handle's ranks, the one body
    /// both engines run: neighbours, the block `H` and the [`window`] →
    /// the regions of the rank's [`Collectives::share`] of the atoms → one
    /// pass over them in [`MOMENT_CHUNK`] chunks on [`team::map`], at the
    /// grid point of `last_mu` (the last evaluation's μ) first → the moment
    /// allreduce (tag 301) and [`settle`], again at μ's grid point if that
    /// was not it → ρ carried to μ → the rank's forces, the band and
    /// repulsive energy allreduce (302) and the force gather (303). Rank 0
    /// gets the evaluation and the report; its region and matvec counts are
    /// the rank's own.
    pub(crate) fn evaluate_on<C: Collectives>(
        &self,
        c: &mut C,
        s: &Structure,
        ws: &mut Workspace,
        last_mu: Option<f64>,
    ) -> Result<Option<(ForceEvaluation, LinScaleReport)>, TbError> {
        let (model, kt, r_loc) = (self.model, self.kt, self.r_loc);
        let mut timings = PhaseTimings::default();
        prologue(c, model, s, ws, &mut timings);
        let nl = ws.neighbors.list();
        let index = OrbitalIndex::new(s);
        ws.bonds.fill(model, nl);
        let h = SparseH::assemble(s, nl, model, &ws.bonds, &index);
        // The window is chosen once (μ enters only through coefficients).
        let first = (self.window)(&h, kt, self.order);
        // Localization regions, one per atom (shared by its 4 columns).
        let atoms = c.share(s.n_atoms());
        ws.regions.update(s, r_loc);
        let regions: Vec<AtomRegion> = atoms
            .clone()
            .map(|a| AtomRegion::new(s, &h, &ws.regions, a, r_loc))
            .collect();
        timings.hamiltonian = c.lap(Phase::Hamiltonian, &mut timings.communication);

        let width = team::width();
        let n_electrons = s.n_electrons() as f64;
        let (mut next, mut passes) = ((first, last_mu.map(|mu| grid_point(mu, kt))), 0);
        let (win, g, fermi, mut passed) = loop {
            let (w, g) = next;
            let e = g.map(|g| Expansion::new(w, g, kt));
            let chunks = team::map(width, regions.len().div_ceil(MOMENT_CHUNK), |k| {
                let mut moments = vec![0.0; w.order];
                let chunk = regions.chunks(MOMENT_CHUNK).nth(k).expect("a chunk");
                let passed: Vec<AtomPass> = chunk
                    .iter()
                    .map(|region| region.pass(nl, w, e.as_ref(), &mut moments))
                    .collect();
                (moments, passed)
            });
            passes += 1;
            timings.density += c.lap(Phase::Density, &mut timings.communication);
            let (mut moments, mut passed) = (vec![0.0; w.order], Vec::with_capacity(regions.len()));
            for (m, chunk) in chunks {
                moments.iter_mut().zip(&m).for_each(|(x, y)| *x += y);
                passed.extend(chunk);
            }
            c.allreduce_sum(301, &mut moments);
            let settled = settle(w, g, &moments, &h, self.order, kt, n_electrons);
            timings.diagonalize += c.lap(Phase::Diagonalize, &mut timings.communication);
            match settled {
                Ok(fermi) => break (w, g.expect("settled at a grid point"), fermi, passed),
                Err(rerun) => next = rerun,
            }
        };
        let band: f64 = passed.iter_mut().map(|a| a.at(fermi.mu - g)).sum();
        timings.diagonalize += c.lap(Phase::Diagonalize, &mut timings.communication);
        // `passes` passes of order − 1 steps, one matvec per orbital column
        // each.
        let steps = passes * (win.order - 1);
        let total_matvec_ops: u64 = regions.iter().map(|r| r.step_ops(steps)).sum();
        let orbitals: usize = atoms.clone().map(|a| s.species(a).n_orbitals()).sum();
        tbmd_trace::add(Counter::ChebyshevMatvecs, (orbitals * steps) as u64);
        tbmd_trace::add(Counter::KernelFlops, 2 * total_matvec_ops);

        c.count_flops(2 * total_matvec_ops);

        // ---- Forces: electronic from local ρ blocks + repulsive gather.
        let start = atoms.start;
        let (forces, rep) = bond_forces(c, nl, &ws.bonds, atoms, |i, j| passed[i - start].block(j));
        let mut energy = vec![band, rep];
        c.allreduce_sum(302, &mut energy);
        let forces = c.gather_forces(303, forces);
        timings.forces = c.lap(Phase::Forces, &mut timings.communication);
        let report = LinScaleReport {
            mu: fermi.mu,
            electron_count: fermi.electron_count,
            entropy_term: fermi.entropy_term,
            total_region_orbitals: regions.iter().map(|r| r.region.len()).sum(),
            region_bytes: regions.iter().map(|r| r.region.bytes()).sum(),
            total_matvec_ops,
            passes,
            window: win,
        };
        let energy = energy[0] + energy[1] + fermi.entropy_term;
        let eval = |forces| ForceEvaluation {
            energy,
            forces,
            timings,
        };
        Ok(forces.map(|forces| (eval(forces), report)))
    }
}

impl ForceProvider for LinearScalingTb<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.evaluate_with(s, &mut Workspace::new())
    }

    /// The O(N) body (`LinearScalingTb::evaluate_on`) on one rank
    /// ([`Solo`]). Only the neighbour machinery and the region candidates
    /// are amortized in `ws` (the Chebyshev recurrence buffers are per-atom
    /// and per-thread); both are bit for bit a fresh build, so results are
    /// identical to the cold path.
    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        validate(self.model, s)?;
        // O(N) path: no dense eigenpairs ever land in this workspace.
        ws.dense_cache = DenseCache::None;
        let last_mu = self.last_report().map(|r| r.mu);
        let (eval, report) = self
            .evaluate_on(&mut Solo::start(), s, ws, last_mu)?
            .expect("a lone rank gathers every force");
        *self
            .last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(report);
        Ok(eval)
    }

    fn provider_name(&self) -> &str {
        "linear-scaling-tb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbmd_linalg::Vec3;
    use tbmd_model::{silicon_gsp, OccupationScheme, TbCalculator};
    use tbmd_structure::{bulk_diamond, Species};

    /// Dense reference with the same smearing, returning the full Mermin
    /// energy band + rep − T_e S (the O(N) engine's energy definition).
    fn dense_reference(s: &Structure, model: &dyn TbModel, kt: f64) -> (f64, Vec<Vec3>) {
        let calc = TbCalculator::with_occupation(model, OccupationScheme::Fermi { kt });
        let r = calc.compute(s).unwrap();
        (
            r.band_energy + r.repulsive_energy + r.entropy_term,
            r.forces,
        )
    }

    #[test]
    fn untruncated_matches_dense_energy_and_forces() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(19);
        s.perturb(&mut rng, 0.06);
        let kt = 0.3;
        let (e_ref, f_ref) = dense_reference(&s, &model, kt);
        let engine = LinearScalingTb::new(&model).with_kt(kt).with_order(400);
        let eval = engine.evaluate(&s).unwrap();
        assert!(
            (eval.energy - e_ref).abs() < 5e-3,
            "energy {} vs dense {}",
            eval.energy,
            e_ref
        );
        for (i, (fa, fb)) in eval.forces.iter().zip(&f_ref).enumerate() {
            assert!(
                (*fa - *fb).max_abs() < 5e-3,
                "force mismatch atom {i}: {fa:?} vs {fb:?}"
            );
        }
        let report = engine.last_report().unwrap();
        assert!((report.electron_count - s.n_electrons() as f64).abs() < 1e-6);
    }

    #[test]
    fn truncation_error_decreases_with_radius() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let kt = 0.3;
        let (e_ref, _) = dense_reference(&s, &model, kt);
        let err_at = |r_loc: f64| -> f64 {
            let engine = LinearScalingTb::new(&model)
                .with_kt(kt)
                .with_order(250)
                .with_r_loc(r_loc);
            (engine.evaluate(&s).unwrap().energy - e_ref).abs() / s.n_atoms() as f64
        };
        // Measured decay for this gapped crystal: ≈0.79 → 0.45 → 0.28 →
        // 0.03 eV/atom at r_loc = 3.0/4.0/5.2/6.5 Å — the slow-but-steady
        // absolute-energy convergence characteristic of density-matrix
        // truncation (forces converge much faster, which is why the method
        // was usable for MD).
        let coarse = err_at(3.0);
        let mid = err_at(5.2);
        let fine = err_at(6.5);
        assert!(
            mid < coarse && fine < mid,
            "error must shrink with radius: {coarse} / {mid} / {fine}"
        );
        assert!(fine < 0.08, "per-atom error {fine} eV too large at 6.5 Å");
    }

    #[test]
    fn truncated_regions_are_smaller_and_cheaper() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let full = LinearScalingTb::new(&model).with_order(64);
        full.evaluate(&s).unwrap();
        let rep_full = full.last_report().unwrap();
        let trunc = LinearScalingTb::new(&model).with_order(64).with_r_loc(4.0);
        trunc.evaluate(&s).unwrap();
        let rep_trunc = trunc.last_report().unwrap();
        assert!(rep_trunc.total_region_orbitals < rep_full.total_region_orbitals);
        assert!(rep_trunc.total_matvec_ops < rep_full.total_matvec_ops);
    }

    #[test]
    fn cost_scales_linearly_at_fixed_radius() {
        // Ops per atom must be (nearly) size-independent — the O(N) claim —
        // also at the benchmark's radius from Si-64 (whose 6 Å regions wrap
        // onto themselves) to Si-512. Ops are ∝ order, so a short expansion
        // gives the same ratio.
        let model = silicon_gsp();
        let per_atom = |r_loc: f64, reps: usize| -> f64 {
            let s = bulk_diamond(Species::Silicon, reps, reps, reps);
            let e = LinearScalingTb::new(&model)
                .with_order(32)
                .with_r_loc(r_loc);
            e.evaluate(&s).unwrap();
            e.last_report().unwrap().total_matvec_ops as f64 / s.n_atoms() as f64
        };
        for (r_loc, large) in [(4.0, 3), (6.0, 4)] {
            let (small, large) = (per_atom(r_loc, 2), per_atom(r_loc, large));
            assert!(
                (0.8..1.25).contains(&(large / small)),
                "per-atom cost not flat at r_loc {r_loc}: {small} vs {large}"
            );
        }
    }

    #[test]
    fn benchmark_settings_stay_within_20_mev_per_atom_of_dense_at_si216() {
        // Order 350, r_loc 6.0 Å, kT 0.2 eV: the `si216-linscale-nve`
        // workload, whose gate is 20 meV/atom (≈ 12.5 measured).
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 3, 3, 3);
        s.perturb(&mut StdRng::seed_from_u64(7), 0.02);
        let engine = LinearScalingTb::new(&model).with_r_loc(6.0);
        assert_eq!((engine.order, engine.kt), (350, 0.2));
        let (e_ref, _) = dense_reference(&s, &model, engine.kt);
        let err = (engine.evaluate(&s).unwrap().energy - e_ref).abs() / s.n_atoms() as f64;
        assert!(err <= 0.020, "{:.2} meV/atom", err * 1e3);
    }

    #[test]
    fn a_window_that_misses_the_spectrum_falls_back_to_gershgorin() {
        // The window with its lower end 1 eV above the lowest Lanczos bound
        // (past the margin and the pad) leaves the lowest states outside:
        // the even moments blow up, and both engines rerun the moment pass
        // on the Gershgorin window at the ceiling order.
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        s.perturb(&mut StdRng::seed_from_u64(31), 0.05);
        let with_window = |window: fn(&SparseH, f64, usize) -> Window| {
            let mut engine = LinearScalingTb::new(&model).with_r_loc(6.0);
            engine.window = window;
            engine
        };
        let shrunk = with_window(|h, kt, cap| {
            let (w, lo) = (window(h, kt, cap), h.lanczos_bounds().unwrap().0 + 1.0);
            let hi = w.bounds().1;
            let (shift, scale) = (0.5 * (hi + lo), 0.5 * (hi - lo));
            Window { shift, scale, ..w }
        });
        let gershgorin = with_window(|h, _, cap| Window::gershgorin(h, cap));
        let lanczos = with_window(window);
        let tripped = shrunk.evaluate(&s).unwrap();
        let fallback = gershgorin.evaluate(&s).unwrap();
        let reference = lanczos.evaluate(&s).unwrap();
        assert_eq!(tripped.energy.to_bits(), fallback.energy.to_bits());
        for (a, b) in tripped.forces.iter().zip(&fallback.forces) {
            assert_eq!(
                a.to_array().map(f64::to_bits),
                b.to_array().map(f64::to_bits)
            );
        }
        let (report, gersh) = (shrunk.last_report().unwrap(), gershgorin.last_report());
        assert_eq!(report.window, gersh.unwrap().window);
        assert_eq!(report.window.order, 350);
        let ran = lanczos.last_report().unwrap().window.order;
        assert!(ran < 200, "the Lanczos window runs {ran} steps");
        let gap = (tripped.energy - reference.energy).abs() / s.n_atoms() as f64;
        assert!(gap < 1e-4, "{:.4} meV/atom from the reference", gap * 1e3);

        let dist = crate::DistributedLinearScalingTb::new(shrunk, 2);
        let on_ranks = dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().window.order, 350);
        assert!((on_ranks.energy - fallback.energy).abs() < 1e-12);
        for (a, b) in on_ranks.forces.iter().zip(&fallback.forces) {
            assert!((*a - *b).max_abs() < 1e-12);
        }
    }

    #[test]
    fn the_pass_keeps_the_full_tail_bits_on_the_bond_rows_and_the_moments_at_any_g() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        s.perturb(&mut StdRng::seed_from_u64(23), 0.05);
        let nl = NeighborList::build(&s, model.cutoff());
        let index = OrbitalIndex::new(&s);
        let h = SparseH::build(&s, &nl, &model, &index);
        let w = window(&h, 0.2, 120);
        let mut e = Expansion::new(w, 0.0, 0.2);
        e.weights = (0..w.order)
            .map(|k| std::array::from_fn(|s| (1.0 - 0.4 * s as f64) / (1 + k) as f64))
            .collect();
        let mut candidates = KeptCandidates::default();
        candidates.update(&s, 6.0);
        let bits = |b: &Block4| b.map(|r| r.map(f64::to_bits));
        let moment_bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for atom in [0, 17, 63] {
            let region = AtomRegion::new(&s, &h, &candidates, atom, 6.0);
            let every: Vec<usize> = (0..region.region.padded_len() / 4).collect();
            let mut moments = [0, 1, 2].map(|_| vec![0.0; w.order]);
            let [full_m, masked_m, plain_m] = &mut moments;
            let full = region.recurrence(w).pass(full_m, Some((&e, &every[..])));
            let masked = region.pass(&nl, w, Some(&e), masked_m);
            region.pass(&nl, w, None, plain_m);
            assert_eq!(moment_bits(masked_m), moment_bits(full_m));
            assert_eq!(moment_bits(plain_m), moment_bits(full_m));
            let full = full.unwrap();
            for (set, full) in full.chunks(region.region.padded_len()).enumerate() {
                let band = region.region.block_row_trace(region.row0, full);
                assert_eq!(masked.band[set].to_bits(), band.to_bits(), "atom {atom}");
                for (e, &j) in masked.neighbor_atoms.iter().enumerate() {
                    let rj = region.region.local_index(index.offset(j)).unwrap();
                    let want: Block4 = std::array::from_fn(|beta| full[rj + beta]);
                    let got = &masked.blocks[e][set];
                    assert_eq!(bits(got), bits(&want), "atom {atom}, {j}, set {set}");
                }
            }
        }
    }

    #[test]
    fn rejects_unsupported_and_empty() {
        let model = silicon_gsp();
        let carbon = tbmd_structure::dimer(Species::Carbon, 1.4);
        let empty =
            Structure::homogeneous(Species::Silicon, vec![], tbmd_structure::Cell::cluster());
        let engines: [&dyn ForceProvider; 2] = [
            &LinearScalingTb::new(&model),
            &crate::DistributedLinearScalingTb::new(LinearScalingTb::new(&model), 2),
        ];
        for engine in engines {
            let name = engine.provider_name();
            assert!(
                matches!(
                    engine.evaluate(&carbon),
                    Err(TbError::UnsupportedSpecies { .. })
                ),
                "{name}"
            );
            assert!(
                matches!(engine.evaluate(&empty), Err(TbError::EmptyStructure)),
                "{name}"
            );
        }
    }

    #[test]
    fn provider_name() {
        let model = silicon_gsp();
        assert_eq!(
            LinearScalingTb::new(&model).provider_name(),
            "linear-scaling-tb"
        );
    }
}

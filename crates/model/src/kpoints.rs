//! Brillouin-zone sampling: total energies and forces from a k-point grid.
//!
//! Γ-point-only supercell calculations (what the MD engines use) carry a
//! finite-size error that dies off slowly with cell size; sampling the
//! primitive cell's Brillouin zone instead converges with a handful of
//! k-points. This module provides Monkhorst–Pack and supercell-folding
//! grids, a k-sampled [`KPointCalculator`] (a full [`ForceProvider`]), and
//! the complex density-matrix machinery built on the real `2n×2n`
//! Hermitian embedding from [`crate::bands`].
//!
//! Two identities anchor correctness (both tested):
//! * a Γ-only grid reproduces the Γ calculator exactly;
//! * the **band-folding identity**: the energy per atom of a primitive cell
//!   sampled on the `n×n×n` folding grid equals the Γ-point energy per atom
//!   of the `n×n×n` supercell to round-off.

use crate::bands::bloch_hamiltonian_into;
use crate::calculator::{repulsive_energy_forces, PhaseTimings, TbError};
use crate::hamiltonian::OrbitalIndex;
use crate::model::TbModel;
use crate::occupations::{fermi_entropy, fermi_occ, OccupationScheme};
use crate::provider::{ForceEvaluation, ForceProvider};
use crate::stages::{bond_contraction, entropy_term, epilogue, prologue, validate};
use crate::workspace::{DenseCache, KPointSlot, Workspace};
use std::time::{Duration, Instant};
use tbmd_linalg::{eigh_into, Matrix, Vec3};
use tbmd_structure::Structure;
use tbmd_trace::Phase;

/// The phases clocked inside the per-k fan-out and fed to the trace
/// registry once per evaluation (neighbours run under a span of their own).
const PER_K_PHASES: [Phase; 4] = [
    Phase::Hamiltonian,
    Phase::Diagonalize,
    Phase::Density,
    Phase::Forces,
];

/// A k-point with its quadrature weight (weights sum to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KPoint {
    /// Cartesian wave vector (Å⁻¹).
    pub k: Vec3,
    /// Weight in the BZ average.
    pub weight: f64,
}

/// Monkhorst–Pack grid for an orthorhombic cell: fractional coordinates
/// `u_r = (2r − q − 1)/(2q)`, `r = 1..q` per periodic axis.
pub fn monkhorst_pack(s: &Structure, q: [usize; 3]) -> Vec<KPoint> {
    grid_from_fractions(
        s,
        q,
        |r, qa| (2.0 * r as f64 - qa as f64 - 1.0) / (2.0 * qa as f64),
        1,
    )
}

/// Supercell-folding grid: `u_r = r/n`, `r = 0..n-1` — exactly the k-set a
/// Γ-point calculation of the `n`-fold supercell samples implicitly.
pub fn folding_grid(s: &Structure, n: [usize; 3]) -> Vec<KPoint> {
    grid_from_fractions(s, n, |r, na| r as f64 / na as f64, 0)
}

fn grid_from_fractions(
    s: &Structure,
    q: [usize; 3],
    frac: impl Fn(usize, usize) -> f64,
    start: usize,
) -> Vec<KPoint> {
    let lengths = s.cell().lengths;
    let recip = |axis: usize| -> f64 {
        if s.cell().periodic[axis] {
            2.0 * std::f64::consts::PI / lengths[axis]
        } else {
            0.0
        }
    };
    let counts: [usize; 3] =
        std::array::from_fn(|a| if s.cell().periodic[a] { q[a].max(1) } else { 1 });
    let total = (counts[0] * counts[1] * counts[2]) as f64;
    let mut points = Vec::with_capacity(total as usize);
    for rx in start..start + counts[0] {
        for ry in start..start + counts[1] {
            for rz in start..start + counts[2] {
                let k = Vec3::new(
                    if s.cell().periodic[0] {
                        frac(rx, counts[0]) * recip(0)
                    } else {
                        0.0
                    },
                    if s.cell().periodic[1] {
                        frac(ry, counts[1]) * recip(1)
                    } else {
                        0.0
                    },
                    if s.cell().periodic[2] {
                        frac(rz, counts[2]) * recip(2)
                    } else {
                        0.0
                    },
                );
                points.push(KPoint {
                    k,
                    weight: 1.0 / total,
                });
            }
        }
    }
    points
}

/// Build the real `2n×2n` Hermitian embedding `M = [[A,−B],[B,A]]` of
/// `A + iB` into a reusable buffer. Every real eigenvector `(u; v)` of `M`
/// maps to a complex eigenvector `u + iv`, each physical state appearing
/// twice in the sorted embedded spectrum. Returns `true` if the buffer grew.
fn embed_hermitian(a: &Matrix, b: &Matrix, m: &mut Matrix) -> bool {
    let n = a.rows();
    let grew = m.resize_zeroed(2 * n, 2 * n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = a[(i, j)];
            m[(n + i, n + j)] = a[(i, j)];
            m[(i, n + j)] = -b[(i, j)];
            m[(n + i, j)] = b[(i, j)];
        }
    }
    grew
}

/// k-sampled tight-binding calculator (energies + forces). Fermi smearing is
/// required: a shared chemical potential couples the k-points.
///
/// The per-k solves and density/force builds are independent (each touches
/// only its own [`KPointSlot`]), so they fan out across the thread team by
/// default; energies and forces are reduced serially in grid order either
/// way, making the parallel sweep bitwise identical to the serial one.
pub struct KPointCalculator<'m> {
    model: &'m dyn TbModel,
    /// Sampling grid.
    pub kpoints: Vec<KPoint>,
    /// Electronic temperature (eV), > 0.
    pub kt: f64,
    /// Fan the per-k work out across threads (on by default).
    pub parallel: bool,
}

impl<'m> KPointCalculator<'m> {
    /// Build from an explicit grid.
    pub fn new(model: &'m dyn TbModel, kpoints: Vec<KPoint>, kt: f64) -> Self {
        assert!(!kpoints.is_empty(), "need at least one k-point");
        assert!(kt > 0.0, "k-sampling requires Fermi smearing");
        let wsum: f64 = kpoints.iter().map(|k| k.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9, "k-point weights must sum to 1");
        KPointCalculator {
            model,
            kpoints,
            kt,
            parallel: true,
        }
    }

    /// Toggle the per-k thread fan-out (results are bitwise identical
    /// either way; serial mode exists for profiling and pinning tests).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Weighted Fermi level for the combined spectrum held in the per-k
    /// workspace slots.
    fn fermi_level(&self, slots: &[KPointSlot], n_electrons: usize) -> f64 {
        let count = |mu: f64| -> f64 {
            slots
                .iter()
                .zip(&self.kpoints)
                .map(|(slot, kp)| {
                    kp.weight
                        * 2.0
                        * slot
                            .values
                            .iter()
                            .map(|&e| fermi_occ((e - mu) / self.kt))
                            .sum::<f64>()
                })
                .sum()
        };
        let lo0 = slots
            .iter()
            .flat_map(|slot| slot.values.iter())
            .cloned()
            .fold(f64::INFINITY, f64::min)
            - 30.0 * self.kt;
        let hi0 = slots
            .iter()
            .flat_map(|slot| slot.values.iter())
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            + 30.0 * self.kt;
        let (mut lo, mut hi) = (lo0, hi0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if count(mid) < n_electrons as f64 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Run `f` over each (k-point, slot) pair — across the thread team, as wide
/// as the compute lease, when `parallel`, on the calling thread otherwise —
/// and hand the per-k outputs back in grid order either way. Each call owns
/// its slot exclusively, so scheduling cannot change any result bit. The
/// actual launch shape is the shared [`tbmd_linalg::batch_map`] used by every
/// batched dense solve (per-k here, per-spectrum-shard in inverse
/// iteration).
fn fan_out<T, F>(parallel: bool, kpoints: &[KPoint], slots: &mut [KPointSlot], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&KPoint, &mut KPointSlot) -> T + Sync,
{
    let mut jobs: Vec<(KPoint, &mut KPointSlot)> =
        kpoints.iter().copied().zip(slots.iter_mut()).collect();
    let width = if parallel {
        tbmd_linalg::team::width()
    } else {
        1
    };
    tbmd_linalg::batch_map(width, &mut jobs, |_, (kp, slot)| f(kp, slot))
}

impl ForceProvider for KPointCalculator<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.evaluate_with(s, &mut Workspace::new())
    }

    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        validate(self.model, s)?;
        // Eigenvectors live in the per-k embedded slots, not the dense cache.
        ws.dense_cache = DenseCache::None;
        let mut timings = PhaseTimings::default();
        prologue(self.model, s, ws, &mut timings);
        let nl = ws.neighbors.list();
        let index = OrbitalIndex::new(s);
        let n = index.total();
        let lengths = s.cell().lengths;

        let kws = &mut ws.kspace;
        let mut grew = 0usize;
        while kws.slots.len() < self.kpoints.len() {
            kws.slots.push(KPointSlot::default());
            grew += 1;
        }
        let slots = &mut kws.slots[..self.kpoints.len()];

        // Pass 1: one Bloch build + one embedded eigen-solve per k (the
        // solve leaves the embedded eigenvectors in `slot.m`, so pass 2
        // never re-diagonalizes). Each k touches only its own slot, so the
        // sweep fans out across threads; per-slot growth counts and phase
        // durations come back with the result and are folded in serially.
        let solve_one = |kp: &KPoint,
                         slot: &mut KPointSlot|
         -> Result<(usize, Duration, Duration), TbError> {
            let mut grew = 0usize;
            let mut mark = Instant::now();
            grew +=
                bloch_hamiltonian_into(s, nl, self.model, &index, kp.k, &mut slot.a, &mut slot.b)
                    as usize;
            let t_hamiltonian = mark.elapsed();
            mark = Instant::now();
            grew += embed_hermitian(&slot.a, &slot.b, &mut slot.m) as usize;
            eigh_into(&mut slot.m, &mut slot.values2, &mut slot.eigh)
                .map_err(TbError::Eigensolver)?;
            // Sorted embedded pairs: every second value is one physical state.
            slot.values.clear();
            slot.values.extend(slot.values2.iter().step_by(2));
            Ok((grew, t_hamiltonian, mark.elapsed()))
        };
        let solved = fan_out(self.parallel, &self.kpoints, slots, solve_one);
        for out in solved {
            let (g, t_h, t_d) = out?;
            grew += g;
            timings.hamiltonian += t_h;
            timings.diagonalize += t_d;
        }
        let mu = self.fermi_level(slots, s.n_electrons());

        // Pass 2: per-k occupations, density matrices and forces from the
        // stored embedded eigenvectors, again slot-local and fanned out.
        // Band/entropy terms and per-atom forces accumulate inside the slot
        // and are reduced below in grid order, so the parallel sweep is
        // bitwise identical to the serial one.
        let density_one =
            |kp: &KPoint, slot: &mut KPointSlot| -> (usize, f64, f64, Duration, Duration) {
                let mut grew = 0usize;
                let mut mark = Instant::now();
                slot.f.clear();
                slot.f
                    .extend(slot.values.iter().map(|&e| fermi_occ((e - mu) / self.kt)));
                let band = kp.weight
                    * 2.0
                    * slot
                        .f
                        .iter()
                        .zip(&slot.values)
                        .map(|(fk, e)| fk * e)
                        .sum::<f64>();
                let entropy = kp.weight * fermi_entropy(&slot.f);
                // Real projector over both members of each embedded pair —
                // degeneracy-safe: any orthonormal basis of a degenerate
                // eigenspace yields the same projector. Occupied columns only:
                // P = [[Re ρ, −Im ρ], [Im ρ, Re ρ]] (×2 spin folded into f).
                let occupied: Vec<usize> = (0..2 * n).filter(|&c| slot.f[c / 2] > 1e-14).collect();
                grew += slot.w.resize_zeroed(2 * n, occupied.len()) as usize;
                for (wcol, &col) in occupied.iter().enumerate() {
                    let scale = (2.0 * slot.f[col / 2]).sqrt();
                    for rix in 0..2 * n {
                        slot.w[(rix, wcol)] = scale * slot.m[(rix, col)];
                    }
                }
                grew += slot.w.syrk_reuse(&mut slot.p, true) as usize;
                grew += slot.re.resize_zeroed(n, n) as usize;
                grew += slot.im.resize_zeroed(n, n) as usize;
                for i in 0..n {
                    for j in 0..n {
                        // Average the redundant blocks for round-off symmetry.
                        slot.re[(i, j)] = 0.5 * (slot.p[(i, j)] + slot.p[(n + i, n + j)]);
                        slot.im[(i, j)] = 0.5 * (slot.p[(n + i, j)] - slot.p[(i, n + j)]);
                    }
                }
                let t_density = mark.elapsed();
                mark = Instant::now();
                // Forces: F_i += 2 w_k Σ_entries Σ_{μν} Re{ρ*_{(oi+μ)(oj+ν)} e^{ik·T}} G_γ[μν].
                slot.force.clear();
                slot.force.resize(s.n_atoms(), Vec3::ZERO);
                for (i, fo) in slot.force.iter_mut().enumerate() {
                    let oi = index.offset(i);
                    let mut fi = Vec3::ZERO;
                    for nb in nl.neighbors(i).iter().filter(|nb| nb.j != i) {
                        let t = Vec3::new(
                            nb.shift[0] as f64 * lengths.x,
                            nb.shift[1] as f64 * lengths.y,
                            nb.shift[2] as f64 * lengths.z,
                        );
                        let phase = kp.k.dot(t);
                        let (cp, sp) = (phase.cos(), phase.sin());
                        let oj = index.offset(nb.j);
                        // Re{ρ* e^{ikT}} = Re ρ·cos + Im ρ·sin.
                        let rho_eff = |mu: usize, nu: usize| {
                            slot.re[(oi + mu, oj + nu)] * cp + slot.im[(oi + mu, oj + nu)] * sp
                        };
                        if let Some(acc) = bond_contraction(self.model, nb, rho_eff) {
                            fi += acc * (2.0 * kp.weight);
                        }
                    }
                    *fo += fi;
                }
                (grew, band, entropy, t_density, mark.elapsed())
            };
        let densities = fan_out(self.parallel, &self.kpoints, slots, density_one);

        // Serial reduction in grid order: the same sequence of f64 adds no
        // matter how the per-k work was scheduled.
        let mut band = 0.0;
        let mut entropy = 0.0;
        let mut forces = vec![Vec3::ZERO; s.n_atoms()];
        for (slot, (g, b, e, t_density, t_forces)) in slots.iter().zip(densities) {
            grew += g;
            band += b;
            entropy += e;
            timings.density += t_density;
            timings.forces += t_forces;
            for (fo, fi) in forces.iter_mut().zip(&slot.force) {
                *fo += *fi;
            }
        }
        let mark = Instant::now();
        let (e_rep, rep_forces) = repulsive_energy_forces(s, nl, self.model, true);
        for (f, rf) in forces.iter_mut().zip(rep_forces.expect("forces")) {
            *f += rf;
        }
        timings.forces += mark.elapsed();
        ws.grown += grew;
        // The per-k phases were clocked inside the fan-out (summed over
        // k-points); one sample each per evaluation.
        epilogue(grew, &timings, &PER_K_PHASES);
        let entropy_term = entropy_term(OccupationScheme::Fermi { kt: self.kt }, entropy);
        Ok(ForceEvaluation {
            energy: band + e_rep + entropy_term,
            forces,
            timings,
        })
    }

    fn provider_name(&self) -> &str {
        "kpoint-tb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculator::TbCalculator;
    use crate::occupations::OccupationScheme;
    use crate::silicon::silicon_gsp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbmd_structure::{bulk_diamond, Species};

    #[test]
    fn gamma_only_grid_matches_gamma_calculator() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        s.perturb(&mut rng, 0.06);
        let gamma = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
        let kcalc = KPointCalculator::new(
            &model,
            vec![KPoint {
                k: Vec3::ZERO,
                weight: 1.0,
            }],
            0.1,
        );
        let a = gamma.evaluate(&s).unwrap();
        let b = kcalc.evaluate(&s).unwrap();
        assert!(
            (a.energy - b.energy).abs() < 1e-8,
            "{} vs {}",
            a.energy,
            b.energy
        );
        for (fa, fb) in a.forces.iter().zip(&b.forces) {
            assert!((*fa - *fb).max_abs() < 1e-8);
        }
    }

    #[test]
    fn band_folding_identity() {
        // E/atom of the primitive cell on the n³ folding grid must equal the
        // Γ-point E/atom of the n³ supercell (exact identity).
        let model = silicon_gsp();
        let primitive = bulk_diamond(Species::Silicon, 1, 1, 1);
        let supercell = bulk_diamond(Species::Silicon, 2, 2, 2);
        let grid = folding_grid(&primitive, [2, 2, 2]);
        assert_eq!(grid.len(), 8);
        let kcalc = KPointCalculator::new(&model, grid, 0.1);
        let gamma = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
        let e_k = kcalc.evaluate(&primitive).unwrap().energy / primitive.n_atoms() as f64;
        let e_super = gamma.evaluate(&supercell).unwrap().energy / supercell.n_atoms() as f64;
        assert!(
            (e_k - e_super).abs() < 1e-7,
            "folding identity violated: {e_k} vs {e_super}"
        );
    }

    #[test]
    fn kpoint_forces_match_energy_gradient() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        s.perturb(&mut rng, 0.05);
        let kcalc = KPointCalculator::new(&model, monkhorst_pack(&s, [2, 2, 2]), 0.1);
        let eval = kcalc.evaluate(&s).unwrap();
        let h = 1e-5;
        for (i, gamma) in [(0usize, 0usize), (2, 1), (5, 2)] {
            let mut sp = s.clone();
            sp.positions_mut()[i][gamma] += h;
            let mut sm = s.clone();
            sm.positions_mut()[i][gamma] -= h;
            let fd =
                -(kcalc.energy_only(&sp).unwrap() - kcalc.energy_only(&sm).unwrap()) / (2.0 * h);
            let an = eval.forces[i][gamma];
            assert!(
                (fd - an).abs() < 3e-4 * (1.0 + an.abs()),
                "k-sampled force mismatch atom {i} comp {gamma}: fd={fd}, an={an}"
            );
        }
    }

    #[test]
    fn kpoint_forces_sum_to_zero() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(5);
        s.perturb(&mut rng, 0.08);
        let kcalc = KPointCalculator::new(&model, monkhorst_pack(&s, [2, 2, 2]), 0.1);
        let eval = kcalc.evaluate(&s).unwrap();
        let net: Vec3 = eval.forces.iter().copied().sum();
        assert!(net.max_abs() < 1e-7, "net force {net:?}");
    }

    /// The thread fan-out must not change a single bit: per-k work is
    /// slot-local and the reduction runs in grid order either way.
    #[test]
    fn parallel_fan_out_is_bitwise_identical_to_serial() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(7);
        s.perturb(&mut rng, 0.07);
        let grid = monkhorst_pack(&s, [2, 2, 2]);
        let par = KPointCalculator::new(&model, grid.clone(), 0.1);
        let ser = KPointCalculator::new(&model, grid, 0.1).with_parallel(false);
        assert!(par.parallel && !ser.parallel);
        let a = par.evaluate(&s).unwrap();
        let b = ser.evaluate(&s).unwrap();
        assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "energy diverged");
        for (fa, fb) in a.forces.iter().zip(&b.forces) {
            for gamma in 0..3 {
                assert_eq!(
                    fa[gamma].to_bits(),
                    fb[gamma].to_bits(),
                    "force bit diverged"
                );
            }
        }
    }

    #[test]
    fn mp_grid_properties() {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let grid = monkhorst_pack(&s, [3, 2, 1]);
        assert_eq!(grid.len(), 6);
        let wsum: f64 = grid.iter().map(|k| k.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-12);
        // MP grids are symmetric about Γ: the summed k vanishes.
        let ksum: Vec3 = grid.iter().map(|k| k.k).sum();
        assert!(ksum.max_abs() < 1e-12);
    }

    #[test]
    fn kpoint_sampling_converges_faster_than_gamma() {
        // Primitive cell + 2³ MP grid should land closer to the converged
        // bulk energy than the raw Γ-point value of the same cell.
        let model = silicon_gsp();
        let primitive = bulk_diamond(Species::Silicon, 1, 1, 1);
        let reference = {
            // 3×3×3 folding grid on the primitive cell = 27-point folding of
            // the 216-atom supercell: effectively converged.
            let grid = folding_grid(&primitive, [3, 3, 3]);
            KPointCalculator::new(&model, grid, 0.1)
                .evaluate(&primitive)
                .unwrap()
                .energy
                / primitive.n_atoms() as f64
        };
        let gamma_only = KPointCalculator::new(
            &model,
            vec![KPoint {
                k: Vec3::ZERO,
                weight: 1.0,
            }],
            0.1,
        )
        .evaluate(&primitive)
        .unwrap()
        .energy
            / primitive.n_atoms() as f64;
        let mp2 = KPointCalculator::new(&model, monkhorst_pack(&primitive, [2, 2, 2]), 0.1)
            .evaluate(&primitive)
            .unwrap()
            .energy
            / primitive.n_atoms() as f64;
        assert!(
            (mp2 - reference).abs() < (gamma_only - reference).abs(),
            "MP-2 ({mp2}) not closer to reference ({reference}) than Γ ({gamma_only})"
        );
    }

    /// A recorded run on this engine has phase histograms.
    #[test]
    fn evaluation_feeds_the_trace_registry() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let calc = KPointCalculator::new(&model, monkhorst_pack(&s, [2, 2, 2]), 0.1);
        crate::stages::assert_feeds_trace_registry(&calc, &s);
    }
}

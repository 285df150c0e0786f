//! Physics contracts at the size the benchmark runs (ROADMAP needle 3), every
//! engine built through `Engine::build`: forces are −∇E, the parallel kinds
//! agree with the serial one, the energy-only path agrees with the full
//! evaluation, no fan-out (dense, O(N)) depends on the lease width, the
//! dense engines keep ρ on the bond blocks alone, the stress tensor falls
//! out of the pipeline's own ρ, every engine evaluates each bond's radial
//! terms once, the energy, force and stress bits are pinned, the rank-control
//! block behaves the same on both distributed engines, and the O(N) engines'
//! Lanczos window contains the spectrum.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use tbmd::linalg::{eigvalsh, reduced_eigenvectors_into, team, Matrix};
use tbmd::linscale::{chebyshev::window, SparseH};
use tbmd::model::{
    bond_block_elements, build_hamiltonian, density_matrix, electronic_forces, occupations,
    repulsive_energy_forces, stress_from_density, BondTerms, DenseCache, ForceEvaluation,
    GspTbModel, Hoppings, OrbitalIndex, TbCalculator,
};
use tbmd::structure::{apply_strain, bulk_diamond, nanotube, NeighborList};
use tbmd::{
    carbon_xwch, silicon_gsp, stress_tensor, Budget, DistributedTb, Engine, EngineKind, FaultKind,
    FaultPlan, ForceProvider, OccupationScheme, Species, Structure, TbError, TbModel, Workspace,
};

const KT: f64 = 0.1;

fn perturbed_si64() -> Structure {
    let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
    s.perturb(&mut StdRng::seed_from_u64(64), 0.05);
    s
}

/// The occupied eigenvectors of the last dense evaluation in `ws` and their
/// count: all `n` columns of `ws.h` after a one-stage solve, or the `k` the
/// two-stage solve streamed into ρ, recomputed from the step's own
/// reflectors and factor.
fn occupied_vectors(ws: &mut Workspace) -> (Matrix, usize) {
    match ws.dense_cache {
        DenseCache::Sliced { occupied } => {
            let mut z = Matrix::default();
            reduced_eigenvectors_into(&ws.h, &ws.values[..occupied], &mut z, &mut ws.eigh);
            (z, occupied)
        }
        DenseCache::Full { .. } => (ws.h.clone(), ws.h.cols()),
        DenseCache::None => panic!("no dense solve in the workspace"),
    }
}

/// Run `f` under a lease of exactly `width` threads, from a budget of its
/// own.
fn leased<T>(width: usize, f: impl FnOnce() -> T) -> T {
    let lease = Budget::new(width)
        .lease(width)
        .expect("a new budget is free");
    assert_eq!(lease.threads(), width);
    lease.scoped(f)
}

/// The energy-only path against the full evaluation: the same bits where
/// both run the calculator's own spectrum stage (serial, shared), within
/// 1e-9 eV where `evaluate` is the rank-sharded spectrum and `energy_only`
/// the serial calculator (distributed).
fn assert_energy_only_is_the_evaluation(kind: EngineKind, engine: &Engine, s: &Structure, e: f64) {
    let e_only = engine.energy_only(s).unwrap();
    if matches!(kind, EngineKind::Distributed { .. }) {
        let gap = (e_only - e).abs();
        assert!(
            gap <= 1e-9,
            "{kind:?}: energy_only {e_only} vs evaluate {e}"
        );
    } else {
        assert_eq!(e_only.to_bits(), e.to_bits(), "{kind:?}: {e_only} vs {e}");
    }
}

/// Central differences on 3 atoms × 3 components, engine vs serial, and
/// energy-only vs full evaluation (also at Si-8, the one-stage side of the
/// solver crossover), for the dense kinds on perturbed Si-64.
#[test]
fn dense_kinds_hold_their_contracts_at_si64() {
    let model = silicon_gsp();
    let s = perturbed_si64();
    let mut si8 = bulk_diamond(Species::Silicon, 1, 1, 1);
    si8.perturb(&mut StdRng::seed_from_u64(8), 0.05);
    let n = s.n_atoms() as f64;
    let reference = Engine::build(EngineKind::Serial, &model, KT)
        .evaluate(&s)
        .unwrap();
    let kinds = [
        (EngineKind::Serial, 1),
        (EngineKind::Shared, 2),
        (EngineKind::Distributed { ranks: 2 }, 1),
        (EngineKind::Distributed { ranks: 3 }, 1),
    ];
    for (kind, width) in kinds {
        let engine = Engine::build(kind, &model, KT);
        let eval = leased(width, || engine.evaluate(&s)).unwrap();

        // Engine vs serial.
        let gap = (eval.energy - reference.energy).abs() / n;
        assert!(gap <= 1e-8, "{kind:?}: energy off by {gap:.3e} eV/atom");
        for (i, (f, f_ref)) in eval.forces.iter().zip(&reference.forces).enumerate() {
            let df = (*f - *f_ref).max_abs();
            assert!(df <= 1e-6, "{kind:?}: force on atom {i} off by {df:.3e}");
        }

        // Energy-only path vs the full evaluation, both sides of the
        // crossover (a fresh engine: the Si-64 replicas stay untouched).
        assert_energy_only_is_the_evaluation(kind, &engine, &s, eval.energy);
        let small = Engine::build(kind, &model, KT);
        let e8 = leased(width, || small.evaluate(&si8)).unwrap().energy;
        assert_energy_only_is_the_evaluation(kind, &small, &si8, e8);

        // Forces are −∇E (tolerance as in `calculator.rs`).
        let h = 1e-5;
        for i in [0usize, 17, 41] {
            for gamma in 0..3 {
                let energy_at = |shift: f64| {
                    let mut moved = s.clone();
                    moved.positions_mut()[i][gamma] += shift;
                    engine.energy_only(&moved).unwrap()
                };
                let fd = -(energy_at(h) - energy_at(-h)) / (2.0 * h);
                let an = eval.forces[i][gamma];
                assert!(
                    (fd - an).abs() < 2e-4 * (1.0 + an.abs()),
                    "{kind:?}: atom {i} comp {gamma}: fd={fd:.8}, analytic={an:.8}"
                );
            }
        }
    }
}

/// The O(N) kinds take the default energy-only path: the full evaluation.
#[test]
fn linear_scaling_energy_only_is_the_evaluation() {
    let model = silicon_gsp();
    let s = perturbed_si64();
    let kind = EngineKind::LinearScaling {
        r_loc: 6.0,
        order: 64,
    };
    let engine = Engine::build(kind, &model, 0.2);
    let (full, only) = leased(2, || {
        (
            engine.evaluate(&s).unwrap().energy,
            engine.energy_only(&s).unwrap(),
        )
    });
    assert_eq!(full.to_bits(), only.to_bits());
}

fn assert_same_bits(a: &ForceEvaluation, b: &ForceEvaluation) {
    assert_eq!(a.energy.to_bits(), b.energy.to_bits());
    for (fa, fb) in a.forces.iter().zip(&b.forces) {
        assert_eq!(
            fa.to_array().map(f64::to_bits),
            fb.to_array().map(f64::to_bits)
        );
    }
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits().to_le_bytes().iter().fold(h, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// The dense kinds are one pipeline: `Serial` and `Shared` under leases of
/// width 1 and 2 give the same bits, on perturbed Si-64 and on Si-8 (the
/// one-stage side of the solver crossover). The energies are the bits the
/// scatter-form pipeline of the parent commit computed, and the gather-form
/// forces are within 1e-12 eV/Å of the scatter-form reference
/// (`electronic_forces` + `repulsive_energy_forces`) on the same ρ.
#[test]
fn dense_kinds_are_one_pipeline_at_every_lease_width() {
    let model = silicon_gsp();
    let mut si8 = bulk_diamond(Species::Silicon, 1, 1, 1);
    si8.perturb(&mut StdRng::seed_from_u64(8), 0.05);
    let mut energies = Vec::new();
    for s in [perturbed_si64(), si8] {
        let runs = [
            (EngineKind::Serial, 1),
            (EngineKind::Serial, 2),
            (EngineKind::Shared, 1),
            (EngineKind::Shared, 2),
        ];
        let evals = runs.map(|(kind, width)| {
            leased(width, || Engine::build(kind, &model, KT).evaluate(&s)).unwrap()
        });
        for eval in &evals[1..] {
            assert_same_bits(&evals[0], eval);
        }
        energies.push(evals[0].energy);

        let mut ws = Workspace::new();
        TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: KT })
            .compute_with(&s, &mut ws)
            .unwrap();
        let nl = ws.neighbors.list();
        let index = OrbitalIndex::new(&s);
        let rho = ws.rho_blocks().to_dense(&index);
        let electronic = electronic_forces(&s, nl, &model, &index, &rho);
        let (_, repulsive) = repulsive_energy_forces(&s, nl, &model, true);
        let scatter = electronic
            .iter()
            .zip(repulsive.unwrap())
            .map(|(&e, r)| e + r);
        for (i, (gather, scatter)) in evals[0].forces.iter().zip(scatter).enumerate() {
            let df = (*gather - scatter).max_abs();
            assert!(df <= 1e-12, "atom {i} of {}: off by {df:.3e}", s.n_atoms());
        }
    }
    let got = fnv(energies);
    assert_eq!(got, PARENT_ENERGY_BITS, "energy bits moved: {got:#018x}");
}

/// [`fnv`] of the Si-64 and Si-8 energies above, recorded at the parent
/// commit, where the serial kind ran the scatter-form force stage, and
/// re-recorded when every dense kernel moved to one fused multiply-add per
/// term, the spectrum to the root-free rational QL and the Fermi level to a
/// Newton iteration.
const PARENT_ENERGY_BITS: u64 = 0x8cce_b086_ca5c_442e;

/// [`fnv`] of an evaluation's energy and every force component.
fn evaluation_bits(eval: &ForceEvaluation) -> u64 {
    let forces = eval.forces.iter().flat_map(|f| f.to_array());
    fnv(std::iter::once(eval.energy).chain(forces))
}

/// Energy, force and stress bits of every engine kind against those the
/// parent commit of the bond table computed: dense Si-8 (one-stage solve)
/// and perturbed Si-64 (two-stage) at lease widths 1 and 2, the (10,0)×2
/// tube on XWCH carbon, two ranks on Si-64, the O(N) engine on Si-64 alone
/// and on two ranks, and the stress tensor of strained Si-64.
#[test]
fn forces_and_stress_are_the_parent_bits() {
    let (si, carbon) = (silicon_gsp(), carbon_xwch());
    let mut si8 = bulk_diamond(Species::Silicon, 1, 1, 1);
    si8.perturb(&mut StdRng::seed_from_u64(8), 0.05);
    let si64 = perturbed_si64();
    let mut tube = nanotube(10, 0, 2, 1.42);
    tube.perturb(&mut StdRng::seed_from_u64(10), 0.03);
    let linscale = EngineKind::LinearScaling {
        r_loc: 6.0,
        order: 64,
    };
    let dist_linscale = EngineKind::DistributedLinearScaling {
        ranks: 2,
        r_loc: 6.0,
        order: 64,
    };
    let dist2 = EngineKind::Distributed { ranks: 2 };
    let runs: [(&str, EngineKind, &dyn TbModel, f64, &Structure, usize); 9] = [
        ("si8 w1", EngineKind::Serial, &si, KT, &si8, 1),
        ("si8 w2", EngineKind::Serial, &si, KT, &si8, 2),
        ("si64 w1", EngineKind::Serial, &si, KT, &si64, 1),
        ("si64 w2", EngineKind::Serial, &si, KT, &si64, 2),
        ("tube", EngineKind::Shared, &carbon, KT, &tube, 2),
        ("dist2", dist2, &si, KT, &si64, 1),
        ("linscale", linscale, &si, 0.2, &si64, 2),
        ("dist linscale", dist_linscale, &si, 0.2, &si64, 1),
        ("stress", EngineKind::Serial, &si, KT, &si64, 1),
    ];
    let got: Vec<(&str, u64)> = runs
        .into_iter()
        .map(|(name, kind, model, kt, s, width)| {
            let bits = if name == "stress" {
                let mut strained = s.clone();
                apply_strain(&mut strained, [0.02, -0.01, 0.0]);
                let occupation = OccupationScheme::Fermi { kt };
                let sigma = leased(width, || stress_tensor(&strained, model, occupation));
                fnv(sigma.unwrap().into_iter().flatten())
            } else {
                let eval = leased(width, || Engine::build(kind, model, kt).evaluate(s));
                evaluation_bits(&eval.unwrap())
            };
            (name, bits)
        })
        .collect();
    assert_eq!(got, PARENT_FORCE_BITS, "force or stress bits moved");
}

/// [`evaluation_bits`] (the stress: [`fnv`] of its nine components, row by
/// row) of each run above, recorded at the parent commit of the bond table,
/// where every stage evaluated its own radial functions per distance. The
/// two O(N) entries were re-recorded when both O(N) engines moved from the
/// Gershgorin window to the Lanczos window (`chebyshev::window`), and again
/// when their moment and density passes became one pass expanded about a μ
/// grid point. The `si64`, `tube` and `stress` entries were re-recorded when
/// the two-stage solve began adding ρ up strip by strip of eigenvectors:
/// their occupied windows span two strips. `dist2`'s shards span one each.
/// Every dense entry was re-recorded once more with [`PARENT_ENERGY_BITS`].
const PARENT_FORCE_BITS: [(&str, u64); 9] = [
    ("si8 w1", 0x8aea_27dc_f350_2840),
    ("si8 w2", 0x8aea_27dc_f350_2840),
    ("si64 w1", 0x478a_3f04_914b_2cab),
    ("si64 w2", 0x478a_3f04_914b_2cab),
    ("tube", 0x5fcb_1c52_9557_8687),
    ("dist2", 0x72f3_91c9_e150_812c),
    ("linscale", 0x09cf_e017_391d_c48f),
    ("dist linscale", 0x8270_6043_c157_d0b3),
    ("stress", 0xda9d_bfdc_e7ec_1049),
];

/// Silicon that counts its radial calls: [`TbModel::bond`] apart from the
/// per-distance methods.
struct CountingModel {
    model: GspTbModel,
    bonds: AtomicUsize,
    per_distance: AtomicUsize,
}

impl CountingModel {
    /// `(bond calls, per-distance calls)` since the last take.
    fn take(&self) -> (usize, usize) {
        let bonds = self.bonds.swap(0, Ordering::Relaxed);
        (bonds, self.per_distance.swap(0, Ordering::Relaxed))
    }
}

impl TbModel for CountingModel {
    fn name(&self) -> &str {
        "counting"
    }
    fn supports(&self, sp: Species) -> bool {
        self.model.supports(sp)
    }
    fn cutoff(&self) -> f64 {
        self.model.cutoff()
    }
    fn on_site(&self, sp: Species) -> [f64; 4] {
        self.model.on_site(sp)
    }
    fn hoppings(&self, r: f64) -> Hoppings {
        self.per_distance.fetch_add(1, Ordering::Relaxed);
        self.model.hoppings(r)
    }
    fn hoppings_deriv(&self, r: f64) -> Hoppings {
        self.per_distance.fetch_add(1, Ordering::Relaxed);
        self.model.hoppings_deriv(r)
    }
    fn repulsion(&self, r: f64) -> (f64, f64) {
        self.per_distance.fetch_add(1, Ordering::Relaxed);
        self.model.repulsion(r)
    }
    fn bond(&self, r: f64) -> BondTerms {
        self.bonds.fetch_add(1, Ordering::Relaxed);
        self.model.bond(r)
    }
    fn embedding(&self, x: f64) -> (f64, f64) {
        self.model.embedding(x)
    }
}

/// One evaluation calls the model once per neighbour-list entry per
/// replica, through `bond`, and never per distance: the dense kind on Si-8
/// and Si-64, two ranks, the O(N) engine alone and on two ranks, and the
/// stress tensor.
#[test]
fn every_bond_is_evaluated_once_per_evaluation() {
    let model = CountingModel {
        model: silicon_gsp(),
        bonds: AtomicUsize::new(0),
        per_distance: AtomicUsize::new(0),
    };
    let si8 = bulk_diamond(Species::Silicon, 1, 1, 1);
    let si64 = perturbed_si64();
    let entries = |s: &Structure| {
        let mut ws = Workspace::new();
        ws.neighbors.update(s, model.cutoff());
        ws.neighbors.list().n_entries()
    };
    let (r_loc, order) = (6.0, 32);
    let runs = [
        (EngineKind::Serial, &si8, 1),
        (EngineKind::Serial, &si64, 1),
        (EngineKind::Distributed { ranks: 2 }, &si64, 2),
        (EngineKind::LinearScaling { r_loc, order }, &si64, 1),
        (
            EngineKind::DistributedLinearScaling {
                ranks: 2,
                r_loc,
                order,
            },
            &si64,
            2,
        ),
    ];
    for (kind, s, replicas) in runs {
        let engine = Engine::build(kind, &model, KT);
        model.take();
        for _ in 0..2 {
            leased(2, || engine.evaluate(s)).unwrap();
            assert_eq!(model.take(), (replicas * entries(s), 0), "{kind:?}");
        }
    }
    let occupation = OccupationScheme::Fermi { kt: KT };
    stress_tensor(&si64, &model, occupation).unwrap();
    assert_eq!(model.take(), (entries(&si64), 0), "stress tensor");
}

/// So do the O(N) engine's: an atom's recurrence sums in an order of its
/// own and the atoms are combined in atom order, whichever thread ran them.
/// The message-passing engine deals the atoms to ranks and allreduces the
/// moments and the energy, and agrees to the 1e-12 its own tests hold it to.
#[test]
fn linear_scaling_is_bitwise_independent_of_the_lease_width() {
    let model = silicon_gsp();
    let s = perturbed_si64();
    let (r_loc, order) = (6.0, 64);
    let engine = Engine::build(EngineKind::LinearScaling { r_loc, order }, &model, 0.2);
    let wide = leased(2, || engine.evaluate(&s)).unwrap();
    let narrow = leased(1, || engine.evaluate(&s)).unwrap();
    assert_same_bits(&wide, &narrow);

    let ranks = 2;
    let kind = EngineKind::DistributedLinearScaling {
        ranks,
        r_loc,
        order,
    };
    let dist = leased(2, || Engine::build(kind, &model, 0.2).evaluate(&s)).unwrap();
    assert!((dist.energy - wide.energy).abs() < 1e-12);
    for (a, b) in dist.forces.iter().zip(&wide.forces) {
        assert!((*a - *b).max_abs() < 1e-12);
    }
}

/// The window both O(N) engines run on, from 30 Lanczos steps, contains
/// the dense spectrum of disordered Si-64 and of a disordered (10,0) tube at
/// three seeds, and is well inside the Gershgorin bounds it replaces.
#[test]
fn the_lanczos_window_contains_the_spectrum() {
    let (si, carbon) = (silicon_gsp(), carbon_xwch());
    for seed in [1, 2, 3] {
        let mut si64 = bulk_diamond(Species::Silicon, 2, 2, 2);
        si64.perturb(&mut StdRng::seed_from_u64(seed), 0.2);
        let mut tube = nanotube(10, 0, 2, 1.42);
        tube.perturb(&mut StdRng::seed_from_u64(seed), 0.2);
        let cases: [(&str, Structure, &dyn TbModel); 2] =
            [("si64", si64, &si), ("tube", tube, &carbon)];
        for (name, s, model) in cases {
            let nl = NeighborList::build(&s, model.cutoff());
            let index = OrbitalIndex::new(&s);
            let h = SparseH::build(&s, &nl, model, &index);
            let (lo, hi) = window(&h, 0.2, 350).bounds();
            let spectrum = eigvalsh(build_hamiltonian(&s, &nl, model, &index)).unwrap();
            let (e_min, e_max) = (spectrum[0], spectrum[spectrum.len() - 1]);
            assert!(
                lo < e_min && e_max < hi,
                "{name} seed {seed}: [{lo}, {hi}] vs [{e_min}, {e_max}]"
            );
            let (g_lo, g_hi) = h.gershgorin_bounds();
            assert!(
                hi - lo < 0.6 * (g_hi - g_lo),
                "{name} seed {seed}: no tighter than Gershgorin"
            );
        }
    }
}

/// Stress on strained Si-64: symmetric, the strain derivative of the energy,
/// and exactly what `stress_from_density` makes of the ρ an evaluation left
/// in its workspace — one solve, one ρ, every observable.
#[test]
fn stress_tensor_falls_out_of_the_pipeline_density() {
    let model = silicon_gsp();
    let occupation = OccupationScheme::Fermi { kt: KT };
    let mut s = perturbed_si64();
    apply_strain(&mut s, [0.02, -0.01, 0.0]);
    let sigma = stress_tensor(&s, &model, occupation).unwrap();
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        assert_eq!(sigma[a][b].to_bits(), sigma[b][a].to_bits());
    }

    let calc = TbCalculator::with_occupation(&model, occupation);
    let energy_at = |eps: f64| {
        let mut strained = s.clone();
        apply_strain(&mut strained, [eps, 0.0, 0.0]);
        calc.energy(&strained).unwrap()
    };
    let h = 1e-4;
    let volume = s.cell().volume().unwrap();
    let numerical = (energy_at(h) - energy_at(-h)) / (2.0 * h) / volume;
    assert!(
        (sigma[0][0] - numerical).abs() < 1e-3,
        "σ_xx {} vs ∂E/∂ε_xx / V {numerical}",
        sigma[0][0]
    );

    let mut ws = Workspace::new();
    calc.compute_with(&s, &mut ws).unwrap();
    let from_ws = stress_from_density(ws.neighbors.list(), &ws.bonds, ws.rho_blocks(), volume);
    assert_eq!(
        sigma.map(|row| row.map(f64::to_bits)),
        from_ws.map(|row| row.map(f64::to_bits))
    );
}

/// The dense engines keep ρ on the bond blocks alone: after one evaluation
/// of Si-8 (one-stage), perturbed Si-64 (two-stage, width 1) and the
/// (10,0)×2 tube (shared, width 2) the store holds one double per bond-block
/// element and the full-matrix buffers `ws.rho` and `ws.w` were never
/// allocated. Read through the store, `ρ_ji` is bitwise `ρ_ijᵀ` and every
/// block is the full reference density to 1e-12.
#[test]
fn dense_engines_keep_rho_on_the_bond_blocks_alone() {
    let (si, carbon) = (silicon_gsp(), carbon_xwch());
    let mut si8 = bulk_diamond(Species::Silicon, 1, 1, 1);
    si8.perturb(&mut StdRng::seed_from_u64(8), 0.05);
    let mut tube = nanotube(10, 0, 2, 1.42);
    tube.perturb(&mut StdRng::seed_from_u64(10), 0.03);
    let runs: [(&str, EngineKind, &dyn TbModel, Structure, usize, bool); 3] = [
        ("si8", EngineKind::Serial, &si, si8, 1, false),
        ("si64", EngineKind::Serial, &si, perturbed_si64(), 1, true),
        ("tube", EngineKind::Shared, &carbon, tube, 2, true),
    ];
    for (name, kind, model, s, width, sliced) in runs {
        let mut ws = Workspace::new();
        leased(width, || {
            Engine::build(kind, model, KT).evaluate_with(&s, &mut ws)
        })
        .unwrap();
        let sliced_solve = matches!(ws.dense_cache, DenseCache::Sliced { .. });
        assert_eq!(sliced_solve, sliced, "{name}");
        let (vectors, k) = occupied_vectors(&mut ws);
        let (nl, index, rho) = (ws.neighbors.list(), OrbitalIndex::new(&s), ws.rho_blocks());
        assert_eq!(
            rho.as_slice().len(),
            bond_block_elements(nl, &index),
            "{name}"
        );
        assert_eq!((ws.rho.capacity(), ws.w.capacity()), (0, 0), "{name}");

        let occ = occupations(
            &ws.values,
            s.n_electrons(),
            OccupationScheme::Fermi { kt: KT },
        );
        let full = density_matrix(&vectors, &occ.f[..k]);
        for i in 0..s.n_atoms() {
            for j in nl.neighbors(i).iter().map(|nb| nb.j).chain([i]) {
                let (ij, ji) = (rho.block(i, j), rho.block(j, i));
                for mu in 0..4 {
                    for nu in 0..4 {
                        assert_eq!(ij(mu, nu).to_bits(), ji(nu, mu).to_bits(), "{name}");
                        let reference = full[(index.offset(i) + mu, index.offset(j) + nu)];
                        let err = (ij(mu, nu) - reference).abs();
                        assert!(err <= 1e-12, "{name} block ({i},{j}) off by {err:.3e}");
                    }
                }
            }
        }
    }
}

/// The two-stage engines stream the occupied eigenvectors into ρ strip by
/// strip, so no buffer depends on the occupied window: perturbed Si-64
/// (serial, lease widths 1 and 2), the (10,0)×2 tube (shared, width 2) and
/// Si-64 on two ranks, evaluated at smearings of 0.05 and 0.3 eV in turn,
/// which move the window by tens of states. After the first evaluation
/// neither the bytes of the workspace and of every rank slot nor the
/// large-allocation count move, and the reference block `ws.c` is never
/// allocated.
#[test]
fn dense_engines_hold_no_eigenvector_block_whatever_the_window() {
    let (si, carbon) = (silicon_gsp(), carbon_xwch());
    let mut tube = nanotube(10, 0, 2, 1.42);
    tube.perturb(&mut StdRng::seed_from_u64(10), 0.03);
    let smearings = [0.05, 0.3, 0.05, 0.3].map(|kt| OccupationScheme::Fermi { kt });
    let runs: [(&str, &dyn TbModel, Structure, usize); 3] = [
        ("si64 w1", &si, perturbed_si64(), 1),
        ("si64 w2", &si, perturbed_si64(), 2),
        ("tube", &carbon, tube, 2),
    ];
    for (name, model, s, width) in runs {
        let mut ws = Workspace::new();
        let seen: Vec<_> = smearings
            .iter()
            .map(|&occupation| {
                let calc = TbCalculator::with_occupation(model, occupation);
                leased(width, || calc.evaluate_with(&s, &mut ws)).unwrap();
                let DenseCache::Sliced { occupied } = ws.dense_cache else {
                    panic!("{name} runs the two-stage solve");
                };
                (occupied, ws.bytes(), ws.large_alloc_events())
            })
            .collect();
        assert!(seen[1].0 > seen[0].0 + 8, "{name}: {seen:?}");
        assert!(
            seen.iter().all(|x| (x.1, x.2) == (seen[0].1, seen[0].2)),
            "{name}: {seen:?}"
        );
        assert_eq!(ws.c.capacity(), 0, "{name}");
    }
    let mut dist = DistributedTb::new(&si, 2);
    let (s, mut ws) = (perturbed_si64(), Workspace::new());
    let seen: Vec<_> = smearings
        .iter()
        .map(|&occupation| {
            dist.occupation = occupation;
            dist.evaluate_with(&s, &mut ws).unwrap();
            (dist.rank_bytes(), ws.large_alloc_events())
        })
        .collect();
    assert_eq!(seen[0].0.len(), 2);
    assert!(seen.iter().all(|x| *x == seen[0]), "two ranks: {seen:?}");
}

/// ρ is added up strip by strip in ascending order, so its bits depend on
/// the strip cut alone: for perturbed Si-64, whose window spans two strips,
/// they are the same at lease widths 1 and 2 and on a thread pinned inline
/// as a message-passing rank is, where the whole stream runs on one thread.
#[test]
fn streamed_rho_is_the_same_bits_at_every_width_and_in_a_region() {
    let (si, s) = (silicon_gsp(), perturbed_si64());
    let rho = || {
        let mut ws = Workspace::new();
        TbCalculator::new(&si).evaluate_with(&s, &mut ws).unwrap();
        assert!(matches!(ws.dense_cache, DenseCache::Sliced { occupied } if occupied > 96));
        ws.rho_blocks()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    let one = leased(1, rho);
    assert!(leased(2, rho) == one, "width 2");
    let pinned = std::thread::scope(|scope| {
        let rank = scope.spawn(|| {
            team::pin_inline();
            rho()
        });
        rank.join().expect("pinned evaluation")
    });
    assert!(pinned == one, "inside a region");
}

/// One rank-control block serves both distributed engines: a due plan fires
/// once, a plan targeting a shrunk-away rank is consumed silently, respawn
/// restores the configured width.
#[test]
fn rank_control_is_the_same_on_both_distributed_engines() {
    let model = silicon_gsp();
    let s = bulk_diamond(Species::Silicon, 1, 1, 1);
    let kinds = [
        EngineKind::Distributed { ranks: 3 },
        EngineKind::DistributedLinearScaling {
            ranks: 3,
            r_loc: 4.0,
            order: 32,
        },
    ];
    let kill = |rank, at_evaluation| FaultPlan {
        rank,
        at_evaluation,
        kind: FaultKind::Kill,
    };
    for kind in kinds {
        let engine = Engine::build(kind, &model, 0.2);
        let ranks = engine.rank_control().expect("a distributed kind");
        assert_eq!(ranks.active_ranks(), 3);

        // A due plan fires once, then the slot is empty.
        ranks.arm(kill(1, 2));
        engine.evaluate(&s).expect("evaluation 1 is clean");
        match engine.evaluate(&s) {
            Err(TbError::RankFailure { failed_ranks, .. }) => assert_eq!(failed_ranks, [1]),
            other => panic!("{kind:?}: expected a rank failure, got {other:?}"),
        }
        engine.evaluate(&s).expect("the plan must not re-fire");

        // A plan for a rank the engine has shrunk away is consumed silently.
        ranks.arm(kill(2, 1));
        assert_eq!(ranks.shrink_ranks(1), 2);
        engine.evaluate(&s).expect("dropped plan must not fire");
        assert_eq!(ranks.respawn_full_ranks(), 3);
        assert_eq!(ranks.active_ranks(), 3);
        engine.evaluate(&s).expect("plan must stay consumed");
        assert_eq!(ranks.evaluations(), 5, "{kind:?}");
    }
    // Engines without virtual ranks have no control block.
    assert!(Engine::build(EngineKind::Shared, &model, KT)
        .rank_control()
        .is_none());
}

/// A NaN coordinate is refused by every engine, naming the atom: the check
/// runs before any neighbour search, where a NaN distance is never inside
/// the cutoff and the atom would quietly lose every neighbour.
#[test]
fn every_engine_refuses_a_non_finite_position() {
    let model = silicon_gsp();
    let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
    s.positions_mut()[1].y = f64::NAN;
    let kinds = [
        EngineKind::Serial,
        EngineKind::Distributed { ranks: 2 },
        EngineKind::LinearScaling {
            r_loc: 4.0,
            order: 32,
        },
        EngineKind::DistributedLinearScaling {
            ranks: 2,
            r_loc: 4.0,
            order: 32,
        },
    ];
    for kind in kinds {
        let engine = Engine::build(kind, &model, KT);
        match engine.evaluate(&s) {
            Err(TbError::NonFinitePosition { atom: 1 }) => {}
            other => panic!("{kind:?}: expected a non-finite position, got {other:?}"),
        }
    }
}

//! Trajectory-equivalence regression tests for the two-stage blocked
//! eigensolver with occupied-subspace spectrum slicing (ISSUE 2).
//!
//! The partial-spectrum path computes eigenvectors only for states with
//! non-negligible Fermi weight (`f > 10⁻¹²`) and builds the density matrix
//! from that window. Physics must not notice: an NVE trajectory driven by
//! the sliced solver has to track the full-spectrum QL reference to well
//! below 1e-8 eV in energy at every step.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::{Engine, EngineKind};
use tbmd_linalg::{team, tridiagonalize_blocked_into, EighWorkspace, Matrix};
use tbmd_md::{maxwell_boltzmann, MdState, VelocityVerlet};
use tbmd_model::{
    bond_block_elements, silicon_gsp, DenseSolver, ForceProvider, NeighborWorkspace,
    OccupationScheme, OrbitalIndex, TbCalculator, TbModel, Workspace, TWO_STAGE_MIN_DIM,
};
use tbmd_parallel::{sliced_wire_bytes, vmp_run, DistributedTb};
use tbmd_structure::{bulk_diamond, Species, Structure};

fn si64() -> Structure {
    bulk_diamond(Species::Silicon, 2, 2, 2)
}

fn velocities(s: &Structure, seed: u64) -> Vec<tbmd_linalg::Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    maxwell_boltzmann(s, 300.0, &mut rng)
}

/// Drive `steps` NVE steps with two providers and assert per-step energy,
/// force and position agreement within `tol_e` / `tol_fx`.
fn assert_solver_trajectories_match(
    sliced: &dyn ForceProvider,
    full: &dyn ForceProvider,
    steps: usize,
    tol_e: f64,
    tol_fx: f64,
) {
    let vv = VelocityVerlet::new(1.0);

    let mut ws_a = Workspace::new();
    let mut ws_b = Workspace::new();
    let mut a = MdState::new_with(si64(), velocities(&si64(), 31), sliced, &mut ws_a).unwrap();
    let mut b = MdState::new_with(si64(), velocities(&si64(), 31), full, &mut ws_b).unwrap();

    for step in 0..steps {
        vv.step_with(&mut a, sliced, &mut ws_a).unwrap();
        vv.step_with(&mut b, full, &mut ws_b).unwrap();

        let de = (a.potential_energy - b.potential_energy).abs();
        assert!(
            de < tol_e,
            "step {step}: sliced vs full potential energy differs by {de:.3e}"
        );
        for i in 0..a.structure.n_atoms() {
            let df = (a.forces[i] - b.forces[i]).max_abs();
            assert!(
                df < tol_fx,
                "step {step}, atom {i}: force differs by {df:.3e}"
            );
            let dx = (a.structure.positions()[i] - b.structure.positions()[i]).max_abs();
            assert!(
                dx < tol_fx,
                "step {step}, atom {i}: position differs by {dx:.3e}"
            );
        }
    }
}

/// ISSUE 2 acceptance: 20 NVE steps, serial calculator, partial-spectrum
/// two-stage solver vs full-spectrum QL, < 1e-8 eV per-step energy drift.
#[test]
fn serial_two_stage_matches_full_ql_over_nve_trajectory() {
    let model = silicon_gsp();
    let sliced = TbCalculator::with_solver(&model, DenseSolver::TwoStage);
    let full = TbCalculator::with_solver(&model, DenseSolver::FullQl);
    assert_solver_trajectories_match(&sliced, &full, 20, 1e-8, 1e-7);
}

/// Same acceptance for the engine `EngineKind::Shared` builds.
#[test]
fn shared_two_stage_matches_full_ql_over_nve_trajectory() {
    let model = silicon_gsp();
    let Engine::Dense(sliced) = Engine::build(EngineKind::Shared, &model, 0.1) else {
        panic!("the shared kind is the dense calculator");
    };
    assert_eq!(sliced.solver, DenseSolver::TwoStage);
    let mut full = TbCalculator::with_occupation(&model, sliced.occupation);
    full.solver = DenseSolver::FullQl;
    assert_solver_trajectories_match(&sliced, &full, 20, 1e-8, 1e-7);
}

/// The message-passing engine's rank-sharded two-stage solver (replicated
/// tridiagonalization and QL spectrum, cluster-snapped shards of the
/// occupied window, ρ allreduce) drives 20 NVE steps against the serial
/// full-spectrum QL reference to < 1e-8 eV per-step energy agreement.
#[test]
fn distributed_sliced_matches_serial_full_over_nve_trajectory() {
    let model = silicon_gsp();
    let dist = DistributedTb::new(&model, 4);
    let full = TbCalculator::with_solver(&model, DenseSolver::FullQl);
    assert_solver_trajectories_match(&dist, &full, 20, 1e-8, 1e-7);
}

/// One Si-64 evaluation moves exactly the bytes the cost model prices
/// (positions broadcast, packed-ρ allreduce, force allgather,
/// repulsive-energy allreduce; the spectrum moves none) — also at P = 3,
/// where the `partition_range` shards are uneven — and more of them on
/// more ranks.
#[test]
fn distributed_wire_bytes_equal_the_cost_model() {
    let model = silicon_gsp();
    let s = si64();
    let index = OrbitalIndex::new(&s);
    // The ρ payload: the bond blocks of the list every rank's replica holds.
    let mut replica = NeighborWorkspace::default();
    replica.update(&s, model.cutoff());
    let rho_doubles = bond_block_elements(replica.list(), &index);
    let mut totals = Vec::new();
    for p in [2usize, 3, 4] {
        let dist = DistributedTb::new(&model, p);
        dist.evaluate(&s).unwrap();
        let measured = dist.last_report().unwrap().stats.total_bytes();
        let predicted = sliced_wire_bytes(s.n_atoms(), rho_doubles, p);
        assert_eq!(measured, predicted, "P = {p}");
        totals.push(measured);
    }
    assert!(totals.windows(2).all(|w| w[0] < w[1]), "{totals:?}");
}

/// On one rank, above the two-stage crossover, the distributed engine is
/// the serial engine: the same spectrum stage, the same eigenvector window,
/// the same density and force stages — energy and every force component
/// bitwise equal.
#[test]
fn distributed_engine_on_one_rank_is_the_serial_engine() {
    let model = silicon_gsp();
    let mut s = si64();
    assert!(4 * s.n_atoms() >= TWO_STAGE_MIN_DIM);
    s.perturb(&mut StdRng::seed_from_u64(31), 0.05);
    let serial = TbCalculator::new(&model).evaluate(&s).unwrap();
    let dist = DistributedTb::new(&model, 1).evaluate(&s).unwrap();
    assert_eq!(serial.energy.to_bits(), dist.energy.to_bits(), "energy");
    for (i, (fa, fb)) in serial.forces.iter().zip(&dist.forces).enumerate() {
        assert_eq!(
            fa.to_array().map(f64::to_bits),
            fb.to_array().map(f64::to_bits),
            "atom {i}"
        );
    }
}

/// A message-passing rank is one thread: the team gives it width 1 and
/// runs every fan-out it reaches inline, the blocked reduction — banded
/// panel matvec included, at a size that bands its first panels — comes out
/// bitwise as on the main thread with the whole team, and the serial, shared
/// and distributed engines agree at Si-64 to the bound of the trajectory
/// tests above.
#[test]
fn a_rank_is_one_thread_and_computes_what_the_team_computes() {
    let (widths, _) = vmp_run(2, |_| team::width());
    assert_eq!(widths, [1, 1]);

    let n = 523;
    let a = Matrix::from_fn(n, n, |i, j| {
        ((i.max(j) * 31 + i.min(j) * 17) as f64 * 0.37).sin()
    });
    let reduce = || {
        let (mut packed, mut ws) = (a.clone(), EighWorkspace::default());
        tridiagonalize_blocked_into(&mut packed, &mut ws);
        let (d, e) = ws.tridiagonal_factor();
        (packed, d.to_vec(), e.to_vec())
    };
    let on_main = reduce();
    let (on_ranks, _) = vmp_run(2, |_| reduce());
    for on_rank in &on_ranks {
        assert!(*on_rank == on_main, "(d, e) and the packed reflectors");
    }

    let model = silicon_gsp();
    let mut s = si64();
    s.perturb(&mut StdRng::seed_from_u64(23), 0.05);
    let serial = TbCalculator::new(&model).evaluate(&s).unwrap();
    let shared = Engine::build(EngineKind::Shared, &model, 0.1)
        .evaluate(&s)
        .unwrap();
    let dist = DistributedTb::new(&model, 2).evaluate(&s).unwrap();
    for (name, other) in [("shared", &shared), ("distributed", &dist)] {
        let de = (other.energy - serial.energy).abs();
        assert!(de < 1e-8, "{name}: energy differs by {de:.3e}");
        for (fa, fb) in other.forces.iter().zip(&serial.forces) {
            assert!((*fa - *fb).max_abs() < 1e-7, "{name}: forces");
        }
    }
}

/// The sliced solver must reproduce the full solver's *spectrum* (all n
/// eigenvalues, not just the occupied window) so observables that read
/// `TbResult::eigenvalues` — densities of states, HOMO–LUMO gaps — are
/// unaffected.
#[test]
fn sliced_solver_reports_complete_spectrum() {
    let model = silicon_gsp();
    let mut s = si64();
    let mut rng = StdRng::seed_from_u64(7);
    s.perturb(&mut rng, 0.05);

    let sliced = TbCalculator::with_solver(&model, DenseSolver::TwoStage);
    let full = TbCalculator::with_solver(&model, DenseSolver::FullQl);
    let ra = sliced.compute(&s).unwrap();
    let rb = full.compute(&s).unwrap();

    assert_eq!(ra.eigenvalues.len(), rb.eigenvalues.len());
    for (i, (ea, eb)) in ra.eigenvalues.iter().zip(&rb.eigenvalues).enumerate() {
        assert!(
            (ea - eb).abs() < 1e-9,
            "eigenvalue {i} differs: {ea} vs {eb}"
        );
    }
    assert!((ra.energy - rb.energy).abs() < 1e-9);
    assert!((ra.occupations.fermi_level - rb.occupations.fermi_level).abs() < 1e-9);
    // The energy-only path is each calculator's own spectrum stage.
    assert_eq!(sliced.energy(&s).unwrap().to_bits(), ra.energy.to_bits());
    assert_eq!(full.energy(&s).unwrap().to_bits(), rb.energy.to_bits());
}

/// Zero-temperature occupations cut the spectrum at exactly n_electrons/2
/// states: the sliced solver's window is the half-filled band, and results
/// still match the full reference.
#[test]
fn sliced_solver_zero_temperature_window() {
    let model = silicon_gsp();
    let mut s = si64();
    let mut rng = StdRng::seed_from_u64(13);
    s.perturb(&mut rng, 0.04);

    let mut sliced = TbCalculator::with_solver(&model, DenseSolver::TwoStage);
    sliced.occupation = OccupationScheme::ZeroTemperature;
    let mut full = TbCalculator::with_solver(&model, DenseSolver::FullQl);
    full.occupation = OccupationScheme::ZeroTemperature;

    let ra = sliced.compute(&s).unwrap();
    let rb = full.compute(&s).unwrap();
    assert!((ra.energy - rb.energy).abs() < 1e-8);
    for (fa, fb) in ra.forces.iter().zip(&rb.forces) {
        assert!((*fa - *fb).max_abs() < 1e-7);
    }
}

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
use tbmd_md::{maxwell_boltzmann, MdState, VelocityVerlet};
use tbmd_model::{
    silicon_gsp, DenseSolver, ForceProvider, OccupationScheme, TbCalculator, Workspace,
};
use tbmd_parallel::{shared_memory_tb, DistributedSolver, DistributedTb};
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

/// Same acceptance for the shared-memory engine's sliced eigensolver.
#[test]
fn shared_two_stage_matches_full_ql_over_nve_trajectory() {
    let model = silicon_gsp();
    let sliced = shared_memory_tb(&model);
    assert_eq!(sliced.solver, DenseSolver::TwoStage);
    let mut full = shared_memory_tb(&model);
    full.solver = DenseSolver::FullQl;
    assert_solver_trajectories_match(&sliced, &full, 20, 1e-8, 1e-7);
}

/// ISSUE 3 acceptance: the message-passing engine's default rank-sharded
/// two-stage solver (replicated tridiagonalization, Sturm-sliced occupied
/// window, ρ allreduce) drives 20 NVE steps against the serial
/// full-spectrum QL reference to < 1e-8 eV per-step energy agreement.
#[test]
fn distributed_sliced_matches_serial_full_over_nve_trajectory() {
    let model = silicon_gsp();
    let dist = DistributedTb::new(&model, 4);
    // The sliced solver must be the default, not an opt-in.
    assert_eq!(dist.solver, DistributedSolver::TwoStageSliced);
    let full = TbCalculator::with_solver(&model, DenseSolver::FullQl);
    assert_solver_trajectories_match(&dist, &full, 20, 1e-8, 1e-7);
}

/// The ring-Jacobi reference stays selectable and physically equivalent:
/// a short NVE segment tracks the serial full solver too.
#[test]
fn distributed_ring_jacobi_reference_stays_selectable() {
    let model = silicon_gsp();
    let ring = DistributedTb::new(&model, 2).with_solver(DistributedSolver::RingJacobi);
    let full = TbCalculator::with_solver(&model, DenseSolver::FullQl);
    assert_solver_trajectories_match(&ring, &full, 3, 1e-6, 1e-5);
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

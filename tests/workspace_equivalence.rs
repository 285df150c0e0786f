//! Trajectory-equivalence regression tests for the persistent evaluation
//! workspace (ISSUE 1).
//!
//! The workspace path amortizes neighbor-list construction with a Verlet
//! skin list and reuses every n_orb²-sized buffer across MD steps. Physics
//! must not notice: a trajectory driven through one persistent workspace has
//! to match the cold path (a fresh workspace — and hence a fresh neighbor
//! list and fresh buffers — on every step) to 1e-10 in energies, forces and
//! positions, on the dense engine (built directly and as `EngineKind::Shared`)
//! and on the message-passing one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::{Engine, EngineKind};
use tbmd_md::{maxwell_boltzmann, MdState, VelocityVerlet};
use tbmd_model::{silicon_gsp, ForceProvider, OccupationScheme, TbCalculator, Workspace};
use tbmd_parallel::DistributedTb;
use tbmd_structure::{bulk_diamond, Species, Structure};

/// 2×2×2 Si diamond: 64 atoms, L/2 = 5.43 Å > cutoff + skin ≈ 4.66 Å, so
/// the Verlet skin list engages instead of the small-cell fallback.
fn si64() -> Structure {
    bulk_diamond(Species::Silicon, 2, 2, 2)
}

fn velocities(s: &Structure, seed: u64) -> Vec<tbmd_linalg::Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    maxwell_boltzmann(s, 300.0, &mut rng)
}

/// Drive `steps` NVE steps through one persistent workspace and through a
/// fresh-workspace-per-step cold path, and assert per-step agreement.
fn assert_trajectories_match(provider: &dyn ForceProvider, steps: usize) {
    let vv = VelocityVerlet::new(1.0);

    let mut ws = Workspace::new();
    let mut warm = MdState::new_with(si64(), velocities(&si64(), 11), provider, &mut ws).unwrap();
    let mut cold = MdState::new(si64(), velocities(&si64(), 11), provider).unwrap();

    for step in 0..steps {
        vv.step_with(&mut warm, provider, &mut ws).unwrap();
        vv.step(&mut cold, provider).unwrap();

        let de = (warm.potential_energy - cold.potential_energy).abs();
        assert!(de < 1e-10, "step {step}: potential energy differs by {de}");
        for i in 0..warm.structure.n_atoms() {
            let df = (warm.forces[i] - cold.forces[i]).max_abs();
            assert!(df < 1e-10, "step {step}, atom {i}: force differs by {df}");
            let dx = (warm.structure.positions()[i] - cold.structure.positions()[i]).max_abs();
            assert!(
                dx < 1e-10,
                "step {step}, atom {i}: position differs by {dx}"
            );
        }
    }

    // The warm path must actually have exercised the amortized machinery:
    // a Verlet list (not the small-cell fallback) refreshed in place on most
    // steps instead of being rebuilt.
    assert!(
        ws.neighbors.is_verlet(),
        "expected the Verlet path in a 64-atom cell"
    );
    let stats = ws.neighbors.stats();
    assert_eq!(stats.fallback_builds, 0);
    assert!(
        stats.refreshes > stats.rebuilds,
        "amortization never engaged: {stats:?}"
    );
}

#[test]
fn serial_engine_workspace_trajectory_matches_cold_path() {
    let model = silicon_gsp();
    let calc = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
    assert_trajectories_match(&calc, 22);
}

#[test]
fn shared_engine_workspace_trajectory_matches_cold_path() {
    let model = silicon_gsp();
    let shared = Engine::build(EngineKind::Shared, &model, 0.1);
    assert_trajectories_match(&shared, 20);
}

/// Acceptance criterion: a 64-atom Si NVE run of ≥100 steps performs O(1)
/// allocations of n_orb²-sized buffers after warmup. `Workspace` counts
/// every capacity growth of its `n_orb²`-sized buffers in
/// `large_alloc_events()`.
#[test]
fn hundred_step_nve_run_allocates_once() {
    let model = silicon_gsp();
    let calc = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
    let s = si64();
    let v = velocities(&s, 23);

    let mut ws = Workspace::new();
    let mut state = MdState::new_with(s, v, &calc, &mut ws).unwrap();
    let after_warmup = ws.large_alloc_events();
    assert!(after_warmup > 0, "warmup should have grown the buffers");

    let vv = VelocityVerlet::new(1.0);
    for _ in 0..100 {
        vv.step_with(&mut state, &calc, &mut ws).unwrap();
    }
    assert_eq!(
        ws.large_alloc_events(),
        after_warmup,
        "matrix buffers grew after warmup"
    );

    // Neighbor amortization over the same run: exactly one Verlet build at
    // warmup, refreshes (not rebuilds) afterwards at 300 K.
    let stats = ws.neighbors.stats();
    assert_eq!(stats.fallback_builds, 0);
    assert!(
        stats.rebuilds <= 3,
        "neighbor list rebuilt {} times in 100 gentle steps",
        stats.rebuilds
    );
    assert_eq!(stats.rebuilds + stats.refreshes, 101);
}

/// Drive `warm_in` MD steps so every persistent buffer reaches its
/// steady-state capacity, then `steps` more and assert the workspace's
/// large-allocation counter never moves again. Finally cross-check the
/// warm trajectory endpoint against a cold evaluation (`cold` is a fresh
/// engine of the same physics) to 1e-10.
fn assert_engine_allocates_once(
    provider: &dyn ForceProvider,
    cold: &dyn ForceProvider,
    structure: Structure,
    warm_in: usize,
    steps: usize,
) {
    let v = velocities(&structure, 23);
    let vv = VelocityVerlet::new(1.0);

    let mut ws = Workspace::new();
    let mut state = MdState::new_with(structure, v, provider, &mut ws).unwrap();
    assert!(
        ws.large_alloc_events() > 0,
        "warmup should have grown the buffers"
    );
    for _ in 0..warm_in {
        vv.step_with(&mut state, provider, &mut ws).unwrap();
    }
    let after_warmup = ws.large_alloc_events();

    for _ in 0..steps {
        vv.step_with(&mut state, provider, &mut ws).unwrap();
    }
    assert_eq!(
        ws.large_alloc_events(),
        after_warmup,
        "persistent buffers grew after warm-in"
    );

    // Warm/cold equivalence at the trajectory endpoint: a fresh engine with
    // fresh buffers sees the same structure and must agree to 1e-10.
    let reference = cold.evaluate(&state.structure).unwrap();
    let de = (state.potential_energy - reference.energy).abs();
    assert!(de < 1e-10, "warm vs cold energy differs by {de}");
    for (i, (a, b)) in state.forces.iter().zip(&reference.forces).enumerate() {
        let df = (*a - *b).max_abs();
        assert!(df < 1e-10, "atom {i}: warm vs cold force differs by {df}");
    }
}

/// ISSUE 3 acceptance: the message-passing engine's per-rank workspace
/// pool makes warm evaluations O(1)-allocation — the pool persists behind
/// the engine and no rank grows a buffer after the warm-in.
#[test]
fn distributed_engine_workspace_allocates_once() {
    let model = silicon_gsp();
    let dist = DistributedTb::new(&model, 3);
    let cold = DistributedTb::new(&model, 3);
    assert_engine_allocates_once(&dist, &cold, si64(), 5, 10);
}

//! Trajectory-equivalence regression tests for the persistent evaluation
//! workspace.
//!
//! The workspace path keeps one neighbour candidate list across MD steps
//! and reuses every n_orb²-sized buffer. Physics must not notice: a
//! trajectory driven through one persistent workspace has to match the cold
//! path (a fresh workspace — and hence a fresh neighbour list and fresh
//! buffers — on every step) bit for bit in energies, forces and positions,
//! on the dense engine (built directly and as `EngineKind::Shared`) and on
//! the message-passing one. The kept list itself is, at every step, bit for
//! bit a fresh `NeighborList::build`, in the 8-atom cell (several images
//! per pair) as in the 64-atom one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::{Engine, EngineKind};
use tbmd_md::{maxwell_boltzmann, MdState, VelocityVerlet};
use tbmd_model::{silicon_gsp, ForceProvider, OccupationScheme, TbCalculator, TbModel, Workspace};
use tbmd_parallel::DistributedTb;
use tbmd_structure::{bulk_diamond, NeighborList, Species, Structure};

/// 2×2×2 Si diamond: 64 atoms.
fn si64() -> Structure {
    bulk_diamond(Species::Silicon, 2, 2, 2)
}

fn velocities(s: &Structure, seed: u64) -> Vec<tbmd_linalg::Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    maxwell_boltzmann(s, 300.0, &mut rng)
}

/// Raw bits of a vector's components.
fn bits(v: tbmd_linalg::Vec3) -> [u64; 3] {
    v.to_array().map(f64::to_bits)
}

/// `(i, j, shift, disp bits, dist bits)` of one entry.
type EntryBits = (usize, usize, [i32; 3], [u64; 3], u64);

/// Every entry of `nl` — atom, image, displacement and distance bits — in
/// list order.
fn entry_bits(nl: &NeighborList) -> Vec<EntryBits> {
    (0..nl.n_atoms())
        .flat_map(|i| {
            nl.neighbors(i)
                .iter()
                .map(move |nb| (i, nb.j, nb.shift, bits(nb.disp), nb.dist.to_bits()))
        })
        .collect()
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

        assert_eq!(
            warm.potential_energy.to_bits(),
            cold.potential_energy.to_bits(),
            "step {step}: potential energy differs"
        );
        for i in 0..warm.structure.n_atoms() {
            assert_eq!(
                bits(warm.forces[i]),
                bits(cold.forces[i]),
                "step {step}, atom {i}: force differs"
            );
            assert_eq!(
                bits(warm.structure.positions()[i]),
                bits(cold.structure.positions()[i]),
                "step {step}, atom {i}: position differs"
            );
        }
    }

    // The warm path must actually have exercised the amortized machinery:
    // the kept list refreshed in place on most steps instead of being
    // rebuilt.
    let stats = ws.neighbors.stats();
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

    // Neighbor amortization over the same run: one build at warmup,
    // refreshes (not rebuilds) afterwards at 300 K.
    let stats = ws.neighbors.stats();
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
/// engine of the same physics) bit for bit.
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
    // fresh buffers sees the same structure and must agree bit for bit.
    let reference = cold.evaluate(&state.structure).unwrap();
    assert_eq!(
        state.potential_energy.to_bits(),
        reference.energy.to_bits(),
        "warm vs cold energy differs"
    );
    for (i, (a, b)) in state.forces.iter().zip(&reference.forces).enumerate() {
        assert_eq!(bits(*a), bits(*b), "atom {i}: warm vs cold force differs");
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

/// Perturbed Si-8 and Si-64 started at 3000 K, 200 steps: after every
/// evaluation the workspace's list is, entry for entry and bit for bit, a
/// fresh build at the model cutoff, while the candidates are kept on most
/// steps and rebuilt when an atom runs past skin/2.
#[test]
fn kept_list_is_a_fresh_build_at_every_step() {
    let model = silicon_gsp();
    let calc = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
    let vv = VelocityVerlet::new(1.0);
    for reps in [1, 2] {
        let mut s = bulk_diamond(Species::Silicon, reps, reps, reps);
        let mut rng = StdRng::seed_from_u64(52);
        s.perturb(&mut rng, 0.05);
        let v = maxwell_boltzmann(&s, 3000.0, &mut rng);
        let mut ws = Workspace::new();
        let mut state = MdState::new_with(s, v, &calc, &mut ws).unwrap();
        for step in 0..200 {
            vv.step_with(&mut state, &calc, &mut ws).unwrap();
            let fresh = NeighborList::build(&state.structure, model.cutoff());
            assert!(
                entry_bits(ws.neighbors.list()) == entry_bits(&fresh),
                "Si-{}: step {step}: kept list is not a fresh build",
                8 * reps * reps * reps
            );
        }
        let stats = ws.neighbors.stats();
        assert!(
            stats.rebuilds > 1 && stats.refreshes > stats.rebuilds,
            "Si-{}: {stats:?}",
            8 * reps * reps * reps
        );
    }
}

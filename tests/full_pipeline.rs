//! Cross-crate integration tests: the whole pipeline from structure
//! building through engines, integrators and observables.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::md::RdfAccumulator;
use tbmd::{
    maxwell_boltzmann, run_simulation, shared_memory_tb, silicon_gsp, DistributedTb, EngineKind,
    ForceProvider, LinearScalingTb, MdState, NoseHoover, Protocol, SimulationConfig, Species,
    SystemSpec, TbCalculator, VelocityVerlet,
};

/// Every engine must produce the same NVE trajectory (same forces ⇒ same
/// positions) over a short run.
#[test]
fn engines_produce_identical_trajectories() {
    let model = silicon_gsp();
    let s = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let v = maxwell_boltzmann(&s, 400.0, &mut rng);

    let serial = TbCalculator::new(&model);
    let shared = shared_memory_tb(&model);
    let distributed = DistributedTb::new(&model, 2);

    let run = |engine: &dyn ForceProvider| -> Vec<tbmd::Vec3> {
        let mut state = MdState::new(s.clone(), v.clone(), engine).unwrap();
        let vv = VelocityVerlet::new(1.0);
        for _ in 0..5 {
            vv.step(&mut state, engine).unwrap();
        }
        state.structure.positions().to_vec()
    };

    let p_serial = run(&serial);
    let p_shared = run(&shared);
    let p_distributed = run(&distributed);
    for i in 0..s.n_atoms() {
        assert!(
            (p_serial[i] - p_shared[i]).max_abs() < 1e-8,
            "shared-memory trajectory diverged at atom {i}"
        );
        assert!(
            (p_serial[i] - p_distributed[i]).max_abs() < 1e-7,
            "distributed trajectory diverged at atom {i}"
        );
    }
}

/// NVE with the high-level driver conserves energy on every system type.
#[test]
fn nve_conserves_energy_across_systems() {
    for system in [SystemSpec::SiliconDiamond { reps: 1 }, SystemSpec::C60] {
        let config = SimulationConfig::nve(system, 300.0, 15);
        let summary = run_simulation(&config).unwrap();
        assert!(
            summary.conserved_drift < 0.02,
            "{system:?}: drift {} eV",
            summary.conserved_drift
        );
    }
}

/// Nosé–Hoover holds its conserved quantity through the high-level driver.
#[test]
fn nvt_conserved_quantity_via_driver() {
    let config = SimulationConfig {
        system: SystemSpec::SiliconDiamond { reps: 1 },
        engine: EngineKind::Serial,
        protocol: Protocol::Nvt {
            temperature_k: 800.0,
            steps: 40,
            dt_fs: 1.0,
            tau_fs: 50.0,
        },
        electronic_kt: 0.1,
        perturb: 0.0,
        seed: 11,
        record_stride: 0,
    };
    let summary = run_simulation(&config).unwrap();
    // The paper-era criterion: conserved quantity stable to ~1e-4 relative.
    assert!(
        summary.conserved_drift / summary.final_total_energy.abs() < 5e-4,
        "relative drift {}",
        summary.conserved_drift / summary.final_total_energy.abs()
    );
}

/// Relaxing a rattled crystal through the driver recovers the lattice.
#[test]
fn driver_relaxation_recovers_crystal() {
    let ideal = SimulationConfig {
        system: SystemSpec::SiliconDiamond { reps: 1 },
        engine: EngineKind::Serial,
        protocol: Protocol::Relax {
            force_tolerance: 1e-3,
            max_iterations: 10,
        },
        electronic_kt: 0.1,
        perturb: 0.0,
        seed: 0,
        record_stride: 0,
    };
    let e_ideal = run_simulation(&ideal).unwrap().final_potential_energy;

    let rattled = SimulationConfig {
        perturb: 0.1,
        protocol: Protocol::Relax {
            force_tolerance: 2e-2,
            max_iterations: 300,
        },
        ..ideal
    };
    let summary = run_simulation(&rattled).unwrap();
    assert!(summary.converged);
    assert!(
        (summary.final_potential_energy - e_ideal).abs() < 0.05,
        "relaxed to {} vs ideal {}",
        summary.final_potential_energy,
        e_ideal
    );
}

/// The O(N) engine can drive MD: short NVE with bounded drift.
#[test]
fn linear_scaling_engine_drives_md() {
    let model = silicon_gsp();
    let engine = LinearScalingTb::new(&model).with_kt(0.3).with_order(250);
    let s = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
    let mut rng = StdRng::seed_from_u64(21);
    let v = maxwell_boltzmann(&s, 300.0, &mut rng);
    let mut state = MdState::new(s, v, &engine).unwrap();
    let e0 = state.total_energy();
    let vv = VelocityVerlet::new(1.0);
    for _ in 0..10 {
        vv.step(&mut state, &engine).unwrap();
    }
    assert!(
        (state.total_energy() - e0).abs() < 0.05,
        "O(N) NVE drift {} eV",
        (state.total_energy() - e0).abs()
    );
}

/// A nanotube at moderate temperature keeps its sp² network (full pipeline:
/// builder → carbon model → NVT).
#[test]
fn nanotube_stable_at_moderate_temperature() {
    let model = tbmd::carbon_xwch();
    let calc = TbCalculator::new(&model);
    let tube = tbmd::structure::nanotube(6, 0, 2, 1.42);
    let mut rng = StdRng::seed_from_u64(3);
    let v = maxwell_boltzmann(&tube, 800.0, &mut rng);
    let mut state = MdState::new(tube, v, &calc).unwrap();
    let mut nh = NoseHoover::with_period(1.0, 800.0, state.n_dof(), 40.0);
    for _ in 0..30 {
        nh.step(&mut state, &calc).unwrap();
    }
    for i in 0..state.structure.n_atoms() {
        assert_eq!(
            state.structure.coordination(i, 1.9),
            3,
            "atom {i} lost its sp² coordination at 800 K"
        );
    }
}

/// RDF of an MD-thermalized crystal keeps its first peak at the bond length.
#[test]
fn rdf_after_dynamics_peaks_at_bond_length() {
    let config = SimulationConfig {
        record_stride: 2,
        ..SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 20)
    };
    let summary = run_simulation(&config).unwrap();
    let mut rdf = RdfAccumulator::new(4.5, 90);
    for frame in summary.trajectory.unwrap().frames() {
        rdf.accumulate(&frame.structure);
    }
    let (r_peak, _) = rdf.first_peak().unwrap();
    assert!(
        (r_peak - 2.35).abs() < 0.15,
        "first RDF peak at {r_peak} Å after dynamics"
    );
}

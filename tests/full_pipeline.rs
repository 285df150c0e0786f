//! Cross-crate integration tests: the whole pipeline from structure
//! building through engines, integrators and observables.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::md::{RdfAccumulator, RunningStats};
use tbmd::{
    maxwell_boltzmann, silicon_gsp, DistributedTb, Engine, EngineKind, ForceProvider,
    LinearScalingTb, MdState, NoseHoover, Protocol, SessionBuilder, SimulationConfig,
    SimulationSummary, Species, SystemSpec, TbCalculator, TemperatureRamp, VelocityVerlet,
    Workspace,
};

/// A plain session of `config`, driven to completion.
fn run_session(config: &SimulationConfig) -> SimulationSummary {
    SessionBuilder::new(*config).build().unwrap().run().unwrap()
}

/// Every engine must produce the same NVE trajectory (same forces ⇒ same
/// positions) over a short run.
#[test]
fn engines_produce_identical_trajectories() {
    let model = silicon_gsp();
    let s = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let v = maxwell_boltzmann(&s, 400.0, &mut rng);

    let serial = TbCalculator::new(&model);
    let shared = Engine::build(EngineKind::Shared, &model, 0.1);
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
            "shared-kind trajectory diverged at atom {i}"
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
        let summary = run_session(&config);
        assert!(
            summary.conserved_drift < 0.02,
            "{system:?}: drift {} eV",
            summary.conserved_drift
        );
    }
}

/// What a session's summary pins, from a loop written out by hand: the same
/// seed's Maxwell–Boltzmann draw, then the integrators called directly. A
/// ramp moves the set-point before each step until it reaches the target,
/// and the hold's reference is H' of the state the ramp ends on.
fn plain_loop(config: &SimulationConfig) -> (MdState, usize, f64, f64) {
    let model = config.system.model();
    let engine = Engine::build(config.engine, &model, config.electronic_kt);
    let structure = config.system.build(config.perturb, config.seed);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ws = Workspace::new();
    let mut start = |t: f64| {
        let v = maxwell_boltzmann(&structure, t, &mut rng);
        MdState::new_with(structure.clone(), v, &engine, &mut ws).unwrap()
    };
    let (mut t_stats, mut drift, mut total) = (RunningStats::new(), 0.0f64, 0usize);
    let state = match config.protocol {
        Protocol::Nve {
            temperature_k,
            steps,
            dt_fs,
        } => {
            let mut state = start(temperature_k);
            let vv = VelocityVerlet::new(dt_fs);
            let e0 = state.total_energy();
            for _ in 0..steps {
                vv.step_with(&mut state, &engine, &mut ws).unwrap();
                t_stats.push(state.temperature());
                drift = drift.max((state.total_energy() - e0).abs());
            }
            total = steps;
            state
        }
        Protocol::Nvt {
            temperature_k,
            steps,
            dt_fs,
            tau_fs,
        } => {
            let mut state = start(temperature_k);
            let mut nh = NoseHoover::with_period(dt_fs, temperature_k, state.n_dof(), tau_fs);
            let h0 = nh.conserved_quantity(&state);
            for _ in 0..steps {
                nh.step_with(&mut state, &engine, &mut ws).unwrap();
                t_stats.push(state.temperature());
                drift = drift.max((nh.conserved_quantity(&state) - h0).abs());
            }
            total = steps;
            state
        }
        Protocol::NvtRamp {
            from_k,
            to_k,
            rate_k_per_fs,
            hold_steps,
            dt_fs,
            tau_fs,
        } => {
            let mut state = start(from_k.max(1.0));
            let mut nh = NoseHoover::with_period(dt_fs, from_k, state.n_dof(), tau_fs);
            let ramp = TemperatureRamp {
                rate_k_per_fs: rate_k_per_fs.abs() * (to_k - from_k).signum(),
                target_k: to_k,
            };
            let mut moving = true;
            while moving {
                moving = ramp.advance(&mut nh);
                nh.step_with(&mut state, &engine, &mut ws).unwrap();
                t_stats.push(state.temperature());
                total += 1;
            }
            let h0 = nh.conserved_quantity(&state);
            for _ in 0..hold_steps {
                nh.step_with(&mut state, &engine, &mut ws).unwrap();
                t_stats.push(state.temperature());
                drift = drift.max((nh.conserved_quantity(&state) - h0).abs());
            }
            total += hold_steps;
            state
        }
        Protocol::Relax { .. } => unreachable!("MD protocols only"),
    };
    (state, total, t_stats.mean(), drift)
}

/// A `Session` is that loop and nothing else: NVE, NVT and a ramp that
/// crosses into its hold land on the hand-written loop's endpoint bit for
/// bit, with the same step count, mean temperature and drift.
#[test]
fn session_matches_a_plain_integrator_loop() {
    let base = SimulationConfig {
        perturb: 0.02,
        seed: 17,
        ..SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 12)
    };
    let protocols = [
        base.protocol,
        Protocol::Nvt {
            temperature_k: 400.0,
            steps: 12,
            dt_fs: 1.0,
            tau_fs: 40.0,
        },
        // 4 K at 0.5 K/fs: 8 ramp steps, then 5 of hold.
        Protocol::NvtRamp {
            from_k: 100.0,
            to_k: 104.0,
            rate_k_per_fs: 0.5,
            hold_steps: 5,
            dt_fs: 1.0,
            tau_fs: 50.0,
        },
    ];
    let bits = |v: &[tbmd::Vec3]| -> Vec<[u64; 3]> {
        v.iter().map(|p| p.to_array().map(f64::to_bits)).collect()
    };
    for protocol in protocols {
        let config = SimulationConfig { protocol, ..base };
        let summary = run_session(&config);
        let (state, steps, mean_t, drift) = plain_loop(&config);
        assert_eq!(
            bits(summary.final_structure.positions()),
            bits(state.structure.positions()),
            "{protocol:?}: positions"
        );
        assert_eq!(
            bits(&summary.final_velocities),
            bits(&state.velocities),
            "{protocol:?}: velocities"
        );
        assert_eq!(summary.steps, steps, "{protocol:?}: steps");
        assert_eq!(
            summary.mean_temperature_k.to_bits(),
            mean_t.to_bits(),
            "{protocol:?}: mean temperature"
        );
        assert_eq!(
            summary.conserved_drift.to_bits(),
            drift.to_bits(),
            "{protocol:?}: conserved drift"
        );
        assert!(drift > 0.0, "{protocol:?}: the drift monitor never ran");
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
    let summary = run_session(&config);
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
    let e_ideal = run_session(&ideal).final_potential_energy;

    let rattled = SimulationConfig {
        perturb: 0.1,
        protocol: Protocol::Relax {
            force_tolerance: 2e-2,
            max_iterations: 300,
        },
        ..ideal
    };
    let summary = run_session(&rattled);
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
    let summary = run_session(&config);
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

/// A timestep of 1e200 fs passes the protocol check (finite, positive) but
/// blows the atoms out of any finite position within a step or two; the
/// session stops there with an error instead of summarising a run whose
/// energy is infinite.
#[test]
fn a_session_that_blows_up_is_an_error() {
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 4);
    config.protocol = Protocol::Nve {
        temperature_k: 300.0,
        steps: 4,
        dt_fs: 1e200,
    };
    let outcome = SessionBuilder::new(config).build().unwrap().run();
    assert!(
        matches!(outcome, Err(tbmd::TbError::NonFinitePosition { .. })),
        "{:?}",
        outcome.map(|summary| summary.final_total_energy)
    );
}

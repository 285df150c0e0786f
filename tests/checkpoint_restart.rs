//! Checkpoint/restart equivalence (ISSUE 5).
//!
//! The `tbmd-ckpt` contract: a run killed at any step and continued from its
//! last snapshot produces the *bitwise* trajectory of the uninterrupted run
//! — positions, velocities, thermostat internals and summary statistics all
//! restored exactly, with no force re-evaluation at the resume point. The
//! tests pin that for the serial engine (NVE, NVT, ramp protocols) and for
//! the distributed engine under an injected mid-run rank kill driven through
//! the resilient session's recovery loop.
//!
//! The neighbour list an evaluation reads is a pure function of the
//! positions, whether the workspace kept its candidates or rebuilt them, so
//! a resumed run (fresh workspace) computes what the uninterrupted one did.
//! The serial NVE contract is tested on Si-8 and on Si-64, where the kept
//! list refreshes across the resume point; the others use Si-8.

use std::path::PathBuf;
use tbmd::{
    CheckpointConfig, CheckpointStore, EngineKind, FaultKind, FaultPlan, Protocol, ReshardPolicy,
    ResilienceOptions, SessionBuilder, SimulationConfig, SimulationSummary, SystemSpec, TbError,
    Vec3,
};

/// Build the session and drive it to completion.
fn run(builder: SessionBuilder<'_>) -> Result<SimulationSummary, TbError> {
    builder.build()?.run()
}

/// `config` under the respawn policy with one injected fault: the summary
/// (or the failure that exhausted the budget) and the recovery count.
fn run_resilient(
    config: &SimulationConfig,
    ckpt: &CheckpointConfig,
    fault: FaultPlan,
    max_recoveries: usize,
) -> Result<(SimulationSummary, usize), TbError> {
    let mut session = SessionBuilder::new(*config)
        .checkpoint(ckpt)
        .faults(&[fault])
        .resilience(ResilienceOptions {
            policy: ReshardPolicy::Respawn,
            max_recoveries,
        })
        .build()?;
    let summary = session.run()?;
    Ok((summary, session.recovery_report().recoveries))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbmd_ckpt_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(v: &[Vec3]) -> Vec<u64> {
    v.iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

/// Final positions + velocities as raw f64 bit patterns.
fn endpoint_bits(summary: &SimulationSummary) -> (Vec<u64>, Vec<u64>) {
    (
        bits(summary.final_structure.positions()),
        bits(&summary.final_velocities),
    )
}

fn assert_bitwise_equal(a: &SimulationSummary, b: &SimulationSummary, what: &str) {
    let (xa, va) = endpoint_bits(a);
    let (xb, vb) = endpoint_bits(b);
    assert_eq!(xa, xb, "{what}: final positions diverged");
    assert_eq!(va, vb, "{what}: final velocities diverged");
    assert_eq!(
        a.conserved_drift.to_bits(),
        b.conserved_drift.to_bits(),
        "{what}: conserved-drift monitor diverged"
    );
    assert_eq!(
        a.mean_temperature_k.to_bits(),
        b.mean_temperature_k.to_bits(),
        "{what}: temperature statistics diverged"
    );
    assert_eq!(a.steps, b.steps, "{what}: step counts diverged");
}

fn si8_nve(steps: usize) -> SimulationConfig {
    si_nve(1, steps)
}

/// Perturbed `reps³` Si diamond cells under serial NVE at 300 K.
fn si_nve(reps: usize, steps: usize) -> SimulationConfig {
    SimulationConfig {
        system: SystemSpec::SiliconDiamond { reps },
        engine: EngineKind::Serial,
        protocol: Protocol::Nve {
            temperature_k: 300.0,
            steps,
            dt_fs: 1.0,
        },
        electronic_kt: 0.1,
        perturb: 0.02,
        seed: 11,
        record_stride: 0,
    }
}

/// Kill-and-resume, serial NVE on Si-8 and Si-64: run 20 steps clean;
/// separately run the same config truncated to 12 steps with snapshots
/// every 5 (the "kill" lands between snapshots, so resume rewinds to step
/// 10 and recomputes 11–20).
#[test]
fn serial_nve_kill_and_resume_is_bitwise_identical() {
    for reps in [1, 2] {
        let dir = scratch_dir(&format!("nve{reps}"));
        let ckpt = CheckpointConfig {
            dir: dir.clone(),
            interval: 5,
            retain: 3,
        };

        let clean = run(SessionBuilder::new(si_nve(reps, 20))).unwrap();

        // Interrupted run: dies after step 12; newest usable snapshot is
        // step 10.
        run(SessionBuilder::new(si_nve(reps, 12)).checkpoint(&ckpt)).unwrap();
        let store = CheckpointStore::open(&dir, 0).unwrap();
        assert_eq!(store.latest().unwrap().unwrap().step, 10);

        // Resume into the *longer* 20-step request (step counts are outside
        // the config fingerprint) and land bit-for-bit on the uninterrupted
        // endpoint.
        let resumed = SessionBuilder::new(si_nve(reps, 20))
            .checkpoint(&ckpt)
            .resume();
        let resumed = run(resumed).unwrap();
        let what = format!("serial NVE, Si-{}", 8 * reps * reps * reps);
        assert_bitwise_equal(&clean, &resumed, &what);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Same contract under Nosé–Hoover: the thermostat internals (ξ, η, Q,
/// set-point) ride in the snapshot's THRM section.
#[test]
fn serial_nvt_kill_and_resume_is_bitwise_identical() {
    let dir = scratch_dir("nvt");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 2,
    };
    let config = |steps| SimulationConfig {
        protocol: Protocol::Nvt {
            temperature_k: 400.0,
            steps,
            dt_fs: 1.0,
            tau_fs: 40.0,
        },
        ..si8_nve(0)
    };

    let clean = run(SessionBuilder::new(config(15))).unwrap();
    run(SessionBuilder::new(config(9)).checkpoint(&ckpt)).unwrap();
    let resumed = run(SessionBuilder::new(config(15)).checkpoint(&ckpt).resume()).unwrap();
    assert_bitwise_equal(&clean, &resumed, "serial NVT");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Ramp protocol: resume both from a mid-ramp snapshot and from the
/// ramp→hold boundary snapshot (which must carry the hold phase's conserved
/// reference H'₀ so the drift monitor continues exactly).
#[test]
fn ramp_resume_mid_ramp_and_at_hold_boundary() {
    let dir = scratch_dir("ramp");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 5,
        retain: 0,
    };
    // 10 K at 0.5 K/fs = 20 ramp steps, then 3 hold steps: snapshots land at
    // 5, 10, 15 (mid-ramp) and 20 (the final ramp step, holding=true).
    let config = SimulationConfig {
        protocol: Protocol::NvtRamp {
            from_k: 100.0,
            to_k: 110.0,
            rate_k_per_fs: 0.5,
            hold_steps: 3,
            dt_fs: 1.0,
            tau_fs: 50.0,
        },
        ..si8_nve(0)
    };

    let full = run(SessionBuilder::new(config).checkpoint(&ckpt)).unwrap();
    assert_eq!(full.steps, 23);
    let store = CheckpointStore::open(&dir, 0).unwrap();
    let steps: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
    assert_eq!(steps, vec![5, 10, 15, 20]);

    // Resume from the boundary snapshot (step 20): replays only the hold.
    let from_boundary = run(SessionBuilder::new(config).checkpoint(&ckpt).resume()).unwrap();
    assert_bitwise_equal(&full, &from_boundary, "ramp hold-boundary resume");

    // Drop the boundary snapshot; latest is now mid-ramp (step 15) with the
    // thermostat set-point partway up the ramp.
    std::fs::remove_file(store.path_for(20)).unwrap();
    let from_mid_ramp = run(SessionBuilder::new(config).checkpoint(&ckpt).resume()).unwrap();
    assert_bitwise_equal(&full, &from_mid_ramp, "mid-ramp resume");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario: a distributed run loses rank 1 mid-trajectory;
/// the resilient driver detects the failure (no hang), rewinds to the last
/// snapshot and finishes — bitwise identical to a run that never crashed.
#[test]
fn distributed_kill_recover_resume_is_bitwise_identical() {
    let dir = scratch_dir("dist");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 3,
    };
    let config = SimulationConfig {
        engine: EngineKind::Distributed { ranks: 2 },
        ..si8_nve(12)
    };

    let clean = run(SessionBuilder::new(config)).unwrap();

    // Evaluation 1 is the warm-up of `MdState::new`, so evaluation 8 is MD
    // step 7 — after the step-4 snapshot, before the step-8 one.
    let fault = FaultPlan {
        rank: 1,
        at_evaluation: 8,
        kind: FaultKind::Kill,
    };
    let (recovered, recoveries) = run_resilient(&config, &ckpt, fault, 2).unwrap();
    assert_eq!(recoveries, 1, "exactly one recovery expected");
    assert_bitwise_equal(&clean, &recovered, "distributed kill+recover");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault before the first snapshot restarts from scratch; an exhausted
/// recovery budget surfaces the rank failure instead of looping forever.
#[test]
fn resilient_driver_edge_cases() {
    let dir = scratch_dir("edges");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 2,
    };
    let config = SimulationConfig {
        engine: EngineKind::Distributed { ranks: 2 },
        ..si8_nve(6)
    };

    // Dies at the warm-up evaluation — nothing on disk yet.
    let fault = FaultPlan {
        rank: 0,
        at_evaluation: 1,
        kind: FaultKind::Kill,
    };
    let clean = run(SessionBuilder::new(config)).unwrap();
    let (recovered, recoveries) = run_resilient(&config, &ckpt, fault, 1).unwrap();
    assert_eq!(recoveries, 1);
    assert_bitwise_equal(&clean, &recovered, "restart-from-scratch recovery");

    // Zero recovery budget: the injected failure propagates out typed.
    let dir2 = scratch_dir("edges2");
    let ckpt2 = CheckpointConfig {
        dir: dir2.clone(),
        interval: 4,
        retain: 2,
    };
    let err = run_resilient(&config, &ckpt2, fault, 0).unwrap_err();
    assert!(
        matches!(err, TbError::RankFailure { .. }),
        "expected RankFailure, got {err:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Resume validation: an empty store and a mismatched configuration are
/// typed `TbError::Checkpoint` errors, never a silent wrong trajectory.
#[test]
fn resume_validation_rejects_empty_store_and_changed_config() {
    let dir = scratch_dir("validate");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 5,
        retain: 2,
    };

    // Nothing written yet.
    let err = run(SessionBuilder::new(si8_nve(10)).checkpoint(&ckpt).resume()).unwrap_err();
    assert!(matches!(err, TbError::Checkpoint(_)), "{err:?}");

    run(SessionBuilder::new(si8_nve(10)).checkpoint(&ckpt)).unwrap();

    // Same shape, different seed → different trajectory → rejected.
    let mut other = si8_nve(10);
    other.seed = 12;
    let err = run(SessionBuilder::new(other).checkpoint(&ckpt).resume()).unwrap_err();
    match err {
        TbError::Checkpoint(msg) => assert!(msg.contains("mismatch"), "{msg}"),
        other => panic!("expected Checkpoint error, got {other:?}"),
    }

    // A different timestep changes the dynamics → rejected too.
    let mut other = si8_nve(10);
    other.protocol = Protocol::Nve {
        temperature_k: 300.0,
        steps: 10,
        dt_fs: 0.5,
    };
    let err = run(SessionBuilder::new(other).checkpoint(&ckpt).resume()).unwrap_err();
    assert!(matches!(err, TbError::Checkpoint(_)), "{err:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

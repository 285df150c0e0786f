//! Elastic rank recovery under repeated faults (ISSUE 6).
//!
//! A P=3 distributed trajectory is hit by a rank *kill* and then, on the
//! first retry, a rank *stall* (a 60 s freeze inside a collective). The
//! resilient driver must detect both within the failure-detection window,
//! cancel the surviving workers instead of leaking them, rewind to the
//! newest snapshot, and — under the Respawn policy — land bitwise on the
//! endpoint of a run that never crashed. The Shrink policy instead
//! finishes on the survivors with re-sharded spectrum slices; the rank
//! count changes the allreduce grouping, so that endpoint is pinned to
//! summation accuracy rather than bitwise.
//!
//! The fault plans double as the one-shot regression: plans are scheduled
//! against the engine's monotone evaluation counter and consumed before
//! launch, so exactly two recoveries means neither plan re-fired across a
//! rewind.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tbmd::trace::Counter;
use tbmd::{
    CheckpointConfig, EngineKind, FaultKind, FaultPlan, ReshardPolicy, ResilienceOptions,
    ScopedSink, SessionBuilder, SimulationConfig, SimulationSummary, SystemSpec, Vec3,
};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbmd_elastic_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(v: &[Vec3]) -> Vec<u64> {
    v.iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn endpoints_equal(a: &SimulationSummary, b: &SimulationSummary) -> bool {
    bits(a.final_structure.positions()) == bits(b.final_structure.positions())
        && bits(&a.final_velocities) == bits(&b.final_velocities)
        && a.conserved_drift.to_bits() == b.conserved_drift.to_bits()
}

fn endpoint_max_diff(a: &SimulationSummary, b: &SimulationSummary) -> f64 {
    let component = |p: &Vec3, q: &Vec3| {
        (p.x - q.x)
            .abs()
            .max((p.y - q.y).abs())
            .max((p.z - q.z).abs())
    };
    let mut m = 0.0f64;
    for (p, q) in a
        .final_structure
        .positions()
        .iter()
        .zip(b.final_structure.positions())
    {
        m = m.max(component(p, q));
    }
    for (p, q) in a.final_velocities.iter().zip(&b.final_velocities) {
        m = m.max(component(p, q));
    }
    m
}

/// Si-8 NVE at P=3, 12 steps, snapshots every 4. Small enough that every
/// step rebuilds the neighbour list from positions alone, so the
/// trajectory is a pure function of the restored state.
fn p3_config() -> SimulationConfig {
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 12);
    config.engine = EngineKind::Distributed { ranks: 3 };
    config.perturb = 0.02;
    config.seed = 11;
    config
}

/// One chaos scenario end to end.
#[test]
fn kill_then_stall_recovers_bitwise_and_shrink_reshards_over_survivors() {
    let config = p3_config();
    let clean = SessionBuilder::new(config).build().unwrap().run().unwrap();

    // Kill rank 1 at evaluation 8 (MD step 7, past the step-4 snapshot);
    // freeze rank 2 at evaluation 12 (step 8 of the first retry — the
    // persistent engine's evaluation counter keeps counting across
    // rewinds, so the second plan is scheduled inside the retry's range).
    let faults = [
        FaultPlan {
            rank: 1,
            at_evaluation: 8,
            kind: FaultKind::Kill,
        },
        FaultPlan {
            rank: 2,
            at_evaluation: 12,
            kind: FaultKind::Stall { ms: 60_000 },
        },
    ];

    // Failure telemetry is observed through a scope entered on this thread
    // (the VMP workers the sessions launch re-enter it).
    let scope = ScopedSink::new("elastic-test");
    let _observing = scope.enter();

    // --- Respawn: both faults, bitwise endpoint, bounded wall time.
    let dir = scratch_dir("respawn");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 3,
    };
    let t0 = Instant::now();
    let mut session = SessionBuilder::new(config)
        .checkpoint(&ckpt)
        .faults(&faults)
        .resilience(ResilienceOptions {
            policy: ReshardPolicy::Respawn,
            max_recoveries: 3,
        })
        .build()
        .unwrap();
    let recovered = session.run().unwrap();
    let report = session.recovery_report().clone();
    let wall = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    // Exactly two recoveries: each plan fired once and never re-fired
    // across the rewinds (the one-shot contract).
    assert_eq!(report.recoveries, 2, "one recovery per injected fault");
    assert_eq!(report.failed_ranks, vec![1, 2], "blame order kill→stall");
    assert_eq!(report.final_ranks, 3, "respawn restores the full width");
    assert!(
        endpoints_equal(&clean, &recovered),
        "respawn endpoint must be bitwise the clean endpoint"
    );
    // The stall is 60 s; detection + cancellation must finish in windows,
    // not stall durations.
    assert!(
        wall < Duration::from_secs(30),
        "recovery took {wall:?} — the stalled worker was waited out, not cancelled"
    );

    // Monotone failure telemetry: two rank failures recorded (culprits
    // only — blame suppression keeps secondary timeout casualties out),
    // two recoveries, and at least one cancelled worker (the survivors of
    // each failed collective drain instead of timing out on their own).
    let delta = scope.snapshot();
    assert_eq!(delta.counter(Counter::Recoveries), 2);
    assert_eq!(delta.counter(Counter::RankFailures), 2);
    assert!(
        delta.counter(Counter::WorkerCancellations) >= 1,
        "no worker recorded a cancellation drain"
    );

    // --- Shrink: same kill, survivors finish at P−1.
    let dir = scratch_dir("shrink");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 3,
    };
    let kill = [FaultPlan {
        rank: 1,
        at_evaluation: 8,
        kind: FaultKind::Kill,
    }];
    let mut session = SessionBuilder::new(config)
        .checkpoint(&ckpt)
        .faults(&kill)
        .resilience(ResilienceOptions {
            policy: ReshardPolicy::Shrink,
            max_recoveries: 2,
        })
        .build()
        .unwrap();
    let shrunk = session.run().unwrap();
    let report = session.recovery_report().clone();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.recoveries, 1);
    assert_eq!(report.final_ranks, 2, "shrink continues on the survivors");
    let diff = endpoint_max_diff(&clean, &shrunk);
    assert!(
        diff < 1e-8,
        "shrunken endpoint drifted {diff:e} from the clean run"
    );
}

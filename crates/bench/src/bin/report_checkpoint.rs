//! **Checkpoint/restart** — cost and correctness of the `tbmd-ckpt`
//! subsystem (ISSUE 5 acceptance bench).
//!
//! Sections:
//! * `snapshots` — TBCK snapshot size and write/load latency versus system
//!   size (Si-8/64/216), measured through the real driver path
//!   ([`SessionBuilder::checkpoint`]) with the trace counters as the
//!   stopwatch.
//! * `overhead` — the acceptance number: one snapshot write per 100 MD
//!   steps at the largest size, as a percentage of 100 steps of MD. Must
//!   stay below 5%.
//! * `recovery` — a distributed run loses a rank mid-trajectory
//!   (fault injection), the resilient driver rewinds to the last snapshot,
//!   and the finished trajectory must be bitwise identical to a run that
//!   never crashed; wall time of the whole kill-detect-rewind-finish cycle.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_checkpoint [-- [max_reps] [check] [--json path]]`
//!
//! `max_reps` (default 3 = Si-216) bounds the size sweep; `check` gates on
//! overhead < 5%, a successful single-recovery, and bitwise equivalence.

use std::path::PathBuf;
use std::time::Instant;

use tbmd::trace::{Counter, JsonValue};
use tbmd::{
    CheckpointConfig, CheckpointStore, EngineKind, FaultKind, FaultPlan, ResilienceOptions,
    ScopedSink, SessionBuilder, SimulationConfig, SimulationSummary, SystemSpec, Vec3,
};
use tbmd_bench::{check_gate, fmt_f, write_json, BenchArgs, ReportTable};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbmd_ckpt_bench_{tag}_{}", std::process::id()));
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

struct SnapshotCost {
    n_atoms: usize,
    snapshot_bytes: u64,
    write_ms: f64,
    load_ms: f64,
    step_ms: f64,
}

/// Short checkpointed NVE run at `reps`³ Si cells: two snapshot writes, one
/// load, and the wall-clock step time they amortize against.
fn snapshot_cost(reps: usize) -> SnapshotCost {
    let dir = scratch(&format!("n{reps}"));
    let cfg = CheckpointConfig {
        dir: dir.clone(),
        interval: 2,
        retain: 0,
    };
    let steps = 4usize;
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps }, 300.0, steps);
    config.perturb = 0.02;

    let scope = ScopedSink::new("snapshot_cost");
    let observing = scope.enter();
    let t0 = Instant::now();
    let summary = SessionBuilder::new(config)
        .checkpoint(&cfg)
        .build()
        .expect("checkpointed session")
        .run()
        .expect("checkpointed run");
    let wall = t0.elapsed();
    drop(observing);
    let delta = scope.snapshot();

    let writes = delta.counter(Counter::CkptWrites).max(1);
    let store = CheckpointStore::open(&dir, 0).expect("store");
    let t0 = Instant::now();
    let latest = store.latest().expect("load").expect("snapshot present");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(latest.step as usize, steps, "newest snapshot at the end");
    let n_atoms = summary.final_structure.n_atoms();
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotCost {
        n_atoms,
        snapshot_bytes: delta.counter(Counter::CkptBytes) / writes,
        write_ms: delta.counter(Counter::CkptNanos) as f64 / writes as f64 / 1e6,
        load_ms,
        step_ms: wall.as_secs_f64() * 1e3 / steps as f64,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let max_reps = args.pos_usize(0, 3).clamp(1, 4);
    let mut root = JsonValue::object();
    root.set("report", "checkpoint");

    // --- Snapshot cost vs system size.
    let mut table = ReportTable::new(
        "Checkpoint: TBCK snapshot cost vs system size (NVE, interval 2)",
        &["N", "bytes", "write/ms", "load/ms", "step/ms", "ovh@100/%"],
    );
    let mut snapshots: Vec<JsonValue> = Vec::new();
    let mut overhead_at_largest = f64::NAN;
    for reps in 1..=max_reps {
        let c = snapshot_cost(reps);
        // One write per 100 steps as a fraction of 100 steps of MD: the
        // acceptance cadence of a production run.
        let overhead_pct = c.write_ms / (100.0 * c.step_ms) * 100.0;
        overhead_at_largest = overhead_pct;
        table.row(vec![
            c.n_atoms.to_string(),
            c.snapshot_bytes.to_string(),
            fmt_f(c.write_ms, 3),
            fmt_f(c.load_ms, 3),
            fmt_f(c.step_ms, 3),
            fmt_f(overhead_pct, 4),
        ]);
        let mut v = JsonValue::object();
        v.set("n_atoms", c.n_atoms)
            .set("snapshot_bytes", c.snapshot_bytes)
            .set("write_ms", c.write_ms)
            .set("load_ms", c.load_ms)
            .set("step_ms", c.step_ms)
            .set("overhead_pct_interval100", overhead_pct);
        snapshots.push(v);
    }
    root.set("snapshots", snapshots);
    let mut overhead = JsonValue::object();
    overhead
        .set("interval", 100usize)
        .set("overhead_pct", overhead_at_largest)
        .set("budget_pct", 5.0);
    root.set("overhead", overhead);

    // --- Distributed kill + recovery: wall time and bitwise equivalence.
    let dir = scratch("recovery");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 3,
    };
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 12);
    config.engine = EngineKind::Distributed { ranks: 2 };
    config.perturb = 0.02;
    let t0 = Instant::now();
    let clean = SessionBuilder::new(config)
        .build()
        .expect("clean session")
        .run()
        .expect("clean run");
    let clean_wall = t0.elapsed();
    let fault = FaultPlan {
        rank: 1,
        at_evaluation: 8, // MD step 7: after the step-4 snapshot
        kind: FaultKind::Kill,
    };
    let t0 = Instant::now();
    // The default policy: respawn, at most two recoveries.
    let mut session = SessionBuilder::new(config)
        .checkpoint(&ckpt)
        .faults(&[fault])
        .resilience(ResilienceOptions::default())
        .build()
        .expect("resilient session");
    let recovered = session.run().expect("resilient run");
    let recoveries = session.recovery_report().recoveries;
    let recover_wall = t0.elapsed();
    let bitwise = endpoints_equal(&clean, &recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let mut rec = JsonValue::object();
    rec.set("engine", "distributed/2")
        .set("steps", 12usize)
        .set("recoveries", recoveries)
        .set("bitwise_equal", bitwise)
        .set("clean_wall_ms", clean_wall.as_secs_f64() * 1e3)
        .set("recover_wall_ms", recover_wall.as_secs_f64() * 1e3);
    root.set("recovery", rec);
    let mut rec_table = ReportTable::new(
        "Checkpoint: distributed rank-kill recovery (Si-8, P=2, kill at step 7)",
        &["recoveries", "bitwise", "clean/ms", "kill+recover/ms"],
    );
    rec_table.row(vec![
        recoveries.to_string(),
        bitwise.to_string(),
        fmt_f(clean_wall.as_secs_f64() * 1e3, 3),
        fmt_f(recover_wall.as_secs_f64() * 1e3, 3),
    ]);

    table.print();
    rec_table.print();
    println!(
        "\nsnapshot-per-100-steps overhead at largest size: {overhead_at_largest:.4}% (budget 5%)"
    );
    if let Some(path) = &args.json {
        write_json(path, &root);
    }

    if args.check {
        let overhead_ok = overhead_at_largest.is_finite() && overhead_at_largest < 5.0;
        let recovery_ok = bitwise && recoveries == 1;
        check_gate(
            overhead_ok && recovery_ok,
            &format!(
                "overhead@100 {overhead_at_largest:.4}% < 5% = {overhead_ok}, single bitwise recovery = {recovery_ok}"
            ),
        );
    }
}

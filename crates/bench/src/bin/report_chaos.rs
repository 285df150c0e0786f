//! **Chaos recovery** — elastic rank recovery under repeated injected
//! faults (ISSUE 6 acceptance bench).
//!
//! Sections:
//! * `cancellation` — a rank frozen for 60 s inside a VMP collective is
//!   detected by its peers' receive windows and *cancelled*: the whole
//!   launch returns in ~the detection window, not the stall duration, with
//!   zero leaked worker threads and only the frozen rank blamed.
//! * `respawn` — a P=3 distributed trajectory survives a kill *and* a
//!   stall in sequence under [`ReshardPolicy::Respawn`]: two rewinds, a
//!   bitwise-identical endpoint versus the run that never crashed, and a
//!   bounded kill-detect-rewind-finish wall time.
//! * `shrink` — the same trajectory under [`ReshardPolicy::Shrink`]
//!   finishes on the survivors (final_ranks = P−1), with the endpoint
//!   matching the clean run to summation accuracy (the allreduce grouping
//!   changes with the rank count, so bitwise identity is not expected).
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_chaos [-- [check] [--json path]]`

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tbmd::parallel::{vmp_run_opts, VmpFault, VmpOptions};
use tbmd::trace::JsonValue;
use tbmd::{
    live_vmp_workers, CheckpointConfig, EngineKind, FaultKind, FaultPlan, ReshardPolicy,
    ResilienceOptions, SessionBuilder, SimulationConfig, SimulationSummary, SystemSpec, Vec3,
};
use tbmd_bench::{check_gate, fmt_f, write_json, BenchArgs, ReportTable};

/// Frozen-rank duration: long enough that finishing in bounded time proves
/// cancellation reclaimed the worker instead of waiting the stall out.
const STALL_MS: u64 = 60_000;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbmd_chaos_bench_{tag}_{}", std::process::id()));
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
}

/// Largest per-component |Δ| over endpoint positions and velocities (Å,
/// Å/fs — one number since both must be tiny).
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

/// The P=3 distributed trajectory every section drives: Si-8 NVE, 12
/// steps, snapshots every 4.
fn chaos_config() -> SimulationConfig {
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 12);
    config.engine = EngineKind::Distributed { ranks: 3 };
    config.perturb = 0.02;
    config
}

/// Kill rank 1 at evaluation 8 (MD step 7, past the step-4 snapshot), then
/// freeze rank 2 at evaluation 12 (step 8 of the first retry). Plans are
/// scheduled against the persistent engine's monotone evaluation counter,
/// so the second plan lands inside the second attempt's range.
fn chaos_faults() -> Vec<FaultPlan> {
    vec![
        FaultPlan {
            rank: 1,
            at_evaluation: 8,
            kind: FaultKind::Kill,
        },
        FaultPlan {
            rank: 2,
            at_evaluation: 12,
            kind: FaultKind::Stall { ms: STALL_MS },
        },
    ]
}

fn main() {
    let args = BenchArgs::parse();
    let mut root = JsonValue::object();
    root.set("report", "chaos");

    // --- VMP-level cancellation: error in ~window, not ~stall.
    let opts = VmpOptions {
        recv_timeout: Some(Duration::from_millis(200)),
        fault: Some(VmpFault {
            rank: 2,
            kind: FaultKind::Stall { ms: STALL_MS },
        }),
    };
    let t0 = Instant::now();
    let err = vmp_run_opts::<(), _>(3, opts, |mut rank| {
        let mut data = vec![rank.id() as f64; 8];
        rank.allreduce_sum(1, &mut data);
    })
    .expect_err("a frozen rank must surface as an error, not a hang");
    let cancel_wall = t0.elapsed();
    let blamed = err.failed_ranks();
    let cancel_leaked = live_vmp_workers();
    let cancel_ok =
        cancel_wall < Duration::from_secs(10) && blamed == vec![2] && cancel_leaked == 0;
    let mut cancel_table = ReportTable::new(
        "Chaos: VMP stall cancellation (P=3, rank 2 frozen 60 s, window 200 ms)",
        &["detect+drain/ms", "blamed", "leaked workers"],
    );
    cancel_table.row(vec![
        fmt_f(cancel_wall.as_secs_f64() * 1e3, 1),
        format!("{blamed:?}"),
        cancel_leaked.to_string(),
    ]);
    let mut v = JsonValue::object();
    v.set("stall_ms", STALL_MS)
        .set("window_ms", 200u64)
        .set("wall_ms", cancel_wall.as_secs_f64() * 1e3)
        .set("blamed_ranks", format!("{blamed:?}"))
        .set("leaked_workers", cancel_leaked as u64)
        .set("pass", cancel_ok);
    root.set("cancellation", v);

    // --- Clean reference trajectory (never crashes).
    let config = chaos_config();
    let t0 = Instant::now();
    let clean = SessionBuilder::new(config)
        .build()
        .expect("clean session")
        .run()
        .expect("clean run");
    let clean_wall = t0.elapsed();

    // --- Respawn: kill then stall, bitwise endpoint, bounded wall.
    let dir = scratch("respawn");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 3,
    };
    let t0 = Instant::now();
    let mut session = SessionBuilder::new(config)
        .checkpoint(&ckpt)
        .faults(&chaos_faults())
        .resilience(ResilienceOptions {
            policy: ReshardPolicy::Respawn,
            max_recoveries: 3,
        })
        .build()
        .expect("respawn session");
    let respawned = session.run().expect("respawn recovery");
    let respawn_report = session.recovery_report().clone();
    let respawn_wall = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    let respawn_bitwise = endpoints_equal(&clean, &respawned);
    let respawn_leaked = live_vmp_workers();
    // The stall is 60 s; recovery must be paid in detection windows, not
    // stall durations.
    let respawn_bound = clean_wall * 10 + Duration::from_secs(15);
    let respawn_ok = respawn_report.recoveries == 2
        && respawn_report.final_ranks == 3
        && respawn_bitwise
        && respawn_wall < respawn_bound
        && respawn_leaked == 0;
    let mut respawn_table = ReportTable::new(
        "Chaos: resilient kill+stall, Respawn policy (Si-8, P=3, 12 steps)",
        &[
            "recoveries",
            "final P",
            "bitwise",
            "clean/ms",
            "chaos/ms",
            "leaked",
        ],
    );
    respawn_table.row(vec![
        respawn_report.recoveries.to_string(),
        respawn_report.final_ranks.to_string(),
        respawn_bitwise.to_string(),
        fmt_f(clean_wall.as_secs_f64() * 1e3, 1),
        fmt_f(respawn_wall.as_secs_f64() * 1e3, 1),
        respawn_leaked.to_string(),
    ]);
    let mut v = JsonValue::object();
    v.set("recoveries", respawn_report.recoveries)
        .set("failed_ranks", format!("{:?}", respawn_report.failed_ranks))
        .set("final_ranks", respawn_report.final_ranks)
        .set("bitwise_equal", respawn_bitwise)
        .set("clean_wall_ms", clean_wall.as_secs_f64() * 1e3)
        .set("chaos_wall_ms", respawn_wall.as_secs_f64() * 1e3)
        .set("leaked_workers", respawn_leaked as u64)
        .set("pass", respawn_ok);
    root.set("respawn", v);

    // --- Shrink: finish on the survivors after the kill.
    let dir = scratch("shrink");
    let ckpt = CheckpointConfig {
        dir: dir.clone(),
        interval: 4,
        retain: 3,
    };
    let kill_only = vec![FaultPlan {
        rank: 1,
        at_evaluation: 8,
        kind: FaultKind::Kill,
    }];
    let mut session = SessionBuilder::new(config)
        .checkpoint(&ckpt)
        .faults(&kill_only)
        .resilience(ResilienceOptions {
            policy: ReshardPolicy::Shrink,
            max_recoveries: 2,
        })
        .build()
        .expect("shrink session");
    let shrunk = session.run().expect("shrink recovery");
    let shrink_report = session.recovery_report().clone();
    let _ = std::fs::remove_dir_all(&dir);
    let shrink_diff = endpoint_max_diff(&clean, &shrunk);
    let shrink_leaked = live_vmp_workers();
    let shrink_ok = shrink_report.recoveries == 1
        && shrink_report.final_ranks == 2
        && shrink_diff < 1e-8
        && shrink_leaked == 0;
    let mut shrink_table = ReportTable::new(
        "Chaos: resilient kill, Shrink policy (Si-8, P=3 → 2 survivors)",
        &["recoveries", "final P", "max |Δ| vs clean", "leaked"],
    );
    shrink_table.row(vec![
        shrink_report.recoveries.to_string(),
        shrink_report.final_ranks.to_string(),
        format!("{shrink_diff:.2e}"),
        shrink_leaked.to_string(),
    ]);
    let mut v = JsonValue::object();
    v.set("recoveries", shrink_report.recoveries)
        .set("failed_ranks", format!("{:?}", shrink_report.failed_ranks))
        .set("final_ranks", shrink_report.final_ranks)
        .set("endpoint_max_diff", shrink_diff)
        .set("tolerance", 1e-8)
        .set("leaked_workers", shrink_leaked as u64)
        .set("pass", shrink_ok);
    root.set("shrink", v);

    cancel_table.print();
    respawn_table.print();
    shrink_table.print();
    println!(
        "\ncancellation {}ms (stall {}s), respawn {} recoveries bitwise={respawn_bitwise}, \
         shrink P={} |Δ|={shrink_diff:.2e}",
        fmt_f(cancel_wall.as_secs_f64() * 1e3, 0),
        STALL_MS / 1000,
        respawn_report.recoveries,
        shrink_report.final_ranks,
    );
    if let Some(path) = &args.json {
        write_json(path, &root);
    }

    if args.check {
        check_gate(
            cancel_ok && respawn_ok && shrink_ok,
            &format!(
                "cancellation bounded+clean = {cancel_ok}, respawn bitwise double recovery = \
                 {respawn_ok}, shrink to survivors = {shrink_ok}"
            ),
        );
    }
}

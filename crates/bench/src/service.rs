//! What running the physics as a service costs: snapshots and recovery
//! (S1), multiplexed tenants (S2), being observed (S3), and a campaign
//! matrix (S4). Their correctness — bitwise resume, bitwise tenants,
//! resumable campaigns — is asserted by the tests; these are the numbers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tbmd::trace::{Counter, Hist, HistogramSet};
use tbmd::{
    Budget, CheckpointConfig, CheckpointStore, EngineKind, FaultKind, FaultPlan, ResilienceOptions,
    ScopedSink, SessionBuilder, SessionStatus, SimulationConfig, SystemSpec,
};
use tbmd_campaign::{run_campaign, CampaignSpec};
use tbmd_serve::{JobSpec, Multiplexer, ServeStats};

use crate::report::{fmt_f, Report, Table};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbmd_report_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one TBCK snapshot of a Si-`reps`³ NVE run costs.
pub struct SnapshotCost {
    pub n_atoms: usize,
    pub bytes: u64,
    pub write_ms: f64,
    pub load_ms: f64,
    pub step_ms: f64,
}

impl SnapshotCost {
    /// One snapshot per 100 steps as a share of 100 steps of MD, in percent:
    /// the cadence of a production run.
    pub fn overhead_pct(&self) -> f64 {
        self.write_ms / (100.0 * self.step_ms) * 100.0
    }
}

/// A 4-step checkpointed NVE run of Si diamond `reps`³ writing a snapshot
/// every 2 steps, timed through the real session path with the trace
/// counters as the stopwatch, then one load of the newest snapshot.
pub fn snapshot_cost(reps: usize) -> SnapshotCost {
    let dir = scratch(&format!("ckpt{reps}"));
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
    store.latest().expect("load").expect("snapshot present");
    let load = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotCost {
        n_atoms: summary.final_structure.n_atoms(),
        bytes: delta.counter(Counter::CkptBytes) / writes,
        write_ms: delta.counter(Counter::CkptNanos) as f64 / writes as f64 / 1e6,
        load_ms: ms(load),
        step_ms: ms(wall) / steps as f64,
    }
}

/// S1: snapshot cost for Si cells up to `size`³ (default 3), and what a
/// rank kill costs a distributed run that recovers from its snapshots.
pub fn checkpoint(size: Option<usize>) -> Report {
    let max_reps = size.unwrap_or(3).clamp(1, 4);
    let mut snapshots = Table::new(
        "S1a: TBCK snapshot cost vs system size (NVE, a snapshot every 2 steps)",
        &["N", "bytes", "write/ms", "load/ms", "step/ms", "ovh@100/%"],
    );
    for reps in 1..=max_reps {
        let c = snapshot_cost(reps);
        snapshots.row(vec![
            c.n_atoms.to_string(),
            c.bytes.to_string(),
            fmt_f(c.write_ms, 3),
            fmt_f(c.load_ms, 3),
            fmt_f(c.step_ms, 3),
            fmt_f(c.overhead_pct(), 4),
        ]);
    }

    // Rank 1 of a P = 2 run dies at evaluation 8 (MD step 7, after the
    // step-4 snapshot); the session rewinds and finishes.
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
    SessionBuilder::new(config)
        .build()
        .expect("clean session")
        .run()
        .expect("clean run");
    let clean = t0.elapsed();
    let fault = FaultPlan {
        rank: 1,
        at_evaluation: 8,
        kind: FaultKind::Kill,
    };
    let t0 = Instant::now();
    let mut session = SessionBuilder::new(config)
        .checkpoint(&ckpt)
        .faults(&[fault])
        .resilience(ResilienceOptions::default())
        .build()
        .expect("resilient session");
    session.run().expect("resilient run");
    let recovered = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    let mut recovery = Table::new(
        "S1b: distributed rank-kill recovery (Si-8, P = 2, 12 steps, kill at step 7)",
        &["recoveries", "clean/ms", "kill+recover/ms"],
    );
    recovery.row(vec![
        session.recovery_report().recoveries.to_string(),
        fmt_f(ms(clean), 3),
        fmt_f(ms(recovered), 3),
    ]);
    let mut report = Report::default();
    report.table(snapshots).table(recovery);
    report
}

/// Wall time until the three 200-step Si-8 jobs of the mixed-size probe
/// retire from a `Multiplexer` under a two-thread budget, submitted alone or
/// behind one 24-step Si-64 job; with the Si-64 job, also until it retires.
fn mixed_sizes(behind_si64: bool) -> (Duration, Option<Duration>) {
    let nve = |reps, steps, seed| {
        let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps }, 300.0, steps);
        c.seed = seed;
        c
    };
    let mut mux = Multiplexer::with_stats(ServeStats::new(Budget::new(2)));
    if behind_si64 {
        mux.submit(JobSpec::new("si64", nve(2, 24, 60)), std::io::sink());
    }
    for i in 0..3 {
        let config = nve(1, 200, 61 + i);
        mux.submit(JobSpec::new(format!("si8-{i}"), config), std::io::sink());
    }
    let t0 = Instant::now();
    let (mut small, mut large) = (Duration::ZERO, None);
    loop {
        let busy = mux.tick();
        for report in mux.take_reports() {
            assert!(
                report.outcome.is_ok(),
                "{}: {:?}",
                report.name,
                report.outcome
            );
            match report.name.as_str() {
                "si64" => large = Some(t0.elapsed()),
                _ => small = t0.elapsed(),
            }
        }
        if !busy {
            return (small, large);
        }
    }
}

/// S2: `size` (default 4) Si-8 NVE tenants of 24 steps run one after
/// another, round-robin one step at a time over raw sessions, and through
/// the `Multiplexer` (admitted tenants side by side) under a two-thread
/// budget. S2b: the mixed-size probe ([`mixed_sizes`]), medians of nine
/// alternating runs.
pub fn serve(size: Option<usize>) -> Report {
    const STEPS: usize = 24;
    const BUDGET: usize = 2;
    let k = size.unwrap_or(4).max(2);
    let configs: Vec<SimulationConfig> = (0..k)
        .map(|i| {
            let temperature = 300.0 + 25.0 * i as f64;
            let mut c =
                SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, temperature, STEPS);
            c.seed = 100 + i as u64;
            c
        })
        .collect();
    let session = |c: &SimulationConfig| SessionBuilder::new(*c).build().expect("session");

    let t0 = Instant::now();
    for c in &configs {
        session(c).run().expect("sequential run");
    }
    let sequential = t0.elapsed();

    let mut sessions: Vec<_> = configs.iter().map(session).collect();
    let mut latencies_ms = Vec::with_capacity(k * STEPS);
    let t0 = Instant::now();
    while !sessions.is_empty() {
        sessions.retain_mut(|s| {
            let t = Instant::now();
            let status = s.step().expect("session step");
            latencies_ms.push(ms(t.elapsed()));
            status != SessionStatus::Done
        });
    }
    let round_robin = t0.elapsed();
    latencies_ms.sort_by(f64::total_cmp);
    let percentile = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p).round() as usize];

    // With one thread per job and a budget of two, at most two tenants hold
    // leases at once; the rest wait in the admission queue.
    let budget = Budget::new(BUDGET);
    let mut mux = Multiplexer::with_stats(ServeStats::new(budget.clone()));
    for (i, c) in configs.iter().enumerate() {
        let mut spec = JobSpec::new(format!("tenant-{i}"), *c);
        spec.threads = 1;
        spec.checkpoint_interval = 8;
        mux.submit(spec, std::io::sink());
    }
    let mut max_active = 0;
    let t0 = Instant::now();
    while mux.tick() {
        max_active = max_active.max(mux.active());
    }
    let service = t0.elapsed();
    let finished = mux.drain().iter().filter(|r| r.outcome.is_ok()).count();
    let hw = budget.high_water();

    let total_steps = (k * STEPS) as f64;
    let mut table = Table::new(
        format!("S2: {k} Si-8 tenants × {STEPS} steps (service: budget {BUDGET} threads)"),
        &[
            "mode",
            "wall/ms",
            "steps/s",
            "p50/ms",
            "p95/ms",
            "max active",
            "lease high-water",
        ],
    );
    let wall = |d: Duration| fmt_f(ms(d), 1);
    let rate = |d: Duration| fmt_f(total_steps / d.as_secs_f64(), 1);
    let dash = || "-".to_string();
    table
        .row(vec![
            "sequential".into(),
            wall(sequential),
            rate(sequential),
            dash(),
            dash(),
            "1".into(),
            dash(),
        ])
        .row(vec![
            "round-robin".into(),
            wall(round_robin),
            rate(round_robin),
            fmt_f(percentile(0.5), 3),
            fmt_f(percentile(0.95), 3),
            k.to_string(),
            dash(),
        ])
        .row(vec![
            "service".into(),
            wall(service),
            rate(service),
            dash(),
            dash(),
            max_active.to_string(),
            hw.to_string(),
        ]);

    let (mut alone, mut behind, mut si64) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..9 {
        alone.push(ms(mixed_sizes(false).0));
        let (small, large) = mixed_sizes(true);
        behind.push(ms(small));
        si64.push(ms(large.expect("the Si-64 job reported")));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (alone, behind, si64) = (median(&mut alone), median(&mut behind), median(&mut si64));
    let mut mixed = Table::new(
        "S2b: 3 Si-8 jobs × 200 steps, alone and behind 1 Si-64 job × 24 steps (budget 2 threads)",
        &[
            "mode",
            "Si-8 jobs wall/ms",
            "Si-64 job wall/ms",
            "Si-8 behind/alone",
        ],
    );
    mixed
        .row(vec!["alone".into(), fmt_f(alone, 1), dash(), dash()])
        .row(vec![
            "behind Si-64".into(),
            fmt_f(behind, 1),
            fmt_f(si64, 1),
            fmt_f(behind / alone, 2),
        ]);
    let mut report = Report::default();
    report
        .table(table)
        .note(format!("{finished} of {k} S2 service tenants finished."))
        .table(mixed);
    report
}

/// Steps of the Si-8 NVE session the observer-overhead measurement runs.
const OBSERVED_STEPS: usize = 32;

/// One Si-8 session of [`OBSERVED_STEPS`], observed the way a serve tenant
/// is (a root scope entered around the run, a tenant scope the session
/// enters per step) or not at all: its stepping wall time and the
/// histograms the root scope collected.
fn run_observed(observed: bool) -> (Duration, HistogramSet) {
    let root = ScopedSink::new("root");
    let mut config = SimulationConfig::nve(
        SystemSpec::SiliconDiamond { reps: 1 },
        300.0,
        OBSERVED_STEPS,
    );
    config.seed = 17;
    let mut builder = SessionBuilder::new(config);
    if observed {
        builder = builder.telemetry(ScopedSink::new("tenant"));
    }
    let mut session = builder.build().expect("session");
    let entered = observed.then(|| root.enter());
    let t0 = Instant::now();
    while session.step().expect("session step") != SessionStatus::Done {}
    let wall = t0.elapsed();
    drop(entered);
    (wall, root.histograms())
}

/// Best of 7 interleaved unobserved / observed runs, in ms, and the
/// histograms of the last observed one.
pub fn observer_overhead() -> (f64, f64, HistogramSet) {
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    let mut hists = HistogramSet::default();
    for _ in 0..7 {
        off = off.min(ms(run_observed(false).0));
        let (wall, h) = run_observed(true);
        on = on.min(ms(wall));
        hists = h;
    }
    (off, on, hists)
}

/// S3: what observing a session costs, and the latency histograms it fills.
pub fn telemetry(_: Option<usize>) -> Report {
    let (off, on, hists) = observer_overhead();
    let mut overhead = Table::new(
        format!("S3a: observer overhead (Si-8 NVE, {OBSERVED_STEPS} steps, best of 7)"),
        &["mode", "wall/ms", "ratio"],
    );
    overhead
        .row(vec!["unobserved".into(), fmt_f(off, 3), fmt_f(1.0, 4)])
        .row(vec!["observed".into(), fmt_f(on, 3), fmt_f(on / off, 4)]);
    let mut histograms = Table::new(
        "S3b: latency histograms of the last observed run",
        &["hist", "count", "mean/ms", "p50/ms", "p90/ms", "p99/ms"],
    );
    for h in Hist::ALL {
        let snap = hists.hist(h);
        let Some([p50, p90, p99]) = snap.quantiles_ns() else {
            continue;
        };
        histograms.row(vec![
            h.name().trim_end_matches("_ns").to_string(),
            snap.count().to_string(),
            fmt_f(snap.mean_ns().unwrap_or(0.0) * 1e-6, 4),
            fmt_f(p50 * 1e-6, 4),
            fmt_f(p90 * 1e-6, 4),
            fmt_f(p99 * 1e-6, 4),
        ]);
    }
    let mut report = Report::default();
    report.table(overhead).table(histograms);
    report
}

/// The campaign S4 runs: 1 structure × 2 perturbations × 2 protocols ×
/// 2 engines = 8 cells.
const CAMPAIGN: &str = r#"{
    "name": "bench-matrix",
    "seed": 29,
    "structures": [{"label": "si1", "system": "si", "reps": 1}],
    "perturbations": [
        {"label": "pristine", "kind": "pristine"},
        {"label": "vac0", "kind": "vacancy", "site": 0}
    ],
    "protocols": [
        {"label": "nve", "kind": "nve", "temperature_k": 300, "steps": 6},
        {"label": "quench", "kind": "quench", "from_k": 600, "to_k": 300,
         "segments": 2, "rate_k_per_fs": 25, "hold_steps": 2}
    ],
    "engines": ["serial", "shared"]
}"#;

/// S4: one run of an 8-cell Si-8 campaign.
pub fn campaign(_: Option<usize>) -> Report {
    let spec = CampaignSpec::from_json(CAMPAIGN).expect("campaign spec");
    let t0 = Instant::now();
    let result = run_campaign(&spec, None).expect("campaign");
    let wall = t0.elapsed();
    let mut table = Table::new(
        format!("S4: campaign `{}`", spec.name),
        &[
            "cell",
            "atoms",
            "steps",
            "E_pot/eV",
            "E_form/eV",
            "drift/eV",
            "g(r) peak/Å",
            "p95/µs",
        ],
    );
    for row in &result.rows {
        table.row(vec![
            row.name.clone(),
            row.n_atoms.to_string(),
            row.steps.to_string(),
            fmt_f(row.potential_ev, 6),
            row.formation_ev.map_or("ref".into(), |e| fmt_f(e, 6)),
            format!("{:.2e}", row.drift_ev),
            row.rdf_peak_r.map_or("-".into(), |r| fmt_f(r, 3)),
            row.step_p95_ns.map_or("-".into(), |p| fmt_f(p * 1e-3, 1)),
        ]);
    }
    let mut report = Report::default();
    report.table(table).note(format!(
        "{} cells in {} ms.",
        result.rows.len(),
        fmt_f(ms(wall), 1)
    ));
    report
}

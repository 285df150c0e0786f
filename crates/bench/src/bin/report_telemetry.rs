//! **Telemetry** — the observability stack must be near-free when on and
//! exactly free when off (ISSUE 9 acceptance bench).
//!
//! Sections:
//! * `overhead` — interleaved Si-8 NVE runs nobody observes vs runs
//!   observed the way a serve tenant is (a root scope entered around the
//!   run, a tenant scope the session enters per step, histograms live).
//!   The min-of-N walls must stay within the overhead gate (default 2%,
//!   `--threshold` to override as a ratio), and every run's endpoint
//!   energy must be bitwise identical across both modes.
//! * `histograms` — the latency distributions the observed run filled
//!   in: count, mean and p50/p90/p99 per non-empty histogram, plus a
//!   sanity bound (step count ≥ MD steps, p50 ≤ p99 ≤ 2× max bucket).
//! * `timeline` — a short run under the span-timeline recorder, exported
//!   as Chrome `trace_event` JSON and parsed back through the in-tree
//!   parser: phase spans must nest inside their MD step spans.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_telemetry
//!       [-- [check] [--json path] [--threshold x]]`
//!
//! Check mode (CI gate): exits non-zero unless the overhead ratio passes,
//! endpoints are bitwise stable, the histograms are populated and ordered,
//! and the chrome trace round-trips with correct nesting.

use std::time::{Duration, Instant};

use tbmd::trace::timeline;
use tbmd::trace::{git_describe, Hist, HistogramSet, JsonValue, ScopedSink};
use tbmd::{SessionBuilder, SessionStatus, SimulationConfig, SystemSpec};
use tbmd_bench::{check_gate, fmt_f, write_json, BenchArgs, ReportTable};

const STEPS: usize = 32;
const REPS: usize = 7;

fn config() -> SimulationConfig {
    let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, STEPS);
    c.seed = 17;
    c
}

/// One full Si-8 session, observed or not. Returns the stepping wall time,
/// the endpoint energy bits, and the histograms the root scope collected
/// (empty for an unobserved run).
fn run_once(observed: bool) -> (Duration, u64, HistogramSet) {
    // Root + tenant scope like the serve scheduler nests them, so the
    // two-level fan-out cost is part of what the gate measures.
    let root = ScopedSink::new("root");
    let mut builder = SessionBuilder::new(config());
    if observed {
        builder = builder.telemetry(ScopedSink::new("bench"));
    }
    let mut session = builder.build().expect("session");
    let entered = observed.then(|| root.enter());
    let t0 = Instant::now();
    while session.step().expect("session step") != SessionStatus::Done {}
    let wall = t0.elapsed();
    drop(entered);
    let summary = session.take_summary().expect("summary");
    (
        wall,
        summary.final_total_energy.to_bits(),
        root.histograms(),
    )
}

/// Phase/step nesting check over the parsed chrome trace: every event
/// below depth 0 must sit inside some depth-0 interval on its thread.
fn nesting_holds(parsed: &JsonValue) -> (usize, usize, bool) {
    let Some(events) = parsed.get("traceEvents").and_then(|v| v.as_array()) else {
        return (0, 0, false);
    };
    let mut intervals = Vec::new(); // (tid, depth, start, end, is_step)
    for ev in events {
        let (Some(ts), Some(dur), Some(tid)) = (
            ev.get("ts").and_then(|v| v.as_f64()),
            ev.get("dur").and_then(|v| v.as_f64()),
            ev.get("tid").and_then(|v| v.as_f64()),
        ) else {
            return (0, 0, false);
        };
        let depth = ev
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(|d| d.as_f64())
            .unwrap_or(0.0) as u16;
        let is_step = ev.get("name").and_then(|n| n.as_str()) == Some("step");
        intervals.push((tid as usize, depth, ts, ts + dur, is_step));
    }
    let steps = intervals.iter().filter(|iv| iv.4).count();
    let mut nested = true;
    let mut children = 0;
    for iv in intervals.iter().filter(|iv| iv.1 > 0) {
        children += 1;
        // Timestamps are rounded to microseconds on export; allow that
        // rounding at both edges.
        let contained = intervals
            .iter()
            .any(|p| p.1 == 0 && p.0 == iv.0 && p.2 <= iv.2 + 1e-3 && iv.3 <= p.3 + 1e-3);
        nested &= contained;
    }
    (steps, children, nested)
}

fn main() {
    let args = BenchArgs::parse();
    let gate_ratio = args.threshold_or(1.02);
    let mut root = JsonValue::object();
    root.set("report", "telemetry")
        .set("git_describe", git_describe())
        .set("steps", STEPS)
        .set("reps", REPS);

    // --- Overhead: interleaved unobserved/observed repeats.
    let mut off_walls = Vec::with_capacity(REPS);
    let mut on_walls = Vec::with_capacity(REPS);
    let mut energies = Vec::with_capacity(2 * REPS);
    let mut last_hists = HistogramSet::default();
    for _ in 0..REPS {
        let (w, e, _) = run_once(false);
        off_walls.push(w.as_secs_f64() * 1e3);
        energies.push(e);
        let (w, e, h) = run_once(true);
        on_walls.push(w.as_secs_f64() * 1e3);
        energies.push(e);
        last_hists = h;
    }
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let (off_ms, on_ms) = (min(&off_walls), min(&on_walls));
    let ratio = on_ms / off_ms;
    let bitwise = energies.windows(2).all(|w| w[0] == w[1]);

    let mut t = ReportTable::new(
        format!("Telemetry overhead (Si-8 NVE, {STEPS} steps, min of {REPS})"),
        &["mode", "wall_ms", "ratio"],
    );
    t.row(vec!["unobserved".into(), fmt_f(off_ms, 3), fmt_f(1.0, 4)])
        .row(vec!["observed".into(), fmt_f(on_ms, 3), fmt_f(ratio, 4)]);
    t.print();
    let mut overhead = JsonValue::object();
    overhead
        .set("unobserved_ms", off_ms)
        .set("observed_ms", on_ms)
        .set("ratio", ratio)
        .set("bitwise_identical", bitwise);
    root.set("overhead", overhead);

    // --- Histograms from the last observed run.
    let mut t = ReportTable::new(
        "Latency histograms (observed run)",
        &["hist", "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms"],
    );
    let mut hist_rows = Vec::new();
    for h in Hist::ALL {
        let snap = last_hists.hist(h);
        if snap.is_empty() {
            continue;
        }
        let [p50, p90, p99] = snap.quantiles_ns().expect("non-empty");
        t.row(vec![
            h.name().trim_end_matches("_ns").to_string(),
            snap.count().to_string(),
            fmt_f(snap.mean_ns().unwrap_or(0.0) * 1e-6, 4),
            fmt_f(p50 * 1e-6, 4),
            fmt_f(p90 * 1e-6, 4),
            fmt_f(p99 * 1e-6, 4),
        ]);
        let mut row = JsonValue::object();
        row.set("hist", h.name().trim_end_matches("_ns"))
            .set("count", snap.count())
            .set("p50_ms", p50 * 1e-6)
            .set("p90_ms", p90 * 1e-6)
            .set("p99_ms", p99 * 1e-6);
        hist_rows.push(row);
    }
    t.print();
    root.set("histograms", JsonValue::Array(hist_rows));
    let step = last_hists.hist(Hist::Step);
    let hist_ok = step.count() >= STEPS as u64
        && step
            .quantiles_ns()
            .map(|[p50, p90, p99]| p50 <= p90 && p90 <= p99)
            .unwrap_or(false);

    // --- Timeline: capture, export, parse back, check the nesting.
    timeline::enable(0);
    let mut session = SessionBuilder::new(config()).build().expect("session");
    for _ in 0..6 {
        session.step().expect("session step");
    }
    let chrome = timeline::export_chrome().to_compact();
    timeline::disable();
    drop(session);
    let parsed = JsonValue::parse(&chrome);
    let (step_events, child_events, nested) =
        parsed.as_ref().map(nesting_holds).unwrap_or((0, 0, false));
    let timeline_ok = parsed.is_ok() && step_events >= 6 && child_events > 0 && nested;
    let mut t = ReportTable::new(
        "Span timeline (6 steps, chrome trace round-trip)",
        &["step_spans", "nested_spans", "bytes", "nesting_ok"],
    );
    t.row(vec![
        step_events.to_string(),
        child_events.to_string(),
        chrome.len().to_string(),
        nested.to_string(),
    ]);
    t.print();
    let mut tl = JsonValue::object();
    tl.set("step_spans", step_events)
        .set("nested_spans", child_events)
        .set("export_bytes", chrome.len())
        .set("round_trip_ok", timeline_ok);
    root.set("timeline", tl);

    println!(
        "\noverhead ratio {ratio:.4} (gate {gate_ratio:.2}); endpoints bitwise: {bitwise}; \
         step hist count {} (>= {STEPS}); timeline nested: {nested}",
        step.count()
    );
    if let Some(path) = &args.json {
        write_json(path, &root);
    }
    if args.check {
        let overhead_ok = ratio <= gate_ratio;
        check_gate(
            overhead_ok && bitwise && hist_ok && timeline_ok,
            &format!(
                "overhead {ratio:.4} <= {gate_ratio:.2}: {overhead_ok}, bitwise: {bitwise}, \
                 histograms: {hist_ok}, timeline: {timeline_ok}"
            ),
        );
    }
}

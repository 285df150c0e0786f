//! **Serve** — multiplexed trajectory service under a shared compute
//! budget (ISSUE 8 acceptance bench).
//!
//! Sections:
//! * `roundrobin` — K Si-8 NVE tenants advanced one step at a time by a
//!   manual round-robin over [`tbmd::Session`]s, with per-`step()` wall
//!   latencies (p50/p95) and a bitwise comparison of every endpoint
//!   against its standalone session.
//! * `service` — the same K tenants through the [`tbmd_serve::Multiplexer`]
//!   scheduling loop with a 2-thread [`tbmd::configure_budget`] cap:
//!   admission must queue jobs past the cap (max concurrent tenants and
//!   the lease pool's high-water mark both ≤ budget), every tenant must
//!   stream a complete JSONL record set, and every endpoint must again be
//!   bitwise the standalone one.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_serve [-- [K] [check] [--json path]]`
//!
//! Check mode (CI gate): exits non-zero unless both sections hold — bitwise
//! endpoints, budget respected, all tenants finished.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tbmd::parallel::{budget_total, high_water, reset_high_water};
use tbmd::trace::{git_describe, JsonValue};
use tbmd::{
    configure_budget, SessionBuilder, SessionStatus, SimulationConfig, SimulationSummary,
    SystemSpec, Vec3,
};
use tbmd_bench::{check_gate, fmt_f, write_json, BenchArgs, ReportTable};
use tbmd_serve::{JobSpec, Multiplexer};

const STEPS: usize = 24;
const BUDGET: usize = 2;

fn bits(v: &[Vec3]) -> Vec<u64> {
    v.iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn endpoints_equal(a: &SimulationSummary, b: &SimulationSummary) -> bool {
    bits(a.final_structure.positions()) == bits(b.final_structure.positions())
        && bits(&a.final_velocities) == bits(&b.final_velocities)
        && a.final_total_energy.to_bits() == b.final_total_energy.to_bits()
}

/// Tenant i: Si-8 NVE at a per-tenant temperature and seed.
fn tenant_config(i: usize) -> SimulationConfig {
    let mut c = SimulationConfig::nve(
        SystemSpec::SiliconDiamond { reps: 1 },
        300.0 + 25.0 * i as f64,
        STEPS,
    );
    c.seed = 100 + i as u64;
    c
}

/// A `Vec<u8>` sink whose contents survive the recorder (tenant JSONL
/// streams land here instead of a socket).
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = BenchArgs::parse();
    let k = args.pos_usize(0, 4).max(2);
    let mut root = JsonValue::object();
    root.set("report", "serve")
        .set("git_describe", git_describe())
        .set("tenants", k)
        .set("steps_per_tenant", STEPS);

    let configs: Vec<SimulationConfig> = (0..k).map(tenant_config).collect();

    // --- Sequential baseline: the K trajectories one after another.
    let t0 = Instant::now();
    let reference: Vec<SimulationSummary> = configs
        .iter()
        .map(|c| {
            let mut session = SessionBuilder::new(*c).build().expect("session");
            session.run().expect("sequential run")
        })
        .collect();
    let seq_wall = t0.elapsed();

    // --- Round-robin over raw sessions: per-step scheduling latency.
    let mut sessions: Vec<_> = configs
        .iter()
        .map(|c| Some(SessionBuilder::new(*c).build().expect("session")))
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(k * STEPS);
    let mut endpoints: Vec<Option<SimulationSummary>> = (0..k).map(|_| None).collect();
    let t0 = Instant::now();
    loop {
        let mut any = false;
        for (i, slot) in sessions.iter_mut().enumerate() {
            let Some(session) = slot.as_mut() else {
                continue;
            };
            any = true;
            let t = Instant::now();
            let status = session.step().expect("session step");
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if status == SessionStatus::Done {
                endpoints[i] = session.take_summary();
                *slot = None;
            }
        }
        if !any {
            break;
        }
    }
    let rr_wall = t0.elapsed();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p95) = (
        percentile(&latencies_ms, 0.50),
        percentile(&latencies_ms, 0.95),
    );
    let rr_bitwise = endpoints
        .iter()
        .zip(&reference)
        .all(|(e, r)| e.as_ref().is_some_and(|e| endpoints_equal(e, r)));
    let mut rr = JsonValue::object();
    rr.set("wall_ms", rr_wall.as_secs_f64() * 1e3)
        .set("p50_step_ms", p50)
        .set("p95_step_ms", p95)
        .set("bitwise_equal", rr_bitwise);
    root.set("roundrobin", rr);

    // --- Service path: the Multiplexer under a finite budget. With
    // `threads: 1` per job and a budget of 2, at most two tenants hold
    // leases at once; the rest wait in the admission queue.
    configure_budget(BUDGET);
    reset_high_water();
    let mut mux = Multiplexer::new();
    let sinks: Vec<Buf> = (0..k).map(|_| Buf::default()).collect();
    for (i, c) in configs.iter().enumerate() {
        let mut spec = JobSpec::new(format!("tenant-{i}"), *c);
        spec.quantum = 6;
        spec.threads = 1;
        spec.checkpoint_interval = 8;
        mux.submit(spec, sinks[i].clone());
    }
    let mut max_active = 0usize;
    let t0 = Instant::now();
    loop {
        let busy = mux.tick();
        max_active = max_active.max(mux.active());
        if !busy {
            break;
        }
    }
    let serve_wall = t0.elapsed();
    let mut reports = mux.drain();
    let hw = high_water();
    let budget = budget_total();
    configure_budget(0);

    reports.sort_by(|a, b| a.name.cmp(&b.name));
    let all_ok = reports.len() == k && reports.iter().all(|r| r.outcome.is_ok());
    let serve_bitwise = all_ok
        && reports.iter().all(|r| {
            let i: usize = r.name.trim_start_matches("tenant-").parse().unwrap();
            r.outcome
                .as_ref()
                .is_ok_and(|s| endpoints_equal(s, &reference[i]))
        });
    // Every tenant's stream must be complete: manifest first, one step
    // line per MD step, summary last.
    let streams_ok = sinks.iter().all(|buf| {
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap_or_default();
        let lines: Vec<JsonValue> = text
            .lines()
            .filter_map(|l| JsonValue::parse(l).ok())
            .collect();
        let ty = |l: &JsonValue| l.get("type").and_then(|t| t.as_str().map(String::from));
        lines.len() == text.lines().count()
            && lines
                .first()
                .is_some_and(|l| ty(l).as_deref() == Some("manifest"))
            && lines
                .last()
                .is_some_and(|l| ty(l).as_deref() == Some("summary"))
            && lines
                .iter()
                .filter(|l| ty(l).as_deref() == Some("step"))
                .count()
                == STEPS
    });
    let budget_ok = hw <= budget && max_active <= BUDGET && budget == BUDGET;
    let total_steps = (k * STEPS) as f64;
    let seq_rate = total_steps / seq_wall.as_secs_f64();
    let serve_rate = total_steps / serve_wall.as_secs_f64();
    let mut service = JsonValue::object();
    service
        .set("budget_threads", BUDGET)
        .set("high_water", hw)
        .set("max_active", max_active)
        .set("wall_ms", serve_wall.as_secs_f64() * 1e3)
        .set("sequential_wall_ms", seq_wall.as_secs_f64() * 1e3)
        .set("steps_per_s", serve_rate)
        .set("sequential_steps_per_s", seq_rate)
        .set("bitwise_equal", serve_bitwise)
        .set("streams_complete", streams_ok)
        .set("budget_respected", budget_ok);
    root.set("service", service);

    let mut table = ReportTable::new(
        format!("Serve: {k} Si-8 tenants × {STEPS} steps (budget {BUDGET} threads)"),
        &[
            "mode", "wall/ms", "steps/s", "p50/ms", "p95/ms", "max act.", "hw", "bitwise",
        ],
    );
    table.row(vec![
        "sequential".into(),
        fmt_f(seq_wall.as_secs_f64() * 1e3, 1),
        fmt_f(seq_rate, 1),
        "-".into(),
        "-".into(),
        "1".into(),
        "-".into(),
        "ref".into(),
    ]);
    table.row(vec![
        "round-robin".into(),
        fmt_f(rr_wall.as_secs_f64() * 1e3, 1),
        fmt_f(total_steps / rr_wall.as_secs_f64(), 1),
        fmt_f(p50, 2),
        fmt_f(p95, 2),
        k.to_string(),
        "-".into(),
        rr_bitwise.to_string(),
    ]);
    table.row(vec![
        "service".into(),
        fmt_f(serve_wall.as_secs_f64() * 1e3, 1),
        fmt_f(serve_rate, 1),
        "-".into(),
        "-".into(),
        max_active.to_string(),
        hw.to_string(),
        serve_bitwise.to_string(),
    ]);
    table.print();
    println!(
        "\n{k} tenants: sequential {} ms, multiplexed {} ms; admission held {max_active} \
         concurrent (budget {BUDGET}), lease high-water {hw}",
        fmt_f(seq_wall.as_secs_f64() * 1e3, 1),
        fmt_f(serve_wall.as_secs_f64() * 1e3, 1),
    );

    if let Some(path) = &args.json {
        write_json(path, &root);
    }

    if args.check {
        check_gate(
            rr_bitwise && serve_bitwise && streams_ok && budget_ok && all_ok,
            &format!(
                "roundrobin bitwise={rr_bitwise}, service bitwise={serve_bitwise}, \
                 streams complete={streams_ok}, budget respected={budget_ok} \
                 (high-water {hw} ≤ {BUDGET}, max active {max_active}), all finished={all_ok}"
            ),
        );
    }
}

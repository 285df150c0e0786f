//! Live telemetry on a multiplexed serve run (ISSUE 9 acceptance).
//!
//! Three Si-8 tenants under a two-thread compute budget, the first asking
//! for two threads: a Si-8 system is below the two-stage floor, so it
//! leases one and the second job is admitted beside it. The third job must
//! wait in the admission queue, and a `stats` snapshot taken mid-run must
//! already show each tenant's requested and leased threads, per-tenant
//! step-latency histograms (non-empty p50/p99), the queue-depth gauge, and
//! the lease high-water mark. After the drain, every report carries its
//! admission wait and the stats ledger shows all three tenants retired.
//!
//! The gauges are observed through a [`ScopedSink`] entered on the test's
//! own thread (the scheduler ticks and admits on it), the histograms through
//! the stats handle (any thread serving a tick may run a slice or admit a
//! job), and the span timeline is the multiplexer's own (its root scope's
//! capture, as `tbmd-serve --timeline` arms it), as is the two-thread budget
//! it leases from.

use tbmd::trace::{Gauge, JsonValue};
use tbmd::{Budget, ScopedSink, SimulationConfig, SystemSpec};
use tbmd_serve::{JobSpec, Multiplexer, Request, ServeStats, StatsFormat};

/// More steps than any tenant can run in the few ticks before the mid-run
/// snapshot, at any build profile.
const STEPS: usize = 40;

fn tenant_config(i: usize) -> SimulationConfig {
    let mut c = SimulationConfig::nve(
        SystemSpec::SiliconDiamond { reps: 1 },
        300.0 + 30.0 * i as f64,
        STEPS,
    );
    c.seed = 50 + i as u64;
    c
}

#[test]
fn three_tenants_answer_stats_mid_run() {
    let scope = ScopedSink::new("telemetry-test");
    let _observing = scope.enter();

    let mut mux = Multiplexer::with_stats(ServeStats::with_timeline(Budget::new(2)));
    for i in 0..3 {
        let mut spec = JobSpec::new(format!("tenant-{i}"), tenant_config(i));
        spec.threads = if i == 0 { 2 } else { 1 };
        mux.submit(spec, std::io::sink());
    }
    let stats = mux.stats();
    assert_eq!(stats.queue_depth(), 3, "all jobs queued before any tick");

    // The first tick admits two tenants; the third keeps waiting. On a team
    // of two both run a slice in it; on one thread they take turns, a tick
    // each, the one admitted second first in the second tick.
    let steps_of = |snap: &JsonValue, i: usize| {
        let tenants = snap.get("tenants").unwrap().as_array().unwrap();
        tenants[i].get("steps").unwrap().as_f64().unwrap()
    };
    let mut snap = stats.to_json();
    for _ in 0..2 {
        if steps_of(&snap, 0) > 0.0 && steps_of(&snap, 1) > 0.0 {
            break;
        }
        assert!(mux.tick(), "jobs still pending after a slice");
        snap = stats.to_json();
    }
    assert_eq!(snap.get("type").unwrap().as_str(), Some("stats"));
    assert_eq!(snap.get("queue_depth").unwrap().as_f64(), Some(1.0));
    assert_eq!(snap.get("active").unwrap().as_f64(), Some(2.0));
    assert_eq!(snap.get("queued").unwrap().as_f64(), Some(1.0));
    assert_eq!(snap.get("retired").unwrap().as_f64(), Some(0.0));
    let budget = snap.get("budget").unwrap();
    assert_eq!(budget.get("total").unwrap().as_f64(), Some(2.0));
    assert_eq!(budget.get("high_water").unwrap().as_f64(), Some(2.0));

    // Mid-run per-tenant histograms: the two admitted tenants each ran a
    // slice or two of steps and have a live latency distribution; the
    // queued one has none yet.
    let tenants = snap.get("tenants").unwrap().as_array().unwrap();
    assert_eq!(tenants.len(), 3);
    for t in &tenants[..2] {
        assert_eq!(t.get("state").unwrap().as_str(), Some("active"));
        let steps = t.get("steps").unwrap().as_f64().unwrap();
        assert!(0.0 < steps && steps < STEPS as f64, "{steps} steps mid-run");
        let step = t.get("histograms").unwrap().get("step").unwrap();
        assert_eq!(step.get("count").unwrap().as_f64(), Some(steps));
        let p50 = step.get("p50_ms").unwrap().as_f64().unwrap();
        let p99 = step.get("p99_ms").unwrap().as_f64().unwrap();
        assert!(
            0.0 < p50 && p50 <= p99,
            "mid-run step percentiles unordered: {p50} {p99}"
        );
        let slices = t.get("histograms").unwrap().get("quantum").unwrap();
        let slices = slices.get("count").unwrap().as_f64().unwrap();
        assert!(1.0 <= slices && slices <= steps, "{slices} slices mid-run");
    }
    assert_eq!(tenants[2].get("state").unwrap().as_str(), Some("queued"));
    assert_eq!(tenants[2].get("steps").unwrap().as_f64(), Some(0.0));
    // The width each asked for and the width its lease got: the two-thread
    // Si-8 tenant runs on one; the queued one holds no lease yet.
    let threads = |t: &JsonValue| {
        let read = |key| t.get(key).unwrap().as_f64().unwrap();
        (read("threads_requested"), read("threads_leased"))
    };
    assert_eq!(threads(&tenants[0]), (2.0, 1.0));
    assert_eq!(threads(&tenants[1]), (1.0, 1.0));
    assert_eq!(threads(&tenants[2]), (1.0, 0.0));

    // The gauges the scheduler maintains, as this thread's scope saw them.
    let gauges = scope.snapshot();
    assert_eq!(gauges.gauge(Gauge::QueueDepth), 1.0);
    assert_eq!(gauges.gauge(Gauge::LeaseHighWater), 2.0);

    // The stats verb parses on the wire exactly as the daemon answers it.
    assert!(matches!(
        tbmd_serve::parse_request(r#"{"stats":true}"#).unwrap(),
        Request::Stats(StatsFormat::Json)
    ));
    let prom = stats.to_prometheus();
    assert!(prom.contains("tbmd_queue_depth 1"));
    assert!(prom.contains("tbmd_tenants{state=\"active\"} 2"));
    assert!(prom.contains("tbmd_step_seconds{tenant=\"tenant-0\",quantile=\"0.99\"}"));
    for (tenant, requested, leased) in [(0, 2, 1), (1, 1, 1)] {
        let gauge =
            |kind| format!("tbmd_tenant_threads{{tenant=\"tenant-{tenant}\",kind=\"{kind}\"}}");
        assert!(
            prom.contains(&format!("{} {requested}\n", gauge("requested"))),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("{} {leased}\n", gauge("leased"))),
            "{prom}"
        );
    }

    // Drain: every tenant finishes, the late one with a real queue wait.
    let mut reports = mux.drain();
    reports.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert!(r.outcome.is_ok(), "{}: {:?}", r.name, r.outcome);
        assert_eq!(r.steps, STEPS);
    }
    assert!(
        reports[2].queue_wait > reports[0].queue_wait,
        "the queued tenant's admission wait ({:?}) should exceed an \
         immediately admitted one's ({:?})",
        reports[2].queue_wait,
        reports[0].queue_wait
    );

    let done = stats.to_json();
    assert_eq!(done.get("retired").unwrap().as_f64(), Some(3.0));
    assert_eq!(done.get("queue_depth").unwrap().as_f64(), Some(0.0));
    for t in done.get("tenants").unwrap().as_array().unwrap() {
        assert_eq!(t.get("state").unwrap().as_str(), Some("retired"));
        assert_eq!(t.get("steps").unwrap().as_f64(), Some(STEPS as f64));
    }
    // The admission-wait histogram saw all three admissions, and the slice
    // histogram (`quantum`) every slice the tenants counted.
    let global = done.get("global").unwrap();
    let count = |hist: &str| {
        let hist = global.get(hist).unwrap();
        hist.get("count").unwrap().as_f64().unwrap() as usize
    };
    assert_eq!(count("admission_wait"), 3);
    let tenant_slices: usize = (0..3)
        .map(|i| {
            let sink = stats.tenant_sink(&format!("tenant-{i}")).unwrap();
            sink.histograms().hist(tbmd::Hist::Quantum).count() as usize
        })
        .sum();
    assert_eq!(count("quantum"), tenant_slices);

    // The timeline captured tenant-labelled slice intervals with the MD
    // step spans nested inside them, and the export round-trips.
    let chrome = stats.export_chrome().to_compact();
    let parsed = JsonValue::parse(&chrome).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents");
    let interval = |e: &JsonValue| -> (f64, f64) {
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        (ts, ts + e.get("dur").unwrap().as_f64().unwrap())
    };
    let name = |e: &JsonValue| e.get("name").unwrap().as_str().unwrap().to_string();
    let slices: Vec<_> = events
        .iter()
        .filter(|e| name(e).starts_with("tenant-"))
        .collect();
    let steps: Vec<_> = events.iter().filter(|e| name(e) == "step").collect();
    assert_eq!(slices.len(), tenant_slices, "one span per slice");
    assert_eq!(steps.len(), 3 * STEPS, "one span per step");
    // Every step interval nests inside some tenant slice (µs rounding
    // slack at both edges).
    for s in &steps {
        let (s0, s1) = interval(s);
        assert!(
            slices.iter().any(|q| {
                let (q0, q1) = interval(q);
                q0 <= s0 + 1e-3 && s1 <= q1 + 1e-3
            }),
            "step span at {s0}µs not contained in any tenant slice"
        );
    }
}

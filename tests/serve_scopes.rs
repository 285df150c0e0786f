//! A `Multiplexer` owns its telemetry: one root scope per `ServeStats`, one
//! scope per tenant, nothing shared with another multiplexer in the same
//! process and nothing that depends on who happened to be listening — its
//! span timeline included.

use tbmd::trace::JsonValue;
use tbmd::{Budget, EngineKind, Hist, SimulationConfig, SystemSpec};
use tbmd_serve::{JobSpec, Multiplexer, ServeStats};

fn job(name: &str, steps: usize) -> JobSpec {
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, steps);
    config.seed = 70 + steps as u64;
    JobSpec::new(name, config)
}

/// Time slices of the tenant `name` that ran: at least one, and no more
/// than its `steps` (a slice runs one step at least).
fn slices(stats: &ServeStats, name: &str, steps: usize) -> u64 {
    let hists = stats.tenant_sink(name).expect("registered").histograms();
    let slices = hists.hist(Hist::Quantum).count();
    assert!(
        (1..=steps as u64).contains(&slices),
        "tenant {name}: {slices} slices"
    );
    slices
}

/// Every tenant has a sink from the moment it is queued, so the first one
/// admitted gets its admission wait like any other.
#[test]
fn every_tenant_holds_its_admission_wait_and_quanta() {
    let mut mux = Multiplexer::new();
    mux.submit(job("a", 6), std::io::sink());
    mux.submit(job("b", 6), std::io::sink());
    let reports = mux.drain();
    assert!(reports.iter().all(|r| r.outcome.is_ok()), "{reports:?}");
    let stats = mux.stats();
    for name in ["a", "b"] {
        let hists = stats.tenant_sink(name).expect("registered").histograms();
        assert_eq!(hists.hist(Hist::AdmissionWait).count(), 1, "tenant {name}");
        slices(&stats, name, 6);
        assert_eq!(hists.hist(Hist::Step).count(), 6, "tenant {name}");
    }
}

/// Tenants run side by side, each slice on whichever thread of the team
/// took the tenant from the run queue, the scheduler's own included; every
/// event still reaches the root scope exactly once. The root's step count is
/// the tenants' total, each tenant scope counts its own steps, and the root's
/// slice histogram (`quantum`) counts the slices every tenant's counted.
#[test]
fn side_by_side_quanta_reach_the_root_scope_once() {
    let jobs = [("a", 7), ("b", 12), ("c", 5), ("d", 9)];
    let mut mux = Multiplexer::new();
    for (name, steps) in jobs {
        mux.submit(job(name, steps), std::io::sink());
    }
    let reports = mux.drain();
    assert!(reports.iter().all(|r| r.outcome.is_ok()), "{reports:?}");
    let stats = mux.stats();
    let mut total = (0, 0);
    for (name, steps) in jobs {
        let hists = stats.tenant_sink(name).expect("registered").histograms();
        assert_eq!(
            hists.hist(Hist::Step).count(),
            steps as u64,
            "tenant {name}"
        );
        total = (
            total.0 + steps,
            total.1 + slices(&stats, name, steps) as usize,
        );
    }
    let global = stats.to_json();
    let global = global.get("global").expect("global block");
    let count = |hist: &str| global.get(hist).and_then(|h| h.get("count")?.as_f64());
    assert_eq!(count("step"), Some(total.0 as f64), "root steps");
    assert_eq!(count("quantum"), Some(total.1 as f64), "root slices");
}

/// Two multiplexers ticked alternately on one thread: each leases from its
/// own budget, whose `budget` block shows none of the other's leases, the
/// `global` block of each stats answer counts its own tenants' steps and
/// nobody else's, and a distributed tenant's rank views are listed under
/// that tenant alone.
#[test]
fn two_multiplexers_share_no_totals() {
    let multiplexer = || Multiplexer::with_stats(ServeStats::new(Budget::new(2)));
    let (mut left, mut right) = (multiplexer(), multiplexer());
    left.submit(job("l1", 6), std::io::sink());
    left.submit(job("l2", 4), std::io::sink());
    let mut r1 = job("r1", 9);
    r1.config.engine = EngineKind::Distributed { ranks: 2 };
    right.submit(r1, std::io::sink());
    let budget = |mux: &Multiplexer, kind: &str| {
        let stats = mux.stats().to_json();
        stats.get("budget").and_then(|b| b.get(kind)?.as_f64())
    };
    left.tick();
    let high_water = |mux: &Multiplexer| budget(mux, "high_water");
    assert_eq!(high_water(&left), Some(2.0), "l1 and l2 held a thread each");
    assert_eq!(
        high_water(&right),
        Some(0.0),
        "the left leases are not the right's"
    );
    while left.tick() | right.tick() {}
    let leased = |mux: &Multiplexer| budget(mux, "leased");
    assert_eq!((leased(&left), leased(&right)), (Some(0.0), Some(0.0)));
    let global_count = |mux: &Multiplexer, hist: &str| {
        let stats = mux.stats().to_json();
        let global = stats.get("global").expect("global block");
        global
            .get(hist)
            .and_then(|h| h.get("count"))
            .and_then(|c| c.as_f64())
    };
    assert_eq!(global_count(&left, "step"), Some(10.0));
    assert_eq!(global_count(&right, "step"), Some(9.0));
    assert_eq!(global_count(&left, "admission_wait"), Some(2.0));
    assert_eq!(global_count(&right, "admission_wait"), Some(1.0));

    let rank_labels = |mux: &Multiplexer| -> Vec<Vec<String>> {
        let stats = mux.stats().to_json();
        let tenants = stats.get("tenants").and_then(|t| t.as_array()).unwrap();
        tenants
            .iter()
            .map(|t| match t.get("ranks") {
                Some(tbmd::trace::JsonValue::Object(ranks)) => ranks.keys().cloned().collect(),
                other => panic!("tenant without a ranks object: {other:?}"),
            })
            .collect()
    };
    assert_eq!(rank_labels(&left), [Vec::<String>::new(), Vec::new()]);
    assert_eq!(rank_labels(&right), [["rank0", "rank1"]]);
    // Rank threads clock their phases without spans today, so a rank view
    // holds counters only; a sample written into one shows the exposition's
    // `tenant=…,rank=…` labelling.
    let r1 = right.stats().tenant_sink("r1").expect("registered");
    r1.rank(1).record_ns(Hist::Communication, 1_000);
    let prom = right.stats().to_prometheus();
    assert!(
        prom.contains("tbmd_communication_seconds_count{tenant=\"r1\",rank=\"rank1\"} 1"),
        "{prom}"
    );
    assert!(!left.stats().to_prometheus().contains("rank="));
}

/// Two multiplexers with a timeline each, ticked alternately on one thread:
/// each export holds exactly its own tenants' slices, and every step and
/// phase span in it belongs to one of those slices — nothing of the other
/// multiplexer's run leaks in.
#[test]
fn two_timelines_hold_only_their_own_tenants() {
    let mut left = Multiplexer::with_stats(ServeStats::with_timeline(Budget::new(0)));
    let mut right = Multiplexer::with_stats(ServeStats::with_timeline(Budget::new(0)));
    left.submit(job("l1", 6), std::io::sink());
    left.submit(job("l2", 4), std::io::sink());
    right.submit(job("r1", 9), std::io::sink());
    while left.tick() | right.tick() {}

    let check = |mux: &Multiplexer, tenants: &[(&str, usize)]| {
        let chrome = mux.stats().export_chrome().to_compact();
        let parsed = JsonValue::parse(&chrome).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        let field = |e: &JsonValue, k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap();
        let name = |e: &JsonValue| e.get("name").and_then(|n| n.as_str()).unwrap().to_string();
        let span = |e: &JsonValue| {
            let ts = field(e, "ts");
            (ts, ts + field(e, "dur"))
        };
        // Slices run side by side, so a timeline has a `tid` per thread that
        // ran one — never more than the team has.
        let threads = events
            .iter()
            .map(|e| field(e, "tid") as usize)
            .max()
            .map_or(0, |t| t + 1);
        assert!(threads <= tbmd::linalg::team::size(), "{threads} tids");
        let slice_spans: Vec<_> = events
            .iter()
            .filter(|e| name(e).starts_with(['l', 'r']))
            .collect();
        let stats = mux.stats();
        let mut counted = 0;
        for &(tenant, steps) in tenants {
            let n = slice_spans.iter().filter(|q| name(q) == tenant).count();
            assert_eq!(
                n as u64,
                slices(&stats, tenant, steps),
                "slices of {tenant}"
            );
            counted += n;
        }
        assert_eq!(slice_spans.len(), counted);
        let steps = tenants.iter().map(|t| t.1).sum::<usize>();
        // Nested: inside a slice recorded on the same thread.
        let in_a_slice = |e: &JsonValue| {
            let (s0, s1) = span(e);
            slice_spans.iter().any(|q| {
                let (q0, q1) = span(q);
                field(q, "tid") == field(e, "tid") && q0 <= s0 + 1e-3 && s1 <= q1 + 1e-3
            })
        };
        let step_spans: Vec<_> = events.iter().filter(|e| name(e) == "step").collect();
        assert_eq!(step_spans.len(), steps);
        assert!(step_spans.iter().all(|s| in_a_slice(s)));
        // Forces once per step plus each tenant's initial evaluation, which
        // runs on its first step: all inside a slice.
        let forces: Vec<_> = events.iter().filter(|e| name(e) == "forces").collect();
        assert_eq!(forces.len(), steps + tenants.len());
        assert!(forces.iter().all(|f| in_a_slice(f)));
    };
    check(&left, &[("l1", 6), ("l2", 4)]);
    check(&right, &[("r1", 9)]);
}

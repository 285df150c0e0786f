//! How a `Multiplexer` admits, runs and retires its tenants, each test under
//! a budget of its own:
//!
//! - admission leases a tenant the width its system can use: a dense job
//!   below the two-stage floor asks the budget for one thread whatever its
//!   `threads` says, and one above it for `threads`;
//! - a job submitted beside a long-running one is admitted and stepped in
//!   the next tick: a tick lasts one time slice;
//! - tenants run side by side on the thread team: every tenant — serial,
//!   shared and distributed (whose rank launch then starts from a team
//!   task) — still lands bitwise on its standalone trajectory, under a
//!   finite budget and under the unlimited one;
//! - a tenant whose slice panics — here its client sink, on a step line
//!   the recorder writes from inside the slice — retires alone: an error
//!   report, its lease refunded, while the other tenants run to the end,
//!   bitwise equal to standalone sessions;
//! - a client whose reader goes away mid-stream: its tenant retires on the
//!   first failed write with an error status and refunds its lease, while
//!   the other tenants' streams complete, bitwise equal to standalone
//!   sessions.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use tbmd::trace::JsonValue;
use tbmd::{Budget, EngineKind, SessionBuilder, SimulationConfig, SimulationSummary, SystemSpec};
use tbmd_serve::{JobSpec, Multiplexer, ServeStats};

fn multiplexer(budget: &Budget) -> Multiplexer {
    Multiplexer::with_stats(ServeStats::new(budget.clone()))
}

fn config(temperature_k: f64, steps: usize, seed: u64, engine: EngineKind) -> SimulationConfig {
    let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, temperature_k, steps);
    c.seed = seed;
    c.engine = engine;
    c
}

fn job(name: &str, config: SimulationConfig, threads: usize) -> JobSpec {
    let mut spec = JobSpec::new(name, config);
    spec.threads = threads;
    spec
}

fn bits(s: &SimulationSummary) -> Vec<u64> {
    let positions = s.final_structure.positions().iter();
    let velocities = s.final_velocities.iter();
    let mut out: Vec<u64> = positions
        .chain(velocities)
        .flat_map(|p| [p.x, p.y, p.z].map(f64::to_bits))
        .collect();
    out.push(s.final_total_energy.to_bits());
    out.push(s.conserved_drift.to_bits());
    out
}

fn standalone(config: SimulationConfig) -> SimulationSummary {
    SessionBuilder::new(config).build().unwrap().run().unwrap()
}

/// Every byte written, readable after the multiplexer is done with it.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn lines(buf: &Buf) -> Vec<String> {
    String::from_utf8(buf.0.lock().unwrap().clone())
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// The tenant named `name` in the stats answer.
fn tenant(mux: &Multiplexer, name: &str) -> JsonValue {
    let stats = mux.stats().to_json();
    let tenants = stats.get("tenants").unwrap().as_array().unwrap();
    let tenant = tenants
        .iter()
        .find(|t| t.get("name").unwrap().as_str() == Some(name));
    tenant.unwrap().clone()
}

/// The `threads_leased` of the tenant named `name` in the stats answer.
fn leased(mux: &Multiplexer, name: &str) -> f64 {
    let tenant = tenant(mux, name);
    tenant.get("threads_leased").unwrap().as_f64().unwrap()
}

/// A tick lasts one time slice, however long the running tenants still
/// have to go: a Si-8 job submitted while a long Si-64 job runs is admitted
/// and stepped in the very next tick — also on a team of one thread, where
/// a job just admitted runs before the tenants already built.
#[test]
fn a_submission_is_admitted_promptly() {
    let mut mux = multiplexer(&Budget::new(2));
    let mut long = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 2 }, 300.0, 1000);
    long.seed = 5;
    mux.submit(job("si64", long, 1), io::sink());
    assert!(mux.tick());
    mux.submit(
        job("si8", config(300.0, 200, 6, EngineKind::Serial), 1),
        io::sink(),
    );
    assert!(mux.tick());
    let si8 = tenant(&mux, "si8");
    assert_eq!(si8.get("state").unwrap().as_str(), Some("active"));
    let step = si8.get("histograms").unwrap().get("step").unwrap();
    assert!(
        step.get("count").unwrap().as_f64().unwrap() >= 1.0,
        "{si8:?}"
    );
}

#[test]
fn narrow_tenants_lease_one_thread_and_wide_ones_what_they_ask() {
    let sized = |name, reps, engine, threads| {
        let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps }, 300.0, 2);
        config.engine = engine;
        job(name, config, threads)
    };

    // Si-8 (32 orbitals) asking for two threads, then a one-thread job:
    // both are admitted in the first tick, one thread each.
    let budget = Budget::new(2);
    let mut mux = multiplexer(&budget);
    mux.submit(sized("si8-wide", 1, EngineKind::Shared, 2), io::sink());
    mux.submit(sized("si8", 1, EngineKind::Serial, 1), io::sink());
    mux.tick();
    assert_eq!(
        mux.queued(),
        0,
        "both Si-8 tenants admitted in the first tick"
    );
    assert_eq!(leased(&mux, "si8-wide"), 1.0);
    assert_eq!(leased(&mux, "si8"), 1.0);
    let reports = mux.drain();
    assert!(reports.iter().all(|r| r.outcome.is_ok()), "{reports:?}");
    assert_eq!(
        budget.high_water(),
        2,
        "the lease high-water mark stays the budget"
    );
    assert_eq!(budget.leased(), 0);

    // Si-64 (256 orbitals) is above the floor: it leases both threads,
    // and the job behind it waits.
    let budget = Budget::new(2);
    let mut mux = multiplexer(&budget);
    mux.submit(sized("si64", 2, EngineKind::Shared, 2), io::sink());
    mux.submit(sized("si8", 1, EngineKind::Serial, 1), io::sink());
    assert!(mux.tick());
    assert_eq!(mux.active(), 1, "the Si-64 tenant holds the whole budget");
    assert_eq!(mux.queued(), 1);
    assert_eq!(leased(&mux, "si64"), 2.0);
    let reports = mux.drain();
    assert!(reports.iter().all(|r| r.outcome.is_ok()), "{reports:?}");
    assert_eq!(budget.high_water(), 2);
    assert_eq!(budget.leased(), 0);
}

/// Two serial tenants, a shared one and a distributed one over two ranks,
/// with different lengths so that they retire at different times:
/// (name, config, threads).
fn side_by_side_tenants() -> Vec<(&'static str, SimulationConfig, usize)> {
    vec![
        ("serial-a", config(300.0, 10, 31, EngineKind::Serial), 1),
        ("serial-b", config(450.0, 14, 32, EngineKind::Serial), 1),
        ("shared", config(350.0, 9, 33, EngineKind::Shared), 2),
        (
            "distributed",
            config(400.0, 8, 34, EngineKind::Distributed { ranks: 2 }),
            1,
        ),
    ]
}

#[test]
fn tenants_side_by_side_match_standalone_runs() {
    let references: Vec<_> = side_by_side_tenants()
        .into_iter()
        .map(|(_, config, _)| standalone(config))
        .collect();
    // Budget 3: the three dense tenants fill it (the shared one at one
    // thread, Si-8 being below the two-stage floor) and the distributed
    // tenant waits for the first retirement. Unlimited: all four run in the
    // first tick.
    for total in [3, 0] {
        let budget = Budget::new(total);
        let mut mux = multiplexer(&budget);
        for (name, config, threads) in side_by_side_tenants() {
            mux.submit(job(name, config, threads), io::sink());
        }
        let reports = mux.drain();
        assert_eq!(budget.leased(), 0, "budget {total}: every lease refunded");
        assert_eq!(reports.len(), 4);
        for ((name, ..), reference) in side_by_side_tenants().into_iter().zip(&references) {
            let report = reports.iter().find(|r| r.name == name).unwrap();
            let summary = report.outcome.as_ref().expect("completed");
            assert_eq!(report.steps, reference.steps, "budget {total}: {name}");
            assert_eq!(bits(summary), bits(reference), "budget {total}: {name}");
        }
    }
}

/// Accepts writes until its `n`th, which panics — with the sink's lock held,
/// as a panicking socket writer would.
struct PanicsOnWrite {
    n: usize,
}

impl Write for PanicsOnWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.n -= 1;
        if self.n == 0 {
            panic!("sink gave up");
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_panicking_tenant_retires_alone_and_refunds_its_lease() {
    const STEPS: usize = 12;
    let budget = Budget::new(2);
    let good = [
        ("serial", config(420.0, STEPS, 8, EngineKind::Serial), 1),
        ("shared", config(250.0, STEPS, 9, EngineKind::Shared), 2),
    ];
    let mut mux = multiplexer(&budget);
    // The manifest is two writes (line, newline) at admission; every step
    // line is two more. The ninth write is the fourth step's line.
    let doomed_config = config(300.0, STEPS, 7, EngineKind::Serial);
    mux.submit(job("doomed", doomed_config, 1), PanicsOnWrite { n: 9 });
    for &(name, config, threads) in &good {
        mux.submit(job(name, config, threads), io::sink());
    }
    let reports = mux.drain();
    assert_eq!(budget.leased(), 0, "every lease refunded");
    assert_eq!(reports.len(), 3);

    // Retired with an error status; its sink's lock is poisoned, so the
    // error line could not go out either, and the report says so.
    let doomed = reports.iter().find(|r| r.name == "doomed").unwrap();
    let detail = doomed.outcome.as_ref().expect_err("an error status");
    assert!(detail.contains("panicked: sink gave up"), "{detail}");
    assert!(detail.contains("sink poisoned"), "{detail}");
    assert_eq!(doomed.steps, 3, "three steps done before the panic");

    for &(name, config, _) in &good {
        let report = reports.iter().find(|r| r.name == name).unwrap();
        let summary = report.outcome.as_ref().expect("completed");
        assert_eq!(report.steps, STEPS, "{name}");
        let reference = standalone(config);
        assert_eq!(
            summary.final_total_energy.to_bits(),
            reference.final_total_energy.to_bits(),
            "{name}"
        );
        let velocities = |s: &SimulationSummary| -> Vec<u64> {
            let v = &s.final_velocities;
            v.iter()
                .flat_map(|p| [p.x, p.y, p.z].map(f64::to_bits))
                .collect()
        };
        assert_eq!(velocities(summary), velocities(&reference), "{name}");
    }

    // A lone tenant's slice runs on the scheduler's own thread: caught
    // there the same way, and that thread keeps ticking.
    let mut mux = multiplexer(&budget);
    mux.submit(job("alone", doomed_config, 2), PanicsOnWrite { n: 9 });
    let reports = mux.drain();
    let detail = reports[0].outcome.as_ref().expect_err("an error status");
    assert!(detail.contains("panicked: sink gave up"), "{detail}");
    assert_eq!(budget.leased(), 0, "the lone tenant's lease refunded");
    assert_eq!(
        tbmd::linalg::budget::effective_width(),
        0,
        "no width left pinned"
    );
}

/// Takes `budget` bytes into `seen`, then fails every write the way a socket
/// whose reader has gone does.
struct ReaderGone {
    seen: Buf,
    budget: usize,
}

impl Write for ReaderGone {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        self.seen.write(&buf[..n])
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Takes every line but the closing summary: a reader gone just before the
/// end of the run.
struct GoneBeforeSummary;

impl Write for GoneBeforeSummary {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if String::from_utf8_lossy(buf).contains(r#""type":"summary""#) {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_gone_reader_retires_its_tenant_and_spares_the_others() {
    const STEPS: usize = 12;
    let serial = |temperature_k, seed| config(temperature_k, STEPS, seed, EngineKind::Serial);
    let gone = serial(300.0, 7);
    // The stream the gone reader would have received: manifest, then step
    // lines (whose phase timings vary a few bytes run to run). It stops
    // reading halfway through the third step line.
    let full = Buf::default();
    let mut mux = multiplexer(&Budget::new(0));
    mux.submit(job("gone", gone, 1), full.clone());
    assert!(mux.drain()[0].outcome.is_ok());
    let reference = lines(&full);
    let manifest = format!("{}\n", reference[0]);
    let bytes = manifest.len() + 5 * (reference[1].len() + 1) / 2;

    let seen = Buf::default();
    let (b, c) = (Buf::default(), Buf::default());
    let others = [("b", serial(420.0, 8), &b), ("c", serial(250.0, 9), &c)];
    // One thread for each of the four tenants: all admitted in the first tick.
    let budget = Budget::new(4);
    let mut mux = multiplexer(&budget);
    mux.submit(
        job("gone", gone, 1),
        ReaderGone {
            seen: seen.clone(),
            budget: bytes,
        },
    );
    mux.submit(job("late", serial(350.0, 10), 1), GoneBeforeSummary);
    for &(name, config, buf) in &others {
        mux.submit(job(name, config, 1), buf.clone());
    }
    let reports = mux.drain();
    assert_eq!(budget.leased(), 0, "every lease refunded");

    // Retired on the failed write — the third step's line — with an error
    // status; only the two steps whose lines went out count as done.
    let retired = reports.iter().find(|r| r.name == "gone").unwrap();
    let detail = retired.outcome.as_ref().expect_err("an error status");
    assert!(detail.to_lowercase().contains("broken pipe"), "{detail}");
    assert_eq!(retired.steps, 2, "stepped on after its reader went");
    let received = String::from_utf8(seen.0.lock().unwrap().clone()).unwrap();
    assert_eq!(received.len(), bytes);
    assert!(received.starts_with(&manifest));
    assert_eq!(
        received.matches('\n').count(),
        3,
        "manifest + two step lines"
    );

    // A run whose summary line cannot be delivered did not complete either.
    let late = reports.iter().find(|r| r.name == "late").unwrap();
    assert_eq!(late.steps, STEPS);
    let detail = late.outcome.as_ref().expect_err("an error status");
    assert!(detail.starts_with("recorder: "), "{detail}");

    // The others ran to the end, bitwise the standalone trajectories.
    for &(name, config, buf) in &others {
        let report = reports.iter().find(|r| r.name == name).unwrap();
        let summary = report.outcome.as_ref().expect("completed");
        assert_eq!(
            summary.final_total_energy.to_bits(),
            standalone(config).final_total_energy.to_bits(),
            "{name}"
        );
        let stream = lines(buf);
        let steps = stream.iter().filter(|l| l.contains(r#""type":"step""#));
        assert_eq!(steps.count(), STEPS, "{name}");
        assert!(
            stream.last().unwrap().contains(r#""type":"summary""#),
            "{name}"
        );
    }
}

//! A client whose reader goes away mid-stream: its tenant retires on the
//! first failed write with an error status and refunds its lease, while the
//! other tenants' streams complete, bitwise equal to standalone sessions.
//! (A binary of its own: the lease ledger is process-wide.)

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use tbmd::linalg::budget::leased_threads;
use tbmd::{SessionBuilder, SimulationConfig, SystemSpec};
use tbmd_serve::{JobSpec, Multiplexer};

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

fn config(temperature_k: f64, steps: usize, seed: u64) -> SimulationConfig {
    let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, temperature_k, steps);
    c.seed = seed;
    c
}

fn job(name: &str, config: SimulationConfig) -> JobSpec {
    let mut spec = JobSpec::new(name, config);
    spec.quantum = 3;
    spec
}

fn lines(buf: &Buf) -> Vec<String> {
    String::from_utf8(buf.0.lock().unwrap().clone())
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn a_gone_reader_retires_its_tenant_and_spares_the_others() {
    const STEPS: usize = 12;
    let gone = config(300.0, STEPS, 7);
    // The stream the gone reader would have received: manifest, then step
    // lines (whose phase timings vary a few bytes run to run). It stops
    // reading halfway through the third step line.
    let full = Buf::default();
    let mut mux = Multiplexer::new();
    mux.submit(job("gone", gone), full.clone());
    assert!(mux.drain()[0].outcome.is_ok());
    let reference = lines(&full);
    let manifest = format!("{}\n", reference[0]);
    let budget = manifest.len() + 5 * (reference[1].len() + 1) / 2;

    let seen = Buf::default();
    let (b, c) = (Buf::default(), Buf::default());
    let others = [
        ("b", config(420.0, STEPS, 8), &b),
        ("c", config(250.0, STEPS, 9), &c),
    ];
    let mut mux = Multiplexer::new();
    mux.submit(
        job("gone", gone),
        ReaderGone {
            seen: seen.clone(),
            budget,
        },
    );
    mux.submit(job("late", config(350.0, STEPS, 10)), GoneBeforeSummary);
    for &(name, config, buf) in &others {
        mux.submit(job(name, config), buf.clone());
    }
    let reports = mux.drain();
    assert_eq!(leased_threads(), 0, "every lease refunded");

    // Retired on the failed write — the third step's line — with an error
    // status; only the two steps whose lines went out count as done.
    let retired = reports.iter().find(|r| r.name == "gone").unwrap();
    let detail = retired.outcome.as_ref().expect_err("an error status");
    assert!(detail.to_lowercase().contains("broken pipe"), "{detail}");
    assert_eq!(retired.steps, 2, "stepped on after its reader went");
    let received = String::from_utf8(seen.0.lock().unwrap().clone()).unwrap();
    assert_eq!(received.len(), budget);
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
        let standalone = SessionBuilder::new(config).build().unwrap().run().unwrap();
        assert_eq!(
            summary.final_total_energy.to_bits(),
            standalone.final_total_energy.to_bits(),
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

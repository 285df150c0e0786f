//! A tenant whose quantum panics — here its client sink, on a step line the
//! recorder writes from inside the quantum — retires alone: an error report,
//! its lease refunded, while the other tenants run to the end, bitwise equal
//! to standalone sessions. (A binary of its own: the budget is process-wide.)

use std::io::{self, Write};
use tbmd::linalg::budget::leased_threads;
use tbmd::{configure_budget, EngineKind, SessionBuilder, SimulationConfig, SystemSpec};
use tbmd_serve::{JobSpec, Multiplexer};

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

fn config(temperature_k: f64, steps: usize, seed: u64, engine: EngineKind) -> SimulationConfig {
    let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, temperature_k, steps);
    c.seed = seed;
    c.engine = engine;
    c
}

fn job(name: &str, config: SimulationConfig, threads: usize) -> JobSpec {
    let mut spec = JobSpec::new(name, config);
    spec.quantum = 3;
    spec.threads = threads;
    spec
}

#[test]
fn a_panicking_tenant_retires_alone_and_refunds_its_lease() {
    const STEPS: usize = 12;
    configure_budget(2);
    let good = [
        ("serial", config(420.0, STEPS, 8, EngineKind::Serial), 1),
        ("shared", config(250.0, STEPS, 9, EngineKind::Shared), 2),
    ];
    let mut mux = Multiplexer::new();
    // The manifest is two writes (line, newline) at admission; every step
    // line is two more. The ninth write is the fourth step's line, in the
    // second quantum, beside the serial tenant's.
    let doomed_config = config(300.0, STEPS, 7, EngineKind::Serial);
    mux.submit(job("doomed", doomed_config, 1), PanicsOnWrite { n: 9 });
    for &(name, config, threads) in &good {
        mux.submit(job(name, config, threads), io::sink());
    }
    let reports = mux.drain();
    assert_eq!(leased_threads(), 0, "every lease refunded");
    assert_eq!(reports.len(), 3);

    // Retired with an error status; its sink's lock is poisoned, so the
    // error line could not go out either, and the report says so.
    let doomed = reports.iter().find(|r| r.name == "doomed").unwrap();
    let detail = doomed.outcome.as_ref().expect_err("an error status");
    assert!(detail.contains("panicked: sink gave up"), "{detail}");
    assert!(detail.contains("sink poisoned"), "{detail}");
    assert_eq!(doomed.steps, 3, "one quantum done before the panic");

    for &(name, config, _) in &good {
        let report = reports.iter().find(|r| r.name == name).unwrap();
        let summary = report.outcome.as_ref().expect("completed");
        assert_eq!(report.steps, STEPS, "{name}");
        let standalone = SessionBuilder::new(config).build().unwrap().run().unwrap();
        assert_eq!(
            summary.final_total_energy.to_bits(),
            standalone.final_total_energy.to_bits(),
            "{name}"
        );
        let bits = |s: &tbmd::SimulationSummary| -> Vec<u64> {
            let v = &s.final_velocities;
            v.iter()
                .flat_map(|p| [p.x, p.y, p.z].map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(summary), bits(&standalone), "{name}");
    }

    // A lone tenant's quantum runs on the scheduler's own thread: caught
    // there the same way, and that thread keeps ticking.
    let mut mux = Multiplexer::new();
    mux.submit(job("alone", doomed_config, 2), PanicsOnWrite { n: 9 });
    let reports = mux.drain();
    let detail = reports[0].outcome.as_ref().expect_err("an error status");
    assert!(detail.contains("panicked: sink gave up"), "{detail}");
    assert_eq!(leased_threads(), 0, "the lone tenant's lease refunded");
    assert_eq!(
        tbmd::linalg::budget::effective_width(),
        0,
        "no width left pinned"
    );
    configure_budget(0);
}

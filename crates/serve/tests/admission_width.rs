//! Admission leases a tenant the width its system can use: a dense job
//! below the two-stage floor asks the budget for one thread whatever its
//! `threads` says, and one above it for `threads`. (A binary of its own:
//! the budget is process-wide.)

use tbmd::linalg::budget::{high_water, leased_threads, reset_high_water};
use tbmd::{configure_budget, EngineKind, SimulationConfig, SystemSpec};
use tbmd_serve::{JobSpec, Multiplexer};

fn job(name: &str, reps: usize, engine: EngineKind, threads: usize) -> JobSpec {
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps }, 300.0, 2);
    config.engine = engine;
    let mut spec = JobSpec::new(name, config);
    spec.threads = threads;
    spec.quantum = 1;
    spec
}

/// The `threads_leased` of the tenant named `name` in the stats answer.
fn leased(mux: &Multiplexer, name: &str) -> f64 {
    let stats = mux.stats().to_json();
    let tenants = stats.get("tenants").unwrap().as_array().unwrap();
    let tenant = tenants
        .iter()
        .find(|t| t.get("name").unwrap().as_str() == Some(name))
        .unwrap();
    tenant.get("threads_leased").unwrap().as_f64().unwrap()
}

#[test]
fn narrow_tenants_lease_one_thread_and_wide_ones_what_they_ask() {
    configure_budget(2);
    reset_high_water();

    // Si-8 (32 orbitals) asking for two threads, then a one-thread job:
    // both are admitted in the first sweep, one thread each.
    let mut mux = Multiplexer::new();
    mux.submit(job("si8-wide", 1, EngineKind::Shared, 2), std::io::sink());
    mux.submit(job("si8", 1, EngineKind::Serial, 1), std::io::sink());
    assert!(mux.tick());
    assert_eq!(mux.active(), 2, "both Si-8 tenants run in the first sweep");
    assert_eq!(mux.queued(), 0);
    assert_eq!(leased(&mux, "si8-wide"), 1.0);
    assert_eq!(leased(&mux, "si8"), 1.0);
    let reports = mux.drain();
    assert!(reports.iter().all(|r| r.outcome.is_ok()), "{reports:?}");
    assert_eq!(
        high_water(),
        2,
        "the lease high-water mark stays the budget"
    );
    assert_eq!(leased_threads(), 0);

    // Si-64 (256 orbitals) is above the floor: it leases both threads,
    // and the job behind it waits.
    let mut mux = Multiplexer::new();
    mux.submit(job("si64", 2, EngineKind::Shared, 2), std::io::sink());
    mux.submit(job("si8", 1, EngineKind::Serial, 1), std::io::sink());
    assert!(mux.tick());
    assert_eq!(mux.active(), 1, "the Si-64 tenant holds the whole budget");
    assert_eq!(mux.queued(), 1);
    assert_eq!(leased(&mux, "si64"), 2.0);
    let reports = mux.drain();
    assert!(reports.iter().all(|r| r.outcome.is_ok()), "{reports:?}");
    assert_eq!(high_water(), 2);
    assert_eq!(leased_threads(), 0);

    configure_budget(0);
}

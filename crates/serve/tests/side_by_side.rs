//! Quanta of a sweep run side by side on the thread team: every tenant —
//! serial, shared and distributed (whose rank launch then starts from a team
//! task) — still lands bitwise on its standalone trajectory, under a finite
//! budget and under the unlimited one. (A binary of its own: the budget is
//! process-wide.)

use tbmd::linalg::budget::leased_threads;
use tbmd::{
    configure_budget, EngineKind, SessionBuilder, SimulationConfig, SimulationSummary, SystemSpec,
};
use tbmd_serve::{JobSpec, Multiplexer};

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

/// Two serial tenants, a shared one and a distributed one over two ranks,
/// with different lengths and quanta so that they retire in different
/// sweeps: (name, config, threads, quantum).
fn tenants() -> Vec<(&'static str, SimulationConfig, usize, usize)> {
    let config = |temperature_k, steps, seed, engine| {
        let mut c =
            SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, temperature_k, steps);
        c.seed = seed;
        c.engine = engine;
        c
    };
    vec![
        ("serial-a", config(300.0, 10, 31, EngineKind::Serial), 1, 3),
        ("serial-b", config(450.0, 14, 32, EngineKind::Serial), 1, 4),
        ("shared", config(350.0, 9, 33, EngineKind::Shared), 2, 2),
        (
            "distributed",
            config(400.0, 8, 34, EngineKind::Distributed { ranks: 2 }),
            1,
            3,
        ),
    ]
}

#[test]
fn tenants_side_by_side_match_standalone_runs() {
    let standalone: Vec<_> = tenants()
        .into_iter()
        .map(|(_, config, _, _)| SessionBuilder::new(config).build().unwrap().run().unwrap())
        .collect();
    // Budget 3: the three dense tenants fill it (the shared one at one
    // thread, Si-8 being below the two-stage floor) and the distributed
    // tenant waits for the first retirement. Unlimited: all four run in the
    // first sweep.
    for budget in [3, 0] {
        configure_budget(budget);
        let mut mux = Multiplexer::new();
        for (name, config, threads, quantum) in tenants() {
            let mut spec = JobSpec::new(name, config);
            spec.threads = threads;
            spec.quantum = quantum;
            mux.submit(spec, std::io::sink());
        }
        let reports = mux.drain();
        assert_eq!(leased_threads(), 0, "budget {budget}: every lease refunded");
        assert_eq!(reports.len(), 4);
        for ((name, ..), reference) in tenants().into_iter().zip(&standalone) {
            let report = reports.iter().find(|r| r.name == name).unwrap();
            let summary = report.outcome.as_ref().expect("completed");
            assert_eq!(report.steps, reference.steps, "budget {budget}: {name}");
            assert_eq!(bits(summary), bits(reference), "budget {budget}: {name}");
        }
    }
    configure_budget(0);
}

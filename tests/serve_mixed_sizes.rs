//! Mixed-size traffic through one `Multiplexer`: small jobs queued behind a
//! large one are not held to the large one's pace. Alone in its binary, so
//! no other test shares the process thread team with it.

use std::io;
use tbmd::linalg::team;
use tbmd::{Budget, SessionBuilder, SimulationConfig, SimulationSummary, SystemSpec};
use tbmd_serve::{JobSpec, Multiplexer, ServeStats};

fn bits(s: &SimulationSummary) -> Vec<u64> {
    let positions = s.final_structure.positions().iter();
    let vectors = positions.chain(&s.final_velocities);
    let mut out: Vec<u64> = vectors
        .flat_map(|v| v.to_array())
        .map(f64::to_bits)
        .collect();
    out.push(s.final_total_energy.to_bits());
    out
}

/// Under a two-thread budget, a 24-step Si-64 job holds one thread's lease
/// and three 200-step Si-8 jobs, submitted behind it, take turns on the
/// other. A team thread runs a tenant for a time slice, and the thread
/// beside a Si-64 step keeps taking Si-8 slices until that step ends, so all
/// three Si-8 jobs retire before the Si-64 job does (a scheduler that
/// advances every tenant by the same number of steps per round retires the
/// Si-64 job first). On a team of one thread (`taskset -c 0`) the tenants
/// can only take turns and nothing can overtake, so there the test checks
/// completion and bits alone.
#[test]
fn small_jobs_behind_a_large_one_retire_first() {
    let nve = |reps, steps, seed| {
        let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps }, 300.0, steps);
        config.seed = seed;
        config
    };
    let jobs = [
        ("si64", nve(2, 24, 60)),
        ("si8-a", nve(1, 200, 61)),
        ("si8-b", nve(1, 200, 62)),
        ("si8-c", nve(1, 200, 63)),
    ];
    let mut mux = Multiplexer::with_stats(ServeStats::new(Budget::new(2)));
    for (name, config) in jobs {
        mux.submit(JobSpec::new(name, config), io::sink());
    }
    let reports = mux.drain();
    let order: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(reports.len(), jobs.len());
    for (name, config) in jobs {
        let report = reports.iter().find(|r| r.name == name).unwrap();
        let summary = report.outcome.as_ref().expect("completed");
        let reference = SessionBuilder::new(config).build().unwrap().run().unwrap();
        assert_eq!(bits(summary), bits(&reference), "{name}");
    }
    if team::size() >= 2 {
        assert_eq!(order.last(), Some(&"si64"), "completion order {order:?}");
    }
}

//! The generated inputs of each workload. The program under test sees only
//! these configurations; `--seed` feeds `SimulationConfig.seed` and the
//! 0.02 Å start perturbation, `--seconds` scales the fixed amount of work.

use crate::metrics::{CNT160_SHARED2, SI216_LINSCALE, SI216_SERIAL, SI64_DIST2};
use tbmd::{EngineKind, Protocol, SimulationConfig, SystemSpec};
use tbmd_serve::JobSpec;

/// Parallel width of every workload: the budget, the widest lease and the
/// rank count. Never more generator threads than the 2-core reference host.
pub const WIDTH: usize = 2;

/// Start displacement (Å) applied to every generated structure.
pub const PERTURB: f64 = 0.02;

/// Steps run before the timed window so caches fill and workspaces grow.
/// The first `Session::step` also pays the protocol's initial force
/// evaluation, so set-up covers three evaluations.
pub const WARMUP_STEPS: usize = 2;

/// Sessions built and warmed per run, `setup_s` being the median: at least
/// `SETUP_REPEATS_MIN`, then more while set-up has taken less than
/// `SETUP_BUDGET_S` in all, so a 50 ms set-up gets the samples its median
/// needs and a 2 s one does not eat the run.
pub const SETUP_REPEATS_MIN: usize = 3;
pub const SETUP_REPEATS_MAX: usize = 15;
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Which ensemble a single-session workload integrates.
#[derive(Debug, Clone, Copy)]
pub enum Ensemble {
    Nve { temperature_k: f64 },
    Nvt { temperature_k: f64, tau_fs: f64 },
}

/// One trajectory through `SessionBuilder` / `Session::step`.
pub struct SingleSpec {
    pub name: &'static str,
    pub system: SystemSpec,
    pub engine: EngineKind,
    pub electronic_kt: f64,
    pub ensemble: Ensemble,
    /// Threads the session leases from the width-2 budget.
    pub lease_threads: usize,
    /// Timed steps per second of `--seconds`, sized on the 2-core reference
    /// host so the window lasts about `--seconds` there.
    pub steps_per_second: f64,
    /// Conserved-quantity drift allowed per atom (eV): twice the worst reading
    /// of the seed commit over six seeds at `--seconds 10` (6.6e-5, 7.9e-5,
    /// 2.9e-3 and — the O(N) engine's truncation jumps — 8.9e-3).
    pub drift_limit_ev_per_atom: f64,
    /// Steps the staged twin (pass B of the traced run) follows.
    pub twin_steps: usize,
}

impl SingleSpec {
    pub fn timed_steps(&self, seconds: f64) -> usize {
        ((self.steps_per_second * seconds).round() as usize).max(4)
    }

    pub fn config(&self, seed: u64, steps: usize) -> SimulationConfig {
        let protocol = match self.ensemble {
            Ensemble::Nve { temperature_k } => Protocol::Nve {
                temperature_k,
                steps,
                dt_fs: 1.0,
            },
            Ensemble::Nvt {
                temperature_k,
                tau_fs,
            } => Protocol::Nvt {
                temperature_k,
                steps,
                dt_fs: 1.0,
                tau_fs,
            },
        };
        SimulationConfig {
            system: self.system,
            engine: self.engine,
            protocol,
            electronic_kt: self.electronic_kt,
            perturb: PERTURB,
            seed,
            record_stride: 0,
        }
    }

    /// Whether the dense two-stage stages can be replayed from outside.
    pub fn is_dense(&self) -> bool {
        !matches!(self.engine, EngineKind::LinearScaling { .. })
    }
}

pub const SINGLE: [SingleSpec; 4] = [
    SingleSpec {
        name: SI216_SERIAL,
        system: SystemSpec::SiliconDiamond { reps: 3 },
        engine: EngineKind::Serial,
        electronic_kt: 0.1,
        ensemble: Ensemble::Nve {
            temperature_k: 300.0,
        },
        lease_threads: 1,
        steps_per_second: 3.0,
        drift_limit_ev_per_atom: 1.6e-4,
        twin_steps: 10,
    },
    SingleSpec {
        name: SI64_DIST2,
        system: SystemSpec::SiliconDiamond { reps: 2 },
        engine: EngineKind::Distributed { ranks: WIDTH },
        electronic_kt: 0.1,
        ensemble: Ensemble::Nve {
            temperature_k: 300.0,
        },
        lease_threads: WIDTH,
        steps_per_second: 65.0,
        drift_limit_ev_per_atom: 1.6e-4,
        twin_steps: 100,
    },
    SingleSpec {
        name: CNT160_SHARED2,
        system: SystemSpec::Nanotube {
            n: 10,
            m: 0,
            cells: 4,
        },
        engine: EngineKind::Shared,
        electronic_kt: 0.1,
        ensemble: Ensemble::Nvt {
            temperature_k: 2500.0,
            tau_fs: 40.0,
        },
        lease_threads: WIDTH,
        steps_per_second: 8.0,
        drift_limit_ev_per_atom: 5.8e-3,
        twin_steps: 10,
    },
    SingleSpec {
        name: SI216_LINSCALE,
        system: SystemSpec::SiliconDiamond { reps: 3 },
        engine: EngineKind::LinearScaling {
            r_loc: 6.0,
            order: 350,
        },
        electronic_kt: 0.2,
        ensemble: Ensemble::Nve {
            temperature_k: 300.0,
        },
        lease_threads: WIDTH,
        steps_per_second: 1.05,
        drift_limit_ev_per_atom: 1.8e-2,
        twin_steps: 6,
    },
];

pub fn single(name: &str) -> Option<&'static SingleSpec> {
    SINGLE.iter().find(|s| s.name == name)
}

/// `si8-serve-mix`: bursts of Si-8 NVE jobs through the `Multiplexer`.
pub mod serve {
    use super::*;

    /// MD steps per job.
    pub const JOB_STEPS: usize = 200;
    /// Jobs submitted at t = 0 of each round; a multiple of 3 so every round
    /// holds the same 2:1 serial:shared mix.
    pub const ROUND_JOBS: usize = 24;
    /// Rounds per second of `--seconds` on the 2-core reference host. Each
    /// round sets the scheduler up afresh, which gives `setup_s` its samples.
    pub const ROUNDS_PER_SECOND: f64 = 0.5;
    /// Scheduler quantum (steps per tenant per tick).
    pub const QUANTUM: usize = 8;
    /// In-memory snapshot interval (steps).
    pub const CHECKPOINT_INTERVAL: usize = 50;
    /// NVE drift allowed per atom over one job (eV): twice the worst job of
    /// the seed commit (1.24e-4).
    pub const DRIFT_LIMIT_EV_PER_ATOM: f64 = 2.5e-4;

    pub fn rounds(seconds: f64) -> usize {
        ((ROUNDS_PER_SECOND * seconds).round() as usize).max(2)
    }

    /// Job `index` of a run: two serial single-thread tenants, then one
    /// shared two-thread tenant, each with its own seed.
    pub fn job(seed: u64, index: usize) -> JobSpec {
        let shared = index % 3 == 2;
        let config = SimulationConfig {
            system: SystemSpec::SiliconDiamond { reps: 1 },
            engine: if shared {
                EngineKind::Shared
            } else {
                EngineKind::Serial
            },
            protocol: Protocol::Nve {
                temperature_k: 300.0,
                steps: JOB_STEPS,
                dt_fs: 1.0,
            },
            electronic_kt: 0.1,
            perturb: PERTURB,
            seed: seed.wrapping_add(index as u64),
            record_stride: 0,
        };
        let mut spec = JobSpec::new(job_name(index), config);
        spec.quantum = QUANTUM;
        spec.threads = if shared { WIDTH } else { 1 };
        spec.checkpoint_interval = CHECKPOINT_INTERVAL;
        spec
    }

    pub fn job_name(index: usize) -> String {
        format!("job-{index}")
    }

    pub fn job_index(name: &str) -> Option<usize> {
        name.strip_prefix("job-")?.parse().ok()
    }

    /// The job as a client would put it on the wire (for the request-parse
    /// replay of the traced run).
    pub fn job_line(seed: u64, index: usize) -> String {
        let spec = job(seed, index);
        let engine = if index % 3 == 2 { "shared" } else { "serial" };
        format!(
            "{{\"job\":\"{}\",\"system\":\"si\",\"reps\":1,\"engine\":\"{engine}\",\
             \"protocol\":\"nve\",\"temperature_k\":300,\"steps\":{JOB_STEPS},\"perturb\":{PERTURB},\
             \"seed\":{},\"quantum\":{QUANTUM},\"threads\":{},\"checkpoint_interval\":{CHECKPOINT_INTERVAL}}}",
            spec.name, spec.config.seed, spec.threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_serve::{parse_request, Request};

    #[test]
    fn seed_reaches_the_config_and_the_structure() {
        let spec = single(SI216_SERIAL).unwrap();
        let a = spec.config(42, 10);
        let b = spec.config(43, 10);
        assert_eq!(a.seed, 42);
        assert_eq!(a.perturb, PERTURB);
        assert_ne!(
            a.system.build(a.perturb, a.seed),
            b.system.build(b.perturb, b.seed)
        );
        assert_eq!(
            a.system.build(a.perturb, a.seed),
            spec.config(42, 99).system.build(PERTURB, 42)
        );
        assert!(matches!(a.protocol, Protocol::Nve { steps: 10, .. }));
    }

    #[test]
    fn systems_have_the_stated_sizes() {
        let atoms = |name| {
            let spec = single(name).unwrap();
            spec.system.build(0.0, 0).n_atoms()
        };
        assert_eq!(atoms(SI216_SERIAL), 216);
        assert_eq!(atoms(SI64_DIST2), 64);
        assert_eq!(atoms(CNT160_SHARED2), 160);
        assert_eq!(atoms(SI216_LINSCALE), 216);
    }

    #[test]
    fn serve_mix_is_two_serial_one_shared_and_parses_off_the_wire() {
        for index in 0..serve::ROUND_JOBS {
            let spec = serve::job(42, index);
            let shared = index % 3 == 2;
            assert_eq!(spec.threads, if shared { WIDTH } else { 1 });
            assert_eq!(spec.config.engine == EngineKind::Shared, shared);
            assert_eq!(serve::job_index(&spec.name), Some(index));
            let Request::Job(parsed) = parse_request(&serve::job_line(42, index)).unwrap() else {
                panic!("job line parses to a job");
            };
            assert_eq!(parsed.config, spec.config);
            assert_eq!(
                (parsed.quantum, parsed.threads, parsed.checkpoint_interval),
                (spec.quantum, spec.threads, spec.checkpoint_interval)
            );
        }
        assert!(serve::rounds(10.0) >= 2);
    }
}

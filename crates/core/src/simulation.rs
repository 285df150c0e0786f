//! The vocabulary of a run: system + engine + protocol in one config, the
//! attachment policies (checkpoints, recorder, resilience) and the summary.
//!
//! The machine that runs a config is the [`Session`](crate::session::Session)
//! a [`SessionBuilder`](crate::session::SessionBuilder) builds; nothing here
//! steps anything.

use crate::engine::EngineKind;
use crate::system::SystemSpec;
use std::path::PathBuf;
use tbmd_linalg::Vec3;
use tbmd_md::Trajectory;
use tbmd_model::TbModel;
use tbmd_trace::{git_describe, JsonValue, RunManifest};

/// 2^53: every integer up to it is exactly an f64, so it bounds the integers
/// a JSON number carries without loss.
const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

/// What to do with the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Protocol {
    /// Microcanonical dynamics from a Maxwell–Boltzmann start.
    Nve {
        temperature_k: f64,
        steps: usize,
        dt_fs: f64,
    },
    /// Nosé–Hoover canonical dynamics.
    Nvt {
        temperature_k: f64,
        steps: usize,
        dt_fs: f64,
        tau_fs: f64,
    },
    /// Nosé–Hoover dynamics with a thermostat ramp from `from_k` to `to_k`
    /// at `rate_k_per_fs`, then `hold_steps` at the target. `tau_fs` is the
    /// thermostat period (Q = g·k_B·T·τ²; ≈ 50–100 fs for covalent solids).
    NvtRamp {
        from_k: f64,
        to_k: f64,
        rate_k_per_fs: f64,
        hold_steps: usize,
        dt_fs: f64,
        tau_fs: f64,
    },
    /// Conjugate-gradient relaxation to a force tolerance.
    Relax {
        force_tolerance: f64,
        max_iterations: usize,
    },
}

impl Protocol {
    /// Refuse a protocol the MD kernels would assert on, naming the field:
    /// every float must be finite, `dt_fs`, `tau_fs` and the ramp rate
    /// positive, temperatures non-negative. Both front ends and
    /// [`SessionBuilder::build`](crate::session::SessionBuilder::build) call
    /// it (the serve parser and the builder through
    /// [`SimulationConfig::validate`]), so no run starts on such a value.
    pub fn validate(&self) -> Result<(), String> {
        let check = |field: &str, x: f64, ok: bool, rule: &str| {
            if x.is_finite() && ok {
                Ok(())
            } else {
                Err(format!("protocol field {field} must be {rule} (got {x})"))
            }
        };
        let positive = |field, x: f64| check(field, x, x > 0.0, "finite and > 0");
        let temperature = |field, x: f64| check(field, x, x >= 0.0, "finite and >= 0");
        match *self {
            Protocol::Nve {
                temperature_k,
                dt_fs,
                ..
            } => {
                temperature("temperature_k", temperature_k)?;
                positive("dt_fs", dt_fs)
            }
            Protocol::Nvt {
                temperature_k,
                dt_fs,
                tau_fs,
                ..
            } => {
                temperature("temperature_k", temperature_k)?;
                positive("dt_fs", dt_fs)?;
                positive("tau_fs", tau_fs)
            }
            Protocol::NvtRamp {
                from_k,
                to_k,
                rate_k_per_fs,
                dt_fs,
                tau_fs,
                ..
            } => {
                temperature("from_k", from_k)?;
                temperature("to_k", to_k)?;
                positive("rate_k_per_fs", rate_k_per_fs)?;
                positive("dt_fs", dt_fs)?;
                positive("tau_fs", tau_fs)
            }
            Protocol::Relax {
                force_tolerance, ..
            } => check("force_tolerance", force_tolerance, true, "finite"),
        }
    }
}

/// Full simulation request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Which structure/model to simulate.
    pub system: SystemSpec,
    /// Engine selection.
    pub engine: EngineKind,
    /// What to run.
    pub protocol: Protocol,
    /// Electronic smearing (eV).
    pub electronic_kt: f64,
    /// Initial random displacement amplitude (Å).
    pub perturb: f64,
    /// RNG seed (velocities + perturbation).
    pub seed: u64,
    /// Trajectory recording stride in steps (0 disables).
    pub record_stride: usize,
}

impl SimulationConfig {
    /// The seed a config gets when none is given.
    pub const DEFAULT_SEED: u64 = 42;

    /// Parse a request's `seed` field as the front ends accept it: absent
    /// ([`SimulationConfig::DEFAULT_SEED`]), a non-negative integral JSON
    /// number up to 2^53 (the exact-integer range of the f64-backed
    /// parser), or — for the full u64 range — a string, decimal or
    /// `0x`-prefixed hex. Anything lossy is rejected rather than silently
    /// running a different seed.
    pub fn parse_seed(value: Option<&JsonValue>) -> Result<u64, String> {
        let Some(value) = value else {
            return Ok(Self::DEFAULT_SEED);
        };
        if let Some(text) = value.as_str() {
            let (radix, digits) = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"))
            {
                Some(hex) => (16, hex),
                None => (10, text),
            };
            return u64::from_str_radix(digits, radix)
                .map_err(|_| format!("seed string {text:?} is not a u64"));
        }
        let x = value
            .as_f64()
            .ok_or_else(|| "seed must be an integer or a string".to_string())?;
        if !(0.0..=MAX_EXACT).contains(&x) || x.fract() != 0.0 {
            return Err(format!(
                "seed {x} is not an exactly-representable non-negative integer; \
                 pass large seeds as a string (decimal or \"0x…\")"
            ));
        }
        Ok(x as u64)
    }

    /// Read the count `field` (`steps`, `reps`, `threads`, …) of a request
    /// object as both front ends accept it: absent (`None`: the caller's
    /// default) or a non-negative integral JSON number up to 2^53. A
    /// fraction, a negative or larger number, or a value that is no number
    /// is an error naming the field, never a silently truncated count.
    pub fn parse_count(request: &JsonValue, field: &str) -> Result<Option<usize>, String> {
        let Some(value) = request.get(field) else {
            return Ok(None);
        };
        let x = value
            .as_f64()
            .ok_or_else(|| format!("{field} must be a number"))?;
        if !(0.0..=MAX_EXACT).contains(&x) || x.fract() != 0.0 {
            return Err(format!(
                "{field} must be a whole number from 0 up to the limit of 2^53 (got {x})"
            ));
        }
        Ok(Some(x as usize))
    }

    /// Refuse `x` unless it is finite and `>= 0`, naming `field`: the rule
    /// [`SimulationConfig::validate`] applies to `electronic_kt` and
    /// `perturb`, and the campaign front end to its shared smearing.
    pub fn check_non_negative(field: &str, x: f64) -> Result<(), String> {
        if x.is_finite() && x >= 0.0 {
            Ok(())
        } else {
            Err(format!("{field} must be finite and >= 0 (got {x})"))
        }
    }

    /// Refuse a config no run may start on, naming the field: a protocol
    /// value [`Protocol::validate`] refuses, or an `electronic_kt` or
    /// `perturb` that is negative or not finite (an infinite smearing
    /// reports null energies; a negative or NaN one would silently run
    /// zero-temperature filling). Both front ends and
    /// [`SessionBuilder::build`](crate::session::SessionBuilder::build) call
    /// it.
    pub fn validate(&self) -> Result<(), String> {
        self.protocol.validate()?;
        Self::check_non_negative("electronic_kt", self.electronic_kt)?;
        Self::check_non_negative("perturb", self.perturb)
    }

    /// A reasonable default NVE run for a system.
    pub fn nve(system: SystemSpec, temperature_k: f64, steps: usize) -> Self {
        SimulationConfig {
            system,
            engine: EngineKind::Serial,
            protocol: Protocol::Nve {
                temperature_k,
                steps,
                dt_fs: 1.0,
            },
            electronic_kt: 0.1,
            perturb: 0.0,
            seed: Self::DEFAULT_SEED,
            record_stride: 0,
        }
    }
}

/// Periodic-snapshot policy for a checkpointed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory the `TBCK` snapshots live in (created if missing).
    pub dir: PathBuf,
    /// Steps between snapshots (0 disables writing; resume still works
    /// against whatever the directory already holds).
    pub interval: usize,
    /// Keep only the newest `retain` snapshots (0 keeps all). Keeping a few
    /// lets a resume fall back past a torn newest file.
    pub retain: usize,
}

impl CheckpointConfig {
    /// Snapshot into `dir` every `interval` steps, keeping the newest 3.
    pub fn every(dir: impl Into<PathBuf>, interval: usize) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            interval,
            retain: 3,
        }
    }
}

/// Summary statistics of a finished simulation.
#[derive(Debug, Clone)]
pub struct SimulationSummary {
    /// Final potential energy (eV).
    pub final_potential_energy: f64,
    /// Final total energy (eV; = potential for relaxations).
    pub final_total_energy: f64,
    /// Mean temperature over the run (K; 0 for relaxations).
    pub mean_temperature_k: f64,
    /// Peak |ΔE| of the conserved quantity over the run (eV; total energy
    /// for NVE, the Nosé–Hoover extended energy for NVT, and the extended
    /// energy over the constant-temperature hold phase for ramps).
    pub conserved_drift: f64,
    /// Steps (MD) or iterations (relaxation) executed.
    pub steps: usize,
    /// Whether a relaxation converged (always true for MD).
    pub converged: bool,
    /// Recorded trajectory, when requested. A resumed run records only the
    /// frames since the snapshot (earlier frames live in the original run).
    pub trajectory: Option<Trajectory>,
    /// Final configuration.
    pub final_structure: tbmd_structure::Structure,
    /// Final velocities (Å/fs; empty for relaxations). Together with
    /// `final_structure` this pins a trajectory endpoint bit-for-bit, which
    /// is what the kill-and-resume equivalence tests compare.
    pub final_velocities: Vec<Vec3>,
}

/// Knobs of a recorded run
/// ([`SessionBuilder::record`](crate::session::SessionBuilder::record)).
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Eigensolver health-probe stride in MD steps (0 disables the probe).
    /// Probes run only on dense-diagonalization engines; the O(N) Chebyshev
    /// engines have no eigenpairs to check.
    pub health_stride: usize,
    /// Periodic snapshots alongside the JSONL stream (`ckpt` lines record
    /// each write).
    pub checkpoint: Option<CheckpointConfig>,
}

impl RecorderConfig {
    /// The default health-probe stride (every 25 steps).
    pub const DEFAULT_HEALTH_STRIDE: usize = 25;

    /// The default recorded-run knobs (health probe every 25 steps, no
    /// checkpointing).
    pub fn standard() -> Self {
        RecorderConfig {
            health_stride: Self::DEFAULT_HEALTH_STRIDE,
            checkpoint: None,
        }
    }
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig::standard()
    }
}

/// The manifest line identifying a run of `config`
/// (`RunRecorder::to_path`/`in_memory` want it up front).
pub fn run_manifest(config: &SimulationConfig) -> RunManifest {
    let structure = config.system.build(config.perturb, config.seed);
    let n_ranks = match config.engine {
        EngineKind::Distributed { ranks } => ranks,
        EngineKind::DistributedLinearScaling { ranks, .. } => ranks,
        _ => 1,
    };
    RunManifest {
        model: config.system.model().name().to_string(),
        engine: format!("{:?}", config.engine),
        n_atoms: structure.n_atoms(),
        n_ranks,
        protocol: format!("{:?}", config.protocol),
        seed: config.seed,
        git_describe: git_describe(),
    }
}

/// What a resilient session does with the rank set after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReshardPolicy {
    /// Re-spawn the failed ranks and retry at the configured width.
    /// Virtual ranks are threads, so respawning is free, and the retried
    /// trajectory is *bitwise* the uninterrupted one: the same rank count
    /// means the same reduction-tree grouping, hence the same
    /// floating-point sums.
    #[default]
    Respawn,
    /// Continue on the survivors: the next evaluation recomputes every
    /// shard boundary (occupied eigenvectors, force blocks) over P − f
    /// ranks with the same `partition_range`, so the dead rank's shards are
    /// redistributed automatically. The continued trajectory agrees with the
    /// uninterrupted one only to summation accuracy (the allreduce
    /// grouping changes with the rank count, and float addition is not
    /// associative).
    Shrink,
}

/// Knobs of a resilient run
/// ([`SessionBuilder::resilience`](crate::session::SessionBuilder::resilience)):
/// one engine lives across all attempts, each rank failure rewinds to the
/// newest snapshot (or restarts from scratch before the first one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceOptions {
    /// Rank-set policy after each failure.
    pub policy: ReshardPolicy,
    /// Give up after this many recoveries (the N+1st failure is returned).
    pub max_recoveries: usize,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            policy: ReshardPolicy::Respawn,
            max_recoveries: 2,
        }
    }
}

/// What it took to finish a resilient run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Rewind-and-retry cycles before the successful attempt.
    pub recoveries: usize,
    /// Every rank blamed across the failures, in failure order.
    pub failed_ranks: Vec<usize>,
    /// Active rank count of the engine at the end: the configured count
    /// under [`ReshardPolicy::Respawn`], the survivor count under
    /// [`ReshardPolicy::Shrink`], 1 for rankless engines.
    pub final_ranks: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;

    fn run(config: &SimulationConfig) -> SimulationSummary {
        SessionBuilder::new(*config).build().unwrap().run().unwrap()
    }

    #[test]
    fn counts_are_exact_or_errors_naming_the_field() {
        let read = |text: &str| {
            let request = JsonValue::parse(text).unwrap();
            SimulationConfig::parse_count(&request, "steps")
        };
        assert_eq!(read("{}"), Ok(None));
        assert_eq!(read(r#"{"steps":0}"#), Ok(Some(0)));
        assert_eq!(read(r#"{"steps":12}"#), Ok(Some(12)));
        assert_eq!(read(r#"{"steps":2e3}"#), Ok(Some(2000)));
        assert_eq!(read(r#"{"steps":9007199254740992}"#), Ok(Some(1 << 53)));
        for bad in ["2.7", "-1", "1e30", "1e400", "\"12\"", "null", "true"] {
            let err = read(&format!(r#"{{"steps":{bad}}}"#)).unwrap_err();
            assert!(err.contains("steps"), "{bad}: {err}");
        }
    }

    #[test]
    fn smearing_and_displacement_must_be_finite_and_non_negative() {
        let base = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 2);
        assert_eq!(base.validate(), Ok(()));
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let err = SimulationConfig {
                electronic_kt: bad,
                ..base
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("electronic_kt"), "{bad}: {err}");
            let err = SimulationConfig {
                perturb: bad,
                ..base
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("perturb"), "{bad}: {err}");
        }
        let zero = SimulationConfig {
            electronic_kt: 0.0,
            perturb: 0.0,
            ..base
        };
        assert_eq!(zero.validate(), Ok(()));
    }

    #[test]
    fn nve_summary_sane() {
        let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 10);
        config.record_stride = 2;
        let summary = run(&config);
        assert_eq!(summary.steps, 10);
        assert!(summary.converged);
        assert!(summary.mean_temperature_k > 100.0 && summary.mean_temperature_k < 600.0);
        assert!(summary.conserved_drift < 0.05);
        let traj = summary.trajectory.as_ref().unwrap();
        assert_eq!(traj.len(), 5);
    }

    #[test]
    fn relax_protocol() {
        let config = SimulationConfig {
            system: SystemSpec::SiliconDiamond { reps: 1 },
            engine: EngineKind::Serial,
            protocol: Protocol::Relax {
                force_tolerance: 2e-2,
                max_iterations: 100,
            },
            electronic_kt: 0.1,
            perturb: 0.08,
            seed: 3,
            record_stride: 0,
        };
        let summary = run(&config);
        assert!(summary.converged, "relaxation failed: {summary:?}");
        assert!(summary.final_potential_energy < 0.0);
    }

    #[test]
    fn nvt_tracks_target() {
        let config = SimulationConfig {
            system: SystemSpec::SiliconDiamond { reps: 1 },
            engine: EngineKind::Serial,
            protocol: Protocol::Nvt {
                temperature_k: 500.0,
                steps: 25,
                dt_fs: 1.0,
                tau_fs: 30.0,
            },
            electronic_kt: 0.1,
            perturb: 0.0,
            seed: 5,
            record_stride: 0,
        };
        let summary = run(&config);
        assert!(summary.mean_temperature_k > 250.0 && summary.mean_temperature_k < 800.0);
    }

    #[test]
    fn ramp_protocol_heats() {
        let config = SimulationConfig {
            system: SystemSpec::SiliconDiamond { reps: 1 },
            engine: EngineKind::Serial,
            protocol: Protocol::NvtRamp {
                from_k: 100.0,
                to_k: 110.0,
                rate_k_per_fs: 0.5,
                hold_steps: 3,
                dt_fs: 1.0,
                tau_fs: 50.0,
            },
            electronic_kt: 0.1,
            perturb: 0.0,
            seed: 9,
            record_stride: 0,
        };
        let summary = run(&config);
        // 10 K at 0.5 K/fs = 20 steps of ramp + 3 hold.
        assert_eq!(summary.steps, 23);
        // The hold phase measures a real extended-energy drift now: finite,
        // nonzero, and small for 3 steps of a well-thermostatted crystal.
        assert!(
            summary.conserved_drift > 0.0 && summary.conserved_drift < 0.05,
            "hold-phase drift {} eV",
            summary.conserved_drift
        );
    }
}

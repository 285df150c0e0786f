//! The benchmark's fixed vocabulary — workloads, end-to-end metrics,
//! per-layer metrics — and the result line every run prints.
//!
//! `BENCHMARK.json` at the repository root states the same names, units,
//! directions and bounds; a unit test keeps the two in step.

use std::collections::BTreeMap;
use tbmd::trace::JsonValue;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change counts as a regression; per-layer metrics carry none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const SI216_SERIAL: &str = "si216-serial-nve";
pub const SI64_DIST2: &str = "si64-dist2-nve";
pub const CNT160_SHARED2: &str = "cnt160-shared2-nvt";
pub const SI216_LINSCALE: &str = "si216-linscale-nve";
pub const SI8_SERVE: &str = "si8-serve-mix";

/// The five workloads; later issues cite them by name.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: SI216_SERIAL,
        why: "Si-216 serial NVE: the eigensolver wall (two-stage solve + SYRK density ~97% of the step); the baseline every other number is read against; structure/md/core changes must not move it",
    },
    WorkloadDef {
        name: SI64_DIST2,
        why: "Si-64 on 2 virtual ranks: replicated tridiagonalisation, rank-sharded eigenvectors and the rho allreduce at n=256, where blocking overheads and collectives matter",
    },
    WorkloadDef {
        name: CNT160_SHARED2,
        why: "(10,0)x4 carbon nanotube anneal, shared engine, Nose-Hoover 2500 K: the paper-family run; only workload on the carbon model, a non-cubic cell, the thermostat and the shared fan-outs",
    },
    WorkloadDef {
        name: SI216_LINSCALE,
        why: "Si-216 O(N) Chebyshev engine (r_loc 6.0, order 350): linscale does all the work and the dense solver none, at the smallest size where truncation is real; a dense-solver gain must not move it",
    },
    WorkloadDef {
        name: SI8_SERVE,
        why: "Bursts of 24 Si-8 jobs x 200 steps through the Multiplexer (2/3 serial, 1/3 shared, budget 2): fixed costs dominate - step overhead, tick, JSONL lines, checkpoints, one-stage eigh at n=32, fan-out",
    },
];

/// What a user of the system sees. Every workload reports every metric.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("steps_per_s", "1/s", Better::Higher, 0.25),
    e2e("step_ms_p50", "ms", Better::Lower, 0.25),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("job_latency_ms_p50", "ms", Better::Lower, 0.25),
    e2e("job_latency_ms_p90", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// Single layers (the crates), traced pass only. A metric reads 0 on a
/// workload that never enters that layer's function.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("structure.neighbors_us", "us", Better::Lower),
    layer("structure.nl_rebuild_frac", "ratio", Better::Lower),
    layer("model.hamiltonian_ms", "ms", Better::Lower),
    layer("model.occupations_us", "us", Better::Lower),
    layer("model.density_ms", "ms", Better::Lower),
    layer("model.forces_ms", "ms", Better::Lower),
    layer("linalg.tridiagonalize_ms", "ms", Better::Lower),
    layer("linalg.eigenvalues_ms", "ms", Better::Lower),
    layer("linalg.inverse_iteration_ms", "ms", Better::Lower),
    layer("linalg.back_transform_ms", "ms", Better::Lower),
    layer("linalg.eigh_small_us", "us", Better::Lower),
    layer("linalg.gemm_gflops", "GF/s", Better::Higher),
    layer("linalg.syrk_gflops", "GF/s", Better::Higher),
    layer("linalg.tridiagonalize_gflops", "GF/s", Better::Higher),
    layer("linalg.back_transform_gflops", "GF/s", Better::Higher),
    layer("linalg.solver_of_gemm", "ratio", Better::Higher),
    layer("md.integrate_us", "us", Better::Lower),
    layer("parallel.shared_evaluate_ms", "ms", Better::Lower),
    layer("parallel.fanout_us", "us", Better::Lower),
    layer("parallel.dist_evaluate_ms", "ms", Better::Lower),
    layer("parallel.wire_bytes_per_step", "B", Better::Lower),
    layer("parallel.messages_per_step", "count", Better::Lower),
    layer("parallel.allreduce_ms", "ms", Better::Lower),
    layer("parallel.allgather_ms", "ms", Better::Lower),
    layer("parallel.replicated_tridiag_frac", "ratio", Better::Lower),
    layer("parallel.dist_speedup_vs_serial", "ratio", Better::Higher),
    layer("linscale.evaluate_ms", "ms", Better::Lower),
    layer("linscale.region_build_ms", "ms", Better::Lower),
    layer("linscale.matvec_ops_per_step", "count", Better::Lower),
    layer("linscale.region_orbitals_mean", "count", Better::Lower),
    layer("linscale.matvec_gflops", "GF/s", Better::Higher),
    layer("linscale.energy_err_mev_per_atom", "meV", Better::Lower),
    layer("core.session_build_ms", "ms", Better::Lower),
    layer("core.session_step_ms", "ms", Better::Lower),
    layer("core.engine_evaluate_ms", "ms", Better::Lower),
    layer("core.step_overhead_us", "us", Better::Lower),
    layer("core.unattributed_ms", "ms", Better::Lower),
    layer("ckpt.write_us", "us", Better::Lower),
    layer("ckpt.read_us", "us", Better::Lower),
    layer("ckpt.bytes_per_snapshot", "B", Better::Lower),
    layer("trace.record_step_us", "us", Better::Lower),
    layer("trace.bytes_per_step", "B", Better::Lower),
    layer("serve.tick_ms_p50", "ms", Better::Lower),
    layer("serve.tick_ms_p99", "ms", Better::Lower),
    layer("serve.queue_wait_ms_p50", "ms", Better::Lower),
    layer("serve.mux_overhead_frac", "ratio", Better::Lower),
    layer("serve.parse_request_us", "us", Better::Lower),
    layer("bench.trace_overhead_frac", "ratio", Better::Lower),
    layer("bench.twin_energy_err_ev", "eV", Better::Lower),
    layer("bench.stage_share_of_step", "ratio", Better::Lower),
    layer("bench.traced_steps", "count", Better::Higher),
    layer("bench.threads_available", "count", Better::Higher),
];

/// Names are restricted to letters, digits, `_`, `.` and `-`, start with a
/// letter or digit and hold at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Measured values of one run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome of one run: the operations attempted and failed, whether every
/// correctness gate held, and the metrics of the pass that ran.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    /// `failed` counts the operations that failed on their own; a failed
    /// correctness gate counts every operation of the run as failed.
    pub fn new(correct: bool, attempted: u64, failed: u64, values: Values) -> RunResult {
        RunResult {
            correct,
            attempted,
            failed: if correct { failed } else { attempted },
            values,
        }
    }

    /// The result object the contract asks for: exactly `correct`,
    /// `attempted`, `failed`, `metrics`, with one entry per metric of `defs`
    /// (a metric the run did not set reads 0).
    ///
    /// # Panics
    /// Panics on a non-finite value (it would serialize as `null`) or a name
    /// outside the allowed alphabet.
    pub fn to_json(&self, defs: &[MetricDef]) -> JsonValue {
        let mut metrics = JsonValue::object();
        for def in defs {
            let value = self.values.get(def.name).unwrap_or(0.0);
            assert!(
                valid_name(def.name),
                "metric name {:?} is not allowed",
                def.name
            );
            assert!(value.is_finite(), "metric {} is not finite", def.name);
            let mut m = JsonValue::object();
            m.set("value", value).set("unit", def.unit);
            metrics.set(def.name, m);
        }
        let mut out = JsonValue::object();
        out.set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_restricted_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "caf\u{e9}", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be rejected");
        }
        assert!(valid_name("si216-serial-nve") && valid_name("linalg.gemm_gflops"));
    }

    #[test]
    fn units_whys_and_bounds_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "bound of {} out of range", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn result_line_reparses_with_the_in_tree_json() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        values.set("steps_per_s", 3.25);
        let result = RunResult::new(true, 33, 0, values);
        let text = result.to_json(&END_TO_END).to_compact();
        assert!(!text.contains('\n'));
        let parsed = JsonValue::parse(&text).expect("result re-parses");
        let JsonValue::Object(top) = &parsed else {
            panic!("result is an object");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(33.0));
        let metrics = parsed.get("metrics").unwrap();
        let JsonValue::Object(map) = metrics else {
            panic!("metrics is an object");
        };
        assert_eq!(map.len(), END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        // Unset metrics are present and read 0.
        assert_eq!(
            metrics
                .get("peak_rss_mb")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    /// `BENCHMARK.json` and the tables above must state the same contract.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
        for (entry, w) in doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why));
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (entry, m) in doc.get(key).unwrap().as_array().unwrap().iter().zip(defs) {
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(JsonValue::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}

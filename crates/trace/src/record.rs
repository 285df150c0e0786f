//! JSONL run records: one manifest line, one `step` line per MD step,
//! `warn` lines from the watchdogs, periodic `eig_health` lines, and a
//! closing `summary`. Every line is a self-describing JSON object with a
//! `type` field, so consumers can stream-filter with one parse per line.

use crate::json::JsonValue;
use crate::metrics::{Counter, Gauge, Phase, TraceSnapshot};
use crate::sink;
use crate::watchdog::{DriftWatchdog, WatchdogStatus};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Identity of one recorded run — the first JSONL line
/// (`"type":"manifest"`).
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Tight-binding model name (e.g. `goodwin-skinner-pettifor-si`).
    pub model: String,
    /// Engine + solver selection, e.g. `Distributed { ranks: 4 }` or
    /// `serial/TwoStage`.
    pub engine: String,
    pub n_atoms: usize,
    /// Vmp ranks (1 on the dense and O(N) engines).
    pub n_ranks: usize,
    /// MD protocol, e.g. `Nve { steps: 50, dt_fs: 1.0 }`.
    pub protocol: String,
    pub seed: u64,
    /// `git describe --always --dirty` of the producing tree
    /// ([`git_describe`]), `"unknown"` outside a work tree.
    pub git_describe: String,
}

impl RunManifest {
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::object();
        v.set("type", "manifest")
            .set("model", self.model.as_str())
            .set("engine", self.engine.as_str())
            .set("n_atoms", self.n_atoms)
            .set("n_ranks", self.n_ranks)
            .set("protocol", self.protocol.as_str())
            .set("seed", self.seed)
            .set("git_describe", self.git_describe.as_str());
        v
    }
}

/// Best-effort `git describe --always --dirty`; `"unknown"` when git or the
/// work tree is unavailable (records must never fail because of this).
/// Shells out once per process and caches: serve builds a manifest per
/// tenant, and forking git on every admission is pure waste — the describe
/// string cannot change under a running process we'd care to observe.
pub fn git_describe() -> String {
    static DESCRIBE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

/// Everything recorded about one MD step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepRecord {
    pub step: usize,
    pub time_fs: f64,
    pub potential_ev: f64,
    /// The conserved quantity fed to the drift watchdog: total energy for
    /// NVE, the Nosé–Hoover conserved quantity for NVT.
    pub conserved_ev: f64,
    pub temperature_k: f64,
    /// Per-phase wall time of this step's force evaluation, indexed by
    /// [`Phase::index`].
    pub phase_ns: [u64; Phase::COUNT],
    /// Wire bytes moved during this step (0 on non-distributed engines).
    pub comm_bytes: u64,
    /// Workspace growth events during this step (0 in steady state).
    pub alloc_events: u64,
}

impl StepRecord {
    fn to_json(self, drift_ev: f64) -> JsonValue {
        let mut phases = JsonValue::object();
        for p in Phase::ALL {
            phases.set(p.name(), JsonValue::from(self.phase_ns[p.index()]));
        }
        let mut v = JsonValue::object();
        v.set("type", "step")
            .set("step", self.step)
            .set("time_fs", self.time_fs)
            .set("potential_ev", self.potential_ev)
            .set("conserved_ev", self.conserved_ev)
            .set("drift_ev", drift_ev)
            .set("temperature_k", self.temperature_k)
            .set("phase_ns", phases)
            .set("comm_bytes", self.comm_bytes)
            .set("alloc_events", self.alloc_events);
        v
    }
}

/// One eigensolver health probe (`"type":"eig_health"`), produced by
/// `tbmd_model::eigensolver_health`.
#[derive(Debug, Clone, Copy)]
pub struct HealthRecord {
    pub step: usize,
    /// ‖Hv − λv‖∞ of the sampled eigenpair (eV).
    pub residual_inf: f64,
    /// Orthogonality defect: max |vᵢ·vⱼ − δᵢⱼ| over the spot-checked pairs.
    pub orthogonality: f64,
    /// Index of the sampled eigenpair.
    pub sampled_index: usize,
    pub n_orbitals: usize,
}

impl HealthRecord {
    fn to_json(self) -> JsonValue {
        let mut v = JsonValue::object();
        v.set("type", "eig_health")
            .set("step", self.step)
            .set("residual_inf", self.residual_inf)
            .set("orthogonality", self.orthogonality)
            .set("sampled_index", self.sampled_index)
            .set("n_orbitals", self.n_orbitals);
        v
    }
}

enum Output {
    File(BufWriter<File>),
    Memory(Vec<String>),
    /// Caller-supplied writer, flushed after every line — the serve
    /// daemon's live per-tenant JSONL stream.
    Stream(Box<dyn Write + Send>),
}

/// Sink for one run's JSONL stream. Writes the manifest on construction,
/// consults the drift watchdog on every [`record_step`], emits `warn` lines
/// when a watchdog trips, and closes with a `summary` line from
/// [`finish`].
///
/// [`record_step`]: RunRecorder::record_step
/// [`finish`]: RunRecorder::finish
pub struct RunRecorder {
    out: Output,
    drift: DriftWatchdog,
    steps: usize,
    warns: usize,
    /// End-of-run observables attached via [`RunRecorder::set_observables`];
    /// folded into the closing summary line.
    observables: Option<JsonValue>,
    /// The run's counter totals, attached via [`RunRecorder::set_counters`].
    counters: TraceSnapshot,
}

/// Verdict returned by [`RunRecorder::finish`].
#[derive(Debug, Clone)]
pub struct RecorderSummary {
    pub steps: usize,
    pub warns: usize,
    pub watchdog: WatchdogStatus,
    /// The JSONL lines, for in-memory recorders (empty for file output).
    pub lines: Vec<String>,
}

impl RunRecorder {
    /// ‖Hv − λv‖∞ above this emits a warn line (eV).
    const DEFAULT_EIG_RESIDUAL_BUDGET: f64 = 1e-6;

    fn new(out: Output, manifest: &RunManifest) -> io::Result<RunRecorder> {
        let mut rec = RunRecorder {
            out,
            drift: DriftWatchdog::default(),
            steps: 0,
            warns: 0,
            observables: None,
            counters: TraceSnapshot::default(),
        };
        rec.write_line(&manifest.to_json())?;
        Ok(rec)
    }

    /// Record to a JSONL file (truncating), manifest first.
    pub fn to_path(path: impl AsRef<Path>, manifest: &RunManifest) -> io::Result<RunRecorder> {
        let file = File::create(path)?;
        RunRecorder::new(Output::File(BufWriter::new(file)), manifest)
    }

    /// Record into memory; lines come back from [`RunRecorder::finish`] (or
    /// [`RunRecorder::lines`] mid-run). Infallible in practice.
    pub fn in_memory(manifest: &RunManifest) -> RunRecorder {
        RunRecorder::new(Output::Memory(Vec::new()), manifest).expect("in-memory write")
    }

    /// Record into a caller-supplied writer (e.g. a client socket), flushing
    /// after every line so a consumer tailing the stream sees each record as
    /// soon as it is produced.
    pub fn to_writer(
        writer: impl Write + Send + 'static,
        manifest: &RunManifest,
    ) -> io::Result<RunRecorder> {
        RunRecorder::new(Output::Stream(Box::new(writer)), manifest)
    }

    /// Replace the drift tripwire budget (eV per 1000 steps).
    pub fn with_drift_budget(mut self, budget_ev_per_1k: f64) -> RunRecorder {
        self.drift = DriftWatchdog::new(budget_ev_per_1k);
        self
    }

    /// Lines written so far (in-memory recorders only).
    pub fn lines(&self) -> &[String] {
        match &self.out {
            Output::Memory(lines) => lines,
            Output::File(_) | Output::Stream(_) => &[],
        }
    }

    /// Push buffered lines to the underlying file/stream (no-op in memory).
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.out {
            Output::File(w) => w.flush(),
            Output::Stream(w) => w.flush(),
            Output::Memory(_) => Ok(()),
        }
    }

    /// Append one step record; runs the drift watchdog and mirrors drift +
    /// temperature into the gauges of the entered scopes.
    pub fn record_step(&mut self, record: &StepRecord) -> io::Result<()> {
        let trip = self.drift.observe(record.step, record.conserved_ev);
        let drift = self.drift.worst_drift();
        sink::set_gauge(Gauge::EnergyDrift, drift);
        sink::set_gauge(Gauge::Temperature, record.temperature_k);
        self.steps += 1;
        self.write_line(&record.to_json(drift))?;
        if let Some(trip) = trip {
            let mut warn = JsonValue::object();
            warn.set("type", "warn")
                .set("watchdog", "energy_drift")
                .set("step", trip.step)
                .set("drift_ev", trip.drift_ev)
                .set("allowed_ev", trip.allowed_ev);
            self.warns += 1;
            self.write_line(&warn)?;
        }
        Ok(())
    }

    /// Append an eigensolver health record; mirrors the residual and
    /// orthogonality defect into the gauges and warns past the budget.
    pub fn record_health(&mut self, health: &HealthRecord) -> io::Result<()> {
        sink::set_gauge(Gauge::EigResidual, health.residual_inf);
        sink::set_gauge(Gauge::EigOrthogonality, health.orthogonality);
        self.write_line(&health.to_json())?;
        if health.residual_inf > RunRecorder::DEFAULT_EIG_RESIDUAL_BUDGET {
            let mut warn = JsonValue::object();
            warn.set("type", "warn")
                .set("watchdog", "eig_health")
                .set("step", health.step)
                .set("residual_inf", health.residual_inf)
                .set("allowed", RunRecorder::DEFAULT_EIG_RESIDUAL_BUDGET);
            self.warns += 1;
            self.write_line(&warn)?;
        }
        Ok(())
    }

    /// Append a `ckpt` line: one snapshot published by the checkpoint
    /// subsystem (also bumps the ckpt counters of the entered scopes).
    pub fn record_ckpt(
        &mut self,
        step: usize,
        bytes: u64,
        wall_ns: u64,
        path: &str,
    ) -> io::Result<()> {
        sink::add(Counter::CkptWrites, 1);
        sink::add(Counter::CkptBytes, bytes);
        sink::add(Counter::CkptNanos, wall_ns);
        let mut v = JsonValue::object();
        v.set("type", "ckpt")
            .set("step", step)
            .set("bytes", bytes)
            .set("wall_ns", wall_ns)
            .set("path", path);
        self.write_line(&v)
    }

    /// Append a `restore` line: the run resumed from a snapshot, either at
    /// startup ([`resume`]) or after a detected rank failure.
    ///
    /// [`resume`]: RunRecorder::record_restore
    pub fn record_restore(&mut self, step: usize, reason: &str, path: &str) -> io::Result<()> {
        sink::add(Counter::CkptRestores, 1);
        let mut v = JsonValue::object();
        v.set("type", "restore")
            .set("step", step)
            .set("reason", reason)
            .set("path", path);
        self.write_line(&v)
    }

    /// Attach end-of-run observables (RDF peaks, temperature statistics,
    /// final energies — any JSON object) to the closing summary line, so a
    /// recorded stream carries structural observables, not just energies.
    /// Call any time before [`RunRecorder::finish`]; the last call wins.
    pub fn set_observables(&mut self, observables: JsonValue) {
        self.observables = Some(observables);
    }

    /// Attach the run's own counter totals (a session hands over its
    /// scope's) for the closing summary line; all zero until set.
    pub fn set_counters(&mut self, totals: TraceSnapshot) {
        self.counters = totals;
    }

    /// Write the closing summary line, flush, and return the verdict (plus
    /// the captured lines for in-memory recorders).
    pub fn finish(mut self) -> io::Result<RecorderSummary> {
        let status = self.drift.status();
        let mut v = JsonValue::object();
        v.set("type", "summary")
            .set("steps", self.steps)
            .set("warns", self.warns)
            .set("watchdog", status.to_json());
        let mut counters = JsonValue::object();
        for c in Counter::ALL {
            counters.set(c.name(), JsonValue::from(self.counters.counter(c)));
        }
        v.set("counters", counters);
        if let Some(observables) = self.observables.take() {
            v.set("observables", observables);
        }
        self.write_line(&v)?;
        // Swap the output out so `finish` can consume it while the Drop
        // impl (which handles the *unfinished* early-exit path) still
        // exists; the leftover empty Memory output makes that drop a no-op.
        let out = std::mem::replace(&mut self.out, Output::Memory(Vec::new()));
        let lines = match out {
            Output::Memory(lines) => lines,
            Output::File(mut w) => {
                w.flush()?;
                Vec::new()
            }
            Output::Stream(mut w) => {
                w.flush()?;
                Vec::new()
            }
        };
        Ok(RecorderSummary {
            steps: self.steps,
            warns: self.warns,
            watchdog: status,
            lines,
        })
    }

    fn write_line(&mut self, value: &JsonValue) -> io::Result<()> {
        let line = value.to_compact();
        match &mut self.out {
            Output::File(w) => {
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")
            }
            Output::Memory(lines) => {
                lines.push(line);
                Ok(())
            }
            Output::Stream(w) => {
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
                // A stream consumer is tailing live: hand the line over now.
                w.flush()
            }
        }
    }
}

impl Drop for RunRecorder {
    /// Best-effort flush so a run that dies mid-flight (fault injection,
    /// early `?` return, panic unwind) never loses step lines that were
    /// already recorded but still sitting in the write buffer.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> RunManifest {
        RunManifest {
            model: "gsp-si".to_string(),
            engine: "serial/TwoStage".to_string(),
            n_atoms: 64,
            n_ranks: 1,
            protocol: "Nve { steps: 3, dt_fs: 1.0 }".to_string(),
            seed: 7,
            git_describe: "test".to_string(),
        }
    }

    #[test]
    fn jsonl_stream_parses_and_trips() {
        let mut rec = RunRecorder::in_memory(&manifest()).with_drift_budget(0.01);
        for step in 0..3 {
            // 1 eV/step runaway: must trip at step 1.
            rec.record_step(&StepRecord {
                step,
                time_fs: step as f64,
                potential_ev: -310.0,
                conserved_ev: -300.0 + step as f64,
                temperature_k: 300.0,
                ..StepRecord::default()
            })
            .expect("record");
        }
        rec.record_health(&HealthRecord {
            step: 2,
            residual_inf: 3e-9,
            orthogonality: 1e-12,
            sampled_index: 10,
            n_orbitals: 256,
        })
        .expect("health");
        let summary = rec.finish().expect("finish");
        assert_eq!(summary.steps, 3);
        assert_eq!(summary.warns, 1);
        assert!(!summary.watchdog.ok);
        assert_eq!(summary.watchdog.tripped_at, Some(1));

        // manifest + 3 steps + 1 warn + 1 health + summary
        assert_eq!(summary.lines.len(), 7);
        let parsed: Vec<JsonValue> = summary
            .lines
            .iter()
            .map(|l| JsonValue::parse(l).expect("every line parses"))
            .collect();
        let ty = |v: &JsonValue| v.get("type").unwrap().as_str().unwrap().to_string();
        assert_eq!(ty(&parsed[0]), "manifest");
        assert_eq!(ty(&parsed[2]), "step");
        assert_eq!(ty(&parsed[3]), "warn");
        assert_eq!(ty(&parsed[6]), "summary");
        assert_eq!(parsed[0].get("n_atoms").unwrap().as_f64(), Some(64.0));
        assert_eq!(
            parsed[3].get("watchdog").unwrap().as_str(),
            Some("energy_drift")
        );
    }

    #[test]
    fn ckpt_and_restore_lines_parse() {
        let mut rec = RunRecorder::in_memory(&manifest());
        rec.record_ckpt(10, 1536, 42_000, "ckpt/ckpt_0000000010.tbck")
            .expect("ckpt");
        rec.record_restore(10, "rank_failure", "ckpt/ckpt_0000000010.tbck")
            .expect("restore");
        let summary = rec.finish().expect("finish");
        let parsed: Vec<JsonValue> = summary
            .lines
            .iter()
            .map(|l| JsonValue::parse(l).expect("parses"))
            .collect();
        assert_eq!(parsed[1].get("type").unwrap().as_str(), Some("ckpt"));
        assert_eq!(parsed[1].get("bytes").unwrap().as_f64(), Some(1536.0));
        assert_eq!(parsed[2].get("type").unwrap().as_str(), Some("restore"));
        assert_eq!(
            parsed[2].get("reason").unwrap().as_str(),
            Some("rank_failure")
        );
    }

    #[test]
    fn drop_without_finish_flushes_buffered_lines() {
        let path = std::env::temp_dir().join(format!(
            "tbmd_recorder_drop_flush_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut rec = RunRecorder::to_path(&path, &manifest()).expect("create");
            for step in 0..4 {
                rec.record_step(&StepRecord {
                    step,
                    conserved_ev: -300.0,
                    ..StepRecord::default()
                })
                .expect("record");
            }
            // Dropped here without finish() — the abrupt-death path of a
            // fault-injected run. The buffered step lines must survive.
        }
        let contents = std::fs::read_to_string(&path).expect("read back");
        let types: Vec<String> = contents
            .lines()
            .map(|l| {
                JsonValue::parse(l)
                    .expect("parses")
                    .get("type")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            types,
            ["manifest", "step", "step", "step", "step"],
            "buffered lines lost on drop"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stream_output_delivers_each_line_immediately() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut rec = RunRecorder::to_writer(buf.clone(), &manifest()).expect("create");
        rec.record_step(&StepRecord {
            step: 0,
            conserved_ev: -300.0,
            ..StepRecord::default()
        })
        .expect("record");
        // Mid-run, before finish: the consumer must already see both lines.
        let seen = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(seen.lines().count(), 2, "stream lines not delivered live");
        let summary = rec.finish().expect("finish");
        assert_eq!(summary.steps, 1);
        let seen = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let last = seen.lines().last().unwrap();
        let parsed = JsonValue::parse(last).expect("parses");
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("summary"));
    }

    #[test]
    fn healthy_run_emits_no_warns() {
        let mut rec = RunRecorder::in_memory(&manifest());
        for step in 0..5 {
            rec.record_step(&StepRecord {
                step,
                conserved_ev: -300.0 + 1e-4 * (step as f64).sin(),
                ..StepRecord::default()
            })
            .expect("record");
        }
        let summary = rec.finish().expect("finish");
        assert_eq!(summary.warns, 0);
        assert!(summary.watchdog.ok);
        assert_eq!(summary.lines.len(), 7); // manifest + 5 steps + summary
    }
}

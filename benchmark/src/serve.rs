//! `si8-serve-mix`: bursts of Si-8 jobs through `tbmd_serve::Multiplexer`,
//! closed loop — the generator ticks the scheduler until the burst retires,
//! then submits the next.

use crate::metrics::{RunResult, Values};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::serve::{
    job, job_index, rounds, DRIFT_LIMIT_EV_PER_ATOM, JOB_STEPS, ROUND_JOBS,
};
use crate::workloads::WIDTH;
use crate::{peak_rss_mb, Gate};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tbmd::{
    configure_budget, run_manifest, try_lease, CheckpointStore, EngineKind, RecorderConfig,
    RunRecorder, Session, SessionBuilder, SessionStatus, SimulationSummary, Vec3,
};
use tbmd_serve::{JobSpec, Multiplexer, TenantReport};

/// The step lines `RunRecorder` streams end with this (its JSON objects
/// serialize keys in sorted order, `type` last on a step record).
const STEP_LINE_TAIL: &[u8] = b"\"type\":\"step\"}";

/// A tenant's JSONL stream, counted instead of stored.
#[derive(Clone, Default)]
pub struct CountingSink {
    pub bytes: Arc<AtomicU64>,
    pub step_lines: Arc<AtomicU64>,
    /// Step lines across every tenant of the run.
    all_step_lines: Arc<AtomicU64>,
}

impl CountingSink {
    pub fn sharing_total(all_step_lines: &Arc<AtomicU64>) -> CountingSink {
        CountingSink {
            all_step_lines: Arc::clone(all_step_lines),
            ..CountingSink::default()
        }
    }
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        if buf.ends_with(STEP_LINE_TAIL) {
            self.step_lines.fetch_add(1, Ordering::Relaxed);
            self.all_step_lines.fetch_add(1, Ordering::Relaxed);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything one run of the workload observed from outside the scheduler.
#[derive(Default)]
pub struct ServeRun {
    /// Per round: the submit calls plus the first tick (first admissions,
    /// their session builds and first quantum) — time to first progress.
    pub setup_s: Vec<f64>,
    /// Submit → report seen via `take_reports()` after a tick, per job.
    pub latency_ms: Vec<f64>,
    /// Per tick: wall time (s) and MD steps advanced. With a tracer, ticks
    /// alternate unspanned / spanned, starting unspanned.
    pub ticks: Vec<(f64, u64)>,
    pub queue_wait_ms: Vec<f64>,
    /// Wall time from the first submit of a round to its last report.
    pub round_s: Vec<f64>,
    /// With a tracer: wall time of the same round's jobs run right after it
    /// as back-to-back standalone sessions.
    pub standalone_s: Vec<f64>,
    pub reports: Vec<TenantReport>,
    /// Step lines each job's sink counted, by job index.
    pub step_lines: Vec<u64>,
}

impl ServeRun {
    /// Jobs of `jobs` submitted that errored or never reported.
    pub fn failed(&self, jobs: usize) -> u64 {
        let errored = self.reports.iter().filter(|r| r.outcome.is_err()).count();
        (errored + jobs.saturating_sub(self.reports.len())) as u64
    }

    /// Median over rounds of (jobs of the round ÷ its wall time).
    pub fn jobs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.round_s.iter().map(|s| ROUND_JOBS as f64 / s).collect();
        stats::median(&rates)
    }
}

/// Run `n_rounds` bursts of `ROUND_JOBS` jobs. With a tracer, every other
/// tick records a `serve.tick` span, and each round is followed by its
/// standalone reference so the two see the same minute of the host.
pub fn run_rounds(seed: u64, n_rounds: usize, tracer: Option<&Tracer>) -> Result<ServeRun, String> {
    configure_budget(WIDTH);
    let mut run = ServeRun::default();
    let total_lines = Arc::new(AtomicU64::new(0));
    for round in 0..n_rounds {
        let first = round * ROUND_JOBS;
        let sinks: Vec<CountingSink> = (0..ROUND_JOBS)
            .map(|_| CountingSink::sharing_total(&total_lines))
            .collect();
        let mut mux = Multiplexer::new();
        let started = Instant::now();
        let mut submitted = Vec::with_capacity(ROUND_JOBS);
        for (k, sink) in sinks.iter().enumerate() {
            submitted.push(Instant::now());
            mux.submit(job(seed, first + k), sink.clone());
        }
        let mut busy = true;
        let mut tick_no = 0u64;
        while busy {
            let lines_before = total_lines.load(Ordering::Relaxed);
            let t0 = Instant::now();
            busy = match tracer.filter(|_| run.ticks.len() % 2 == 1) {
                Some(t) => t.span("serve.tick", tick_no, || mux.tick()),
                None => mux.tick(),
            };
            let now = Instant::now();
            let advanced = total_lines.load(Ordering::Relaxed) - lines_before;
            run.ticks
                .push((now.duration_since(t0).as_secs_f64(), advanced));
            if tick_no == 0 {
                run.setup_s.push(now.duration_since(started).as_secs_f64());
            }
            tick_no += 1;
            for report in mux.take_reports() {
                let k = job_index(&report.name).map_or(0, |i| i - first);
                run.latency_ms
                    .push(now.duration_since(submitted[k]).as_secs_f64() * 1e3);
                run.queue_wait_ms
                    .push(report.queue_wait.as_secs_f64() * 1e3);
                run.reports.push(report);
            }
        }
        run.round_s.push(started.elapsed().as_secs_f64());
        for sink in &sinks {
            run.step_lines.push(sink.step_lines.load(Ordering::Relaxed));
        }
        drop(mux);
        if let Some(t) = tracer {
            run.standalone_s
                .push(standalone_round(seed, first..first + ROUND_JOBS, t)?);
        }
    }
    Ok(run)
}

fn bits(v: &[Vec3]) -> Vec<u64> {
    v.iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn endpoints_equal(a: &SimulationSummary, b: &SimulationSummary) -> bool {
    bits(a.final_structure.positions()) == bits(b.final_structure.positions())
        && bits(&a.final_velocities) == bits(&b.final_velocities)
        && a.final_total_energy.to_bits() == b.final_total_energy.to_bits()
}

/// The correctness gates of a serve run: every job `Ok` with all its steps,
/// one step line per step in its stream, energy conserved, and three sampled
/// tenants bitwise equal to a standalone `Session` of the same config.
pub fn gates(seed: u64, run: &ServeRun, jobs: usize) -> Vec<Gate> {
    let ok = run.reports.iter().filter(|r| r.outcome.is_ok()).count();
    let full = run.reports.iter().filter(|r| r.steps == JOB_STEPS).count();
    let mut gates = vec![
        Gate::check(
            "every job retired Ok",
            run.reports.len() == jobs && ok == jobs,
            format!("{ok} Ok of {} reports, {jobs} submitted", run.reports.len()),
        ),
        Gate::check(
            "every job ran all its steps",
            full == jobs,
            format!("{full} of {jobs} jobs at {JOB_STEPS} steps"),
        ),
        Gate::check(
            "step lines in each JSONL stream = steps",
            run.step_lines.len() == jobs && run.step_lines.iter().all(|&n| n == JOB_STEPS as u64),
            format!(
                "{} lines over {} streams",
                run.step_lines.iter().sum::<u64>(),
                run.step_lines.len()
            ),
        ),
    ];
    let summaries = || run.reports.iter().filter_map(|r| r.outcome.as_ref().ok());
    let worst_drift = summaries()
        .map(|s| s.conserved_drift / s.final_structure.n_atoms() as f64)
        .fold(0.0, f64::max);
    gates.push(Gate::check(
        "NVE drift within twice the seed reading",
        worst_drift <= DRIFT_LIMIT_EV_PER_ATOM,
        format!("worst {worst_drift:.3e} eV/atom (limit {DRIFT_LIMIT_EV_PER_ATOM:.1e})"),
    ));
    // First (serial), a shared tenant from the middle, and the last job.
    let sampled = [0, (jobs / 2) / 3 * 3 + 2, jobs - 1];
    let equal = sampled
        .iter()
        .filter(|&&index| {
            let standalone = SessionBuilder::new(job(seed, index).config)
                .build()
                .and_then(|mut s| s.run());
            let served = run
                .reports
                .iter()
                .find(|r| job_index(&r.name) == Some(index))
                .and_then(|r| r.outcome.as_ref().ok());
            matches!((standalone, served), (Ok(a), Some(b)) if endpoints_equal(&a, b))
        })
        .count();
    gates.push(Gate::check(
        "sampled tenants bitwise equal to standalone sessions",
        equal == sampled.len(),
        format!("{equal} of {} (jobs {sampled:?})", sampled.len()),
    ));
    gates
}

/// `--trace 0`: the end-to-end metrics of the serve mix.
pub fn run_untraced(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let n_rounds = rounds(seconds);
    let jobs = n_rounds * ROUND_JOBS;
    let run = run_rounds(seed, n_rounds, None)?;
    let rss = peak_rss_mb();
    let correct = Gate::report(&gates(seed, &run, jobs));

    let latency = stats::sorted(&run.latency_ms);
    if latency.is_empty() {
        return Err("no job reported".into());
    }
    let mut values = Values::default();
    values.set("setup_s", stats::median(&run.setup_s));
    values.set("steps_per_s", run.jobs_per_s() * JOB_STEPS as f64);
    // The scheduler hides single steps from its caller, so the step time is
    // the wall time per step: median over rounds of round wall ÷ steps.
    values.set("step_ms_p50", 1e3 / (run.jobs_per_s() * JOB_STEPS as f64));
    values.set("jobs_per_s", run.jobs_per_s());
    values.set("job_latency_ms_p50", stats::percentile(&latency, 0.5));
    values.set("job_latency_ms_p90", stats::percentile(&latency, 0.9));
    values.set("peak_rss_mb", rss);
    println!(
        "samples: setup_s, steps_per_s, step_ms_p50, jobs_per_s n={} rounds ({} ticks), \
         job_latency_ms n={} (highest supported percentile p{})",
        run.setup_s.len(),
        run.ticks.len(),
        latency.len(),
        stats::highest_supported_percentile(latency.len()) * 100.0
    );
    Ok(RunResult::new(
        correct,
        jobs as u64,
        run.failed(jobs),
        values,
    ))
}

/// A standalone session carrying what the scheduler gives a tenant: an
/// owned recorder into a counting sink, in-memory snapshots and a lease.
pub fn tenant_session(spec: &JobSpec) -> Result<Session<'static>, String> {
    let recorder = RunRecorder::to_writer(CountingSink::default(), &run_manifest(&spec.config))
        .map_err(|e| format!("recorder: {e}"))?;
    let options = RecorderConfig {
        health_stride: spec.health_stride,
        checkpoint: None,
    };
    let lease = try_lease(spec.threads).ok_or("compute budget exhausted")?;
    SessionBuilder::new(spec.config)
        .record_owned(recorder, options)
        .checkpoint_store(
            CheckpointStore::in_memory(spec.retain),
            spec.checkpoint_interval,
        )
        .lease(lease)
        .build()
        .map_err(|e| format!("standalone build: {e}"))
}

/// Wall time (s) of the jobs `indices` as back-to-back standalone tenant
/// sessions — the scheduler-free reference for a round. `build` plus the
/// first step is a `core.session_build` span, every later step of a serial
/// job a `core.session_step` span.
fn standalone_round(
    seed: u64,
    indices: std::ops::Range<usize>,
    tracer: &Tracer,
) -> Result<f64, String> {
    let started = Instant::now();
    for index in indices {
        let spec = job(seed, index);
        let id = index as u64;
        let serial = spec.config.engine == EngineKind::Serial;
        let (mut session, mut status) = tracer.span("core.session_build", id, || {
            let mut session = tenant_session(&spec)?;
            let status = session
                .step()
                .map_err(|e| format!("standalone step: {e}"))?;
            Ok::<_, String>((session, status))
        })?;
        while status == SessionStatus::Running {
            status = match serial {
                true => tracer.span("core.session_step", id, || session.step()),
                false => session.step(),
            }
            .map_err(|e| format!("standalone step: {e}"))?;
        }
        if let Some(recorder) = session.take_recorder() {
            recorder.finish().map_err(|e| format!("recorder: {e}"))?;
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

//! The four single-session workloads: one trajectory through
//! `SessionBuilder` / `Session::step`, closed loop, one step after another.

use crate::metrics::{RunResult, Values};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{
    SingleSpec, SETUP_BUDGET_S, SETUP_REPEATS_MAX, SETUP_REPEATS_MIN, WARMUP_STEPS, WIDTH,
};
use crate::{peak_rss_mb, Gate};
use std::time::Instant;
use tbmd::{
    configure_budget, try_lease, Engine, EngineKind, ForceProvider, Session, SessionBuilder,
    SessionStatus, SimulationSummary,
};

/// Contiguous blocks the timed window is cut into; `steps_per_s` is the
/// median of their rates.
pub const RATE_BLOCKS: usize = 10;

/// A session built under the workload's lease and stepped through warm-up.
/// `Session` starts its protocol lazily, so the first `step` pays the
/// structure build, the velocity draw and the initial force evaluation; with
/// a tracer, `build` plus that step is one `core.session_build` span.
fn warmed_session(
    spec: &SingleSpec,
    seed: u64,
    steps: usize,
    tracer: Option<&Tracer>,
) -> Result<Session<'static>, String> {
    let build = || -> Result<Session<'static>, String> {
        let lease = try_lease(spec.lease_threads).ok_or("compute budget exhausted")?;
        let mut session = SessionBuilder::new(spec.config(seed, WARMUP_STEPS + steps))
            .lease(lease)
            .build()
            .map_err(|e| format!("session build: {e}"))?;
        session.step().map_err(|e| format!("first step: {e}"))?;
        Ok(session)
    };
    let mut session = match tracer {
        Some(t) => t.span("core.session_build", 0, build)?,
        None => build()?,
    };
    for _ in 1..WARMUP_STEPS {
        session.step().map_err(|e| format!("warm-up step: {e}"))?;
    }
    Ok(session)
}

/// What the timed window of one trajectory produced.
pub struct Window {
    pub setup_s: Vec<f64>,
    pub step_ms: Vec<f64>,
    /// Wall time of each loop iteration of the window, clock reads included.
    pub laps_s: Vec<f64>,
    pub planned: usize,
    pub summary: Option<SimulationSummary>,
    pub error: Option<String>,
}

/// Set up several times (see `SETUP_REPEATS_MIN`), then time `steps` steps of
/// the last session.
/// With a tracer the even-numbered steps (from 0) record a
/// `core.session_step` span, so the same window yields spanned and unspanned
/// laps.
pub fn run_window(
    spec: &SingleSpec,
    seed: u64,
    steps: usize,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    configure_budget(WIDTH);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut session = None;
    while setup_s.len() < SETUP_REPEATS_MIN
        || (setup_s.len() < SETUP_REPEATS_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // The previous session's lease goes back before the next asks.
        drop(session.take());
        let built_at = Instant::now();
        session = Some(warmed_session(spec, seed, steps, tracer)?);
        setup_s.push(built_at.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up ran");

    let mut step_ms = Vec::with_capacity(steps);
    let mut laps_s = Vec::with_capacity(steps);
    let mut error = None;
    let mut mark = Instant::now();
    for i in 0..steps {
        let t0 = Instant::now();
        let status = match tracer.filter(|_| i % 2 == 0) {
            Some(t) => t.span("core.session_step", i as u64, || session.step()),
            None => session.step(),
        };
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let now = Instant::now();
        laps_s.push(now.duration_since(mark).as_secs_f64());
        mark = now;
        match status {
            Ok(SessionStatus::Running) => {}
            Ok(SessionStatus::Done) => break,
            Err(e) => {
                error = Some(format!("step {}: {e}", i + 1));
                step_ms.pop();
                laps_s.pop();
                break;
            }
        }
    }
    Ok(Window {
        setup_s,
        step_ms,
        laps_s,
        planned: steps,
        summary: session.take_summary(),
        error,
    })
}

/// Energy of the start frame from the workload's engine and from the serial
/// reference, per atom apart (eV).
pub fn first_evaluation_gap(spec: &SingleSpec, seed: u64) -> Result<f64, String> {
    let config = spec.config(seed, 1);
    let structure = config.system.build(config.perturb, config.seed);
    let model = config.system.model();
    let energy = |kind| {
        Engine::build(kind, &model, config.electronic_kt)
            .evaluate(&structure)
            .map(|e| e.energy)
            .map_err(|e| format!("first evaluation ({kind:?}): {e}"))
    };
    let gap = (energy(spec.engine)? - energy(EngineKind::Serial)?).abs();
    Ok(gap / structure.n_atoms() as f64)
}

/// The correctness gates of a single-session run: every step completed, the
/// conserved quantity held, and the engine agrees with the serial reference
/// on the start frame.
pub fn gates(spec: &SingleSpec, seed: u64, window: &Window) -> Vec<Gate> {
    let mut gates = vec![Gate::check(
        "all steps completed",
        window.error.is_none() && window.step_ms.len() == window.planned,
        window
            .error
            .clone()
            .unwrap_or_else(|| format!("{} of {} steps", window.step_ms.len(), window.planned)),
    )];
    let drift = window.summary.as_ref().map_or(f64::INFINITY, |s| {
        s.conserved_drift / s.final_structure.n_atoms() as f64
    });
    gates.push(Gate::check(
        "conserved-quantity drift within twice the seed reading",
        drift <= spec.drift_limit_ev_per_atom,
        format!(
            "{drift:.3e} eV/atom (limit {:.1e})",
            spec.drift_limit_ev_per_atom
        ),
    ));
    if spec.engine != EngineKind::Serial {
        // Dense engines must reproduce the serial energy; the O(N) engine
        // truncates, so it gets the 20 meV/atom budget.
        let (label, limit) = if spec.is_dense() {
            ("first evaluation within 1e-8 eV/atom of serial", 1e-8)
        } else {
            ("O(N) energy within 20 meV/atom of dense", 20e-3)
        };
        gates.push(match first_evaluation_gap(spec, seed) {
            Ok(gap) => Gate::check(label, gap <= limit, format!("{gap:.3e} eV/atom")),
            Err(e) => Gate::check(label, false, e),
        });
    }
    gates
}

/// `--trace 0`: the end-to-end metrics of one trajectory.
pub fn run_untraced(spec: &SingleSpec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let steps = spec.timed_steps(seconds);
    let window = run_window(spec, seed, steps, None)?;
    // Read before the gates run: their reference evaluations allocate
    // workspaces the workload itself never holds.
    let rss = peak_rss_mb();
    let gates = gates(spec, seed, &window);
    let correct = Gate::report(&gates);

    let done = window.step_ms.len();
    if done == 0 {
        return Err(window.error.unwrap_or_else(|| "no step completed".into()));
    }
    let setup_s = stats::median(&window.setup_s);
    let steps_per_s = stats::median_block_rate(&window.laps_s, RATE_BLOCKS);
    // The one trajectory is the job: build → summary, with set-up and
    // stepping each taken at their in-run median so a host stall during
    // either does not pass for a slower program.
    let job_s = setup_s + window.planned as f64 / steps_per_s;
    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set("steps_per_s", steps_per_s);
    values.set("step_ms_p50", stats::median(&window.step_ms));
    values.set("jobs_per_s", 1.0 / job_s);
    values.set("job_latency_ms_p50", job_s * 1e3);
    values.set("job_latency_ms_p90", job_s * 1e3);
    values.set("peak_rss_mb", rss);
    println!(
        "samples: setup_s n={}, step_ms_p50 n={done}, steps_per_s median of {} blocks, \
         job_latency_ms n=1 (one trajectory; p90 is that sample)",
        window.setup_s.len(),
        RATE_BLOCKS.min(done)
    );
    Ok(RunResult::new(
        correct,
        window.planned as u64,
        (window.planned - done) as u64,
        values,
    ))
}

//! `--trace 1`: the per-layer ledger of one workload.
//!
//! Pass A drives the workload with a benchmark-side span around every other
//! `Session::step` (every other `Multiplexer::tick` for the serve mix), which
//! gives the step time and, against the unspanned half, the tracing overhead.
//! Pass B follows the first steps of the same trajectory in lockstep (see
//! `twin.rs`) and replays public pieces of the layers on their own.

use crate::metrics::{RunResult, Values};
use crate::spans::Tracer;
use crate::twin::{Lane, Lockstep, StagedTwin, STAGES};
use crate::workloads::serve::{job, job_line, rounds, JOB_STEPS, QUANTUM, ROUND_JOBS};
use crate::workloads::{SingleSpec, WIDTH};
use crate::{replay, serve, single, stats, threads_available, Gate};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use tbmd::md::{maxwell_boltzmann_seeded, MdState, NoseHoover, VelocityVerlet};
use tbmd::{
    configure_budget, try_lease, Engine, EngineKind, Matrix, Protocol, Session, SessionBuilder,
    SimulationConfig, TbModel, Workspace,
};

/// Energy gap (eV) the twin may show against the serial engine on any frame.
const TWIN_TOLERANCE_EV: f64 = 1e-10;
/// Energy gap (eV/atom) a dense parallel engine may show against serial.
const ENGINE_TOLERANCE_EV_PER_ATOM: f64 = 1e-8;

/// A reference engine evaluated beside the driver in pass B.
struct Reference {
    span: &'static str,
    kind: EngineKind,
    width: usize,
}

const SERIAL_REFERENCE: Reference = Reference {
    span: "serial.evaluate",
    kind: EngineKind::Serial,
    width: 1,
};

/// What pass B leaves behind once the engines that borrow the model are gone.
struct PassB {
    /// The pass's spans, from the first after the cold initial evaluation.
    warm: Range<usize>,
    steps: usize,
    state: MdState,
    /// Density matrix of the final frame (from the twin's workspace).
    rho: Matrix,
    dims: (usize, usize),
    two_stage_entered: bool,
    nl_rebuild_frac: f64,
    worst_twin_gap_ev: f64,
    worst_reference_gap_ev: Vec<f64>,
    /// Wire bytes and messages of the driver's last evaluation.
    wire: Option<(f64, f64)>,
    /// Matvec multiply-adds and region orbitals of the last O(N) evaluation.
    linscale: Option<(f64, f64)>,
}

/// Something stepped beside pass B, once before each of its steps.
type Beside<'a> = &'a mut dyn FnMut(u64) -> Result<(), String>;

/// Follow the first `steps` steps of `config`'s trajectory with the driver
/// engine, the reference lanes and (for dense engines) the staged twin, under
/// `tbmd-md`'s own integrator.
fn pass_b(
    config: &SimulationConfig,
    driver_width: usize,
    references: &[Reference],
    with_twin: bool,
    steps: usize,
    tracer: &Tracer,
    mut beside: Option<Beside<'_>>,
) -> Result<PassB, String> {
    let model = config.system.model();
    let model: &dyn TbModel = &model;
    let step = Cell::new(0u64);
    let lane = |span, kind, width| {
        Lane::new(
            span,
            Engine::build(kind, model, config.electronic_kt),
            width,
        )
    };
    let lockstep = Lockstep {
        tracer,
        step: &step,
        driver: lane("core.engine_evaluate", config.engine, driver_width),
        references: references
            .iter()
            .map(|r| lane(r.span, r.kind, r.width))
            .collect(),
        twin: with_twin.then(|| StagedTwin::new(model, config.electronic_kt, tracer, &step)),
        worst_reference_gap_ev: RefCell::new(vec![0.0; references.len()]),
        worst_twin_gap_ev: Cell::new(0.0),
        serial_is_driver: config.engine == EngineKind::Serial,
    };

    let structure = config.system.build(config.perturb, config.seed);
    let (temperature_k, dt_fs, tau_fs) = match config.protocol {
        Protocol::Nve {
            temperature_k,
            dt_fs,
            ..
        } => (temperature_k, dt_fs, None),
        Protocol::Nvt {
            temperature_k,
            dt_fs,
            tau_fs,
            ..
        } => (temperature_k, dt_fs, Some(tau_fs)),
        other => return Err(format!("pass B does not follow {other:?}")),
    };
    // The velocities `Session` draws: the first use of the config-seeded RNG.
    let velocities = maxwell_boltzmann_seeded(&structure, temperature_k, config.seed);
    let mut ws = Workspace::new();
    let err = |e| format!("lockstep evaluation: {e}");
    let mut state = MdState::new_with(structure, velocities, &lockstep, &mut ws).map_err(err)?;
    let warm_from = tracer.len();
    let verlet = VelocityVerlet::new(dt_fs);
    let mut thermostat =
        tau_fs.map(|tau| NoseHoover::with_period(dt_fs, temperature_k, state.n_dof(), tau));
    for i in 1..=steps {
        step.set(i as u64);
        if let Some(beside) = beside.as_mut() {
            beside(i as u64)?;
        }
        tracer
            .span("md.step", i as u64, || match thermostat.as_mut() {
                Some(nh) => nh.step_with(&mut state, &lockstep, &mut ws),
                None => verlet.step_with(&mut state, &lockstep, &mut ws),
            })
            .map_err(err)?;
    }

    let nl = ws.neighbors.stats();
    let updates = nl.rebuilds + nl.refreshes + nl.fallback_builds;
    let (wire, linscale) = match &lockstep.driver.engine {
        Engine::Distributed(e) => (
            e.last_report().map(|r| {
                (
                    r.stats.total_bytes() as f64,
                    r.stats.total_messages() as f64,
                )
            }),
            None,
        ),
        Engine::LinearScaling(e) => (
            None,
            e.last_report()
                .map(|r| (r.total_matvec_ops as f64, r.total_region_orbitals as f64)),
        ),
        _ => (None, None),
    };
    let worst_reference_gap_ev = lockstep.worst_reference_gap_ev.borrow().clone();
    let (dims, two_stage_entered) = lockstep.twin.as_ref().map_or(((0, 0), false), |t| {
        (t.dims.get(), t.two_stage_entered.get())
    });
    Ok(PassB {
        warm: warm_from..tracer.len(),
        steps,
        rho: std::mem::take(&mut ws.rho),
        dims,
        two_stage_entered,
        nl_rebuild_frac: if updates == 0 {
            0.0
        } else {
            (nl.rebuilds + nl.fallback_builds) as f64 / updates as f64
        },
        worst_twin_gap_ev: lockstep.worst_twin_gap_ev.get(),
        worst_reference_gap_ev,
        wire,
        linscale,
        state,
    })
}

/// Median duration (ms) per call of the spans named `name` within `range`; 0
/// when the workload never entered that span. Medians, because the host
/// stalls single calls often enough to drag a mean of ten.
fn typical_ms(tracer: &Tracer, name: &str, range: Range<usize>) -> f64 {
    let samples = tracer.durations_ms(name, range);
    if samples.is_empty() {
        0.0
    } else {
        stats::median(&samples)
    }
}

/// The stage, roofline and remainder columns every dense pass B fills;
/// returns the typical serial evaluation time (ms). The remainder is defined
/// as that time minus the stages' typical times, so the ledger closes by
/// construction and the column shows how much it had to absorb.
fn dense_ledger(values: &mut Values, tracer: &Tracer, b: &PassB, serial_span: &str) -> f64 {
    let m = |name| typical_ms(tracer, name, b.warm.clone());
    values.set("structure.neighbors_us", m("structure.neighbors") * 1e3);
    values.set("structure.nl_rebuild_frac", b.nl_rebuild_frac);
    values.set("model.hamiltonian_ms", m("model.hamiltonian"));
    values.set("model.occupations_us", m("model.occupations") * 1e3);
    values.set("model.density_ms", m("model.density"));
    values.set("model.forces_ms", m("model.forces"));
    values.set("linalg.tridiagonalize_ms", m("linalg.tridiagonalize"));
    values.set("linalg.eigenvalues_ms", m("linalg.eigenvalues"));
    values.set("linalg.inverse_iteration_ms", m("linalg.inverse_iteration"));
    values.set("linalg.back_transform_ms", m("linalg.back_transform"));
    values.set("linalg.eigh_small_us", m("linalg.eigh_small") * 1e3);

    // Kernel roofline from computed flop counts (n orbitals, k occupied
    // states): SYRK n²k, blocked reduction 4n³/3, back-transform 4n²k.
    let (n, k) = (b.dims.0 as f64, b.dims.1 as f64);
    let gemm = replay::gemm_gflops(b.dims.0);
    let rate = |flops: f64, ms: f64| if ms > 0.0 { flops / (ms * 1e6) } else { 0.0 };
    let syrk = (n * n * k, m("model.density"));
    let tridiag = (4.0 * n.powi(3) / 3.0, m("linalg.tridiagonalize"));
    let back = (4.0 * n * n * k, m("linalg.back_transform"));
    values.set("linalg.gemm_gflops", gemm);
    values.set("linalg.syrk_gflops", rate(syrk.0, syrk.1));
    values.set("linalg.tridiagonalize_gflops", rate(tridiag.0, tridiag.1));
    values.set("linalg.back_transform_gflops", rate(back.0, back.1));
    if b.two_stage_entered {
        let combined = rate(syrk.0 + tridiag.0 + back.0, syrk.1 + tridiag.1 + back.1);
        values.set("linalg.solver_of_gemm", combined / gemm);
    }

    let serial_ms = m(serial_span);
    let stages_ms: f64 = STAGES.iter().map(|s| m(s)).sum();
    values.set("core.unattributed_ms", serial_ms - stages_ms);
    values.set("bench.twin_energy_err_ev", b.worst_twin_gap_ev);
    serial_ms
}

/// What `session` adds to a bare step (µs): `session` and a bare copy of its
/// trajectory — the same engine alone under `tbmd-md`'s integrator — take
/// turns, step by step, so both see the same minute of the host; the result
/// is the median over steps of `Session::step` minus the bare step. The
/// session's first step also pays its initial evaluation and is left out.
fn session_overhead_us(
    config: &SimulationConfig,
    width: usize,
    steps: usize,
    mut session: Session<'_>,
    tracer: &Tracer,
) -> Result<f64, String> {
    // The session's lease and the bare lane's are out at once, so the budget
    // doubles while the two take turns.
    configure_budget(2 * WIDTH);
    let mut step_session = |id: u64| {
        tracer
            .span("core.session_step.paired", id, || session.step())
            .map(|_| ())
            .map_err(|e| format!("paired session step: {e}"))
    };
    let bare = pass_b(
        config,
        width,
        &[],
        false,
        steps,
        tracer,
        Some(&mut step_session),
    );
    drop(session);
    configure_budget(WIDTH);
    let bare = bare?;
    let bare_ms = tracer.durations_by_id("md.step", bare.warm.clone());
    let session_ms = tracer.durations_by_id("core.session_step.paired", bare.warm);
    let gaps_us: Vec<f64> = session_ms
        .iter()
        .zip(&bare_ms)
        .filter(|((id, _), _)| *id > 1)
        .map(|((_, with), (_, without))| (with - without) * 1e3)
        .collect();
    if gaps_us.is_empty() {
        return Err("no paired steps to compare".into());
    }
    Ok(stats::median(&gaps_us))
}

/// Columns shared by every pass B: the driver's evaluation and the
/// integrator's self time, both returned in ms.
fn step_ledger(values: &mut Values, tracer: &Tracer, b: &PassB) -> (f64, f64) {
    let evaluate_ms = typical_ms(tracer, "core.engine_evaluate", b.warm.clone());
    let integrate_ms = stats::median(&tracer.self_ms("md.step", b.warm.clone()));
    values.set("core.engine_evaluate_ms", evaluate_ms);
    values.set("md.integrate_us", integrate_ms * 1e3);
    values.set("bench.traced_steps", b.steps as f64);
    (evaluate_ms, integrate_ms)
}

/// The snapshot columns, from the final state of pass B.
fn checkpoint_ledger(values: &mut Values, b: &PassB) -> Result<(), String> {
    let (write_us, read_us, bytes) = replay::checkpoint_us(&b.state)?;
    values.set("ckpt.write_us", write_us);
    values.set("ckpt.read_us", read_us);
    values.set("ckpt.bytes_per_snapshot", bytes);
    Ok(())
}

fn twin_gate(b: &PassB) -> Gate {
    Gate::check(
        "staged twin reproduces the serial engine's energy on every step",
        b.worst_twin_gap_ev <= TWIN_TOLERANCE_EV,
        format!(
            "worst gap {:.3e} eV over {} steps",
            b.worst_twin_gap_ev, b.steps
        ),
    )
}

fn reference_gate(b: &PassB, what: &'static str) -> Gate {
    let n_atoms = b.state.structure.n_atoms() as f64;
    let worst = b
        .worst_reference_gap_ev
        .iter()
        .fold(0.0, |a: f64, g| a.max(g / n_atoms));
    Gate::check(
        what,
        worst <= ENGINE_TOLERANCE_EV_PER_ATOM,
        format!("worst gap {worst:.3e} eV/atom over {} steps", b.steps),
    )
}

/// Traced run of a single-session workload.
pub fn run_single(
    spec: &SingleSpec,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<RunResult, String> {
    let mut values = Values::default();
    values.set("bench.threads_available", threads_available() as f64);

    // Pass A: the workload itself, every other step inside a span.
    let steps = (spec.timed_steps(seconds) / 2).max(4);
    let window = single::run_window(spec, seed, steps, Some(tracer))?;
    let mut gates = single::gates(spec, seed, &window);
    let pass_a = 0..tracer.len();
    let spanned = tracer.durations_ms("core.session_step", pass_a.clone());
    values.set("core.session_step_ms", stats::median(&spanned));
    values.set(
        "core.session_build_ms",
        stats::median(&tracer.durations_ms("core.session_build", pass_a)),
    );
    // Typical lap of the unspanned (odd) steps against the spanned (even).
    let laps = |parity: usize| -> Vec<f64> {
        window
            .laps_s
            .iter()
            .skip(parity)
            .step_by(2)
            .copied()
            .collect()
    };
    if window.laps_s.len() >= 2 {
        values.set(
            "bench.trace_overhead_frac",
            1.0 - stats::median(&laps(1)) / stats::median(&laps(0)),
        );
    }

    // Pass B: the same trajectory in lockstep.
    let config = spec.config(seed, spec.twin_steps);
    let serial_driver = spec.engine == EngineKind::Serial;
    let references: &[Reference] = if spec.is_dense() && !serial_driver {
        &[SERIAL_REFERENCE]
    } else {
        &[]
    };
    let b = pass_b(
        &config,
        spec.lease_threads,
        references,
        spec.is_dense(),
        spec.twin_steps,
        tracer,
        None,
    )?;
    let (evaluate_ms, integrate_ms) = step_ledger(&mut values, tracer, &b);

    // The session beside a bare copy of itself.
    let lease = try_lease(spec.lease_threads).ok_or("compute budget exhausted")?;
    let session = SessionBuilder::new(config)
        .lease(lease)
        .build()
        .map_err(|e| format!("paired session build: {e}"))?;
    values.set(
        "core.step_overhead_us",
        session_overhead_us(
            &config,
            spec.lease_threads,
            spec.twin_steps,
            session,
            tracer,
        )?,
    );
    let model = config.system.model();

    if spec.is_dense() {
        let serial_span = if serial_driver {
            "core.engine_evaluate"
        } else {
            "serial.evaluate"
        };
        let serial_ms = dense_ledger(&mut values, tracer, &b, serial_span);
        gates.push(twin_gate(&b));
        let solver_ms: f64 = [
            "linalg.tridiagonalize_ms",
            "linalg.eigenvalues_ms",
            "linalg.inverse_iteration_ms",
            "linalg.back_transform_ms",
            "model.density_ms",
        ]
        .iter()
        .filter_map(|name| values.get(name))
        .sum();
        // Share of a serial step, both sides from pass B: the serial
        // evaluation plus the integrator's own time.
        values.set(
            "bench.stage_share_of_step",
            solver_ms / (serial_ms + integrate_ms),
        );
        if serial_driver {
            // The remainder column must stay small for the ledger to mean
            // anything. A timing, so a note and not a gate: on a busy host
            // the twin and the engine, a lane apart, can differ by more.
            let unattributed = values.get("core.unattributed_ms").unwrap_or(0.0);
            println!(
                "ledger: unattributed {unattributed:.3} ms of {serial_ms:.3} ms ({})",
                if unattributed.abs() <= 0.05 * serial_ms {
                    "closes within 5%"
                } else {
                    "MORE than 5%: rerun on a quieter host before reading the stages"
                }
            );
            // The Si-216 state is what a checkpointing run of this size
            // would write; the workload itself writes none.
            checkpoint_ledger(&mut values, &b)?;
        } else {
            gates.push(reference_gate(
                &b,
                "engine within 1e-8 eV/atom of serial on every lockstep frame",
            ));
        }
        match spec.engine {
            EngineKind::Shared => {
                values.set("parallel.shared_evaluate_ms", evaluate_ms);
                values.set(
                    "parallel.fanout_us",
                    replay::fanout_us(&b.state.structure, &model, &b.rho),
                );
            }
            EngineKind::Distributed { .. } => {
                values.set("parallel.dist_evaluate_ms", evaluate_ms);
                if let Some((bytes, messages)) = b.wire {
                    values.set("parallel.wire_bytes_per_step", bytes);
                    values.set("parallel.messages_per_step", messages);
                }
                let (allreduce, allgather) = replay::collectives_ms(b.dims.0);
                values.set("parallel.allreduce_ms", allreduce);
                values.set("parallel.allgather_ms", allgather);
                let tridiag = values.get("linalg.tridiagonalize_ms").unwrap_or(0.0);
                values.set("parallel.replicated_tridiag_frac", tridiag / evaluate_ms);
                values.set("parallel.dist_speedup_vs_serial", serial_ms / evaluate_ms);
            }
            _ => {}
        }
    } else if let EngineKind::LinearScaling { r_loc, .. } = spec.engine {
        values.set("linscale.evaluate_ms", evaluate_ms);
        let (build_ms, _) = replay::region_build_ms(&b.state.structure, &model, r_loc);
        values.set("linscale.region_build_ms", build_ms);
        if let Some((matvec_ops, region_orbitals)) = b.linscale {
            let n_atoms = b.state.structure.n_atoms() as f64;
            values.set("linscale.matvec_ops_per_step", matvec_ops);
            values.set("linscale.region_orbitals_mean", region_orbitals / n_atoms);
            // Two flops per multiply-add, over the whole evaluation.
            values.set(
                "linscale.matvec_gflops",
                2.0 * matvec_ops / (evaluate_ms * 1e6),
            );
        }
        let gap = single::first_evaluation_gap(spec, seed)?;
        values.set("linscale.energy_err_mev_per_atom", gap * 1e3);
    }

    Ok(RunResult::new(
        Gate::report(&gates),
        (window.planned + b.steps) as u64,
        (window.planned - window.step_ms.len()) as u64,
        values,
    ))
}

/// Traced run of the serve mix.
pub fn run_serve(seed: u64, seconds: f64, tracer: &Tracer) -> Result<RunResult, String> {
    let mut values = Values::default();
    values.set("bench.threads_available", threads_available() as f64);

    // Pass A: ticks alternate unspanned / spanned; every tick is timed the
    // same way, so the percentiles take them all. Three in five of the
    // untraced rounds: each is followed by its standalone reference, and
    // 3 × ~400 ticks still leave 10 beyond p99.
    let n_rounds = (rounds(seconds) * 3 / 5).max(2);
    let jobs = n_rounds * ROUND_JOBS;
    let run = serve::run_rounds(seed, n_rounds, Some(tracer))?;
    let mut gates = serve::gates(seed, &run, jobs);
    let tick_ms: Vec<f64> = run.ticks.iter().map(|(s, _)| s * 1e3).collect();
    let tick_ms = stats::sorted(&tick_ms);
    if tick_ms.is_empty() {
        return Err("the scheduler never ticked".into());
    }
    values.set("serve.tick_ms_p50", stats::percentile(&tick_ms, 0.5));
    values.set("serve.tick_ms_p99", stats::percentile(&tick_ms, 0.99));
    if !stats::supports(tick_ms.len(), 0.99) {
        println!(
            "note: {} ticks leave fewer than 10 beyond p99",
            tick_ms.len()
        );
    }
    values.set("serve.queue_wait_ms_p50", stats::median(&run.queue_wait_ms));
    // Spanned against unspanned ticks of one kind — two serial tenants, a
    // full quantum each — so the 2:1 mix, whose 25-tick phases favour one
    // parity, cannot pass for overhead.
    let typical_tick = |parity: usize| {
        let same_kind: Vec<f64> = run
            .ticks
            .iter()
            .skip(parity)
            .step_by(2)
            .filter(|t| t.1 == 2 * QUANTUM as u64)
            .map(|t| t.0)
            .collect();
        stats::median(&same_kind)
    };
    values.set(
        "bench.trace_overhead_frac",
        1.0 - typical_tick(0) / typical_tick(1),
    );

    // Each round against its own standalone reference, run right after it.
    let overheads: Vec<f64> = run
        .round_s
        .iter()
        .zip(&run.standalone_s)
        .map(|(mux, alone)| 1.0 - alone / mux)
        .collect();
    values.set("serve.mux_overhead_frac", stats::median(&overheads));
    let pass_a = 0..tracer.len();
    values.set(
        "core.session_build_ms",
        typical_ms(tracer, "core.session_build", pass_a.clone()),
    );
    // Serial tenants only: two in three jobs, and what pass B decomposes.
    values.set(
        "core.session_step_ms",
        typical_ms(tracer, "core.session_step", pass_a),
    );

    // Pass B: job 0's trajectory with the serial engine driving, the shared
    // engine beside it, and the twin.
    let config = job(seed, 0).config;
    let twin_steps = JOB_STEPS;
    let shared = Reference {
        span: "shared.evaluate",
        kind: EngineKind::Shared,
        width: WIDTH,
    };
    let b = pass_b(&config, 1, &[shared], true, twin_steps, tracer, None)?;
    step_ledger(&mut values, tracer, &b);
    // A tenant's session (recorder, snapshots, lease) beside a bare copy of
    // its trajectory.
    let session = serve::tenant_session(&job(seed, 0))?;
    values.set(
        "core.step_overhead_us",
        session_overhead_us(&config, 1, twin_steps, session, tracer)?,
    );
    dense_ledger(&mut values, tracer, &b, "core.engine_evaluate");
    gates.push(twin_gate(&b));
    gates.push(reference_gate(
        &b,
        "shared engine within 1e-8 eV/atom of serial on every lockstep frame",
    ));
    gates.push(Gate::check(
        "two-stage path never entered at n=32",
        !b.two_stage_entered,
        format!("{} orbitals", b.dims.0),
    ));
    values.set(
        "parallel.shared_evaluate_ms",
        typical_ms(tracer, "shared.evaluate", b.warm.clone()),
    );
    let model = config.system.model();
    values.set(
        "parallel.fanout_us",
        replay::fanout_us(&b.state.structure, &model, &b.rho),
    );
    checkpoint_ledger(&mut values, &b)?;
    let (record_us, record_bytes) = replay::record_step_us(&b.state)?;
    values.set("trace.record_step_us", record_us);
    values.set("trace.bytes_per_step", record_bytes);
    let lines: Vec<String> = (0..ROUND_JOBS).map(|i| job_line(seed, i)).collect();
    values.set("serve.parse_request_us", replay::parse_request_us(&lines)?);

    Ok(RunResult::new(
        Gate::report(&gates),
        jobs as u64,
        run.failed(jobs),
        values,
    ))
}

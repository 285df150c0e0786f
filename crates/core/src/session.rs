//! The one run pipeline: every simulation is a [`Session`].
//!
//! A [`Session`] owns the persistent [`Engine`] (and the model it borrows),
//! the evaluation counter fault plans are scheduled against, the optional
//! recorder/checkpoint attachments, and the rewind loop of a resilient run.
//! [`Session::run`] drives it to completion; callers that want to
//! interleave many simulations in one process instead hold several
//! sessions and pump [`Session::step`] in any order — each call advances
//! exactly one MD step, bitwise identical to the step `run` would have
//! taken.
//!
//! Construction goes through [`SessionBuilder`]:
//!
//! ```no_run
//! # use tbmd::{SessionBuilder, SimulationConfig, SystemSpec};
//! let config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 100);
//! let summary = SessionBuilder::new(config).build().unwrap().run().unwrap();
//! ```

use crate::engine::{Engine, EngineKind};
use crate::simulation::{
    CheckpointConfig, Protocol, RecorderConfig, RecoveryReport, ReshardPolicy, ResilienceOptions,
    SimulationConfig, SimulationSummary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tbmd_ckpt::{
    CheckpointStore, CkptError, RampSnapshot, Snapshot, StatsSnapshot, ThermostatSnapshot,
};
use tbmd_linalg::budget::ComputeLease;
use tbmd_linalg::Vec3;
use tbmd_md::{
    maxwell_boltzmann, relax, MdState, NoseHoover, RdfAccumulator, RelaxOptions, RelaxResult,
    RunningStats, TemperatureRamp, Trajectory, VelocityVerlet,
};
use tbmd_model::{
    cached_eigensolver_health, eigensolver_health, DenseSolver, GspTbModel, OccupationScheme,
    TbError, TbModel, Workspace,
};
use tbmd_parallel::{FaultPlan, RankControl};
use tbmd_trace::{Counter, Hist, JsonValue, RunRecorder, ScopedSink, StepRecord, TraceSnapshot};

/// Map a checkpoint-subsystem error into the driver's error type.
pub(crate) fn ckpt_err(e: CkptError) -> TbError {
    TbError::Checkpoint(e.to_string())
}

/// Fingerprint of the step-count-independent part of a configuration. Two
/// configs that differ only in how *long* they run fingerprint identically,
/// so a run interrupted at step 40 of 100 resumes cleanly into a 500-step
/// request; anything that changes the dynamics (system, engine, timestep,
/// set-points, seed) changes the fingerprint and is rejected on resume.
fn config_fingerprint(config: &SimulationConfig) -> u64 {
    let protocol = match config.protocol {
        Protocol::Nve {
            temperature_k,
            dt_fs,
            ..
        } => format!("nve:{temperature_k:?}:{dt_fs:?}"),
        Protocol::Nvt {
            temperature_k,
            dt_fs,
            tau_fs,
            ..
        } => format!("nvt:{temperature_k:?}:{dt_fs:?}:{tau_fs:?}"),
        Protocol::NvtRamp {
            from_k,
            to_k,
            rate_k_per_fs,
            dt_fs,
            tau_fs,
            ..
        } => format!("ramp:{from_k:?}:{to_k:?}:{rate_k_per_fs:?}:{dt_fs:?}:{tau_fs:?}"),
        Protocol::Relax { .. } => "relax".to_string(),
    };
    let canon = format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{}|{}",
        config.system,
        config.engine,
        protocol,
        config.electronic_kt,
        config.perturb,
        config.seed,
        config.record_stride
    );
    tbmd_ckpt::fingerprint(canon.as_bytes())
}

/// A caller-supplied starting point that overrides the configured system
/// build: the structure the run starts from (a defect cell, a strained box,
/// the endpoint of a previous protocol segment) and, optionally, the exact
/// starting velocities (carried across quench-segment boundaries). With
/// `velocities: None` the protocol draws Maxwell–Boltzmann velocities from
/// the config seed as usual.
///
/// This is the inter-segment perturbation hook of the campaign runner: a
/// multi-segment program runs one [`Session`] per segment, feeding each
/// segment's `final_structure`/`final_velocities` (possibly perturbed in
/// between — e.g. an affine strain increment) into the next session's
/// initial state.
#[derive(Debug, Clone)]
pub struct InitialState {
    pub structure: tbmd_structure::Structure,
    pub velocities: Option<Vec<Vec3>>,
}

impl InitialState {
    /// Start from `structure` with protocol-drawn (seeded Maxwell–Boltzmann)
    /// velocities.
    pub fn from_structure(structure: tbmd_structure::Structure) -> InitialState {
        InitialState {
            structure,
            velocities: None,
        }
    }

    /// Start from an exact phase-space point (structure + velocities) —
    /// what chaining protocol segments bitwise requires.
    pub fn with_velocities(structure: tbmd_structure::Structure, velocities: Vec<Vec3>) -> Self {
        InitialState {
            structure,
            velocities: Some(velocities),
        }
    }
}

/// Fingerprint of an initial-state override: species, positions, cell and
/// (when pinned) velocities, all at bit precision. Folded into the run
/// fingerprint so a snapshot written from one starting structure is never
/// resumed into another.
fn state_fingerprint(initial: &InitialState) -> u64 {
    let s = &initial.structure;
    let mut bytes = Vec::with_capacity(25 * s.n_atoms() + 64);
    bytes.extend_from_slice(format!("{:?}", s.species_slice()).as_bytes());
    for p in s.positions() {
        for c in p.to_array() {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    for c in s.cell().lengths.to_array() {
        bytes.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    for periodic in s.cell().periodic {
        bytes.push(periodic as u8);
    }
    match &initial.velocities {
        Some(v) => {
            bytes.push(1);
            for x in v {
                for c in x.to_array() {
                    bytes.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
        }
        None => bytes.push(0),
    }
    tbmd_ckpt::fingerprint(&bytes)
}

/// The session's resume-identity fingerprint: the config fingerprint,
/// combined with the initial-state fingerprint when an override is set.
fn run_fingerprint(config: &SimulationConfig, initial: Option<&InitialState>) -> u64 {
    let base = config_fingerprint(config);
    match initial {
        None => base,
        Some(init) => {
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&base.to_le_bytes());
            bytes[8..].copy_from_slice(&state_fingerprint(init).to_le_bytes());
            tbmd_ckpt::fingerprint(&bytes)
        }
    }
}

/// Physics observables folded into a recorder's summary line: temperature
/// statistics over the whole run (Welford, bit-deterministic), the energy
/// endpoint, and the radial distribution function of the final
/// configuration. Everything here is derived from simulation state only —
/// no wall-clock — so equal runs produce byte-equal observables.
fn observables_json(t_stats: &RunningStats, summary: &SimulationSummary) -> JsonValue {
    let mut obs = JsonValue::object();
    let mut temp = JsonValue::object();
    temp.set("samples", t_stats.count());
    if t_stats.count() > 0 {
        temp.set("mean_k", t_stats.mean())
            .set("std_k", t_stats.std_dev())
            .set("min_k", t_stats.min())
            .set("max_k", t_stats.max());
    }
    obs.set("temperature", temp)
        .set("potential_ev", summary.final_potential_energy)
        .set("total_ev", summary.final_total_energy)
        .set("drift_ev", summary.conserved_drift);
    let rdf = RdfAccumulator::of_structure(&summary.final_structure);
    let mut rj = JsonValue::object();
    rj.set("r_max", rdf.r_max()).set("n_bins", rdf.n_bins());
    if let Some((r, g)) = rdf.first_peak() {
        rj.set("first_peak_r", r).set("first_peak_g", g);
    }
    obs.set("rdf", rj);
    obs
}

fn flatten(v: &[Vec3]) -> Vec<f64> {
    v.iter().flat_map(|x| x.to_array()).collect()
}

fn unflatten(v: &[f64]) -> Vec<Vec3> {
    v.chunks_exact(3)
        .map(|c| Vec3 {
            x: c[0],
            y: c[1],
            z: c[2],
        })
        .collect()
}

/// Rebuild an [`MdState`] from a snapshot without re-evaluating forces.
/// Cell, species and masses come from the (deterministic) config build;
/// positions, velocities, forces, potential and clock are restored verbatim
/// so the continued trajectory is bitwise the uninterrupted one.
fn restore_state(
    mut structure: tbmd_structure::Structure,
    snap: &Snapshot,
) -> Result<MdState, TbError> {
    if snap.n_atoms() != structure.n_atoms() {
        return Err(TbError::Checkpoint(format!(
            "snapshot holds {} atoms but the configured system builds {}",
            snap.n_atoms(),
            structure.n_atoms()
        )));
    }
    structure.set_positions(unflatten(&snap.positions));
    Ok(MdState::from_snapshot_parts(
        structure,
        unflatten(&snap.velocities),
        unflatten(&snap.forces),
        snap.potential_energy,
        snap.time_fs,
    ))
}

/// Ranks the engine's next evaluation will launch: the configured count
/// minus any dropped by a shrink; 1 for engines without virtual ranks.
fn active_ranks(engine: &Engine<'_>) -> usize {
    engine.rank_control().map_or(1, RankControl::active_ranks)
}

/// Check a loaded snapshot against the resuming run's fingerprint (config
/// combined with any initial-state override).
fn validate_resume(expect: u64, snap: &Snapshot) -> Result<(), TbError> {
    if snap.config_fingerprint != expect {
        return Err(TbError::Checkpoint(format!(
            "config mismatch: snapshot fingerprint {:#018x} != configured {:#018x} \
             (system/engine/protocol/seed/initial state changed since the snapshot was written)",
            snap.config_fingerprint, expect
        )));
    }
    Ok(())
}

/// The newest usable snapshot of `store` for the run fingerprint, or a
/// typed error if the store is empty or the snapshot belongs to a
/// different run.
fn load_latest_validated(expect: u64, store: &CheckpointStore) -> Result<Snapshot, TbError> {
    let snap = store
        .latest()
        .map_err(ckpt_err)?
        .ok_or_else(|| ckpt_err(CkptError::NoSnapshot))?;
    validate_resume(expect, &snap)?;
    Ok(snap)
}

fn recorder_err(e: std::io::Error) -> TbError {
    TbError::Recorder(e.to_string())
}

/// Per-step recording state threaded through the stepper. The recorder
/// itself is owned by the [`Session`] (or borrowed from the caller) and
/// passed in per call, so this struct stays borrow-free.
struct Recording {
    health_stride: usize,
    /// The session's own telemetry scope: per-step counter deltas are read
    /// from it, so they hold this session's events and nobody else's.
    scope: ScopedSink,
    /// Scope snapshot at the previous step boundary.
    prev: TraceSnapshot,
    /// Dense engines get the eigensolver probe; O(N) engines do not.
    probe_health: bool,
    occupation: OccupationScheme,
    /// Step records emitted so far (carried into snapshots so a resumed
    /// recorder knows where the original stream ended).
    recorded: u64,
}

impl Recording {
    fn new(config: &SimulationConfig, options: &RecorderConfig, scope: ScopedSink) -> Recording {
        let probe_health = !matches!(
            config.engine,
            EngineKind::LinearScaling { .. } | EngineKind::DistributedLinearScaling { .. }
        );
        let occupation = if config.electronic_kt > 0.0 {
            OccupationScheme::Fermi {
                kt: config.electronic_kt,
            }
        } else {
            OccupationScheme::ZeroTemperature
        };
        Recording {
            health_stride: options.health_stride,
            prev: scope.snapshot(),
            scope,
            probe_health,
            occupation,
            recorded: 0,
        }
    }

    /// Record one completed MD step plus an eigensolver health check: the
    /// cheap incremental probe on the solve's cached eigenpairs every step
    /// when the engine leaves them in `ws`, else the independent full-solve
    /// probe on the stride.
    fn observe(
        &mut self,
        recorder: &mut RunRecorder,
        step: usize,
        state: &MdState,
        conserved_ev: f64,
        model: &dyn TbModel,
        ws: &mut Workspace,
    ) -> Result<(), TbError> {
        let snap = self.scope.snapshot();
        let delta = snap.since(&self.prev);
        self.prev = snap;
        let record = StepRecord {
            step,
            time_fs: state.time_fs,
            potential_ev: state.potential_energy,
            conserved_ev,
            temperature_k: state.temperature(),
            phase_ns: state.last_timings.phase_ns(),
            comm_bytes: delta.counter(Counter::WireBytes),
            alloc_events: delta.counter(Counter::AllocGrowth),
        };
        recorder.record_step(&record).map_err(recorder_err)?;
        self.recorded += 1;
        if self.probe_health && self.health_stride > 0 {
            let health = match cached_eigensolver_health(model, &state.structure, ws, step)? {
                Some(h) => Some(h),
                // No consumable cache (distributed/per-rank solves): pay for
                // the independent full-solve probe, but only on the stride.
                None if step.is_multiple_of(self.health_stride) => Some(eigensolver_health(
                    model,
                    &state.structure,
                    self.occupation,
                    DenseSolver::TwoStage,
                    step,
                )?),
                None => None,
            };
            if let Some(health) = &health {
                recorder.record_health(health).map_err(recorder_err)?;
            }
        }
        Ok(())
    }
}

/// The recording attachments a stepping call threads through: the per-step
/// state plus a reborrow of the session's recorder.
type Rec<'a> = Option<(&'a mut Recording, &'a mut RunRecorder)>;

/// Checkpoint attachment of a session: an open (possibly in-memory) store,
/// the snapshot interval, and the identity every snapshot is stamped with.
struct CkptCtx {
    store: CheckpointStore,
    interval: usize,
    fingerprint: u64,
    seed: u64,
}

impl CkptCtx {
    fn due(&self, step: usize) -> bool {
        self.interval > 0 && step.is_multiple_of(self.interval)
    }

    /// Encode + atomically publish one snapshot, routing the receipt into
    /// the recorder's `ckpt` line (which also bumps the trace counters) or
    /// straight into the entered scopes when no recorder is attached.
    fn write(&self, snap: &Snapshot, rec: &mut Rec<'_>) -> Result<(), TbError> {
        let started = Instant::now();
        let receipt = self.store.write(snap).map_err(ckpt_err)?;
        let wall_ns = started.elapsed().as_nanos() as u64;
        match rec.as_mut() {
            Some((_, recorder)) => recorder
                .record_ckpt(
                    snap.step as usize,
                    receipt.bytes,
                    wall_ns,
                    &receipt.path.display().to_string(),
                )
                .map_err(recorder_err)?,
            None => {
                tbmd_trace::add(Counter::CkptWrites, 1);
                tbmd_trace::add(Counter::CkptBytes, receipt.bytes);
                tbmd_trace::add(Counter::CkptNanos, wall_ns);
            }
        }
        Ok(())
    }
}

/// The integrator of an MD run: velocity Verlet (NVE) or Nosé–Hoover.
enum Integrator {
    Verlet(VelocityVerlet),
    NoseHoover(NoseHoover),
}

impl Integrator {
    fn step_with(
        &mut self,
        state: &mut MdState,
        engine: &Engine<'_>,
        ws: &mut Workspace,
    ) -> Result<(), TbError> {
        match self {
            Integrator::Verlet(vv) => vv.step_with(state, engine, ws),
            Integrator::NoseHoover(nh) => nh.step_with(state, engine, ws),
        }
    }

    /// What the dynamics conserve: the total energy, or the extended-system
    /// H' of the thermostatted run (while its set-point is fixed).
    fn conserved_quantity(&self, state: &MdState) -> f64 {
        match self {
            Integrator::Verlet(_) => state.total_energy(),
            Integrator::NoseHoover(nh) => nh.conserved_quantity(state),
        }
    }

    /// The `THRM` section of a snapshot (none for Verlet).
    fn thermostat_snapshot(&self) -> Option<ThermostatSnapshot> {
        match self {
            Integrator::Verlet(_) => None,
            Integrator::NoseHoover(nh) => {
                let (xi, eta) = nh.thermostat_state();
                Some(ThermostatSnapshot {
                    xi,
                    eta,
                    target_k: nh.target_k,
                    q: nh.q,
                })
            }
        }
    }
}

/// The one MD run every dynamics protocol is: `Nve` is Verlet with no
/// ramp, `Nvt` Nosé–Hoover with no ramp, `NvtRamp` Nosé–Hoover with a ramp
/// that hands over to the hold by setting `reference`.
struct MdRun {
    integrator: Integrator,
    state: MdState,
    /// Set-point schedule, advanced before each step until it reaches its
    /// target.
    ramp: Option<TemperatureRamp>,
    /// The conserved quantity drift is measured against: E₀ (NVE) or H'₀
    /// (NVT, hold). `None` while the set-point is moving — the extended
    /// energy is not conserved then, so no drift and no step records.
    reference: Option<f64>,
    /// Steps taken against `reference` (they number the step records).
    counted: usize,
    /// Counted steps the protocol asks for.
    target: usize,
    /// Every step taken, ramp included (numbers the snapshots).
    total: usize,
    t_stats: RunningStats,
    drift: f64,
    rng: StdRng,
    trajectory: Option<Trajectory>,
}

impl MdRun {
    /// One iteration of the MD loop; `true` once the protocol is complete
    /// — possibly without doing work, when a resumed run is already past
    /// its final step.
    fn step(
        &mut self,
        engine: &Engine<'_>,
        model: &dyn TbModel,
        ws: &mut Workspace,
        ckpt: Option<&CkptCtx>,
        rec: &mut Rec<'_>,
    ) -> Result<bool, TbError> {
        let counting = self.reference.is_some();
        if counting && self.counted >= self.target {
            return Ok(true);
        }
        let moving = match (&self.ramp, &mut self.integrator) {
            (Some(ramp), Integrator::NoseHoover(nh)) if !counting => ramp.advance(nh),
            _ => false,
        };
        self.integrator.step_with(&mut self.state, engine, ws)?;
        self.total += 1;
        self.t_stats.push(self.state.temperature());
        if let Some(tr) = self.trajectory.as_mut() {
            tr.observe(&self.state);
        }
        let conserved = self.integrator.conserved_quantity(&self.state);
        match self.reference {
            Some(reference) => {
                self.counted += 1;
                self.drift = self.drift.max((conserved - reference).abs());
                if let Some((recording, recorder)) = rec.as_mut() {
                    recording.observe(recorder, self.counted, &self.state, conserved, model, ws)?;
                }
            }
            // The set-point just reached its target: H' is conserved from
            // this state on.
            None if !moving => self.reference = Some(conserved),
            None => {}
        }
        if let Some(c) = ckpt.filter(|c| c.due(self.total)) {
            let recorded = rec.as_ref().map_or(0, |(r, _)| r.recorded);
            c.write(&self.snapshot(c, recorded), rec)?;
        }
        Ok(self.reference.is_some() && self.counted >= self.target)
    }

    /// The resume path, after the phase-space point: restore whatever the
    /// snapshot carries of the thermostat (`THRM`) and the ramp phase
    /// (`RAMP`), then the reference, counters and running statistics.
    fn restore(&mut self, snap: &Snapshot) -> Result<(), TbError> {
        if let Integrator::NoseHoover(nh) = &mut self.integrator {
            let thermo = snap.thermostat.ok_or_else(|| {
                TbError::Checkpoint("thermostatted resume needs a THRM section".into())
            })?;
            nh.target_k = thermo.target_k;
            nh.q = thermo.q;
            nh.restore_thermostat_state(thermo.xi, thermo.eta);
        }
        // Without a schedule every step counts against the reference; a
        // ramp's section says which phase it was in and how far.
        let (holding, counted, total) = match self.ramp {
            None => (true, snap.step, snap.step),
            Some(_) => {
                let phase = snap.ramp.ok_or_else(|| {
                    TbError::Checkpoint("ramp resume needs a RAMP section".into())
                })?;
                (phase.holding, phase.hold_step, phase.steps_total)
            }
        };
        self.reference = holding.then_some(snap.conserved_ref);
        self.counted = counted as usize;
        self.total = total as usize;
        self.drift = snap.drift;
        let ts = snap.temp_stats;
        self.t_stats = RunningStats::from_raw(ts.n, ts.mean, ts.m2, ts.min, ts.max);
        Ok(())
    }

    fn snapshot(&self, ckpt: &CkptCtx, recorded_steps: u64) -> Snapshot {
        let state = &self.state;
        let (n, mean, m2, min, max) = self.t_stats.to_raw();
        Snapshot {
            step: self.total as u64,
            time_fs: state.time_fs,
            seed: ckpt.seed,
            config_fingerprint: ckpt.fingerprint,
            rng_state: self.rng.state(),
            potential_energy: state.potential_energy,
            conserved_ref: self.reference.unwrap_or(0.0),
            drift: self.drift,
            recorded_steps,
            positions: flatten(state.structure.positions()),
            velocities: flatten(&state.velocities),
            forces: flatten(&state.forces),
            temp_stats: StatsSnapshot {
                n,
                mean,
                m2,
                min,
                max,
            },
            thermostat: self.integrator.thermostat_snapshot(),
            ramp: self.ramp.map(|_| RampSnapshot {
                holding: self.reference.is_some(),
                hold_step: self.counted as u64,
                steps_total: self.total as u64,
            }),
        }
    }
}

/// Protocol-specific state of one attempt. A session holds exactly one, in
/// place, so the size difference between the arms costs nothing and a box
/// would only add a heap block.
#[allow(clippy::large_enum_variant)]
enum AttemptKind {
    /// Single-shot: the whole relaxation runs in the first step.
    Relax {
        structure: tbmd_structure::Structure,
        opts: RelaxOptions,
        outcome: Option<RelaxResult>,
    },
    Md(MdRun),
}

/// One attempt of a configured simulation: everything the monolithic
/// driver used to hold in loop locals, reified so it can advance one MD
/// step at a time. The engine is borrowed per call, not stored, so a
/// resilient session keeps one engine alive across rewound attempts.
struct Attempt {
    ws: Workspace,
    kind: AttemptKind,
}

impl Attempt {
    /// Everything the driver did before entering its stepping loop:
    /// announce a restore, build the structure, and start the protocol —
    /// from the snapshot, or fresh (which evaluates forces once for an MD
    /// start: a fault can fire here, and the session's rewind loop treats
    /// that exactly like a mid-run failure).
    fn new(
        config: &SimulationConfig,
        initial: Option<&InitialState>,
        engine: &Engine<'_>,
        ckpt: Option<&CkptCtx>,
        resume: Option<Snapshot>,
        rec: &mut Rec<'_>,
    ) -> Result<Attempt, TbError> {
        // Announce a restore before any stepping: a `restore` JSONL line
        // when a recorder is attached, a bare counter bump otherwise.
        if let Some(snap) = resume.as_ref() {
            let path = ckpt
                .map(|c| c.store.path_for(snap.step).display().to_string())
                .unwrap_or_default();
            match rec.as_mut() {
                Some((recording, recorder)) => {
                    recording.recorded = snap.recorded_steps;
                    recorder
                        .record_restore(snap.step as usize, "resume", &path)
                        .map_err(recorder_err)?;
                }
                None => tbmd_trace::add(Counter::CkptRestores, 1),
            }
        }
        let structure = match initial {
            Some(init) => init.structure.clone(),
            None => config.system.build(config.perturb, config.seed),
        };
        let mut ws = Workspace::new();
        // What each dynamics protocol sets: the thermostat's starting
        // set-point, the temperature velocities are drawn at, the timestep,
        // the thermostat period (none = Verlet), the set-point schedule and
        // the number of counted steps.
        let (start_k, draw_k, dt_fs, tau_fs, ramp, target) = match config.protocol {
            Protocol::Relax {
                force_tolerance,
                max_iterations,
            } => {
                let opts = RelaxOptions {
                    force_tolerance,
                    max_iterations,
                    ..Default::default()
                };
                let kind = AttemptKind::Relax {
                    structure,
                    opts,
                    outcome: None,
                };
                return Ok(Attempt { ws, kind });
            }
            Protocol::Nve {
                temperature_k,
                steps,
                dt_fs,
            } => (temperature_k, temperature_k, dt_fs, None, None, steps),
            Protocol::Nvt {
                temperature_k,
                steps,
                dt_fs,
                tau_fs,
            } => (
                temperature_k,
                temperature_k,
                dt_fs,
                Some(tau_fs),
                None,
                steps,
            ),
            Protocol::NvtRamp {
                from_k,
                to_k,
                rate_k_per_fs,
                hold_steps,
                dt_fs,
                tau_fs,
            } => {
                let ramp = TemperatureRamp {
                    rate_k_per_fs: rate_k_per_fs.abs() * (to_k - from_k).signum(),
                    target_k: to_k,
                };
                let draw_k = from_k.max(1.0);
                (from_k, draw_k, dt_fs, Some(tau_fs), Some(ramp), hold_steps)
            }
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        let state = match resume.as_ref() {
            Some(snap) => {
                rng = StdRng::from_state(snap.rng_state);
                restore_state(structure, snap)?
            }
            None => {
                // Caller-pinned starting velocities, else Maxwell–Boltzmann.
                let v = initial
                    .and_then(|init| init.velocities.clone())
                    .unwrap_or_else(|| maxwell_boltzmann(&structure, draw_k, &mut rng));
                MdState::new_with(structure, v, engine, &mut ws)?
            }
        };
        let integrator = match tau_fs {
            None => Integrator::Verlet(VelocityVerlet::new(dt_fs)),
            Some(tau) => {
                Integrator::NoseHoover(NoseHoover::with_period(dt_fs, start_k, state.n_dof(), tau))
            }
        };
        let mut run = MdRun {
            integrator,
            state,
            ramp,
            reference: None,
            counted: 0,
            target,
            total: 0,
            t_stats: RunningStats::new(),
            drift: 0.0,
            rng,
            trajectory: (config.record_stride > 0).then(|| Trajectory::new(config.record_stride)),
        };
        match resume.as_ref() {
            Some(snap) => run.restore(snap)?,
            // A fixed set-point conserves from the first step on.
            None if run.ramp.is_none() => {
                run.reference = Some(run.integrator.conserved_quantity(&run.state));
            }
            None => {}
        }
        let kind = AttemptKind::Md(run);
        Ok(Attempt { ws, kind })
    }

    /// Advance one MD step (a relaxation runs to convergence in its single
    /// step). Returns `true` once the protocol is complete.
    fn step(
        &mut self,
        engine: &Engine<'_>,
        model: &dyn TbModel,
        ckpt: Option<&CkptCtx>,
        rec: &mut Rec<'_>,
    ) -> Result<bool, TbError> {
        match &mut self.kind {
            AttemptKind::Relax {
                structure,
                opts,
                outcome,
            } => {
                if outcome.is_none() {
                    *outcome = Some(relax(structure, engine, opts)?);
                }
                Ok(true)
            }
            AttemptKind::Md(run) => run.step(engine, model, &mut self.ws, ckpt, rec),
        }
    }

    /// Consume the finished attempt into the run summary and the
    /// temperature statistics behind its mean.
    fn finish(self) -> (SimulationSummary, RunningStats) {
        match self.kind {
            AttemptKind::Relax {
                structure, outcome, ..
            } => {
                let result = outcome.expect("finish called before the relaxation ran");
                let summary = SimulationSummary {
                    final_potential_energy: result.energy,
                    final_total_energy: result.energy,
                    mean_temperature_k: 0.0,
                    conserved_drift: 0.0,
                    steps: result.iterations,
                    converged: result.converged,
                    trajectory: None,
                    final_structure: structure,
                    final_velocities: Vec::new(),
                };
                (summary, RunningStats::new())
            }
            AttemptKind::Md(run) => {
                let summary = SimulationSummary {
                    final_potential_energy: run.state.potential_energy,
                    final_total_energy: run.state.total_energy(),
                    mean_temperature_k: run.t_stats.mean(),
                    conserved_drift: run.drift,
                    steps: run.total,
                    converged: true,
                    trajectory: run.trajectory,
                    final_velocities: run.state.velocities,
                    final_structure: run.state.structure,
                };
                (summary, run.t_stats)
            }
        }
    }
}

/// Where the session's recorder lives.
enum RecorderSlot<'r> {
    /// Borrowed from the caller ([`SessionBuilder::record`] — the caller
    /// keeps ownership and calls `finish()` itself).
    Borrowed(&'r mut RunRecorder),
    /// Owned by the session (service tenants — reclaim it with
    /// [`Session::take_recorder`]).
    Owned(Box<RunRecorder>),
}

impl RecorderSlot<'_> {
    fn as_mut(&mut self) -> &mut RunRecorder {
        match self {
            RecorderSlot::Borrowed(r) => r,
            RecorderSlot::Owned(r) => r,
        }
    }
}

/// What checkpointing a builder asked for, before the store is opened.
enum CkptRequest {
    Dir(CheckpointConfig),
    Store {
        store: CheckpointStore,
        interval: usize,
    },
}

/// Result of one [`Session::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The protocol has more steps to run.
    Running,
    /// The run is complete; the summary is available via
    /// [`Session::take_summary`] (or was already returned by `run`).
    Done,
}

/// Builder for a [`Session`]: configuration first, then the optional
/// attachments (recorder, checkpoint store, fault schedule, resilience
/// policy, compute-budget lease), then [`SessionBuilder::build`].
pub struct SessionBuilder<'r> {
    config: SimulationConfig,
    recorder: Option<RecorderSlot<'r>>,
    recorder_opts: RecorderConfig,
    checkpoint: Option<CkptRequest>,
    faults: Vec<FaultPlan>,
    resilience: Option<ResilienceOptions>,
    resume: bool,
    lease: Option<ComputeLease>,
    telemetry: Option<ScopedSink>,
    initial: Option<InitialState>,
}

impl<'r> SessionBuilder<'r> {
    pub fn new(config: SimulationConfig) -> SessionBuilder<'r> {
        SessionBuilder {
            config,
            recorder: None,
            recorder_opts: RecorderConfig::standard(),
            checkpoint: None,
            faults: Vec::new(),
            resilience: None,
            resume: false,
            lease: None,
            telemetry: None,
            initial: None,
        }
    }

    /// Stream JSONL step records into a caller-owned recorder. The
    /// `options.checkpoint` directory (if any) doubles as the session's
    /// checkpoint store unless [`SessionBuilder::checkpoint`] /
    /// [`SessionBuilder::checkpoint_store`] names one explicitly.
    pub fn record(mut self, recorder: &'r mut RunRecorder, options: RecorderConfig) -> Self {
        self.recorder = Some(RecorderSlot::Borrowed(recorder));
        self.recorder_opts = options;
        self
    }

    /// Like [`SessionBuilder::record`], but the session owns the recorder —
    /// what a service tenant uses (reclaim it with
    /// [`Session::take_recorder`] after the run).
    pub fn record_owned(mut self, recorder: RunRecorder, options: RecorderConfig) -> Self {
        self.recorder = Some(RecorderSlot::Owned(Box::new(recorder)));
        self.recorder_opts = options;
        self
    }

    /// Write a `TBCK` snapshot every `ckpt.interval` steps into `ckpt.dir`
    /// (atomic publish, newest-`retain` rotation).
    pub fn checkpoint(mut self, ckpt: &CheckpointConfig) -> Self {
        self.checkpoint = Some(CkptRequest::Dir(ckpt.clone()));
        self
    }

    /// Checkpoint through an already-open store (e.g.
    /// [`CheckpointStore::in_memory`] for disk-free service tenants).
    pub fn checkpoint_store(mut self, store: CheckpointStore, interval: usize) -> Self {
        self.checkpoint = Some(CkptRequest::Store { store, interval });
        self
    }

    /// Schedule fault injections: the i-th plan is armed at the start of
    /// the i-th attempt, against the engine's persistent evaluation
    /// counter.
    pub fn faults(mut self, faults: &[FaultPlan]) -> Self {
        self.faults = faults.to_vec();
        self
    }

    /// Recover from rank failures by rewinding to the newest snapshot,
    /// following `options.policy`, giving up after `options.max_recoveries`
    /// recoveries. Also makes the first attempt auto-resume from whatever
    /// the checkpoint store already holds.
    pub fn resilience(mut self, options: ResilienceOptions) -> Self {
        self.resilience = Some(options);
        self
    }

    /// Resume from the newest usable snapshot of the checkpoint store;
    /// an empty store or a config mismatch fails [`SessionBuilder::build`].
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Pin a compute-budget lease: every step of this session runs inside
    /// [`ComputeLease::scoped`], so a width-1 lease serializes its fan-outs
    /// (bitwise identically) instead of grabbing the shared pool.
    pub fn lease(mut self, lease: ComputeLease) -> Self {
        self.lease = Some(lease);
        self
    }

    /// Attribute this session's trace events to a labelled
    /// [`ScopedSink`]: every [`Session::step`] enters the scope, so the
    /// sink accumulates this session's counters, phase times and latency
    /// histograms — the per-tenant view the serve scheduler reads for its
    /// `stats` verb, and where a recorder takes its per-step
    /// `comm_bytes`/`alloc_events` and its summary totals from (a recorded
    /// session without one makes its own).
    pub fn telemetry(mut self, sink: ScopedSink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Start from an explicit [`InitialState`] instead of building the
    /// configured system: the campaign runner's inter-segment hook (defect
    /// cells, strained boxes, the carried endpoint of a previous protocol
    /// segment). The state's fingerprint is folded into the session's
    /// checkpoint identity, so snapshots never resume across different
    /// starting states.
    pub fn initial_state(mut self, state: InitialState) -> Self {
        self.initial = Some(state);
        self
    }

    /// Resolve the attachments and build the engine. Fails on a config
    /// [`SimulationConfig::validate`] refuses, an unusable checkpoint store
    /// or a failed required-resume load; engine construction itself is
    /// infallible.
    pub fn build(self) -> Result<Session<'r>, TbError> {
        let config = self.config;
        config.validate().map_err(TbError::Config)?;
        if let Some(init) = self.initial.as_ref() {
            if let Some(v) = init.velocities.as_ref() {
                if v.len() != init.structure.n_atoms() {
                    return Err(TbError::Config(format!(
                        "initial state carries {} velocities for {} atoms",
                        v.len(),
                        init.structure.n_atoms()
                    )));
                }
            }
        }
        let fingerprint = run_fingerprint(&config, self.initial.as_ref());
        let request = self
            .checkpoint
            .or_else(|| self.recorder_opts.checkpoint.clone().map(CkptRequest::Dir));
        let (store, interval) = match request {
            Some(CkptRequest::Dir(c)) => (
                Some(CheckpointStore::open(&c.dir, c.retain).map_err(ckpt_err)?),
                c.interval,
            ),
            Some(CkptRequest::Store { store, interval }) => (Some(store), interval),
            None => (None, 0),
        };
        let checkpoint = store.map(|store| CkptCtx {
            store,
            interval,
            fingerprint,
            seed: config.seed,
        });
        let pending_resume = if self.resume {
            let ckpt = checkpoint.as_ref().ok_or_else(|| {
                TbError::Checkpoint("SessionBuilder::resume needs a checkpoint store".into())
            })?;
            Some(load_latest_validated(fingerprint, &ckpt.store)?)
        } else {
            None
        };
        // A recorder reads its per-step counter deltas from the session's
        // own scope, so a recorded session always has one.
        let mut telemetry = self.telemetry;
        let recording = self.recorder.as_ref().map(|_| {
            let scope = telemetry.get_or_insert_with(|| ScopedSink::new("session"));
            Recording::new(&config, &self.recorder_opts, scope.clone())
        });
        // The session owns both the model and the engine that borrows it.
        // The model lives in a Box (a stable heap address), the engine is
        // declared before the model so it drops first, and `&mut model` /
        // `Box::into_inner` are never exposed — so the unsafe lifetime
        // extension below can never observe a dangling model.
        let model = Box::new(config.system.model());
        let model_ref: &'static GspTbModel = unsafe { &*(model.as_ref() as *const GspTbModel) };
        let engine = Engine::build(config.engine, model_ref, config.electronic_kt);
        let report = RecoveryReport {
            final_ranks: active_ranks(&engine),
            ..RecoveryReport::default()
        };
        Ok(Session {
            engine,
            model,
            config,
            recorder: self.recorder,
            recording,
            checkpoint,
            faults: self.faults.into_iter(),
            resilience: self.resilience,
            report,
            pending_resume,
            auto_resume: self.resilience.is_some(),
            attempt: None,
            outcome: None,
            done: false,
            steps_done: 0,
            alloc_events: 0,
            lease: self.lease,
            telemetry,
            initial: self.initial,
        })
    }
}

/// A simulation in flight: the persistent engine, the protocol state, and
/// the rewind loop, advanced one MD step per [`Session::step`] call. See
/// the module docs for the builder lifecycle.
pub struct Session<'r> {
    // Field order is load-bearing: the engine borrows the boxed model
    // (via an unsafe 'static extension in `SessionBuilder::build`), so it
    // must be dropped first. Rust drops fields in declaration order.
    engine: Engine<'static>,
    #[allow(dead_code)]
    model: Box<GspTbModel>,
    config: SimulationConfig,
    recorder: Option<RecorderSlot<'r>>,
    recording: Option<Recording>,
    checkpoint: Option<CkptCtx>,
    faults: std::vec::IntoIter<FaultPlan>,
    resilience: Option<ResilienceOptions>,
    report: RecoveryReport,
    pending_resume: Option<Snapshot>,
    /// Resilient mode: reload the newest snapshot at the start of every
    /// attempt (a failure before the first snapshot restarts from scratch).
    auto_resume: bool,
    attempt: Option<Attempt>,
    outcome: Option<SimulationSummary>,
    done: bool,
    steps_done: usize,
    /// Workspace/pool growth events folded in from completed attempts;
    /// the live attempt's count is added on read.
    alloc_events: u64,
    lease: Option<ComputeLease>,
    telemetry: Option<ScopedSink>,
    /// Caller-supplied starting state override (see [`InitialState`]).
    initial: Option<InitialState>,
}

// A session moves between threads: `tbmd-serve` runs each slice of a tenant
// on whichever thread of the team takes it from the run queue. A field that
// is not `Send` must fail to build here, not inside the scheduler.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Session<'static>>();
};

impl<'r> Session<'r> {
    /// The configuration this session runs.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The persistent engine (its evaluation counter and rank set survive
    /// rewinds).
    pub fn engine(&self) -> &Engine<'static> {
        &self.engine
    }

    /// Force/energy evaluations performed so far, across all attempts.
    pub fn evaluations(&self) -> u64 {
        self.engine
            .rank_control()
            .map_or(0, RankControl::evaluations)
    }

    /// MD steps this session has executed (across rewinds; a relaxation
    /// counts as one).
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Rewind statistics (recoveries, blamed ranks, final rank count).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Workspace/pool growth events attributed to *this* session — its own
    /// workspaces across all attempts, not a process-global count, so O(1)
    /// allocation assertions stay meaningful when many sessions multiplex
    /// one process.
    pub fn large_alloc_events(&self) -> u64 {
        self.alloc_events
            + self
                .attempt
                .as_ref()
                .map_or(0, |a| a.ws.large_alloc_events() as u64)
    }

    /// The scoped telemetry sink: the one attached at build time, or the
    /// one a recorded session made for itself.
    pub fn telemetry(&self) -> Option<&ScopedSink> {
        self.telemetry.as_ref()
    }

    /// Release the session's lease back to the budget.
    pub fn take_lease(&mut self) -> Option<ComputeLease> {
        self.lease.take()
    }

    /// Reclaim a session-owned recorder (tenants call `finish()` on it to
    /// emit the summary line). `None` for borrowed or absent recorders.
    pub fn take_recorder(&mut self) -> Option<RunRecorder> {
        match self.recorder.take() {
            Some(RecorderSlot::Owned(r)) => Some(*r),
            other => {
                self.recorder = other;
                None
            }
        }
    }

    /// The finished run's summary (at most once, after [`SessionStatus::Done`]).
    pub fn take_summary(&mut self) -> Option<SimulationSummary> {
        self.outcome.take()
    }

    /// Advance one MD step (running the rewind loop as needed). On a rank
    /// failure with resilience enabled, the recovery — re-shard, snapshot
    /// reload, re-init — happens inside this call and stepping continues,
    /// so one `step()` always makes forward progress or returns an error.
    pub fn step(&mut self) -> Result<SessionStatus, TbError> {
        if self.done {
            return Ok(SessionStatus::Done);
        }
        // Telemetry: everything this step records lands in the session's
        // scoped sink too (the per-tenant view), and one "step" span feeds
        // the Step histogram and any entered timeline. With nobody
        // listening this whole block is one relaxed atomic load and two
        // `None`s — no clocks are read.
        let _scope = self.telemetry.as_ref().map(|s| s.enter());
        let step_span = tbmd_trace::active().then(|| tbmd_trace::interval(Hist::Step, "step"));
        // Hold the lease outside `self` while its scope wraps the advance,
        // so the closure can borrow `self` mutably.
        let lease = self.lease.take();
        let result = loop {
            let advanced = match lease.as_ref() {
                Some(l) => l.scoped(|| self.advance()),
                None => self.advance(),
            };
            match advanced {
                Ok(finished) => {
                    self.steps_done += 1;
                    if finished {
                        self.finish_attempt();
                        break Ok(SessionStatus::Done);
                    }
                    break Ok(SessionStatus::Running);
                }
                Err(TbError::RankFailure {
                    detail,
                    failed_ranks,
                }) if self.resilience.is_some() => {
                    if let Err(e) = self.recover(detail, failed_ranks) {
                        self.done = true;
                        break Err(e);
                    }
                }
                Err(e) => {
                    self.done = true;
                    break Err(e);
                }
            }
        };
        self.lease = lease;
        drop(step_span);
        result
    }

    /// Drive the session to completion and return the summary.
    pub fn run(&mut self) -> Result<SimulationSummary, TbError> {
        while self.step()? == SessionStatus::Running {}
        self.take_summary()
            .ok_or_else(|| TbError::Checkpoint("session already ran to completion".into()))
    }

    /// Ensure an attempt exists, then advance it one step.
    fn advance(&mut self) -> Result<bool, TbError> {
        if self.attempt.is_none() {
            self.begin_attempt()?;
        }
        let mut rec: Rec<'_> = match (self.recording.as_mut(), self.recorder.as_mut()) {
            (Some(recording), Some(slot)) => Some((recording, slot.as_mut())),
            _ => None,
        };
        self.attempt.as_mut().expect("attempt just ensured").step(
            &self.engine,
            self.model.as_ref(),
            self.checkpoint.as_ref(),
            &mut rec,
        )
    }

    /// Start the next attempt: arm the next fault plan, pick the resume
    /// snapshot (explicit for a required resume, the newest usable one in
    /// resilient mode, none otherwise), and run the protocol init.
    fn begin_attempt(&mut self) -> Result<(), TbError> {
        // Engines without virtual ranks have no rank to kill: the plan is
        // consumed and arms nothing.
        if let (Some(plan), Some(ranks)) = (self.faults.next(), self.engine.rank_control()) {
            ranks.arm(plan);
        }
        let resume = if let Some(snap) = self.pending_resume.take() {
            Some(snap)
        } else if self.auto_resume {
            match self.checkpoint.as_ref() {
                // A failure before the first snapshot (or an unusable one)
                // restarts from scratch.
                Some(ckpt) => match load_latest_validated(ckpt.fingerprint, &ckpt.store) {
                    Ok(snap) => Some(snap),
                    Err(TbError::Checkpoint(_)) => None,
                    Err(e) => return Err(e),
                },
                None => None,
            }
        } else {
            None
        };
        let mut rec: Rec<'_> = match (self.recording.as_mut(), self.recorder.as_mut()) {
            (Some(recording), Some(slot)) => Some((recording, slot.as_mut())),
            _ => None,
        };
        let attempt = Attempt::new(
            &self.config,
            self.initial.as_ref(),
            &self.engine,
            self.checkpoint.as_ref(),
            resume,
            &mut rec,
        )?;
        self.attempt = Some(attempt);
        Ok(())
    }

    /// Handle one rank failure under the resilience policy; errors once the
    /// recovery budget is exhausted.
    fn recover(&mut self, detail: String, failed_ranks: Vec<usize>) -> Result<(), TbError> {
        let options = self.resilience.expect("recover only runs when resilient");
        if self.report.recoveries >= options.max_recoveries {
            return Err(TbError::RankFailure {
                detail: format!(
                    "gave up after {} recoveries: {detail}",
                    options.max_recoveries
                ),
                failed_ranks,
            });
        }
        self.report.recoveries += 1;
        tbmd_trace::add(Counter::Recoveries, 1);
        let ranks = self
            .engine
            .rank_control()
            .expect("a rank failure comes from an engine on virtual ranks");
        match options.policy {
            ReshardPolicy::Respawn => ranks.respawn_full_ranks(),
            ReshardPolicy::Shrink => ranks.shrink_ranks(failed_ranks.len().max(1)),
        };
        self.report.failed_ranks.extend(failed_ranks);
        if let Some(failed) = self.attempt.take() {
            self.alloc_events += failed.ws.large_alloc_events() as u64;
        }
        Ok(())
    }

    fn finish_attempt(&mut self) {
        let attempt = self.attempt.take().expect("finished attempt present");
        self.alloc_events += attempt.ws.large_alloc_events() as u64;
        self.report.final_ranks = active_ranks(&self.engine);
        let (summary, t_stats) = attempt.finish();
        if let Some(slot) = self.recorder.as_mut() {
            let recorder = slot.as_mut();
            recorder.set_observables(observables_json(&t_stats, &summary));
            if let Some(scope) = &self.telemetry {
                recorder.set_counters(scope.snapshot());
            }
        }
        self.outcome = Some(summary);
        self.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemSpec;

    fn nve_config(seed: u64, steps: usize) -> SimulationConfig {
        let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, steps);
        c.seed = seed;
        c
    }

    fn run(config: &SimulationConfig) -> SimulationSummary {
        SessionBuilder::new(*config)
            .build()
            .expect("build")
            .run()
            .expect("run")
    }

    /// Stepping a session by hand must retrace `Session::run` bit for bit.
    #[test]
    fn stepwise_session_matches_run_bitwise() {
        let config = nve_config(11, 8);
        let reference = run(&config);
        let mut session = SessionBuilder::new(config).build().expect("build");
        let mut calls = 0usize;
        while session.step().expect("step") == SessionStatus::Running {
            calls += 1;
        }
        assert_eq!(calls + 1, 8, "one MD step per step() call");
        let summary = session.take_summary().expect("summary");
        assert_eq!(
            summary.final_total_energy.to_bits(),
            reference.final_total_energy.to_bits()
        );
        for (a, b) in summary
            .final_structure
            .positions()
            .iter()
            .zip(reference.final_structure.positions())
        {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        for (a, b) in summary
            .final_velocities
            .iter()
            .zip(&reference.final_velocities)
        {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
        }
    }

    /// Two interleaved sessions must not perturb each other's trajectories.
    #[test]
    fn interleaved_sessions_match_serial_runs() {
        let ca = nve_config(21, 6);
        let cb = nve_config(22, 6);
        let ra = run(&ca);
        let rb = run(&cb);
        let mut sa = SessionBuilder::new(ca).build().expect("a");
        let mut sb = SessionBuilder::new(cb).build().expect("b");
        loop {
            let a = sa.step().expect("a step");
            let b = sb.step().expect("b step");
            if a == SessionStatus::Done && b == SessionStatus::Done {
                break;
            }
        }
        let (sa, sb) = (sa.take_summary().unwrap(), sb.take_summary().unwrap());
        assert_eq!(
            sa.final_total_energy.to_bits(),
            ra.final_total_energy.to_bits()
        );
        assert_eq!(
            sb.final_total_energy.to_bits(),
            rb.final_total_energy.to_bits()
        );
    }
}

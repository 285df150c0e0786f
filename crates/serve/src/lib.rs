//! # tbmd-serve
//!
//! A multiplexed trajectory service over the session pipeline: many tenants
//! (trajectory jobs) share one process and one [`Budget`] — each tenant is a
//! [`tbmd::Session`] streaming its JSONL step records back to the submitter
//! as they are produced.
//!
//! The library half is transport-agnostic: [`Multiplexer`] takes parsed
//! [`JobSpec`]s plus any `Write + Send` sink (a socket, a shared buffer, a
//! file) and runs the scheduling loop. The `tbmd-serve` binary wraps it in
//! a Unix-domain-socket daemon speaking newline-delimited JSON.
//!
//! **Scheduling** is one run queue. In a [`Multiplexer::tick`] each team
//! thread (`tbmd::linalg::team`), one per runnable tenant at most, takes the
//! next tenant — admitting a waiting job first when the budget grants it a
//! lease — runs it for a time slice of whole MD steps, and puts it back, or
//! retires it and refunds its lease. A tick lasts one slice; past that a
//! thread takes another only while a peer is inside a slice begun earlier,
//! so none idles behind a long step. Invariants (pinned by the serve
//! tests here and at the workspace root):
//!
//! - every tenant's trajectory is bitwise the one a standalone session of
//!   the same config produces: multiplexing changes *when* steps run, never
//!   *what* they compute. Reports come in completion order;
//! - admitted tenants hold a [`tbmd::ComputeLease`] of the multiplexer's own
//!   [`Budget`]; when it is finite, jobs past it wait in the admission queue
//!   until a running tenant finishes and refunds its lease, so the budget's
//!   high-water mark never exceeds its total;
//! - a tenant leases the width its system can use, not more: a dense job
//!   (`serial` / `shared`) below the two-stage floor
//!   ([`tbmd::model::TWO_STAGE_MIN_DIM`], 96 orbitals) asks for one thread
//!   whatever its `threads` says, every other job for `threads`
//!   ([`EngineKind::useful_threads`]); the bits are the same at every width;
//! - a lone runnable tenant runs on the calling thread at its lease's width;
//!   beside another, a wide tenant's fan-outs run inline on the thread that
//!   runs its slice (the team's inline rule);
//! - a panic inside a slice retires that tenant alone, with an error
//!   report and an error line, and its lease is refunded.
//!
//! **Telemetry.** A [`ServeStats`] handle owns one root [`ScopedSink`] that
//! every thread serving a tick enters (the caller holds no root guard while
//! the team runs, so each event reaches the root once). Every tenant's
//! session enters a labelled scope of its own per MD step below it, so
//! per-tenant counters, phase times and latency histograms (step, admission
//! wait, and slice under the name `quantum`) accumulate beside this multiplexer's
//! totals, and a distributed tenant's rank views hang off its scope; two
//! multiplexers share nothing. The handle reads it all mid-run: the
//! `{"stats":true}` verb returns its JSON form, `{"stats":"prometheus"}` a
//! text exposition, with a `budget` block read from the multiplexer's
//! [`Budget`] and the [`Gauge::QueueDepth`] / lease high-water gauges. A
//! handle made by [`ServeStats::with_timeline`] also keeps a span timeline —
//! one span per tenant slice, named after the tenant, its steps and phases
//! nested inside, on the `tid` of the thread that ran it — which
//! [`ServeStats::export_chrome`] writes out.
//!
//! [`Gauge::QueueDepth`]: tbmd_trace::Gauge

use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tbmd::linalg::team;
use tbmd::{
    run_manifest, Budget, CheckpointStore, ComputeLease, EngineKind, InitialState, Protocol,
    RecorderConfig, Session, SessionBuilder, SessionStatus, SimulationConfig, SimulationSummary,
    SystemSpec,
};
use tbmd_trace::{Gauge, Hist, JsonValue, RunRecorder, ScopedSink};

/// One trajectory job as submitted by a client.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Client-chosen job name (echoed in reports and error lines).
    pub name: String,
    /// The simulation to run.
    pub config: SimulationConfig,
    /// Parsed and validated from the wire field `quantum`, then ignored: the
    /// scheduler runs tenants in time slices. Kept for the frozen benchmark
    /// until ROADMAP item 7.
    pub quantum: usize,
    /// The most threads this job may lease from the multiplexer's budget: a
    /// dense job below the two-stage floor ([`tbmd::model::TWO_STAGE_MIN_DIM`],
    /// 96 orbitals) leases one, all it can use
    /// ([`EngineKind::useful_threads`]).
    pub threads: usize,
    /// Eigensolver health-probe stride (0 — the service default — skips
    /// the probes; they cost an extra dense solve).
    pub health_stride: usize,
    /// Snapshot every N steps into a per-tenant in-memory
    /// [`tbmd::SnapshotBackend`] (0 disables).
    pub checkpoint_interval: usize,
    /// Snapshots retained by the in-memory store.
    pub retain: usize,
    /// Explicit starting state overriding the configured system build —
    /// how a campaign runner submits defect cells, strained boxes, or the
    /// carried endpoint of a previous protocol segment. `None` builds the
    /// structure from the config as usual. Not expressible over the wire
    /// protocol; in-process callers only.
    pub initial: Option<InitialState>,
}

impl JobSpec {
    /// A job with the service defaults: one leased thread, no health probes,
    /// no checkpointing.
    pub fn new(name: impl Into<String>, config: SimulationConfig) -> JobSpec {
        JobSpec {
            name: name.into(),
            config,
            quantum: 8,
            threads: 1,
            health_stride: 0,
            checkpoint_interval: 0,
            retain: 3,
            initial: None,
        }
    }

    /// Run from an explicit [`InitialState`] instead of building the
    /// configured system.
    pub fn with_initial(mut self, initial: InitialState) -> JobSpec {
        self.initial = Some(initial);
        self
    }
}

/// Answer format for the `stats` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// One compact JSON object (`{"stats":true}`).
    Json,
    /// Prometheus-style text exposition (`{"stats":"prometheus"}`).
    Prometheus,
}

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Run a trajectory job.
    Job(Box<JobSpec>),
    /// Report live telemetry for the daemon.
    Stats(StatsFormat),
    /// Finish the running jobs, then exit the daemon.
    Shutdown,
}

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

/// Parse one newline-delimited JSON request line.
///
/// Job lines look like
/// `{"job":"a","system":"si","reps":1,"protocol":"nve","temperature_k":300,"steps":50}`
/// — see the README quick-start for the full field list. `{"stats":true}`
/// asks for a live telemetry snapshot (`{"stats":"prometheus"}` for the
/// text exposition), `{"shutdown":true}` asks the daemon to drain and
/// exit.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let count = |key| SimulationConfig::parse_count(&v, key);
    if v.get("shutdown").and_then(|b| b.as_bool()) == Some(true) {
        return Ok(Request::Shutdown);
    }
    match v.get("stats") {
        Some(JsonValue::Bool(true)) => return Ok(Request::Stats(StatsFormat::Json)),
        Some(JsonValue::String(s)) if s == "prometheus" => {
            return Ok(Request::Stats(StatsFormat::Prometheus));
        }
        Some(JsonValue::String(s)) if s == "json" => {
            return Ok(Request::Stats(StatsFormat::Json));
        }
        Some(other) => return Err(format!("unknown stats format {other:?}")),
        None => {}
    }
    let name = v
        .get("job")
        .and_then(|s| s.as_str())
        .ok_or_else(|| "request needs a \"job\" name".to_string())?
        .to_string();
    let system = SystemSpec::parse(
        v.get("system").and_then(|s| s.as_str()).unwrap_or("si"),
        count("reps")?.unwrap_or(1),
    )?;
    let engine = EngineKind::parse(
        v.get("engine").and_then(|s| s.as_str()).unwrap_or("serial"),
        count("ranks")?,
    )?;
    engine.check_ranks(system.n_atoms())?;
    let temperature_k = num(&v, "temperature_k").unwrap_or(300.0);
    let steps = count("steps")?.unwrap_or(100);
    let dt_fs = num(&v, "dt_fs").unwrap_or(1.0);
    let protocol = match v.get("protocol").and_then(|s| s.as_str()).unwrap_or("nve") {
        "nve" => Protocol::Nve {
            temperature_k,
            steps,
            dt_fs,
        },
        "nvt" => Protocol::Nvt {
            temperature_k,
            steps,
            dt_fs,
            tau_fs: num(&v, "tau_fs").unwrap_or(50.0),
        },
        "relax" => Protocol::Relax {
            force_tolerance: num(&v, "force_tolerance").unwrap_or(2e-2),
            max_iterations: count("max_iterations")?.unwrap_or(200),
        },
        other => return Err(format!("unknown protocol {other:?}")),
    };
    let config = SimulationConfig {
        system,
        engine,
        protocol,
        electronic_kt: num(&v, "electronic_kt").unwrap_or(0.1),
        perturb: num(&v, "perturb").unwrap_or(0.0),
        seed: SimulationConfig::parse_seed(v.get("seed"))?,
        record_stride: 0,
    };
    config.validate()?;
    let mut spec = JobSpec::new(name, config);
    if let Some(q) = count("quantum")? {
        spec.quantum = q.max(1);
    }
    if let Some(t) = count("threads")? {
        spec.threads = t.max(1);
    }
    if let Some(h) = count("health_stride")? {
        spec.health_stride = h;
    }
    if let Some(c) = count("checkpoint_interval")? {
        spec.checkpoint_interval = c;
    }
    if let Some(r) = count("retain")? {
        spec.retain = r;
    }
    Ok(Request::Job(Box::new(spec)))
}

/// A cloneable handle over a client sink, so the recorder streams through
/// it while the scheduler keeps a second handle for error lines.
#[derive(Clone)]
struct SharedSink(Arc<Mutex<Box<dyn Write + Send>>>);

impl SharedSink {
    fn lock(&self) -> io::Result<MutexGuard<'_, Box<dyn Write + Send>>> {
        self.0.lock().map_err(|_| io::Error::other("sink poisoned"))
    }

    /// Write one line and hand it to the client now.
    fn line(&self, text: &str) -> io::Result<()> {
        let mut w = self.lock()?;
        w.write_all(text.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.lock()?.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.lock()?.flush()
    }
}

/// Lifecycle of one tenant in the [`ServeStats`] ledger: queued until it
/// holds a lease, active until it retires.
const STATE_QUEUED: u8 = 0;
const STATE_ACTIVE: u8 = 1;
const STATE_RETIRED: u8 = 2;

struct TenantEntry {
    name: String,
    sink: ScopedSink,
    state: AtomicU8,
    queue_wait_ns: AtomicU64,
    /// The job's `threads`.
    threads_requested: usize,
    /// The width of the lease admission granted (0 while queued, and for a
    /// lease of the unlimited budget, which is unconstrained).
    threads_leased: AtomicUsize,
}

impl TenantEntry {
    fn state_name(&self) -> &'static str {
        match self.state.load(Ordering::Relaxed) {
            STATE_QUEUED => "queued",
            STATE_ACTIVE => "active",
            _ => "retired",
        }
    }
}

struct StatsInner {
    /// Everything the scheduler thread records, all tenants included.
    root: ScopedSink,
    tenants: Mutex<Vec<Arc<TenantEntry>>>,
    /// The budget the multiplexer serving this handle leases from.
    budget: Budget,
}

/// Cloneable live-telemetry handle over one [`Multiplexer`]. Any thread
/// may render a snapshot while the scheduler runs — the daemon's client
/// threads answer the `stats` verb through this without touching the
/// scheduler. The ledger keeps one entry per submitted job for the
/// process lifetime (names, states and one [`ScopedSink`] each), which is
/// the right trade for a daemon serving thousands — not millions — of
/// jobs between restarts.
#[derive(Clone)]
pub struct ServeStats(Arc<StatsInner>);

impl ServeStats {
    /// A handle over `budget`: the multiplexer it is given to leases from
    /// it, and the `budget` block of the stats verb reads it.
    pub fn new(budget: Budget) -> ServeStats {
        ServeStats::with_root(ScopedSink::new("global"), budget)
    }

    /// A handle whose root scope also records a span timeline: every tenant
    /// slice of the multiplexer it is given to, with the step and phase
    /// spans nested inside, read back with [`ServeStats::export_chrome`].
    pub fn with_timeline(budget: Budget) -> ServeStats {
        ServeStats::with_root(ScopedSink::with_timeline("global"), budget)
    }

    fn with_root(root: ScopedSink, budget: Budget) -> ServeStats {
        ServeStats(Arc::new(StatsInner {
            root,
            tenants: Mutex::new(Vec::new()),
            budget,
        }))
    }

    /// The root scope's timeline as Chrome `trace_event` JSON (no events
    /// unless made by [`ServeStats::with_timeline`]).
    pub fn export_chrome(&self) -> JsonValue {
        self.0.root.export_chrome()
    }

    fn register(&self, spec: &JobSpec) -> Arc<TenantEntry> {
        let entry = Arc::new(TenantEntry {
            name: spec.name.clone(),
            sink: ScopedSink::new(&spec.name),
            state: AtomicU8::new(STATE_QUEUED),
            queue_wait_ns: AtomicU64::new(0),
            threads_requested: spec.threads,
            threads_leased: AtomicUsize::new(0),
        });
        if let Ok(mut tenants) = self.0.tenants.lock() {
            tenants.push(Arc::clone(&entry));
        }
        entry
    }

    /// The scoped telemetry sink of the newest tenant registered under
    /// `name`, if any — how an in-process driver (e.g. the campaign runner)
    /// reads a finished job's latency histograms back out without parsing
    /// the `stats` verb.
    pub fn tenant_sink(&self, name: &str) -> Option<ScopedSink> {
        let tenants = self.0.tenants.lock().ok()?;
        tenants
            .iter()
            .rev()
            .find(|t| t.name == name)
            .map(|t| t.sink.clone())
    }

    /// Jobs currently waiting for admission.
    pub fn queue_depth(&self) -> usize {
        self.counts()[0]
    }

    /// The budget's total, leased threads and high-water mark.
    fn budget_threads(&self) -> [(&'static str, usize); 3] {
        let budget = &self.0.budget;
        [
            ("total", budget.total()),
            ("leased", budget.leased()),
            ("high_water", budget.high_water()),
        ]
    }

    /// Tenants queued, active and retired.
    fn counts(&self) -> [usize; 3] {
        let mut counts = [0; 3];
        if let Ok(tenants) = self.0.tenants.lock() {
            for t in tenants.iter() {
                counts[usize::from(t.state.load(Ordering::Relaxed))] += 1;
            }
        }
        counts
    }

    /// The live snapshot as one JSON object: queue/lease saturation, this
    /// multiplexer's totals (`global`), plus per-tenant state, admission
    /// wait, the threads the job asked for and the width its lease got
    /// (`threads_requested`, `threads_leased`: 0 while queued and under the
    /// unlimited budget), latency histograms (p50/p90/p99 per non-empty
    /// distribution) and the same per rank of a distributed tenant
    /// (`ranks`).
    pub fn to_json(&self) -> JsonValue {
        let [queued, active, retired] = self.counts();
        let mut out = JsonValue::object();
        out.set("type", "stats")
            .set("queue_depth", queued as f64)
            .set("queued", queued as f64)
            .set("active", active as f64)
            .set("retired", retired as f64);
        let mut budget = JsonValue::object();
        for (kind, n) in self.budget_threads() {
            budget.set(kind, n as f64);
        }
        out.set("budget", budget);
        out.set("global", self.0.root.histograms().to_json());
        let mut tenants = Vec::new();
        if let Ok(entries) = self.0.tenants.lock() {
            for entry in entries.iter() {
                let mut t = JsonValue::object();
                let hists = entry.sink.histograms();
                let mut ranks = JsonValue::object();
                for rank in entry.sink.ranks() {
                    ranks.set(rank.label(), rank.histograms().to_json());
                }
                t.set("name", entry.name.as_str())
                    .set("state", entry.state_name())
                    .set(
                        "queue_wait_ms",
                        entry.queue_wait_ns.load(Ordering::Relaxed) as f64 * 1e-6,
                    )
                    .set("threads_requested", entry.threads_requested as f64)
                    .set(
                        "threads_leased",
                        entry.threads_leased.load(Ordering::Relaxed) as f64,
                    )
                    .set("steps", hists.hist(Hist::Step).count() as f64)
                    .set("histograms", hists.to_json())
                    .set("ranks", ranks);
                tenants.push(t);
            }
        }
        out.set("tenants", JsonValue::Array(tenants));
        out
    }

    /// Prometheus-style text exposition: gauges for saturation, the
    /// per-tenant thread gauge (`kind="requested"` / `kind="leased"`), one
    /// summary family per latency histogram labelled `scope="global"`,
    /// `tenant=…`, or `tenant=…,rank=…`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let counts = self.counts();
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE tbmd_queue_depth gauge");
        let _ = writeln!(out, "tbmd_queue_depth {}", counts[0]);
        let _ = writeln!(out, "# TYPE tbmd_tenants gauge");
        for (state, n) in ["queued", "active", "retired"].iter().zip(counts) {
            let _ = writeln!(out, "tbmd_tenants{{state=\"{state}\"}} {n}");
        }
        let _ = writeln!(out, "# TYPE tbmd_budget_threads gauge");
        for (kind, n) in self.budget_threads() {
            let _ = writeln!(out, "tbmd_budget_threads{{kind=\"{kind}\"}} {n}");
        }
        if let Ok(entries) = self.0.tenants.lock() {
            let _ = writeln!(out, "# TYPE tbmd_tenant_threads gauge");
            for entry in entries.iter() {
                let leased = entry.threads_leased.load(Ordering::Relaxed);
                for (kind, n) in [("requested", entry.threads_requested), ("leased", leased)] {
                    let tenant = &entry.name;
                    let _ = writeln!(
                        out,
                        "tbmd_tenant_threads{{tenant=\"{tenant}\",kind=\"{kind}\"}} {n}"
                    );
                }
            }
        }
        let mut write_summary = |labels: &str, hists: &tbmd_trace::HistogramSet| {
            for h in Hist::ALL {
                let snap = hists.hist(h);
                if snap.is_empty() {
                    continue;
                }
                let family = format!("tbmd_{}_seconds", h.name().trim_end_matches("_ns"));
                let _ = writeln!(out, "# TYPE {family} summary");
                for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    if let Some(v) = snap.percentile_ns(q) {
                        let _ =
                            writeln!(out, "{family}{{{labels},quantile=\"{tag}\"}} {}", v * 1e-9);
                    }
                }
                let _ = writeln!(
                    out,
                    "{family}_sum{{{labels}}} {}",
                    snap.sum_ns as f64 * 1e-9
                );
                let _ = writeln!(out, "{family}_count{{{labels}}} {}", snap.count());
            }
        };
        write_summary("scope=\"global\"", &self.0.root.histograms());
        if let Ok(entries) = self.0.tenants.lock() {
            for entry in entries.iter() {
                let tenant = format!("tenant=\"{}\"", entry.name);
                write_summary(&tenant, &entry.sink.histograms());
                for rank in entry.sink.ranks() {
                    let labels = format!("{tenant},rank=\"{}\"", rank.label());
                    write_summary(&labels, &rank.histograms());
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// How long a thread runs one tenant before it takes the next: whole
/// [`Session::step`]s until this much wall time has passed, at least one.
/// It is the wall time of the 8-step quantum it replaced at the ≈ 100 µs of
/// core time per Si-8 step of `si8-serve-mix` in a fast hour of a 2-vCPU KVM
/// host (19–20 k steps/s on two threads), which keeps that mix's time to
/// first progress level; 1.1 ms (8 steps in a slow hour) read 1.3× there.
const SLICE: Duration = Duration::from_micros(800);

/// One admitted job: its session, its stream, its telemetry ledger entry,
/// and how its last slice ended (`Ok(Running)` until one ends the run).
struct Tenant {
    name: String,
    session: Session<'static>,
    sink: SharedSink,
    entry: Arc<TenantEntry>,
    queue_wait: Duration,
    status: Result<SessionStatus, String>,
}

impl Tenant {
    /// Whole MD steps (at least one) until [`SLICE`] has passed since the
    /// slice `began` — a build of the session included — or the run ends. A
    /// `late` slice, begun after its tick's deadline, also ends once no slice
    /// begun before the deadline is running (`early` counts them). A panic
    /// ends the slice like an error does.
    fn run_slice(&mut self, began: Instant, late: bool, early: &AtomicUsize) {
        // One span named after the tenant's scope (its steps nest under it
        // in a timeline) feeds the root's histogram; the tenant's gets the
        // same sample.
        let slice = tbmd_trace::interval(Hist::Quantum, &self.entry.sink);
        let session = &mut self.session;
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let status = session.step();
            let over = began.elapsed() >= SLICE || late && early.load(Ordering::Acquire) == 0;
            if over || !matches!(status, Ok(SessionStatus::Running)) {
                return status.map_err(|e| e.to_string());
            }
        }));
        let slice_ns = slice.finish().as_nanos() as u64;
        self.entry.sink.record_ns(Hist::Quantum, slice_ns);
        self.status = outcome.unwrap_or_else(|payload| Err(panicked(&*payload)));
    }
}

/// The error text of a caught panic (`panic!` makes a `&str` or a `String`).
fn panicked(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or(payload.downcast_ref::<&str>().copied());
    format!("tenant panicked: {}", text.unwrap_or("(no message)"))
}

/// One queued job: the spec, its stream, and its admission stopwatch.
struct Waiting {
    spec: JobSpec,
    sink: SharedSink,
    entry: Arc<TenantEntry>,
    queued_at: Instant,
}

impl Waiting {
    /// The job's session, with its stream, telemetry scope and lease. A
    /// failed or panicking build, or a spec built in code past the size
    /// limits `parse_request` enforces, makes the job's report instead.
    fn build(self: Box<Self>, lease: ComputeLease) -> Result<Box<Tenant>, Box<TenantReport>> {
        let waiting = *self;
        let (spec, sink, entry) = (waiting.spec, waiting.sink, waiting.entry);
        let name = spec.name.clone();
        let queue_wait = Duration::from_nanos(entry.queue_wait_ns.load(Ordering::Relaxed));
        let build = || {
            if spec.initial.is_none() {
                let atoms = spec.config.system.check_size()?;
                spec.config.engine.check_ranks(atoms)?;
            }
            let mut manifest = run_manifest(&spec.config);
            if let Some(initial) = spec.initial.as_ref() {
                // The manifest advertises what actually runs, not what the
                // config would have built.
                manifest.n_atoms = initial.structure.n_atoms();
            }
            let recorder = RunRecorder::to_writer(sink.clone(), &manifest)
                .map_err(|e| format!("recorder: {e}"))?;
            let options = RecorderConfig {
                health_stride: spec.health_stride,
                checkpoint: None,
            };
            let mut builder = SessionBuilder::new(spec.config)
                .record_owned(recorder, options)
                .telemetry(entry.sink.clone())
                .lease(lease);
            if let Some(initial) = spec.initial {
                builder = builder.initial_state(initial);
            }
            if spec.checkpoint_interval > 0 {
                let store = CheckpointStore::in_memory(spec.retain);
                builder = builder.checkpoint_store(store, spec.checkpoint_interval);
            }
            builder.build().map_err(|e| e.to_string())
        };
        match catch_unwind(AssertUnwindSafe(build)).unwrap_or_else(|p| Err(panicked(&*p))) {
            Ok(session) => Ok(Box::new(Tenant {
                name,
                session,
                sink,
                entry,
                queue_wait,
                status: Ok(SessionStatus::Running),
            })),
            Err(detail) => {
                entry.state.store(STATE_RETIRED, Ordering::Relaxed);
                Err(Box::new(TenantReport {
                    outcome: Err(stream_error(&sink, &name, detail, queue_wait)),
                    name,
                    steps: 0,
                    evaluations: 0,
                    alloc_events: 0,
                    queue_wait,
                }))
            }
        }
    }
}

/// An entry of the run queue: a leased job with no session yet, or a tenant.
enum Ready {
    Admitted(Box<Waiting>, ComputeLease),
    Built(Box<Tenant>),
}

/// Everything behind the run queue's lock.
#[derive(Default)]
struct Queue {
    /// Jobs waiting for a lease, in submission order.
    waiting: VecDeque<Waiting>,
    /// The run queue: admitted jobs in admission order, then built tenants.
    ready: VecDeque<Ready>,
    reports: Vec<TenantReport>,
}

impl Queue {
    /// Admit waiting jobs while the budget grants leases, in submission
    /// order (no overtaking: one oversized job at the head blocks the queue
    /// rather than starving forever), each leasing the width its system can
    /// use ([`EngineKind::useful_threads`]) and running before any built
    /// tenant. Returns the length of the run queue.
    fn admit(&mut self, stats: &ServeStats) -> usize {
        while let Some(Waiting { spec, .. }) = self.waiting.front() {
            let (config, initial) = (&spec.config, spec.initial.as_ref());
            let initial = initial.map(|state| &state.structure);
            let width = config
                .engine
                .useful_threads(&config.system, initial, spec.threads);
            let Some(lease) = stats.0.budget.lease(width) else {
                break;
            };
            let waiting = self.waiting.pop_front().expect("front just probed");
            tbmd_trace::set_gauge(Gauge::QueueDepth, self.waiting.len() as f64);
            // The admission wait, attributed to the root scope (entered)
            // and to the tenant (written directly: nobody has entered it).
            let (entry, wait_ns) = (&waiting.entry, waiting.queued_at.elapsed().as_nanos());
            tbmd_trace::record_ns(Hist::AdmissionWait, wait_ns as u64);
            entry.sink.record_ns(Hist::AdmissionWait, wait_ns as u64);
            entry.queue_wait_ns.store(wait_ns as u64, Ordering::Relaxed);
            let threads = lease.threads();
            entry.threads_leased.store(threads, Ordering::Relaxed);
            entry.state.store(STATE_ACTIVE, Ordering::Relaxed);
            let built = self.ready.iter().position(|r| matches!(r, Ready::Built(_)));
            let at = built.unwrap_or(self.ready.len());
            self.ready
                .insert(at, Ready::Admitted(Box::new(waiting), lease));
        }
        self.ready.len()
    }
}

/// How one job ended.
#[derive(Debug)]
pub struct TenantReport {
    pub name: String,
    /// MD steps the session executed.
    pub steps: usize,
    /// Force/energy evaluations across the run.
    pub evaluations: u64,
    /// Workspace growth events attributed to this tenant alone.
    pub alloc_events: u64,
    /// Time the job waited in the admission queue before its lease.
    pub queue_wait: Duration,
    /// The summary on success, the error text otherwise.
    pub outcome: Result<SimulationSummary, String>,
}

/// Scheduler over many [`tbmd::Session`]s under one compute [`Budget`],
/// through one run queue (see the crate docs). Submissions past the budget
/// wait for a lease; each retiring tenant refunds its own.
pub struct Multiplexer {
    queue: Mutex<Queue>,
    stats: ServeStats,
}

impl Default for Multiplexer {
    fn default() -> Multiplexer {
        Multiplexer::new()
    }
}

impl Multiplexer {
    /// A multiplexer leasing from the process-default budget
    /// ([`Budget::process_default`]).
    pub fn new() -> Multiplexer {
        Multiplexer::with_stats(ServeStats::new(Budget::process_default()))
    }

    /// A multiplexer leasing from the budget of a caller-held [`ServeStats`]
    /// handle and reporting through it — what the daemon uses so client
    /// threads can answer the `stats` verb.
    pub fn with_stats(stats: ServeStats) -> Multiplexer {
        Multiplexer {
            queue: Mutex::default(),
            stats,
        }
    }

    /// A live-telemetry handle onto this multiplexer.
    pub fn stats(&self) -> ServeStats {
        self.stats.clone()
    }

    /// The queue's lock, held only to move jobs and leases — never across a
    /// build, a step or a write, so no panic can poison it.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue a job; its JSONL record stream goes to `sink`. Admission (and
    /// the budget check) happens in the next [`Multiplexer::tick`].
    pub fn submit(&mut self, spec: JobSpec, sink: impl Write + Send + 'static) {
        let _root = self.stats.0.root.enter();
        let sink = SharedSink(Arc::new(
            Mutex::new(Box::new(sink) as Box<dyn Write + Send>),
        ));
        let entry = self.stats.register(&spec);
        let mut queue = self.queue();
        queue.waiting.push_back(Waiting {
            spec,
            sink,
            entry,
            queued_at: Instant::now(),
        });
        tbmd_trace::set_gauge(Gauge::QueueDepth, queue.waiting.len() as f64);
    }

    /// Jobs holding a lease.
    pub fn active(&self) -> usize {
        self.queue().ready.len()
    }

    /// Jobs waiting for a lease.
    pub fn queued(&self) -> usize {
        self.queue().waiting.len()
    }

    /// Serve one time slice: admit what the budget allows, then let up to
    /// one team thread per runnable tenant take tenants from the run queue
    /// until the tick is over — a lone tenant on the calling thread, outside
    /// a parallel region, so that it fans out at its lease's width. Returns
    /// `true` while any job is active or queued.
    pub fn tick(&mut self) -> bool {
        let deadline = Instant::now() + SLICE;
        let root = self.stats.0.root.enter();
        let ready = self.queue().admit(&self.stats);
        drop(root);
        // No root guard on this thread while the team serves: each serving
        // thread enters the root itself, this one included.
        let (this, early) = (&*self, AtomicUsize::new(0));
        match ready.min(team::size()) {
            0 | 1 => this.serve(deadline, &early),
            threads => team::run(threads, &|_| this.serve(deadline, &early)),
        }
        self.active() + self.queued() > 0
    }

    /// One thread's share of a tick: take the next tenant (building its
    /// session if it has none), run a slice of it, put it back or retire it,
    /// until the queue is empty or the tick is over — at `deadline`, unless a
    /// peer is still inside a slice begun before it (`early` counts those).
    /// Only the pop and the push hold the queue's lock.
    fn serve(&self, deadline: Instant, early: &AtomicUsize) {
        let _root = self.stats.0.root.enter();
        loop {
            let (next, began) = {
                let mut queue = self.queue();
                queue.admit(&self.stats);
                let Some(next) = queue.ready.pop_front() else {
                    return;
                };
                let began = Instant::now();
                early.fetch_add(usize::from(began < deadline), Ordering::AcqRel);
                (next, began)
            };
            let late = began >= deadline;
            let mut tenant = match next {
                Ready::Admitted(waiting, lease) => waiting.build(lease),
                Ready::Built(tenant) => Ok(tenant),
            };
            if let Ok(tenant) = &mut tenant {
                tenant.run_slice(began, late, early);
            }
            early.fetch_sub(usize::from(!late), Ordering::AcqRel);
            match tenant {
                Ok(tenant) if matches!(tenant.status, Ok(SessionStatus::Running)) => {
                    self.queue().ready.push_back(Ready::Built(tenant));
                }
                Ok(tenant) => {
                    let report = retire(*tenant);
                    self.queue().reports.push(report);
                }
                Err(report) => self.queue().reports.push(*report),
            }
            if Instant::now() >= deadline && early.load(Ordering::Acquire) == 0 {
                return;
            }
        }
    }

    /// Run the scheduling loop until every submitted job has finished, then
    /// hand back the reports.
    pub fn drain(&mut self) -> Vec<TenantReport> {
        while self.tick() {}
        self.take_reports()
    }

    /// Hand back the reports of jobs finished so far, in completion order,
    /// without waiting for the rest — what an incremental driver polls
    /// between [`Multiplexer::tick`] calls to chain follow-up submissions
    /// (e.g. the next quench segment) off completed ones while other jobs
    /// are still running.
    pub fn take_reports(&mut self) -> Vec<TenantReport> {
        std::mem::take(&mut self.queue().reports)
    }
}

/// Finalize one tenant: emit the summary (or error) line, refund the
/// lease, make the report. A tenant whose stream failed — a step line
/// (the session's error) or the closing summary — retires with an error
/// status, like one whose engine failed or panicked.
fn retire(mut tenant: Tenant) -> TenantReport {
    let (error, session) = (tenant.status.err(), &mut tenant.session);
    let (steps, evaluations) = (session.steps_done(), session.evaluations());
    let alloc_events = session.large_alloc_events();
    let summary = session.take_summary();
    tenant.entry.state.store(STATE_RETIRED, Ordering::Relaxed);
    // Refund before the recorder flushes, so a queued job can be
    // admitted by the next thread to reach the queue.
    drop(tenant.session.take_lease());
    // Only a finished run closes its stream with the summary line; a
    // failed one drops the recorder unfinished (buffered lines still
    // flush), so no misleading success summary goes out.
    let recorder = tenant.session.take_recorder();
    let outcome = match (error, summary) {
        (Some(detail), _) => Err(detail),
        (None, Some(summary)) => match recorder.map(RunRecorder::finish) {
            Some(Err(e)) => Err(format!("recorder: {e}")),
            _ => Ok(summary),
        },
        (None, None) => Err("session finished without a summary".to_string()),
    };
    let stream = |detail| stream_error(&tenant.sink, &tenant.name, detail, tenant.queue_wait);
    TenantReport {
        outcome: outcome.map_err(stream),
        name: tenant.name,
        steps,
        evaluations,
        alloc_events,
        queue_wait: tenant.queue_wait,
    }
}

/// Stream `detail` to the job's client as an error line and return it for
/// the report — noting there when the client could not be reached either.
fn stream_error(sink: &SharedSink, job: &str, detail: String, queue_wait: Duration) -> String {
    match sink.line(&error_line(job, &detail, queue_wait)) {
        Ok(()) => detail,
        Err(e) => format!("{detail} (error line not delivered: {e})"),
    }
}

fn error_line(job: &str, detail: &str, queue_wait: Duration) -> String {
    let mut line = JsonValue::object();
    line.set("type", "error")
        .set("job", job)
        .set("detail", detail)
        .set("queue_wait_ms", queue_wait.as_secs_f64() * 1e3);
    line.to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Vec<u8> sink whose contents outlive the recorder.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines(buf: &Buf) -> Vec<JsonValue> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|l| JsonValue::parse(l).expect("valid JSONL"))
            .collect()
    }

    #[test]
    fn parses_job_line_with_defaults() {
        let r = parse_request(r#"{"job":"a","steps":12,"seed":7}"#).unwrap();
        let Request::Job(spec) = r else {
            panic!("expected a job");
        };
        assert_eq!(spec.name, "a");
        assert_eq!(spec.config.seed, 7);
        assert!(matches!(
            spec.config.protocol,
            Protocol::Nve { steps: 12, .. }
        ));
        assert!(matches!(
            parse_request(r#"{"shutdown":true}"#).unwrap(),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_request(r#"{"stats":true}"#).unwrap(),
            Request::Stats(StatsFormat::Json)
        ));
        assert!(matches!(
            parse_request(r#"{"stats":"prometheus"}"#).unwrap(),
            Request::Stats(StatsFormat::Prometheus)
        ));
        assert!(parse_request(r#"{"stats":"csv"}"#).is_err());
        assert!(parse_request(r#"{"steps":3}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn multiplexed_tenants_match_standalone_runs() {
        let mut ca = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 10);
        ca.seed = 7;
        let mut cb = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 420.0, 14);
        cb.seed = 8;
        let standalone = |c| SessionBuilder::new(c).build().unwrap().run().unwrap();
        let (ra, rb) = (standalone(ca), standalone(cb));

        let (ba, bb) = (Buf::default(), Buf::default());
        let mut mux = Multiplexer::new();
        mux.submit(JobSpec::new("a", ca), ba.clone());
        mux.submit(JobSpec::new("b", cb), bb.clone());
        let mut reports = mux.drain();
        reports.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(reports.len(), 2);
        let qa = reports[0].outcome.as_ref().expect("job a ok");
        let qb = reports[1].outcome.as_ref().expect("job b ok");
        assert_eq!(
            qa.final_total_energy.to_bits(),
            ra.final_total_energy.to_bits()
        );
        assert_eq!(
            qb.final_total_energy.to_bits(),
            rb.final_total_energy.to_bits()
        );
        assert_eq!(reports[0].steps, 10);
        assert_eq!(reports[1].steps, 14);

        // Each tenant's stream: manifest, one step line per MD step, summary.
        for (buf, steps) in [(&ba, 10usize), (&bb, 14)] {
            let ls = lines(buf);
            assert_eq!(ls[0].get("type").unwrap().as_str(), Some("manifest"));
            assert_eq!(
                ls.last().unwrap().get("type").unwrap().as_str(),
                Some("summary")
            );
            let n_steps = ls
                .iter()
                .filter(|l| l.get("type").unwrap().as_str() == Some("step"))
                .count();
            assert_eq!(n_steps, steps);
        }

        // The stats ledger saw both jobs through to retirement, with
        // per-tenant step-latency histograms.
        let stats = mux.stats().to_json();
        assert_eq!(stats.get("retired").unwrap().as_f64(), Some(2.0));
        let tenants = stats.get("tenants").unwrap().as_array().unwrap();
        assert_eq!(tenants.len(), 2);
        for (t, steps) in tenants.iter().zip([10.0, 14.0]) {
            assert_eq!(t.get("state").unwrap().as_str(), Some("retired"));
            assert_eq!(t.get("steps").unwrap().as_f64(), Some(steps));
            let step_hist = t.get("histograms").unwrap().get("step").unwrap();
            assert_eq!(step_hist.get("count").unwrap().as_f64(), Some(steps));
            assert!(step_hist.get("p99_ms").unwrap().as_f64().unwrap() > 0.0);
        }

        // The text exposition carries the same families.
        let prom = mux.stats().to_prometheus();
        assert!(prom.contains("tbmd_queue_depth 0"));
        assert!(prom.contains("tbmd_step_seconds{tenant=\"a\",quantile=\"0.99\"}"));
        assert!(prom.contains("tbmd_quantum_seconds{tenant=\"b\",quantile=\"0.5\"}"));
        assert!(prom.ends_with("# EOF\n"));
    }

    #[test]
    fn error_tenant_reports_and_streams_an_error_line() {
        // Exercise the admission error path directly: a recorder whose
        // sink always fails.
        struct FailSink;
        impl Write for FailSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("sink closed"))
            }
        }
        let config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 2);
        let mut mux = Multiplexer::new();
        mux.submit(JobSpec::new("bad", config), FailSink);
        let reports = mux.drain();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].outcome.is_err(), "{:?}", reports[0].outcome);
        // The failed job still shows up retired in the stats ledger.
        let stats = mux.stats().to_json();
        let tenants = stats.get("tenants").unwrap().as_array().unwrap();
        assert_eq!(tenants[0].get("state").unwrap().as_str(), Some("retired"));
    }

    #[test]
    fn error_line_carries_queue_wait() {
        let line = error_line("slow", "boom", Duration::from_millis(250));
        let v = JsonValue::parse(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("error"));
        let wait = v.get("queue_wait_ms").unwrap().as_f64().unwrap();
        assert!((wait - 250.0).abs() < 1e-9);
    }
}

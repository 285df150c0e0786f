//! The trace sink: a process-global registry of atomic counters, per-phase
//! nanosecond accumulators, gauges and latency [`Histogram`]s, plus the
//! RAII span guard and the scoped-sink stack.
//!
//! Layout follows the `log`-crate pattern: one relaxed atomic load guards
//! every hook, so with the default [`TraceSink::disabled()`] installed and
//! no scope entered each instrumentation point costs that load and performs
//! no allocation, locking, or syscall. Installing a collecting sink sets
//! the word's low bit and routes events into an `Arc`'d block of atomics
//! shared with every [`handle`] the caller took; entering a scope counts
//! into the word's upper bits.
//!
//! # Scoped sinks
//!
//! A [`ScopedSink`] is a second, labelled block of the same atomics. While
//! a thread holds its [`ScopeGuard`] (from [`ScopedSink::enter`]), every
//! event that thread records lands in the scoped block — *in addition to*
//! the global registry when one is installed, and on its own when none is:
//! an entered scope is sufficient to observe, which is how tests and
//! benches watch their own run without touching process-global state.
//! Guards nest (a tenant scope around a rank scope attributes events to
//! both), giving per-tenant and per-rank breakdowns without any engine code
//! knowing scopes exist. The stack is thread-local: a scope sees the events
//! recorded by threads that entered it — the thread driving a tenant's
//! session, and the VMP rank threads that session launches, which re-enter
//! their launcher's scopes ([`entered_scopes`]).

use crate::hist::{Hist, Histogram, HistogramSet};
use crate::metrics::{Counter, Gauge, Phase, TraceSnapshot};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Who is listening, in one word: bit 0 is "a collecting global sink is
/// installed", the rest counts entered scopes over all threads (in units
/// of [`SCOPE_ENTERED`]). Zero — nothing installed, nothing entered — is
/// the fast path every hook leaves on.
static LIVE: AtomicUsize = AtomicUsize::new(0);
const GLOBAL_INSTALLED: usize = 1;
const SCOPE_ENTERED: usize = 2;
static GLOBAL: RwLock<Option<Arc<Shared>>> = RwLock::new(None);

thread_local! {
    /// Scoped-sink stack for this thread; events fan out to every entry.
    static SCOPES: RefCell<Vec<ScopedSink>> = const { RefCell::new(Vec::new()) };
}

struct Shared {
    counters: [AtomicU64; Counter::COUNT],
    phase_ns: [AtomicU64; Phase::COUNT],
    /// f64 bit patterns; last write wins.
    gauges: [AtomicU64; Gauge::COUNT],
    hists: [Histogram; Hist::COUNT],
}

impl Default for Shared {
    fn default() -> Shared {
        Shared {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl Shared {
    fn snapshot(&self) -> TraceSnapshot {
        let mut snap = TraceSnapshot::default();
        for (slot, atom) in snap.counters.iter_mut().zip(&self.counters) {
            *slot = atom.load(Ordering::Relaxed);
        }
        for (slot, atom) in snap.phase_ns.iter_mut().zip(&self.phase_ns) {
            *slot = atom.load(Ordering::Relaxed);
        }
        for (slot, atom) in snap.gauges.iter_mut().zip(&self.gauges) {
            *slot = f64::from_bits(atom.load(Ordering::Relaxed));
        }
        snap
    }

    fn hist_snapshot(&self) -> HistogramSet {
        HistogramSet {
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
        }
    }

    fn reset(&self) {
        for atom in self.counters.iter().chain(&self.phase_ns) {
            atom.store(0, Ordering::Relaxed);
        }
        for atom in &self.gauges {
            atom.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for hist in &self.hists {
            hist.reset();
        }
    }
}

/// A handle on a metrics registry. Cloning shares the underlying atomics;
/// a disabled sink carries no storage at all.
#[derive(Clone, Default)]
pub struct TraceSink {
    shared: Option<Arc<Shared>>,
}

impl TraceSink {
    /// The no-op sink: every hook through it (or through the globals once
    /// installed) reduces to a branch on one relaxed atomic load.
    pub fn disabled() -> TraceSink {
        TraceSink { shared: None }
    }

    /// A fresh collecting registry, all values zero.
    pub fn collecting() -> TraceSink {
        TraceSink {
            shared: Some(Arc::new(Shared::default())),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Add to a monotonic counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(shared) = &self.shared {
            shared.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add nanoseconds to a phase timer.
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        if let Some(shared) = &self.shared {
            shared.phase_ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Overwrite a gauge.
    pub fn set_gauge(&self, gauge: Gauge, value: f64) {
        if let Some(shared) = &self.shared {
            shared.gauges[gauge.index()].store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Record one nanosecond sample into a latency histogram.
    pub fn record_ns(&self, hist: Hist, ns: u64) {
        if let Some(shared) = &self.shared {
            shared.hists[hist.index()].record(ns);
        }
    }

    /// Copy out every counter/timer/gauge. All-zero for a disabled sink.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.shared {
            Some(shared) => shared.snapshot(),
            None => TraceSnapshot::default(),
        }
    }

    /// Copy out every latency histogram. All-empty for a disabled sink.
    pub fn histograms(&self) -> HistogramSet {
        match &self.shared {
            Some(shared) => shared.hist_snapshot(),
            None => HistogramSet::default(),
        }
    }

    /// Zero all counters, timers, gauges and histograms. Snapshot deltas
    /// across a reset saturate at zero; callers own that coordination.
    pub fn reset(&self) {
        if let Some(shared) = &self.shared {
            shared.reset();
        }
    }
}

/// A labelled metrics view: same storage layout as a collecting
/// [`TraceSink`], fed while a thread holds its [`ScopeGuard`] — whether or
/// not a global sink is installed.
#[derive(Clone)]
pub struct ScopedSink {
    label: Arc<str>,
    shared: Arc<Shared>,
}

impl ScopedSink {
    /// A fresh, empty scope with a display label (tenant name, `rank3`…).
    pub fn new(label: &str) -> ScopedSink {
        ScopedSink {
            label: Arc::from(label),
            shared: Arc::new(Shared::default()),
        }
    }

    /// The label this scope was created with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Push this scope onto the current thread's sink stack. Every event
    /// the thread records until the guard drops is mirrored here. Guards
    /// are strictly RAII (not `Send`), so the stack stays well-nested.
    pub fn enter(&self) -> ScopeGuard {
        SCOPES.with(|stack| stack.borrow_mut().push(self.clone()));
        LIVE.fetch_add(SCOPE_ENTERED, Ordering::SeqCst);
        ScopeGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Counter/timer/gauge totals attributed to this scope.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.shared.snapshot()
    }

    /// Latency histograms attributed to this scope.
    pub fn histograms(&self) -> HistogramSet {
        self.shared.hist_snapshot()
    }

    /// Record directly into this scope (no thread stack, no global),
    /// for attribution the recording thread cannot know — e.g. the serve
    /// scheduler stamping a tenant's admission wait.
    pub fn record_ns(&self, hist: Hist, ns: u64) {
        self.shared.hists[hist.index()].record(ns);
    }

    /// Add directly to one of this scope's counters (see
    /// [`ScopedSink::record_ns`]).
    pub fn add(&self, counter: Counter, n: u64) {
        self.shared.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Zero this scope's storage.
    pub fn reset(&self) {
        self.shared.reset();
    }
}

/// RAII guard for [`ScopedSink::enter`]; pops the scope on drop.
pub struct ScopeGuard {
    // Not Send: the guard must pop on the thread that pushed.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        LIVE.fetch_sub(SCOPE_ENTERED, Ordering::SeqCst);
        SCOPES.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The scopes the current thread has entered, outermost first — what a
/// worker thread re-enters to attribute its events to whoever launched it.
/// Empty (and allocation-free) when the thread has entered none.
pub fn entered_scopes() -> Vec<ScopedSink> {
    if LIVE.load(Ordering::Relaxed) < SCOPE_ENTERED {
        return Vec::new();
    }
    SCOPES.with(|stack| stack.borrow().clone())
}

/// Per-rank scoped sinks, created lazily the first time a VMP worker for
/// that rank id starts under a collecting sink.
static RANKS: RwLock<Vec<Option<ScopedSink>>> = RwLock::new(Vec::new());

/// Enter the scoped sink for VMP rank `rank` on the current thread
/// (creating it on first use). Returns `None` — at the cost of the usual
/// single atomic load — when no collecting sink is installed.
pub fn rank_scope(rank: usize) -> Option<ScopeGuard> {
    if !enabled() {
        return None;
    }
    if let Ok(ranks) = RANKS.read() {
        if let Some(Some(sink)) = ranks.get(rank) {
            return Some(sink.enter());
        }
    }
    let mut ranks = RANKS.write().ok()?;
    if ranks.len() <= rank {
        ranks.resize(rank + 1, None);
    }
    let sink = ranks[rank].get_or_insert_with(|| ScopedSink::new(&format!("rank{rank}")));
    Some(sink.enter())
}

/// Clone out every per-rank scoped sink created so far, in rank order.
pub fn rank_telemetry() -> Vec<ScopedSink> {
    RANKS
        .read()
        .map(|ranks| ranks.iter().flatten().cloned().collect())
        .unwrap_or_default()
}

/// Drop all per-rank scoped sinks (a new run starts attribution afresh).
pub fn reset_rank_telemetry() {
    if let Ok(mut ranks) = RANKS.write() {
        ranks.clear();
    }
}

/// Install `sink` as the process-global registry (replacing the previous
/// one). Handles already cloned from the old sink keep recording into the
/// old storage; the global hooks switch immediately.
pub fn install(sink: TraceSink) {
    let mut global = GLOBAL.write().expect("trace registry poisoned");
    if sink.is_enabled() {
        LIVE.fetch_or(GLOBAL_INSTALLED, Ordering::SeqCst);
    } else {
        LIVE.fetch_and(!GLOBAL_INSTALLED, Ordering::SeqCst);
    }
    *global = sink.shared;
}

/// Clone a handle on the currently installed sink (disabled if none).
pub fn handle() -> TraceSink {
    if !enabled() {
        return TraceSink::disabled();
    }
    TraceSink {
        shared: GLOBAL.read().expect("trace registry poisoned").clone(),
    }
}

/// Fast check: is a collecting *global* sink installed?
#[inline]
pub fn enabled() -> bool {
    LIVE.load(Ordering::Relaxed) & GLOBAL_INSTALLED != 0
}

/// Fast check: is anyone listening at all — a collecting global sink, or a
/// scope entered on some thread? Code that reads a clock only to record it
/// gates on this.
#[inline]
pub fn active() -> bool {
    LIVE.load(Ordering::Relaxed) != 0
}

/// Apply `f` to the global registry (when `global`) and every scope on
/// this thread's stack. One relaxed load and out when nothing is installed
/// and nothing entered.
#[inline]
fn dispatch(global: bool, f: impl Fn(&Shared)) {
    let live = LIVE.load(Ordering::Relaxed);
    if live == 0 {
        return;
    }
    if global && live & GLOBAL_INSTALLED != 0 {
        if let Some(shared) = GLOBAL.read().expect("trace registry poisoned").as_ref() {
            f(shared);
        }
    }
    if live >= SCOPE_ENTERED {
        SCOPES.with(|stack| {
            for scope in stack.borrow().iter() {
                f(&scope.shared);
            }
        });
    }
}

/// Add to a counter of every listener (no-op when nobody listens).
#[inline]
pub fn add(counter: Counter, n: u64) {
    dispatch(true, |s| {
        s.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    });
}

/// Add nanoseconds to a phase timer (no-op when nobody listens).
#[inline]
pub fn add_phase_ns(phase: Phase, ns: u64) {
    dispatch(true, |s| {
        s.phase_ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
    });
}

/// Overwrite a gauge (no-op when nobody listens).
#[inline]
pub fn set_gauge(gauge: Gauge, value: f64) {
    dispatch(true, |s| {
        s.gauges[gauge.index()].store(value.to_bits(), Ordering::Relaxed);
    });
}

/// Record one nanosecond sample into a latency histogram (no-op when
/// nobody listens).
#[inline]
pub fn record_ns(hist: Hist, ns: u64) {
    dispatch(true, |s| {
        s.hists[hist.index()].record(ns);
    });
}

/// Snapshot the global registry (all-zero when disabled).
pub fn snapshot() -> TraceSnapshot {
    handle().snapshot()
}

/// Snapshot the global latency histograms (all-empty when disabled).
pub fn histograms() -> HistogramSet {
    handle().histograms()
}

/// RAII span over one phase. Engines time a phase as
///
/// ```ignore
/// let sp = tbmd_trace::span(Phase::Diagonalize);
/// // ... work ...
/// timings.diagonalize = sp.finish(); // Duration back to the caller
/// ```
///
/// `finish()` (or drop) adds the elapsed wall time to the monotonic phase
/// timer and the phase's latency histogram of whoever is listening (the
/// installed global sink, this thread's entered scopes); the returned [`Duration`] is measured
/// either way, so `PhaseTimings` keeps its exact pre-trace values with
/// tracing disabled. Phase timers aggregate over all threads/ranks that
/// open spans — on distributed engines only the rank-0 view feeds the
/// global registry (see `DistributedTb`), keeping the totals comparable
/// to serial wall clock; `finish_local()` still feeds this thread's
/// *scoped* sinks, which is how per-rank breakdowns see phase time. When
/// the [`crate::timeline`] recorder is armed, every span also emits a
/// timestamped interval into the per-thread ring buffer.
#[derive(Debug)]
pub struct PhaseSpan {
    phase: Phase,
    start: Instant,
    armed: bool,
    timeline: Option<u16>,
}

/// Open a span on `phase`, clocked from now.
#[inline]
pub fn span(phase: Phase) -> PhaseSpan {
    PhaseSpan {
        phase,
        start: Instant::now(),
        armed: true,
        timeline: crate::timeline::open(),
    }
}

impl PhaseSpan {
    /// Elapsed time so far without closing the span.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    #[inline]
    fn close(&mut self, global: bool) -> Duration {
        self.armed = false;
        let d = self.start.elapsed();
        let ns = d.as_nanos() as u64;
        let (phase, hist) = (self.phase, Hist::for_phase(self.phase));
        let record = |s: &Shared| {
            s.phase_ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
            s.hists[hist.index()].record(ns);
        };
        dispatch(global, record);
        if let Some(depth) = self.timeline.take() {
            crate::timeline::close(self.phase.name(), self.start, d, depth);
        }
        d
    }

    /// Close the span: record into the registry (if enabled) and return the
    /// measured duration.
    #[inline]
    pub fn finish(mut self) -> Duration {
        self.close(true)
    }

    /// Close the span without feeding the global registry: for per-rank
    /// timing where only one rank's view should count globally. Scoped
    /// sinks on this thread (the rank's own view) still record it.
    #[inline]
    pub fn finish_local(mut self) -> Duration {
        self.close(false)
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if self.armed {
            self.close(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_collects_and_snapshots() {
        let sink = TraceSink::collecting();
        sink.add(Counter::WireBytes, 128);
        sink.add(Counter::WireBytes, 72);
        sink.add_phase_ns(Phase::Communication, 1_000);
        sink.set_gauge(Gauge::Temperature, 300.5);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(Counter::WireBytes), 200);
        assert_eq!(snap.phase_ns(Phase::Communication), 1_000);
        assert_eq!(snap.gauge(Gauge::Temperature), 300.5);
        let later = {
            sink.add(Counter::WireBytes, 50);
            sink.snapshot()
        };
        assert_eq!(later.since(&snap).counter(Counter::WireBytes), 50);
        sink.reset();
        assert_eq!(sink.snapshot(), TraceSnapshot::default());
    }

    #[test]
    fn sink_histograms_record_and_reset() {
        let sink = TraceSink::collecting();
        sink.record_ns(Hist::Step, 1_000_000);
        sink.record_ns(Hist::Step, 3_000_000);
        let hists = sink.histograms();
        assert_eq!(hists.hist(Hist::Step).count(), 2);
        assert!(hists.hist(Hist::Step).percentile_ns(0.5).unwrap() > 0.0);
        assert!(hists.hist(Hist::Quantum).is_empty());
        sink.reset();
        assert!(sink.histograms().hist(Hist::Step).is_empty());
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        sink.add(Counter::AllocGrowth, 5);
        sink.set_gauge(Gauge::EnergyDrift, 1.0);
        sink.record_ns(Hist::Step, 9);
        assert!(!sink.is_enabled());
        assert_eq!(sink.snapshot(), TraceSnapshot::default());
        assert_eq!(sink.histograms().total_count(), 0);
    }

    #[test]
    fn span_measures_without_global_sink() {
        // No install() here: other tests in this process may have installed
        // a sink, but the measurement contract must hold regardless.
        let sp = span(Phase::Forces);
        std::thread::sleep(Duration::from_millis(2));
        let d = sp.finish();
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn global_install_routes_and_replaces() {
        // Serialize against any other test touching the global sink by
        // doing the full cycle here: install, record, scope, replace,
        // verify.
        let sink = TraceSink::collecting();
        install(sink.clone());
        assert!(enabled());
        add(Counter::NlRebuilds, 3);
        let sp = span(Phase::Neighbors);
        drop(sp); // RAII path
        let snap = handle().snapshot();
        assert_eq!(snap.counter(Counter::NlRebuilds), 3);
        // The RAII span also fed the phase histogram.
        assert_eq!(handle().histograms().hist(Hist::Neighbors).count(), 1);

        // A scoped sink sees only what this thread records while entered,
        // and the global keeps counting through it.
        let scope = ScopedSink::new("tenant-a");
        {
            let _guard = scope.enter();
            add(Counter::NlRebuilds, 2);
            record_ns(Hist::Step, 500);
        }
        add(Counter::NlRebuilds, 1); // outside the scope
        assert_eq!(scope.snapshot().counter(Counter::NlRebuilds), 2);
        assert_eq!(scope.histograms().hist(Hist::Step).count(), 1);
        assert_eq!(handle().snapshot().counter(Counter::NlRebuilds), 6);
        assert_eq!(scope.label(), "tenant-a");

        // finish_local feeds scopes but not the global registry.
        {
            let _guard = scope.enter();
            let sp = span(Phase::Communication);
            let global_before = handle().snapshot().phase_ns(Phase::Communication);
            sp.finish_local();
            assert_eq!(
                handle().snapshot().phase_ns(Phase::Communication),
                global_before
            );
            assert_eq!(scope.histograms().hist(Hist::Communication).count(), 1);
        }

        install(TraceSink::disabled());
        assert!(!enabled());
        add(Counter::NlRebuilds, 9);
        // Old handle unaffected by later global traffic.
        assert_eq!(sink.snapshot().counter(Counter::NlRebuilds), 6);
    }

    #[test]
    fn entered_scope_observes_without_a_global_sink() {
        // No install() here: an entered scope is sufficient, whatever the
        // process-global sink happens to be while this test runs.
        let scope = ScopedSink::new("solo");
        add(Counter::CkptWrites, 1); // nobody listening on this thread yet
        {
            let _guard = scope.enter();
            assert!(active());
            add(Counter::CkptWrites, 2);
            set_gauge(Gauge::QueueDepth, 4.0);
            record_ns(Hist::Quantum, 700);
            span(Phase::Density).finish();
            span(Phase::Forces).finish_local();
            // A worker re-enters its launcher's scopes to be attributed.
            let inherited = entered_scopes();
            assert_eq!(inherited.len(), 1);
            std::thread::spawn(move || {
                let _guards: Vec<ScopeGuard> = inherited.iter().map(ScopedSink::enter).collect();
                add(Counter::CkptWrites, 5);
            })
            .join()
            .unwrap();
        }
        add(Counter::CkptWrites, 9); // guard dropped: not ours any more
        assert!(entered_scopes().is_empty());
        let snap = scope.snapshot();
        assert_eq!(snap.counter(Counter::CkptWrites), 7);
        assert_eq!(snap.gauge(Gauge::QueueDepth), 4.0);
        assert!(snap.phase_ns(Phase::Density) > 0);
        let hists = scope.histograms();
        assert_eq!(hists.hist(Hist::Quantum).count(), 1);
        assert_eq!(hists.hist(Hist::Density).count(), 1);
        assert_eq!(hists.hist(Hist::Forces).count(), 1);
    }

    #[test]
    fn scoped_sink_direct_recording_needs_no_stack() {
        let scope = ScopedSink::new("sched");
        scope.record_ns(Hist::AdmissionWait, 2_000);
        scope.add(Counter::WireMessages, 4);
        assert_eq!(scope.histograms().hist(Hist::AdmissionWait).count(), 1);
        assert_eq!(scope.snapshot().counter(Counter::WireMessages), 4);
        scope.reset();
        assert_eq!(scope.histograms().total_count(), 0);
    }
}

//! The trace sink: labelled blocks of atomic counters, gauges and latency
//! [`Histogram`]s (a phase's total time is its histogram's sum), the
//! thread-local stack that routes events into them, and the RAII span guard.
//!
//! A [`ScopedSink`] is the only sink there is. While a thread holds its
//! [`ScopeGuard`] (from [`ScopedSink::enter`]) every event that thread
//! records lands in the scope's block; guards nest (a serve root scope
//! around a tenant scope around a rank view attributes an event to all
//! three), so per-tenant and per-rank breakdowns fall out without any
//! engine code knowing scopes exist. Whoever wants to observe a run — a
//! session's recorder, a serve tenant, a report section, a test — creates a
//! scope, enters it on the thread that drives the run and reads it back
//! ([`ScopedSink::snapshot`], [`ScopedSink::histograms`]); nothing is
//! installed and nothing outlives the scope. A scope made with
//! [`ScopedSink::with_timeline`] also keeps the interval of every [`Span`]
//! that closes inside it, so two captures in one process never see each
//! other's spans.
//!
//! Layout follows the `log`-crate pattern: one relaxed load of the `LIVE`
//! word (entered scopes over all threads) guards every hook, so with no
//! scope entered each instrumentation point costs that load and performs
//! no allocation, locking, or syscall. `LIVE` and the thread-local stack are
//! the only process-wide state in this module.
//!
//! # Worker threads and rank views
//!
//! The stack is thread-local: a scope sees the events recorded by threads
//! that entered it. A worker that acts for a launcher — a VMP rank thread —
//! re-enters the launcher's scopes ([`entered_scopes`]) and then the
//! innermost scope's view of its rank ([`ScopedSink::rank`]), a child scope
//! created on first use and listed by [`ScopedSink::ranks`]. A rank view
//! therefore belongs to whoever launched the ranks: two distributed tenants
//! each have their own `rank0`.

use crate::hist::{Hist, Histogram, HistogramSet};
use crate::metrics::{Counter, Gauge, Phase, TraceSnapshot};
use crate::timeline::{self, SpanEvent, SpanName, Timeline};
use crate::JsonValue;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Scopes currently entered, over all threads. Zero — nobody listens — is
/// the fast path every hook leaves on.
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped-sink stack for this thread; events fan out to every entry.
    static SCOPES: RefCell<Vec<ScopedSink>> = const { RefCell::new(Vec::new()) };
}

struct Shared {
    counters: [AtomicU64; Counter::COUNT],
    /// f64 bit patterns; last write wins.
    gauges: [AtomicU64; Gauge::COUNT],
    hists: [Histogram; Hist::COUNT],
    /// Per-rank child views, indexed by rank id ([`ScopedSink::rank`]).
    ranks: Mutex<Vec<ScopedSink>>,
    /// The span capture, for a scope made with [`ScopedSink::with_timeline`].
    timeline: Option<Timeline>,
}

impl Shared {
    fn new(timeline: Option<Timeline>) -> Shared {
        Shared {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Histogram::default()),
            ranks: Mutex::new(Vec::new()),
            timeline,
        }
    }

    fn snapshot(&self) -> TraceSnapshot {
        let mut snap = TraceSnapshot::default();
        for (slot, atom) in snap.counters.iter_mut().zip(&self.counters) {
            *slot = atom.load(Ordering::Relaxed);
        }
        for p in Phase::ALL {
            snap.phase_ns[p.index()] = self.hists[Hist::for_phase(p).index()].sum_ns();
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
        for atom in &self.counters {
            atom.store(0, Ordering::Relaxed);
        }
        for atom in &self.gauges {
            atom.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for hist in &self.hists {
            hist.reset();
        }
        self.ranks.lock().expect(RANKS_POISONED).clear();
        if let Some(timeline) = &self.timeline {
            timeline.clear();
        }
    }
}

/// Only `Vec::push` / `clear` run under the rank-table lock.
const RANKS_POISONED: &str = "rank table poisoned: a thread panicked while growing it";

/// A labelled metrics view, fed while a thread holds its [`ScopeGuard`] and
/// by the direct writes below.
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
            shared: Arc::new(Shared::new(None)),
        }
    }

    /// A fresh scope that also records a span timeline: the interval of
    /// every [`Span`] that closes on a thread while it has this scope
    /// entered, read back with [`ScopedSink::events`] or
    /// [`ScopedSink::export_chrome`]. Timestamp zero is now.
    pub fn with_timeline(label: &str) -> ScopedSink {
        ScopedSink {
            label: Arc::from(label),
            shared: Arc::new(Shared::new(Some(Timeline::new()))),
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
        LIVE.fetch_add(1, Ordering::SeqCst);
        ScopeGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    /// This scope's view of rank `id` (labelled `rank{id}`), created on
    /// first use together with every lower id. A VMP worker enters it below
    /// its launcher's scopes, so what rank `id` records for this scope's
    /// owner is readable on its own.
    pub fn rank(&self, id: usize) -> ScopedSink {
        let mut ranks = self.shared.ranks.lock().expect(RANKS_POISONED);
        while ranks.len() <= id {
            let label = format!("rank{}", ranks.len());
            ranks.push(ScopedSink::new(&label));
        }
        ranks[id].clone()
    }

    /// Every rank view created under this scope so far, in rank order.
    pub fn ranks(&self) -> Vec<ScopedSink> {
        self.shared.ranks.lock().expect(RANKS_POISONED).clone()
    }

    /// Counter/timer/gauge totals attributed to this scope.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.shared.snapshot()
    }

    /// Latency histograms attributed to this scope.
    pub fn histograms(&self) -> HistogramSet {
        self.shared.hist_snapshot()
    }

    /// Record directly into this scope (no thread stack), for attribution
    /// the recording thread cannot know — e.g. the serve scheduler stamping
    /// a tenant's admission wait.
    pub fn record_ns(&self, hist: Hist, ns: u64) {
        self.shared.hists[hist.index()].record(ns);
    }

    /// Add directly to one of this scope's counters (see
    /// [`ScopedSink::record_ns`]).
    pub fn add(&self, counter: Counter, n: u64) {
        self.shared.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// The captured timeline: `(tid, events)` per recording thread (tids
    /// in order of first event), events in start order. Empty for a scope
    /// made without one.
    pub fn events(&self) -> Vec<(usize, Vec<SpanEvent>)> {
        self.shared
            .timeline
            .as_ref()
            .map_or_else(Vec::new, Timeline::events)
    }

    /// Timeline events evicted from full per-thread rings (0 = complete).
    pub fn dropped_events(&self) -> u64 {
        self.shared.timeline.as_ref().map_or(0, Timeline::dropped)
    }

    /// The captured timeline as Chrome `trace_event` JSON: write the
    /// compact form to a file and open it in `chrome://tracing` or
    /// Perfetto.
    pub fn export_chrome(&self) -> JsonValue {
        timeline::chrome_trace(self.events())
    }

    /// Zero this scope's storage (timeline included) and drop its rank
    /// views. Snapshot deltas across a reset saturate at zero; callers own
    /// that coordination.
    pub fn reset(&self) {
        self.shared.reset();
    }
}

/// A span named after a scope: how a scheduler labels a tenant's time slice
/// with the tenant scope's label without copying it.
impl From<&ScopedSink> for SpanName {
    fn from(scope: &ScopedSink) -> SpanName {
        SpanName::Shared(Arc::clone(&scope.label))
    }
}

/// RAII guard for [`ScopedSink::enter`]; pops the scope on drop.
pub struct ScopeGuard {
    // Not Send: the guard must pop on the thread that pushed.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
        SCOPES.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The scopes the current thread has entered, outermost first — what a
/// worker thread re-enters to attribute its events to whoever launched it.
/// Empty (and allocation-free) when the thread has entered none.
pub fn entered_scopes() -> Vec<ScopedSink> {
    if !active() {
        return Vec::new();
    }
    SCOPES.with(|stack| stack.borrow().clone())
}

/// Fast check: is anyone listening at all — a scope entered on some thread?
/// Code that reads a clock only to record it gates on this.
#[inline]
pub fn active() -> bool {
    LIVE.load(Ordering::Relaxed) != 0
}

/// Apply `f` to every scope on this thread's stack. One relaxed load and
/// out when no scope is entered anywhere.
#[inline]
fn dispatch(f: impl Fn(&Shared)) {
    if !active() {
        return;
    }
    SCOPES.with(|stack| {
        for scope in stack.borrow().iter() {
            f(&scope.shared);
        }
    });
}

/// Add to a counter of every listener (no-op when nobody listens).
#[inline]
pub fn add(counter: Counter, n: u64) {
    dispatch(|s| {
        s.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    });
}

/// Overwrite a gauge (no-op when nobody listens).
#[inline]
pub fn set_gauge(gauge: Gauge, value: f64) {
    dispatch(|s| {
        s.gauges[gauge.index()].store(value.to_bits(), Ordering::Relaxed);
    });
}

/// Record one nanosecond sample into a latency histogram (no-op when
/// nobody listens).
#[inline]
pub fn record_ns(hist: Hist, ns: u64) {
    dispatch(|s| {
        s.hists[hist.index()].record(ns);
    });
}

/// RAII span over one phase or one labelled interval. Engines time a
/// phase as
///
/// ```ignore
/// let sp = tbmd_trace::span(Phase::Diagonalize);
/// // ... work ...
/// timings.diagonalize = sp.finish(); // Duration back to the caller
/// ```
///
/// `finish()` (or drop) adds the elapsed wall time to the latency histogram
/// of every scope this thread has entered (for a phase, its histogram's sum
/// is the phase's total time), and deposits the interval into each of those
/// scopes that records a timeline; the returned [`Duration`] is measured either way, so
/// `PhaseTimings` keeps its exact pre-trace values when nobody listens. A
/// rank thread's spans reach its launcher's scopes and its own rank view,
/// which is how per-rank breakdowns see phase time.
#[derive(Debug)]
pub struct Span {
    name: SpanName,
    hist: Hist,
    start: Instant,
    armed: bool,
}

/// Open a span on `phase`, clocked from now.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span {
        name: SpanName::Static(phase.name()),
        hist: Hist::for_phase(phase),
        start: Instant::now(),
        armed: true,
    }
}

/// Open a labelled interval that is not a phase — an MD step, a tenant's
/// time slice — recorded into `hist` and, in a timeline, as `name`.
#[inline]
pub fn interval(hist: Hist, name: impl Into<SpanName>) -> Span {
    Span {
        name: name.into(),
        hist,
        start: Instant::now(),
        armed: true,
    }
}

impl Span {
    /// Elapsed time so far without closing the span.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    #[inline]
    fn close(&mut self) -> Duration {
        self.armed = false;
        let d = self.start.elapsed();
        let ns = d.as_nanos() as u64;
        dispatch(|s| {
            s.hists[self.hist.index()].record(ns);
            if let Some(timeline) = &s.timeline {
                timeline.record(&self.name, self.start, ns);
            }
        });
        d
    }

    /// Close the span: record into every entered scope and return the
    /// measured duration.
    #[inline]
    pub fn finish(mut self) -> Duration {
        self.close()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entered_scope_collects_and_snapshots() {
        let scope = ScopedSink::new("collect");
        let _guard = scope.enter();
        add(Counter::WireBytes, 128);
        add(Counter::WireBytes, 72);
        record_ns(Hist::Communication, 1_000);
        set_gauge(Gauge::Temperature, 300.5);
        let snap = scope.snapshot();
        assert_eq!(snap.counter(Counter::WireBytes), 200);
        assert_eq!(snap.phase_ns(Phase::Communication), 1_000);
        assert_eq!(snap.gauge(Gauge::Temperature), 300.5);
        add(Counter::WireBytes, 50);
        let later = scope.snapshot();
        assert_eq!(later.since(&snap).counter(Counter::WireBytes), 50);
        scope.reset();
        assert_eq!(scope.snapshot(), TraceSnapshot::default());
    }

    #[test]
    fn span_measures_with_nobody_listening() {
        let sp = span(Phase::Forces);
        std::thread::sleep(Duration::from_millis(2));
        let d = sp.finish();
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn nested_scopes_each_see_the_event_and_only_while_entered() {
        let outer = ScopedSink::new("outer");
        let inner = ScopedSink::new("tenant-a");
        add(Counter::NlRebuilds, 9); // nobody listening on this thread yet
        {
            let _outer = outer.enter();
            add(Counter::NlRebuilds, 3);
            drop(span(Phase::Neighbors)); // RAII path feeds the histogram too
            {
                let _inner = inner.enter();
                add(Counter::NlRebuilds, 2);
                record_ns(Hist::Step, 500);
            }
            add(Counter::NlRebuilds, 1); // outside the inner scope
        }
        add(Counter::NlRebuilds, 9); // guards dropped: nobody's any more
        assert_eq!(inner.snapshot().counter(Counter::NlRebuilds), 2);
        assert_eq!(inner.histograms().hist(Hist::Step).count(), 1);
        assert_eq!(inner.label(), "tenant-a");
        assert_eq!(outer.snapshot().counter(Counter::NlRebuilds), 6);
        assert_eq!(outer.histograms().hist(Hist::Step).count(), 1);
        assert_eq!(outer.histograms().hist(Hist::Neighbors).count(), 1);
    }

    #[test]
    fn worker_re_enters_its_launchers_scopes_and_its_rank_view() {
        let scope = ScopedSink::new("solo");
        assert!(scope.ranks().is_empty());
        {
            let _guard = scope.enter();
            assert!(active());
            add(Counter::CkptWrites, 2);
            set_gauge(Gauge::QueueDepth, 4.0);
            record_ns(Hist::Quantum, 700);
            span(Phase::Density).finish();
            let inherited = entered_scopes();
            assert_eq!(inherited.len(), 1);
            std::thread::spawn(move || {
                let _guards: Vec<ScopeGuard> = inherited.iter().map(ScopedSink::enter).collect();
                let _rank = inherited.last().map(|s| s.rank(1).enter());
                add(Counter::CkptWrites, 5);
                span(Phase::Forces).finish();
            })
            .join()
            .unwrap();
        }
        assert!(entered_scopes().is_empty());
        let snap = scope.snapshot();
        assert_eq!(snap.counter(Counter::CkptWrites), 7);
        assert_eq!(snap.gauge(Gauge::QueueDepth), 4.0);
        assert!(snap.phase_ns(Phase::Density) > 0);
        let hists = scope.histograms();
        assert_eq!(hists.hist(Hist::Quantum).count(), 1);
        assert_eq!(hists.hist(Hist::Density).count(), 1);
        assert_eq!(hists.hist(Hist::Forces).count(), 1);
        // Rank 1 was asked for, so ranks 0 and 1 exist; only 1 saw events,
        // and a second scope has no rank views of its own.
        let ranks = scope.ranks();
        let labels: Vec<&str> = ranks.iter().map(ScopedSink::label).collect();
        assert_eq!(labels, ["rank0", "rank1"]);
        assert_eq!(ranks[0].snapshot(), TraceSnapshot::default());
        assert_eq!(ranks[1].snapshot().counter(Counter::CkptWrites), 5);
        assert_eq!(ranks[1].histograms().hist(Hist::Forces).count(), 1);
        assert!(ScopedSink::new("other").ranks().is_empty());
        scope.reset();
        assert!(scope.ranks().is_empty());
    }

    #[test]
    fn scoped_sink_direct_recording_needs_no_stack() {
        let scope = ScopedSink::new("sched");
        scope.record_ns(Hist::AdmissionWait, 2_000);
        scope.record_ns(Hist::Step, 1_000_000);
        scope.record_ns(Hist::Step, 3_000_000);
        scope.add(Counter::WireMessages, 4);
        let hists = scope.histograms();
        assert_eq!(hists.hist(Hist::AdmissionWait).count(), 1);
        assert_eq!(hists.hist(Hist::Step).count(), 2);
        assert!(hists.hist(Hist::Step).percentile_ns(0.5).unwrap() > 0.0);
        assert!(hists.hist(Hist::Quantum).is_empty());
        assert_eq!(scope.snapshot().counter(Counter::WireMessages), 4);
        scope.reset();
        assert_eq!(scope.histograms().total_count(), 0);
    }
}

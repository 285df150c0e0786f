//! Hierarchical span timeline: who ran what, when, inside what.
//!
//! Histograms (see [`crate::hist`]) answer "how long does diagonalize
//! take at p99"; the timeline answers "what did step 41 actually look
//! like". A scope made with [`crate::ScopedSink::with_timeline`] owns one
//! capture: every [`crate::Span`] that closes while a thread has the scope
//! entered deposits its interval — name, start, duration — into that
//! thread's fixed-capacity ring in the capture. A thread's ring is
//! allocated once, on its first event; after that a span close is one
//! mutex push. [`crate::ScopedSink::export_chrome`] serializes the rings as
//! Chrome `trace_event` JSON (`"ph":"X"` complete events) through the
//! in-tree [`crate::JsonValue`], so a capture opens directly in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Parent/child structure is implicit and exact: spans on one thread are
//! strictly nested (RAII guards), so interval containment on a thread
//! reconstructs the tree; the export reports it as each event's `depth`.

use crate::JsonValue;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Events kept per recording thread before the oldest are overwritten: a
/// few hundred MD steps of step and phase spans, ≈ 200 KB per thread.
const DEFAULT_CAPACITY: usize = 4096;

/// A span's name in a timeline: a phase or fixed label, or a shared one (a
/// tenant scope's label) that is counted, not copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanName {
    Static(&'static str),
    Shared(Arc<str>),
}

impl SpanName {
    pub fn as_str(&self) -> &str {
        match self {
            SpanName::Static(s) => s,
            SpanName::Shared(s) => s,
        }
    }
}

impl From<&'static str> for SpanName {
    fn from(name: &'static str) -> SpanName {
        SpanName::Static(name)
    }
}

/// One completed span interval, relative to the capture epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: SpanName,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth on the recording thread (0 = top level), from interval
    /// containment among the events the capture kept.
    pub depth: u16,
}

/// One scope's capture: the epoch and one ring per recording thread, in
/// order of first event (the ring's index is the thread's export `tid`).
pub(crate) struct Timeline {
    epoch: Instant,
    rings: Mutex<Vec<Ring>>,
}

struct Ring {
    thread: ThreadId,
    buf: Vec<SpanEvent>,
    /// Overwrite cursor once `buf` is full.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() < DEFAULT_CAPACITY {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % DEFAULT_CAPACITY;
            self.dropped += 1;
        }
    }
}

const RINGS_POISONED: &str = "timeline rings poisoned: a thread panicked while pushing";

impl Timeline {
    /// An empty capture whose timestamp zero is now.
    pub(crate) fn new() -> Timeline {
        Timeline {
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Deposit one closed span into the calling thread's ring.
    pub(crate) fn record(&self, name: &SpanName, start: Instant, dur_ns: u64) {
        let ev = SpanEvent {
            name: name.clone(),
            start_ns: start
                .checked_duration_since(self.epoch)
                .map_or(0, |d| d.as_nanos() as u64),
            dur_ns,
            depth: 0,
        };
        let thread = std::thread::current().id();
        let mut rings = self.rings.lock().expect(RINGS_POISONED);
        match rings.iter_mut().find(|r| r.thread == thread) {
            Some(ring) => ring.push(ev),
            None => {
                let mut buf = Vec::with_capacity(DEFAULT_CAPACITY);
                buf.push(ev);
                rings.push(Ring {
                    thread,
                    buf,
                    next: 0,
                    dropped: 0,
                });
            }
        }
    }

    /// `(tid, events)` per recording thread, events in start order with
    /// their nesting depth filled in.
    pub(crate) fn events(&self) -> Vec<(usize, Vec<SpanEvent>)> {
        let rings = self.rings.lock().expect(RINGS_POISONED);
        rings
            .iter()
            .enumerate()
            .map(|(tid, ring)| {
                let mut evs = ring.buf.clone();
                // Outer before inner at equal starts, so every event sees
                // its enclosing intervals first.
                evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
                let mut open_ends: Vec<u64> = Vec::new();
                for ev in &mut evs {
                    let end = ev.start_ns + ev.dur_ns;
                    while open_ends.last().is_some_and(|&e| e < end) {
                        open_ends.pop();
                    }
                    ev.depth = open_ends.len() as u16;
                    open_ends.push(end);
                }
                (tid, evs)
            })
            .collect()
    }

    /// Events evicted from full rings across all threads (0 = complete).
    pub(crate) fn dropped(&self) -> u64 {
        let rings = self.rings.lock().expect(RINGS_POISONED);
        rings.iter().map(|r| r.dropped).sum()
    }

    pub(crate) fn clear(&self) {
        self.rings.lock().expect(RINGS_POISONED).clear();
    }
}

/// Chrome `trace_event` JSON of `events`: a `traceEvents` array of
/// `"ph":"X"` complete events (timestamps/durations in microseconds, as the
/// format requires), one `tid` per recording thread.
pub(crate) fn chrome_trace(events: Vec<(usize, Vec<SpanEvent>)>) -> JsonValue {
    let mut trace_events = Vec::new();
    for (tid, evs) in events {
        for ev in evs {
            let mut obj = JsonValue::object();
            obj.set("ph", "X")
                .set("name", ev.name.as_str())
                .set("cat", "tbmd")
                .set("ts", ev.start_ns as f64 / 1_000.0)
                .set("dur", ev.dur_ns as f64 / 1_000.0)
                .set("pid", 1.0)
                .set("tid", tid as f64);
            let mut args = JsonValue::object();
            args.set("depth", ev.depth as f64);
            obj.set("args", args);
            trace_events.push(obj);
        }
    }
    let mut out = JsonValue::object();
    out.set("traceEvents", JsonValue::Array(trace_events))
        .set("displayTimeUnit", "ms");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interval, span, Hist, Phase, ScopedSink};
    use std::time::Duration;

    #[test]
    fn capture_nests_exports_and_evicts() {
        let scope = ScopedSink::with_timeline("capture");
        {
            let _guard = scope.enter();
            let outer = interval(Hist::Step, "outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let inner = span(Phase::Forces);
                std::thread::sleep(Duration::from_millis(1));
                inner.finish();
            }
            outer.finish();
        }
        // Closed after the guard dropped: not this scope's.
        span(Phase::Density).finish();

        let evs = scope.events();
        assert_eq!(evs.len(), 1, "one recording thread");
        let (tid, spans) = &evs[0];
        assert_eq!(*tid, 0);
        let names: Vec<&str> = spans.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["outer", "forces"]);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!((outer.depth, inner.depth), (0, 1));
        // Parent interval contains the child.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);

        // Chrome export round-trips through the JSON parser.
        let chrome = scope.export_chrome().to_compact();
        let parsed = JsonValue::parse(&chrome).expect("valid chrome trace");
        let items = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(items.len(), 2);
        for item in items {
            assert_eq!(item.get("ph").unwrap().as_str(), Some("X"));
            assert!(item.get("ts").unwrap().as_f64().is_some());
            assert!(item.get("dur").unwrap().as_f64().is_some());
        }

        // Ring eviction: overfilling the capacity keeps the newest events.
        {
            let _guard = scope.enter();
            for _ in 0..DEFAULT_CAPACITY {
                interval(Hist::Step, "spin").finish();
            }
        }
        assert_eq!(scope.dropped_events(), 2);
        let evs = scope.events();
        assert_eq!(evs[0].1.len(), DEFAULT_CAPACITY);
        assert!(evs[0].1.iter().all(|e| e.name.as_str() == "spin"));

        scope.reset();
        assert!(scope.events().is_empty());
        assert_eq!(scope.dropped_events(), 0);
    }

    #[test]
    fn a_scope_without_a_timeline_records_none() {
        let scope = ScopedSink::new("counters-only");
        {
            let _guard = scope.enter();
            interval(Hist::Step, "step").finish();
        }
        assert_eq!(scope.histograms().hist(Hist::Step).count(), 1);
        assert!(scope.events().is_empty());
        let chrome = scope.export_chrome();
        assert!(chrome
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }
}

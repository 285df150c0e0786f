//! Hierarchical span timeline: who ran what, when, inside what.
//!
//! Histograms (see [`crate::hist`]) answer "how long does diagonalize
//! take at p99"; the timeline answers "what did step 41 actually look
//! like". While armed via [`enable`], every [`crate::span`] (and every
//! labelled [`span`] opened here) deposits a completed interval — name,
//! start, duration, nesting depth — into a fixed-capacity ring buffer
//! owned by the recording thread, so the hot path takes a thread-local
//! lookup plus one uncontended mutex push and never allocates after the
//! ring is registered. [`export_chrome`] serializes the rings as Chrome
//! `trace_event` JSON (`"ph":"X"` complete events) through the in-tree
//! [`crate::JsonValue`], so a capture opens directly in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev).
//!
//! Parent/child structure is implicit and exact: spans on one thread are
//! strictly nested (RAII guards), so the recorded `depth` plus interval
//! containment reconstructs the tree.

use crate::JsonValue;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

static TL_ENABLED: AtomicBool = AtomicBool::new(false);
static TIMELINE: RwLock<Option<Arc<TimelineShared>>> = RwLock::new(None);

/// Default ring capacity per thread: enough for ~300 MD steps of 6-phase
/// spans without eviction, ~1.5 MB per recording thread.
pub const DEFAULT_CAPACITY: usize = 4096;

struct TimelineShared {
    epoch: Instant,
    capacity: usize,
    next_tid: AtomicUsize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

struct ThreadRing {
    tid: usize,
    ring: Mutex<Ring>,
}

struct Ring {
    buf: Vec<SpanEvent>,
    /// Overwrite cursor once `buf` is full.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, capacity: usize, ev: SpanEvent) {
        if self.buf.len() < capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % capacity;
            self.dropped += 1;
        }
    }
}

/// One completed span interval, relative to the capture epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth on the recording thread (0 = top level).
    pub depth: u16,
}

thread_local! {
    /// This thread's registered ring, tagged with the capture generation
    /// it belongs to (so a disable/enable cycle re-registers cleanly).
    static RING: RefCell<Option<(Arc<TimelineShared>, Arc<ThreadRing>)>> =
        const { RefCell::new(None) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Arm the timeline recorder with `capacity` events per recording thread
/// (0 picks [`DEFAULT_CAPACITY`]). Clears any previous capture; the epoch
/// (timestamp zero) is now.
pub fn enable(capacity: usize) {
    let shared = Arc::new(TimelineShared {
        epoch: Instant::now(),
        capacity: if capacity == 0 {
            DEFAULT_CAPACITY
        } else {
            capacity
        },
        next_tid: AtomicUsize::new(0),
        rings: Mutex::new(Vec::new()),
    });
    *TIMELINE.write().expect("timeline poisoned") = Some(shared);
    TL_ENABLED.store(true, Ordering::SeqCst);
}

/// Disarm the recorder and drop the capture.
pub fn disable() {
    TL_ENABLED.store(false, Ordering::SeqCst);
    *TIMELINE.write().expect("timeline poisoned") = None;
}

/// Fast check: is the timeline recorder armed?
#[inline]
pub fn is_enabled() -> bool {
    TL_ENABLED.load(Ordering::Relaxed)
}

/// Open a nesting level. Returns the depth ticket to hand back to
/// [`close`], or `None` (one relaxed atomic load) when disarmed.
#[inline]
pub(crate) fn open() -> Option<u16> {
    if !is_enabled() {
        return None;
    }
    DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth.saturating_add(1));
        Some(depth)
    })
}

/// Close a nesting level opened by [`open`], depositing the completed
/// interval into this thread's ring.
pub(crate) fn close(name: &'static str, start: Instant, dur: Duration, depth: u16) {
    DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    let Some(current) = TIMELINE.read().expect("timeline poisoned").clone() else {
        return;
    };
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match slot.as_ref() {
            Some((shared, _)) => !Arc::ptr_eq(shared, &current),
            None => true,
        };
        if stale {
            // First event from this thread in this capture: register a
            // ring (the only allocation the timeline ever does per thread).
            let ring = Arc::new(ThreadRing {
                tid: current.next_tid.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring {
                    buf: Vec::with_capacity(current.capacity),
                    next: 0,
                    dropped: 0,
                }),
            });
            current
                .rings
                .lock()
                .expect("timeline ring registry poisoned")
                .push(Arc::clone(&ring));
            *slot = Some((Arc::clone(&current), ring));
        }
        let (shared, ring) = slot.as_ref().expect("ring just registered");
        let start_ns = start
            .checked_duration_since(shared.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        ring.ring.lock().expect("timeline ring poisoned").push(
            shared.capacity,
            SpanEvent {
                name,
                start_ns,
                dur_ns: dur.as_nanos() as u64,
                depth,
            },
        );
    });
}

/// RAII guard for a labelled (non-phase) timeline span: an MD step, a
/// scheduler quantum, a tenant's turn. Free when the recorder is off.
#[derive(Debug)]
pub struct TimelineSpan {
    name: &'static str,
    start: Instant,
    depth: Option<u16>,
}

/// Open a labelled span. For dynamic labels (tenant names), intern them
/// once with [`label`].
#[inline]
pub fn span(name: &'static str) -> TimelineSpan {
    TimelineSpan {
        name,
        start: Instant::now(),
        depth: open(),
    }
}

impl TimelineSpan {
    /// Close the span and deposit its interval (if the recorder is armed).
    #[inline]
    pub fn finish(mut self) -> Duration {
        let d = self.start.elapsed();
        if let Some(depth) = self.depth.take() {
            close(self.name, self.start, d, depth);
        }
        d
    }
}

impl Drop for TimelineSpan {
    fn drop(&mut self) {
        if let Some(depth) = self.depth.take() {
            close(self.name, self.start, self.start.elapsed(), depth);
        }
    }
}

/// Interned copies of dynamic span labels. Leaked intentionally: labels
/// are tenant/job names — few, small, and needed for the process lifetime
/// by the zero-copy ring buffers.
static LABELS: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);

/// Intern a dynamic label (e.g. a tenant name) as a `&'static str` usable
/// in timeline spans. Repeated calls with the same text return the same
/// pointer; each distinct label leaks once.
pub fn label(text: &str) -> &'static str {
    let mut guard = LABELS.lock().expect("label table poisoned");
    let table = guard.get_or_insert_with(HashMap::new);
    if let Some(s) = table.get(text) {
        return s;
    }
    let leaked: &'static str = Box::leak(text.to_string().into_boxed_str());
    table.insert(text.to_string(), leaked);
    leaked
}

/// Copy out the capture: `(tid, events)` per recording thread, events in
/// start order. Empty when disarmed or nothing recorded.
pub fn events() -> Vec<(usize, Vec<SpanEvent>)> {
    let Some(shared) = TIMELINE.read().expect("timeline poisoned").clone() else {
        return Vec::new();
    };
    let rings = shared
        .rings
        .lock()
        .expect("timeline ring registry poisoned");
    let mut out: Vec<(usize, Vec<SpanEvent>)> = rings
        .iter()
        .map(|r| {
            let ring = r.ring.lock().expect("timeline ring poisoned");
            let mut evs = ring.buf.clone();
            evs.sort_by_key(|e| (e.start_ns, e.depth));
            (r.tid, evs)
        })
        .collect();
    out.sort_by_key(|(tid, _)| *tid);
    out
}

/// Events evicted from full rings across all threads (0 = complete
/// capture).
pub fn dropped_events() -> u64 {
    let Some(shared) = TIMELINE.read().expect("timeline poisoned").clone() else {
        return 0;
    };
    let rings = shared
        .rings
        .lock()
        .expect("timeline ring registry poisoned");
    rings
        .iter()
        .map(|r| r.ring.lock().expect("timeline ring poisoned").dropped)
        .sum()
}

/// Serialize the capture as Chrome `trace_event` JSON: a `traceEvents`
/// array of `"ph":"X"` complete events (timestamps/durations in
/// microseconds, as the format requires), one `tid` per recording thread.
/// Write the compact form to a file and open it in `chrome://tracing` or
/// Perfetto.
pub fn export_chrome() -> JsonValue {
    let mut trace_events = Vec::new();
    for (tid, evs) in events() {
        for ev in evs {
            let mut obj = JsonValue::object();
            obj.set("ph", "X")
                .set("name", ev.name)
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

    /// One test owns the global recorder state end to end — the trace
    /// crate's unit tests run in one process, and the armed timeline is
    /// process-global.
    #[test]
    fn capture_nests_exports_and_survives_disable() {
        enable(8);
        {
            let outer = span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let inner = span("inner");
                std::thread::sleep(Duration::from_millis(1));
                inner.finish();
            }
            outer.finish();
        }
        // Other tests in this process may record spans concurrently on
        // their own threads; ours is the ring holding "outer".
        let evs = events();
        let (_, spans) = evs
            .iter()
            .find(|(_, s)| s.iter().any(|e| e.name == "outer"))
            .expect("this thread registered a ring");
        let outer = spans.iter().find(|e| e.name == "outer").unwrap();
        let inner = spans.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        // Parent interval contains the child.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);

        // Chrome export round-trips through the JSON parser.
        let chrome = export_chrome().to_compact();
        let parsed = JsonValue::parse(&chrome).expect("valid chrome trace");
        let items = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let mine: Vec<_> = items
            .iter()
            .filter(|i| {
                matches!(
                    i.get("name").and_then(|n| n.as_str()),
                    Some("outer") | Some("inner")
                )
            })
            .collect();
        assert_eq!(mine.len(), 2);
        for item in mine {
            assert_eq!(item.get("ph").unwrap().as_str(), Some("X"));
            assert!(item.get("ts").unwrap().as_f64().is_some());
            assert!(item.get("dur").unwrap().as_f64().is_some());
        }

        // Ring eviction: capacity 8, so 20 spans keep only the last 8.
        for _ in 0..20 {
            span("spin").finish();
        }
        assert!(dropped_events() > 0);
        let evs = events();
        let (_, spans) = evs
            .iter()
            .find(|(_, s)| s.iter().any(|e| e.name == "spin"))
            .expect("spin ring present");
        assert_eq!(spans.len(), 8);

        // Interned labels are pointer-stable.
        let a = label("tenant-zz");
        let b = label("tenant-zz");
        assert!(std::ptr::eq(a, b));

        disable();
        assert!(!is_enabled());
        assert!(events().is_empty());
        // Spans opened while disarmed cost nothing and record nothing.
        span("ghost").finish();
        assert!(events().is_empty());
    }
}

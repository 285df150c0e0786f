//! Benchmark-side spans: timed calls into each crate's public functions,
//! kept in memory and written out when the run ends.
//!
//! The program's own tracing stays off; every span here is opened from a
//! file of this package, around a call into a layer.

use std::cell::RefCell;
use std::ops::Range;
use std::time::Instant;
use tbmd::trace::JsonValue;

/// One timed call: what ran, when, under which span, for which step or job.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Step or job the span belongs to; spans of one step share it.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// In-memory span recorder. Interior mutability because the staged twin
/// records from `ForceProvider::evaluate_with(&self, ..)`.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest under it.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.open.last().copied();
            let idx = inner.spans.len();
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                id,
            });
            inner.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].end_ns = end_ns;
        inner.open.pop();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Spans recorded so far. Two readings bracket a pass; the queries below
    /// take such a range so that passes reusing a span name stay apart.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Durations (ms) of the spans named `name` recorded within `range`.
    pub fn durations_ms(&self, name: &str, range: Range<usize>) -> Vec<f64> {
        self.inner.borrow().spans[range]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// `(id, duration ms)` of the spans named `name` recorded within `range`,
    /// for pairing spans of one step.
    pub fn durations_by_id(&self, name: &str, range: Range<usize>) -> Vec<(u64, f64)> {
        self.inner.borrow().spans[range]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.id, s.duration_ns() as f64 * 1e-6))
            .collect()
    }

    /// Self times (ms) of the spans named `name` recorded within `range`.
    pub fn self_ms(&self, name: &str, range: Range<usize>) -> Vec<f64> {
        let inner = self.inner.borrow();
        let own = self_times_ns(&inner.spans);
        inner.spans[range.clone()]
            .iter()
            .zip(&own[range])
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 * 1e-6)
            .collect()
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`, `parent`,
    /// `id`), in recording order so `parent` indexes into the same array.
    pub fn to_json(&self) -> JsonValue {
        let spans = self.inner.borrow();
        JsonValue::Array(
            spans
                .spans
                .iter()
                .map(|s| {
                    let mut v = JsonValue::object();
                    v.set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("id", s.id)
                        .set("parent", s.parent.map_or(JsonValue::Null, JsonValue::from));
                    v
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children of one span run one after another on the recording
/// thread, so their durations add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("step", 0, 100, None),
            span("evaluate", 10, 90, Some(0)),
            span("hamiltonian", 10, 30, Some(1)),
            span("diagonalize", 30, 80, Some(1)),
            span("step", 100, 150, None),
        ];
        // step: 100 − 80; evaluate: 80 − 20 − 50; leaves keep their duration;
        // grandchildren are not subtracted twice from the root.
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 50, 50]);
    }

    #[test]
    fn tracer_nests_spans_and_links_parents() {
        let tracer = Tracer::new();
        let out = tracer.span("outer", 7, || {
            tracer.span("inner", 7, || 1) + tracer.span("inner", 7, || 2)
        });
        assert_eq!(out, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.durations_ms("inner", 0..3).len(), 2);
        assert_eq!(tracer.durations_ms("inner", 2..3).len(), 1);
        assert_eq!(tracer.durations_ms("inner", 0..2).len(), 1);
        let own = tracer.self_ms("outer", 0..3)[0];
        let total = tracer.durations_ms("outer", 0..3)[0];
        assert!(own <= total);
        let json = tracer.to_json();
        let parsed = JsonValue::parse(&json.to_compact()).expect("spans re-parse");
        assert_eq!(parsed.as_array().unwrap().len(), 3);
        assert_eq!(
            parsed.as_array().unwrap()[1]
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}

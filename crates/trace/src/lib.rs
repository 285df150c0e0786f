//! # tbmd-trace — unified observability for the tbmd workspace
//!
//! One vocabulary for everything the paper's evaluation cares about:
//!
//! - **Spans** ([`span`], [`interval`], [`Span`]): RAII wall-clock guards.
//!   Engines open a span per [`Phase`]; `finish()` returns the measured
//!   [`std::time::Duration`] (so `PhaseTimings` stays a plain value type —
//!   it is now a *view* over span measurements) and feeds the phase's
//!   histogram of whoever is listening, whose sum is the phase's total
//!   ([`TraceSnapshot::phase_ns`]). The same
//!   type times labelled intervals that are not phases: a session's MD
//!   step, a serve tenant's time slice.
//! - **Counters** ([`Counter`]): monotonic event counts — wire bytes and
//!   messages from the Vmp machine, workspace growth events, neighbour-list
//!   rebuilds/refreshes, Chebyshev matvecs, checkpoint and recovery
//!   events, kernel flops. Totals across all threads and ranks that
//!   entered the scope.
//! - **Gauges** ([`Gauge`]): last-written values — conserved-quantity
//!   drift, eigensolver residual/orthogonality, instantaneous temperature,
//!   plus scheduler saturation (admission-queue depth, lease high-water).
//! - **Histograms** ([`Hist`], [`hist`]): fixed-size log-bucketed latency
//!   distributions — per-phase span durations, per-step wall time, serve
//!   admission wait and time-slice latency — with p50/p90/p99 reconstruction
//!   and `since()` deltas ([`HistSnapshot`]).
//! - **Scoped sinks** ([`ScopedSink`]): the only sink. A labelled block of
//!   the above, fed through a thread-local stack while a thread holds the
//!   scope's guard. A recorded `Session` creates its own, `tbmd-serve`
//!   enters one root scope per `Multiplexer` and one per tenant,
//!   virtual-machine rank threads re-enter their launcher's scopes plus the
//!   innermost one's view of their rank ([`ScopedSink::rank`]), and report
//!   sections and tests enter one of their own to watch their run, so
//!   breakdowns fall out without engine changes and every run owns its
//!   ledger.
//! - **Timelines** ([`ScopedSink::with_timeline`]): a scope can also keep
//!   the interval of every span that closes inside it (per-thread ring
//!   buffers in the scope) and export them as Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto ([`ScopedSink::export_chrome`]). The
//!   capture belongs to that scope, like its counters: `tbmd-serve
//!   --timeline` arms its `Multiplexer`'s root scope, a test its own.
//!
//! Nothing is installed process-wide: with no scope entered anywhere every
//! hot-path hook is a single relaxed atomic load and no allocation, so an
//! unobserved MD run is bitwise-identical to an uninstrumented one (pinned
//! by `tests/trace_overhead.rs` at the workspace root).
//!
//! On top of the scopes sit the run records ([`RunRecorder`]): a JSONL
//! stream with one manifest line, one record per MD step (phase times, comm
//! bytes, drift, temperature), warn lines from the physics watchdogs
//! ([`DriftWatchdog`]), periodic eigensolver health lines, and a closing
//! summary. [`json`] is the tiny self-contained JSON layer the records and
//! the machine-readable bench output share (the workspace vendors no JSON
//! crate).

pub mod hist;
pub mod json;
mod metrics;
mod record;
mod sink;
mod timeline;
mod watchdog;

pub use hist::{Hist, HistSnapshot, Histogram, HistogramSet};
pub use json::JsonValue;
pub use metrics::{Counter, Gauge, Phase, TraceSnapshot};
pub use record::{
    git_describe, HealthRecord, RecorderSummary, RunManifest, RunRecorder, StepRecord,
};
pub use sink::{
    active, add, entered_scopes, interval, record_ns, set_gauge, span, ScopeGuard, ScopedSink, Span,
};
pub use timeline::{SpanEvent, SpanName};
pub use watchdog::{DriftWatchdog, WatchdogStatus};

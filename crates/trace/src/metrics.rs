//! Metric taxonomy: the fixed sets of phases, counters and gauges the
//! registry tracks. Fixed enums (not string keys) keep the hot path to an
//! array index + atomic add and make snapshots `Copy`.

/// One phase of a force evaluation. Mirrors `PhaseTimings` in `tbmd-model`
/// plus the distributed-only `Communication` window (collective wait time,
/// excluded from the compute phases since PR 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Neighbors,
    Hamiltonian,
    Diagonalize,
    Density,
    Forces,
    Communication,
}

impl Phase {
    pub const COUNT: usize = 6;
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Neighbors,
        Phase::Hamiltonian,
        Phase::Diagonalize,
        Phase::Density,
        Phase::Forces,
        Phase::Communication,
    ];

    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Neighbors => "neighbors",
            Phase::Hamiltonian => "hamiltonian",
            Phase::Diagonalize => "diagonalize",
            Phase::Density => "density",
            Phase::Forces => "forces",
            Phase::Communication => "communication",
        }
    }
}

/// Monotonic event counters. Totals over every thread and rank that entered
/// the scope since it was created (or last [`reset`](crate::ScopedSink::reset)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Payload bytes moved through `Vmp` point-to-point sends (collectives
    /// decompose into sends, so they are covered).
    WireBytes,
    /// `Vmp` point-to-point messages.
    WireMessages,
    /// Workspace large-allocation growth events (buffer (re)allocations).
    AllocGrowth,
    /// Full neighbour-list builds (Verlet rebuilds + fallback builds).
    NlRebuilds,
    /// O(entries) Verlet displacement refreshes.
    NlRefreshes,
    /// Sparse H·v products in the Chebyshev Fermi-operator engines.
    ChebyshevMatvecs,
    /// Snapshots written by the checkpoint subsystem.
    CkptWrites,
    /// Encoded snapshot bytes written (before any rotation).
    CkptBytes,
    /// Snapshots restored (resume or fault recovery).
    CkptRestores,
    /// Wall time spent encoding + atomically publishing snapshots (ns).
    CkptNanos,
    /// Distinct rank failures detected by the virtual machine (injected or
    /// real: kills, stalls tripping peer timeouts, disconnects).
    RankFailures,
    /// Rewind-and-retry recoveries performed by the resilient driver.
    Recoveries,
    /// Surviving workers drained via the cancellation token after a peer
    /// failure (instead of blocking to process exit).
    WorkerCancellations,
    /// Floating-point operations retired by the `tbmd-linalg` kernel layer
    /// (GEMM/SYRK/GEMV/tridiagonalization/CSR entry points; counted from
    /// operand shapes, not per-instruction).
    KernelFlops,
}

impl Counter {
    pub const COUNT: usize = 14;
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::WireBytes,
        Counter::WireMessages,
        Counter::AllocGrowth,
        Counter::NlRebuilds,
        Counter::NlRefreshes,
        Counter::ChebyshevMatvecs,
        Counter::CkptWrites,
        Counter::CkptBytes,
        Counter::CkptRestores,
        Counter::CkptNanos,
        Counter::RankFailures,
        Counter::Recoveries,
        Counter::WorkerCancellations,
        Counter::KernelFlops,
    ];

    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::WireBytes => "wire_bytes",
            Counter::WireMessages => "wire_messages",
            Counter::AllocGrowth => "alloc_growth",
            Counter::NlRebuilds => "nl_rebuilds",
            Counter::NlRefreshes => "nl_refreshes",
            Counter::ChebyshevMatvecs => "chebyshev_matvecs",
            Counter::CkptWrites => "ckpt_writes",
            Counter::CkptBytes => "ckpt_bytes",
            Counter::CkptRestores => "ckpt_restores",
            Counter::CkptNanos => "ckpt_nanos",
            Counter::RankFailures => "rank_failures",
            Counter::Recoveries => "recoveries",
            Counter::WorkerCancellations => "worker_cancellations",
            Counter::KernelFlops => "kernel_flops",
        }
    }
}

/// Last-value gauges for physics health and scheduling saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// |E_cons(t) − E_cons(0)| of the current run (eV).
    EnergyDrift,
    /// ‖Hv − λv‖∞ from the latest eigensolver health probe (eV).
    EigResidual,
    /// Orthogonality defect from the latest health probe.
    EigOrthogonality,
    /// Instantaneous kinetic temperature (K).
    Temperature,
    /// Jobs waiting in the serve admission queue.
    QueueDepth,
    /// High-water mark of leased threads in the compute budget.
    LeaseHighWater,
}

impl Gauge {
    pub const COUNT: usize = 6;
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::EnergyDrift,
        Gauge::EigResidual,
        Gauge::EigOrthogonality,
        Gauge::Temperature,
        Gauge::QueueDepth,
        Gauge::LeaseHighWater,
    ];

    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::EnergyDrift => "energy_drift_ev",
            Gauge::EigResidual => "eig_residual",
            Gauge::EigOrthogonality => "eig_orthogonality",
            Gauge::Temperature => "temperature_k",
            Gauge::QueueDepth => "queue_depth",
            Gauge::LeaseHighWater => "lease_high_water",
        }
    }
}

/// Point-in-time copy of every registry value. Subtract two snapshots to
/// get per-interval (e.g. per-MD-step) deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceSnapshot {
    pub counters: [u64; Counter::COUNT],
    pub phase_ns: [u64; Phase::COUNT],
    pub gauges: [f64; Gauge::COUNT],
}

impl TraceSnapshot {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.phase_ns[p.index()]
    }

    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges[g.index()]
    }

    /// Counter/timer deltas since `earlier` (gauges keep `self`'s values;
    /// they are not monotonic). Saturates rather than wrapping if `earlier`
    /// post-dates `self`.
    pub fn since(&self, earlier: &TraceSnapshot) -> TraceSnapshot {
        let mut out = *self;
        for i in 0..Counter::COUNT {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..Phase::COUNT {
            out.phase_ns[i] = self.phase_ns[i].saturating_sub(earlier.phase_ns[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hist, ScopedSink};

    #[test]
    fn since_across_a_reset_saturates_at_zero() {
        let sink = ScopedSink::new("reset");
        let _guard = sink.enter();
        crate::add(Counter::NlRebuilds, 40);
        crate::record_ns(Hist::Forces, 9_000);
        let before = sink.snapshot();
        sink.reset();
        crate::add(Counter::NlRebuilds, 3);
        crate::record_ns(Hist::Forces, 100);
        let after = sink.snapshot();
        // The scope went backwards across the reset; the delta must
        // clamp to zero instead of wrapping to ~u64::MAX.
        let delta = after.since(&before);
        assert_eq!(delta.counter(Counter::NlRebuilds), 0);
        assert_eq!(delta.phase_ns(Phase::Forces), 0);
        // Forward deltas still work after the reset.
        crate::add(Counter::NlRebuilds, 5);
        assert_eq!(
            sink.snapshot().since(&after).counter(Counter::NlRebuilds),
            5
        );
    }
}

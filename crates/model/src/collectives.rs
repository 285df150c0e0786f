//! The handle an evaluation body runs against: one rank's place among its
//! peers, the collectives every body reaches and the phase clock.
//!
//! Each method has one body, written once against [`Collectives`]
//! ([`crate::TbCalculator::compute_on`] for the dense solve, the O(N)
//! engine's in `tbmd-linscale`). A serial engine runs it once on [`Solo`],
//! whose collectives do nothing and whose laps close the phase spans; a
//! distributed engine runs it on every rank of a virtual machine, whose
//! `Rank` (in `tbmd-parallel`) implements the handle with real messages.

use std::ops::Range;
use std::time::{Duration, Instant};
use tbmd_linalg::Vec3;
use tbmd_trace::Phase;

/// One rank of an evaluation, as its body sees it.
pub trait Collectives {
    /// This rank's id in `0..size`.
    fn id(&self) -> usize;

    /// Number of ranks in the evaluation.
    fn size(&self) -> usize;

    /// This rank's [`partition_range`] of `n` items.
    fn share(&self, n: usize) -> Range<usize> {
        partition_range(n, self.size(), self.id())
    }

    /// Element-wise sum of every rank's `data`, left in every rank's.
    fn allreduce_sum(&mut self, tag: u64, data: &mut Vec<f64>);

    /// Every rank's block of forces, concatenated in rank order, on rank 0;
    /// `None` on the others.
    fn gather_forces(&mut self, tag: u64, block: Vec<Vec3>) -> Option<Vec<Vec3>>;

    /// Attribute analytically counted flops to this rank (the cost model's
    /// input).
    fn count_flops(&self, flops: u64);

    /// Close `phase`, begun at the previous lap: returns its compute time,
    /// with the time blocked in collectives since then added to
    /// `communication`.
    fn lap(&mut self, phase: Phase, communication: &mut Duration) -> Duration;
}

/// The one-rank handle: no messages, no flop accounting, and each lap
/// closes the phase's trace span, so a serial evaluation's timeline has one
/// span per phase.
pub struct Solo {
    mark: Instant,
}

impl Solo {
    /// A lone rank, clocking its first phase from now.
    pub fn start() -> Self {
        Solo {
            mark: Instant::now(),
        }
    }
}

impl Collectives for Solo {
    fn id(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn allreduce_sum(&mut self, _: u64, _: &mut Vec<f64>) {}

    fn gather_forces(&mut self, _: u64, block: Vec<Vec3>) -> Option<Vec<Vec3>> {
        Some(block)
    }

    fn count_flops(&self, _: u64) {}

    fn lap(&mut self, phase: Phase, _: &mut Duration) -> Duration {
        let d = tbmd_trace::span_since(phase, self.mark).finish();
        self.mark += d;
        d
    }
}

/// Evenly partition `n` items over `size` ranks; returns rank `r`'s
/// half-open range. The first `n % size` ranks get one extra item.
pub fn partition_range(n: usize, size: usize, r: usize) -> Range<usize> {
    let base = n / size;
    let extra = n % size;
    let start = r * base + r.min(extra);
    let len = base + usize::from(r < extra);
    start..(start + len)
}

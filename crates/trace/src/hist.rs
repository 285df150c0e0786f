//! Fixed-size log-bucketed latency histograms.
//!
//! Each [`Histogram`] is a block of atomics — a count, a nanosecond sum and
//! [`HIST_BUCKETS`] bucket counters — so recording is lock-free, allocation
//! free, and safe from any thread. Buckets are log-linear: four sub-buckets
//! per power of two, which bounds the relative quantization error of any
//! reconstructed percentile at 1/8 (12.5%) while keeping the whole table
//! small enough to snapshot by `memcpy`. The layout is fixed at compile
//! time, so the disabled-mode cost of a recording site stays the same one
//! relaxed atomic load as the counters in [`crate::ScopedSink`].
//!
//! [`HistSnapshot`] is the plain-data copy: it subtracts ([`HistSnapshot::since`]),
//! merges ([`HistSnapshot::merge`]) and reconstructs percentiles
//! ([`HistSnapshot::percentile_ns`]) without touching the live atomics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (power of two). 4 ⇒ ≤12.5% relative error.
const SUBS: u64 = 4;

/// Total buckets. Indices 0–3 hold the exact values 0–3 ns; from there each
/// octave contributes four buckets, so the last regular bucket starts at
/// `(4 + 3) << 37` ≈ 16 min. Everything larger lands in the final
/// (overflow) bucket.
pub const HIST_BUCKETS: usize = 160;

/// Bucket index for a nanosecond value.
#[inline]
pub const fn bucket_index(ns: u64) -> usize {
    if ns < SUBS {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as u64; // ≥ 2
    let sub = (ns >> (e - 2)) & (SUBS - 1);
    let idx = ((e - 1) * SUBS + sub) as usize;
    if idx < HIST_BUCKETS {
        idx
    } else {
        HIST_BUCKETS - 1
    }
}

/// Inclusive lower bound of a bucket, in nanoseconds.
#[inline]
pub const fn bucket_lower(index: usize) -> u64 {
    if index < SUBS as usize {
        return index as u64;
    }
    let e = index as u64 / SUBS + 1;
    let sub = index as u64 % SUBS;
    (SUBS + sub) << (e - 2)
}

/// Exclusive upper bound of a bucket, in nanoseconds. The overflow bucket
/// reports twice its lower bound — wide, but finite, so percentile
/// reconstruction never returns infinity.
#[inline]
pub const fn bucket_upper(index: usize) -> u64 {
    if index + 1 < HIST_BUCKETS {
        bucket_lower(index + 1)
    } else {
        bucket_lower(HIST_BUCKETS - 1).saturating_mul(2)
    }
}

/// The latency distributions the registry tracks. The first
/// [`crate::Phase::COUNT`] variants mirror [`crate::Phase`] index-for-index
/// so a span can feed its histogram with no lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Per-span duration of [`crate::Phase::Neighbors`].
    Neighbors,
    /// Per-span duration of [`crate::Phase::Hamiltonian`].
    Hamiltonian,
    /// Per-span duration of [`crate::Phase::Diagonalize`].
    Diagonalize,
    /// Per-span duration of [`crate::Phase::Density`].
    Density,
    /// Per-span duration of [`crate::Phase::Forces`].
    Forces,
    /// Per-span duration of [`crate::Phase::Communication`].
    Communication,
    /// Wall time of one MD step through `Session::step`.
    Step,
    /// Time a serve job waited in the admission queue before its lease.
    AdmissionWait,
    /// Wall time of one serve time slice: the `Session::step`s a scheduler
    /// thread runs of one tenant before it takes the next.
    Quantum,
}

impl Hist {
    pub const COUNT: usize = 9;
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::Neighbors,
        Hist::Hamiltonian,
        Hist::Diagonalize,
        Hist::Density,
        Hist::Forces,
        Hist::Communication,
        Hist::Step,
        Hist::AdmissionWait,
        Hist::Quantum,
    ];

    pub const fn index(self) -> usize {
        self as usize
    }

    /// The histogram fed by spans over `phase`.
    pub const fn for_phase(phase: crate::Phase) -> Hist {
        Hist::ALL[phase.index()]
    }

    /// Stable snake_case name used as the JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::Neighbors => "neighbors_ns",
            Hist::Hamiltonian => "hamiltonian_ns",
            Hist::Diagonalize => "diagonalize_ns",
            Hist::Density => "density_ns",
            Hist::Forces => "forces_ns",
            Hist::Communication => "communication_ns",
            Hist::Step => "step_ns",
            Hist::AdmissionWait => "admission_wait_ns",
            Hist::Quantum => "quantum_ns",
        }
    }
}

/// One live latency distribution: lock-free to record, cheap to snapshot.
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one nanosecond sample: three relaxed atomic adds, no branch
    /// beyond the bucket clamp.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the distribution out. Not atomic as a whole — concurrent
    /// recording may leave the copy one sample ahead in `count` vs the
    /// buckets; percentiles tolerate that.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Total nanoseconds recorded.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Zero every cell.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Plain-data copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            count: 0,
            sum_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean in nanoseconds (`None` when empty — exact, unlike
    /// the bucketed percentiles).
    pub fn mean_ns(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_ns as f64 / self.count as f64)
        }
    }

    /// The delta accumulated after `earlier` was taken. Saturates at zero
    /// cell-wise, so a snapshot taken across a [`Histogram::reset`] yields
    /// an empty delta instead of wrapping.
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }

    /// Sum two distributions (e.g. roll per-rank views up into a total).
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_add(other.count),
            sum_ns: self.sum_ns.saturating_add(other.sum_ns),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_add(other.buckets[i])),
        }
    }

    /// Reconstruct the `q`-quantile (`0.0..=1.0`) in nanoseconds by linear
    /// interpolation inside the owning bucket; `None` when empty. Bounded
    /// by the bucket edges, so the error is at most one bucket width
    /// (≤25% of the value; 12.5% from the midpoint).
    pub fn percentile_ns(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if seen >= target {
                let lo = bucket_lower(i) as f64;
                let hi = bucket_upper(i) as f64;
                let frac = (target - before) as f64 / c as f64;
                return Some(lo + frac * (hi - lo));
            }
        }
        // count says there are samples the buckets lost (torn concurrent
        // snapshot); answer with the top of the populated range.
        Some(bucket_upper(HIST_BUCKETS - 1) as f64)
    }

    /// p50/p90/p99 in one call, for report tables.
    pub fn quantiles_ns(&self) -> Option<[f64; 3]> {
        Some([
            self.percentile_ns(0.50)?,
            self.percentile_ns(0.90)?,
            self.percentile_ns(0.99)?,
        ])
    }
}

/// Snapshot of every histogram in a sink, indexed by [`Hist`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSet {
    pub hists: [HistSnapshot; Hist::COUNT],
}

impl HistogramSet {
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h.index()]
    }

    /// Cell-wise delta (saturating) — see [`HistSnapshot::since`].
    pub fn since(&self, earlier: &HistogramSet) -> HistogramSet {
        HistogramSet {
            hists: std::array::from_fn(|i| self.hists[i].since(&earlier.hists[i])),
        }
    }

    /// Cell-wise sum — see [`HistSnapshot::merge`].
    pub fn merge(&self, other: &HistogramSet) -> HistogramSet {
        HistogramSet {
            hists: std::array::from_fn(|i| self.hists[i].merge(&other.hists[i])),
        }
    }

    /// Total samples across every histogram.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(|h| h.count).sum()
    }

    /// JSON form: one object per non-empty histogram with count, mean and
    /// p50/p90/p99 (in milliseconds, matching the step-record convention).
    pub fn to_json(&self) -> crate::JsonValue {
        const MS: f64 = 1e-6;
        let mut out = crate::JsonValue::object();
        for h in Hist::ALL {
            let snap = self.hist(h);
            if snap.is_empty() {
                continue;
            }
            let mut obj = crate::JsonValue::object();
            obj.set("count", snap.count as f64);
            if let Some(mean) = snap.mean_ns() {
                obj.set("mean_ms", mean * MS);
            }
            if let Some([p50, p90, p99]) = snap.quantiles_ns() {
                obj.set("p50_ms", p50 * MS)
                    .set("p90_ms", p90 * MS)
                    .set("p99_ms", p99 * MS);
            }
            let key = h.name().trim_end_matches("_ns");
            out.set(key, obj);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_consistent() {
        for i in 0..HIST_BUCKETS {
            let lo = bucket_lower(i);
            let hi = bucket_upper(i);
            assert!(lo < hi, "bucket {i}: [{lo}, {hi})");
            assert_eq!(bucket_index(lo), i, "lower bound of {i} maps back");
            if i + 1 < HIST_BUCKETS {
                assert_eq!(bucket_index(hi - 1), i, "last value of {i} maps back");
                assert_eq!(bucket_index(hi), i + 1, "upper bound of {i} is exclusive");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for ns in [5u64, 17, 1_000, 123_456, 7_654_321, 987_654_321] {
            let i = bucket_index(ns);
            let width = bucket_upper(i) - bucket_lower(i);
            // Four sub-buckets per octave: a bucket spans at most a
            // quarter of its lower bound, so midpoint reconstruction is
            // within 12.5% of the true value.
            assert!(
                (width as f64) <= 0.251 * ns.max(1) as f64 + 1.0,
                "bucket width {width} too wide for {ns}"
            );
        }
    }

    #[test]
    fn percentiles_interpolate_and_bound() {
        let h = Histogram::default();
        for ns in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
            h.record(ns * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10);
        let p50 = s.percentile_ns(0.50).unwrap();
        let p99 = s.percentile_ns(0.99).unwrap();
        assert!(p50 >= bucket_lower(bucket_index(100_000)) as f64);
        assert!(p50 <= bucket_upper(bucket_index(500_000)) as f64);
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= bucket_upper(bucket_index(1_000_000)) as f64);
        let mean = s.mean_ns().unwrap();
        assert!((mean - 550_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_single_and_overflow_edge_cases() {
        let s = HistSnapshot::default();
        assert!(s.percentile_ns(0.5).is_none());
        assert!(s.mean_ns().is_none());

        let h = Histogram::default();
        h.record(42);
        let one = h.snapshot();
        let p = one.percentile_ns(0.5).unwrap();
        assert!(p >= bucket_lower(bucket_index(42)) as f64);
        assert!(p <= bucket_upper(bucket_index(42)) as f64);

        let h = Histogram::default();
        h.record(u64::MAX);
        let of = h.snapshot();
        assert_eq!(of.buckets[HIST_BUCKETS - 1], 1);
        let p = of.percentile_ns(1.0).unwrap();
        assert!(p.is_finite());
    }

    #[test]
    fn since_saturates_across_reset() {
        let h = Histogram::default();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.reset();
        h.record(30);
        let after = h.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.count, 0, "reset shrank the count; delta saturates");
        // Saturating subtraction: no delta bucket exceeds what the
        // post-reset snapshot actually holds (no wrap-around junk).
        for (d, a) in delta.buckets.iter().zip(after.buckets.iter()) {
            assert!(d <= a, "wrapped bucket delta {d} > {a}");
        }
    }

    #[test]
    fn merge_sums_counts() {
        let (a, b) = (Histogram::default(), Histogram::default());
        a.record(100);
        a.record(100_000);
        b.record(100);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.buckets[bucket_index(100)], 2);
        assert_eq!(m.buckets[bucket_index(100_000)], 1);
    }
}

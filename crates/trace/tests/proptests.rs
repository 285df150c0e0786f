//! Property-based tests for the telemetry layer: histogram bucketing,
//! percentile reconstruction, merge/since algebra, and snapshot deltas.
//!
//! These pin the invariants the serve `stats` verb and the bench gates
//! lean on: percentiles never leave the recorded range (up to bucket
//! quantization), merge is a cell-wise sum, and deltas saturate instead
//! of wrapping across resets.

use proptest::prelude::*;
use tbmd_trace::hist::{bucket_index, bucket_lower, bucket_upper, HIST_BUCKETS};
use tbmd_trace::{Hist, HistSnapshot, HistogramSet, ScopedSink};

/// The `Hist::Step` distribution of a scope written directly — what the
/// serve `stats` verb reads back.
fn step_hist(sink: &ScopedSink) -> HistSnapshot {
    sink.histograms().hist(Hist::Step).clone()
}

fn hist_of(samples: &[u64]) -> HistSnapshot {
    let sink = ScopedSink::new("prop");
    for &s in samples {
        sink.record_ns(Hist::Step, s);
    }
    step_hist(&sink)
}

proptest! {
    /// Every u64 lands in exactly one bucket whose bounds contain it.
    #[test]
    fn bucketing_is_total_and_consistent(ns in 0u64..u64::MAX) {
        let i = bucket_index(ns);
        prop_assert!(i < HIST_BUCKETS);
        prop_assert!(bucket_lower(i) <= ns);
        if i + 1 < HIST_BUCKETS {
            prop_assert!(ns < bucket_upper(i));
        }
    }

    /// Percentiles stay within the bucket-quantized hull of the samples
    /// and are monotone in q.
    #[test]
    fn percentiles_bounded_and_monotone(
        mut samples in prop::collection::vec(0u64..u64::MAX / 2, 1..200),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let snap = hist_of(&samples);
        samples.sort_unstable();
        let (lo, hi) = (samples[0], samples[samples.len() - 1]);
        let (qlo, qhi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let plo = snap.percentile_ns(qlo).unwrap();
        let phi = snap.percentile_ns(qhi).unwrap();
        prop_assert!(plo <= phi, "p({qlo})={plo} > p({qhi})={phi}");
        prop_assert!(plo >= bucket_lower(bucket_index(lo)) as f64);
        prop_assert!(phi <= bucket_upper(bucket_index(hi)) as f64);
    }

    /// A single sample: every percentile collapses to that sample's bucket.
    #[test]
    fn single_sample_percentiles_hit_its_bucket(ns in 0u64..u64::MAX, q in 0.0f64..=1.0) {
        let snap = hist_of(&[ns]);
        let p = snap.percentile_ns(q).unwrap();
        prop_assert!(p >= bucket_lower(bucket_index(ns)) as f64);
        prop_assert!(p <= bucket_upper(bucket_index(ns)) as f64);
        prop_assert!(p.is_finite());
    }

    /// Merge is a cell-wise sum: counts add, and every percentile of the
    /// merge lies within the merged sample hull.
    #[test]
    fn merge_adds_counts_and_buckets(
        a in prop::collection::vec(0u64..1 << 40, 0..100),
        b in prop::collection::vec(0u64..1 << 40, 0..100),
    ) {
        let (sa, sb) = (hist_of(&a), hist_of(&b));
        let merged = sa.merge(&sb);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        let mut both = a.clone();
        both.extend_from_slice(&b);
        prop_assert_eq!(merged, hist_of(&both));
    }

    /// since() recovers exactly the samples recorded between snapshots,
    /// and saturates (empty delta) when "earlier" is actually later.
    #[test]
    fn since_is_exact_forward_and_saturates_backward(
        first in prop::collection::vec(0u64..1 << 40, 0..50),
        second in prop::collection::vec(0u64..1 << 40, 0..50),
    ) {
        let sink = ScopedSink::new("prop");
        for &s in &first {
            sink.record_ns(Hist::Step, s);
        }
        let early = step_hist(&sink);
        for &s in &second {
            sink.record_ns(Hist::Step, s);
        }
        let late = step_hist(&sink);
        prop_assert_eq!(late.since(&early), hist_of(&second));
        let backwards = early.since(&late);
        prop_assert_eq!(backwards.count(), 0);
        prop_assert!(backwards.buckets.iter().all(|&b| b == 0));
    }

    /// The overflow bucket behaves like any other: huge samples count,
    /// merge, and produce finite percentiles.
    #[test]
    fn overflow_bucket_is_well_behaved(
        huge in prop::collection::vec(u64::MAX / 2..=u64::MAX, 1..20),
        q in 0.0f64..=1.0,
    ) {
        let snap = hist_of(&huge);
        prop_assert_eq!(snap.buckets[HIST_BUCKETS - 1], huge.len() as u64);
        let p = snap.percentile_ns(q).unwrap();
        prop_assert!(p.is_finite());
        prop_assert!(p >= bucket_lower(HIST_BUCKETS - 1) as f64);
    }
}

#[test]
fn histogram_set_since_and_merge_track_per_hist() {
    let sink = ScopedSink::new("direct");
    sink.record_ns(Hist::Step, 1_000);
    let early = sink.histograms();
    sink.record_ns(Hist::Step, 2_000);
    sink.record_ns(Hist::Quantum, 5_000);
    let late = sink.histograms();
    let delta = late.since(&early);
    assert_eq!(delta.hist(Hist::Step).count(), 1);
    assert_eq!(delta.hist(Hist::Quantum).count(), 1);
    assert_eq!(delta.total_count(), 2);
    let doubled = late.merge(&late);
    assert_eq!(doubled.hist(Hist::Step).count(), 4);
    // Empty set: since/merge identities.
    let empty = HistogramSet::default();
    assert_eq!(late.merge(&empty), late);
    assert_eq!(empty.since(&late), HistogramSet::default());
}

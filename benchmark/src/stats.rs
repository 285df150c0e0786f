//! Order statistics for timing samples.

/// Percentiles a timing may be reported at, in per mille, ascending.
const CANDIDATES_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is worth reporting.
const MIN_BEYOND: usize = 10;

/// The highest percentile `n` samples support: the largest candidate with at
/// least ten samples beyond it. The median is always reportable.
pub fn highest_supported_percentile(n: usize) -> f64 {
    CANDIDATES_PER_MILLE
        .iter()
        .filter(|&&pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
        .fold(0.5, |best, &pm| best.max(pm as f64 / 1000.0))
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    p <= highest_supported_percentile(n)
}

/// Percentile by linear interpolation between order statistics (the same
/// rule as Python's `statistics.quantiles(..., method="inclusive")`).
/// `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Median of `samples` (non-empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Throughput of a window that is robust to the host stalling part of it:
/// `laps` (seconds per operation, in order) are cut into at most `blocks`
/// contiguous groups of equal size and the median of the groups' rates
/// (operations ÷ wall time) is returned. Operations left over after the last
/// full group are dropped.
pub fn median_block_rate(laps: &[f64], blocks: usize) -> f64 {
    assert!(!laps.is_empty() && blocks > 0, "rate of an empty window");
    let size = (laps.len() / blocks).max(1);
    let rates: Vec<f64> = laps
        .chunks_exact(size)
        .map(|c| size as f64 / c.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the acceptance rule of `BENCHMARK.json` is stated in.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // Exclusive method: position k(n+1)/4 on a 1-based scale, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    let med = percentile(&s, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)).abs() / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // The median is always reportable, however few the samples.
        assert_eq!(highest_supported_percentile(1), 0.5);
        assert_eq!(highest_supported_percentile(16), 0.5);
        assert_eq!(highest_supported_percentile(45), 0.5);
        // 99 samples leave 9.9 beyond p90; 100 leave exactly 10.
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        // The serve mix: 120 latencies leave 12 beyond p90, 6 beyond p95.
        assert_eq!(highest_supported_percentile(120), 0.9);
        assert_eq!(highest_supported_percentile(200), 0.95);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert!(supports(120, 0.9) && !supports(120, 0.99));
        assert!(supports(3, 0.5));
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert!((percentile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn block_rate_ignores_a_stalled_minority() {
        // Ten laps of 0.1 s: 10 ops/s whatever the grouping.
        assert!((median_block_rate(&[0.1; 10], 5) - 10.0).abs() < 1e-12);
        // A stall in one block of five moves the mean rate, not the median.
        let mut laps = vec![0.1; 10];
        laps[0] = 1.0;
        assert!((median_block_rate(&laps, 5) - 10.0).abs() < 1e-12);
        // Fewer laps than blocks: one lap per block.
        assert!((median_block_rate(&[0.5, 0.25, 0.5], 10) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}

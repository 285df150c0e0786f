//! Sturm-sequence bisection for selected eigenvalues of a symmetric
//! tridiagonal matrix.
//!
//! TBMD only needs the lowest `N_electrons/2` eigenvalues for the band
//! energy; computing the full spectrum is wasted work. The era's codes
//! used EISPACK's `BISECT`: the Sturm count
//!
//! ```text
//! σ(x) = #{ eigenvalues < x }
//! ```
//!
//! follows from the signs of the recurrence `q_1 = d_1 − x`,
//! `q_i = d_i − x − e_i²/q_{i−1}`, and bisection on σ isolates any
//! eigenvalue to machine precision in ~60 iterations, independent of the
//! others. [`tridiagonal_eigenvalues_range_into`] runs it for a window of
//! indices, eight shifts per pass over `(d, e)`: the distributed solver's
//! spectrum slice.

/// Gershgorin bounds of the tridiagonal matrix.
fn tridiagonal_bounds(d: &[f64], e: &[f64]) -> (f64, f64) {
    let n = d.len();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let r = if i > 0 { e[i].abs() } else { 0.0 } + if i + 1 < n { e[i + 1].abs() } else { 0.0 };
        lo = lo.min(d[i] - r);
        hi = hi.max(d[i] + r);
    }
    if n == 0 {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Shift lanes of the multi-shift Sturm pass: the recurrence is strictly
/// sequential in the matrix index but embarrassingly parallel across
/// shifts, so evaluating 8 shifts per sweep turns the latency-bound
/// scalar division chain into one vector division per element.
const STURM_LANES: usize = 8;

/// Sturm counts — eigenvalues of the tridiagonal matrix `(d, e)` strictly
/// below each shift — for `STURM_LANES` shifts in one pass over `(d, e)`.
/// `e[0]` is unused; `e[i]` couples rows `i−1` and `i`, the output
/// convention of [`crate::eigh::tridiagonalize`]. When `q` underflows the
/// division uses a tiny number of the same sign instead, a branchless
/// select, so a lane's count never depends on what the other lanes hold.
fn sturm_count_multi(d: &[f64], e: &[f64], x: &[f64; STURM_LANES]) -> [usize; STURM_LANES] {
    let n = d.len();
    let mut counts = [0usize; STURM_LANES];
    if n == 0 {
        return counts;
    }
    let tiny = f64::MIN_POSITIVE.sqrt();
    let mut q = [0.0f64; STURM_LANES];
    for l in 0..STURM_LANES {
        q[l] = d[0] - x[l];
        counts[l] += (q[l] < 0.0) as usize;
    }
    for i in 1..n {
        let di = d[i];
        let ei2 = e[i] * e[i];
        for l in 0..STURM_LANES {
            let sign = if q[l] < 0.0 { -1.0 } else { 1.0 };
            let denom = if q[l].abs() < tiny { tiny * sign } else { q[l] };
            q[l] = di - x[l] - ei2 / denom;
            counts[l] += (q[l] < 0.0) as usize;
        }
    }
    counts
}

/// Batched bisection: eigenvalue indices `start + i` for
/// `i < out.len()`, all inside the shared pre-widened bracket, resolved
/// `STURM_LANES` at a time. Converged lanes are frozen (their brackets
/// stop moving), so every index follows exactly the midpoint sequence an
/// independent scalar bisection would — the result is bitwise
/// independent of how indices are grouped into lanes, which is what lets
/// disjoint distributed ranges concatenate to the full-spectrum answer.
fn kth_eigenvalues_batched(
    d: &[f64],
    e: &[f64],
    start: usize,
    lo0: f64,
    hi0: f64,
    out: &mut [f64],
) {
    for (c, chunk) in out.chunks_mut(STURM_LANES).enumerate() {
        let m = chunk.len();
        let mut lo = [lo0; STURM_LANES];
        let mut hi = [hi0; STURM_LANES];
        let mut done = [false; STURM_LANES];
        let mut mid = [lo0; STURM_LANES];
        for _ in 0..120 {
            let mut all_done = true;
            for l in 0..m {
                mid[l] = 0.5 * (lo[l] + hi[l]);
                all_done &= done[l];
            }
            if all_done {
                break;
            }
            let counts = sturm_count_multi(d, e, &mid);
            for l in 0..m {
                if done[l] {
                    continue;
                }
                let k = start + c * STURM_LANES + l;
                if counts[l] <= k {
                    lo[l] = mid[l];
                } else {
                    hi[l] = mid[l];
                }
                if hi[l] - lo[l] <= f64::EPSILON * (lo[l].abs() + hi[l].abs() + 1.0) {
                    done[l] = true;
                }
            }
        }
        for l in 0..m {
            chunk[l] = 0.5 * (lo[l] + hi[l]);
        }
    }
}

/// Gershgorin bounds widened by a safety margin so every eigenvalue lies
/// strictly inside the bisection bracket.
fn widened_bounds(d: &[f64], e: &[f64]) -> (f64, f64) {
    let (mut lo, mut hi) = tridiagonal_bounds(d, e);
    lo -= 1e-8 + 1e-12 * lo.abs();
    hi += 1e-8 + 1e-12 * hi.abs();
    (lo, hi)
}

/// Rank-shardable spectrum slicing: eigenvalues with (0-based, ascending)
/// indices in `range` written into `out`, reusing its allocation.
///
/// The Gershgorin bracket is computed once and every index is isolated by an
/// independent Sturm bisection inside it (fanned out over the team, no
/// cross-index communication), converging to machine precision regardless
/// of clustering — the Sturm count handles multiplicities exactly. Disjoint
/// ranges computed on different message-passing ranks therefore concatenate
/// to exactly the vector a single full-spectrum call would produce. This is
/// the distributed-slicing entry point: `partition_range(n, p, r)` hands each
/// rank its index window and the concatenated `allgather` of the per-rank
/// outputs is ascending by construction.
///
/// # Panics
/// Panics if `range.end > d.len()`.
pub fn tridiagonal_eigenvalues_range_into(
    d: &[f64],
    e: &[f64],
    range: std::ops::Range<usize>,
    out: &mut Vec<f64>,
) {
    let n = d.len();
    assert!(
        range.end <= n,
        "eigenvalue range {range:?} out of bounds for size {n}"
    );
    out.clear();
    out.resize(range.len(), 0.0);
    if range.is_empty() {
        return;
    }
    let (lo, hi) = widened_bounds(d, e);
    let start = range.start;
    crate::team::chunks_for_each(crate::team::width(), out, STURM_LANES, |c, chunk| {
        kth_eigenvalues_batched(d, e, start + c * STURM_LANES, lo, hi, chunk);
    });
}

/// Snap an index `range` over the sorted eigenvalues `lambda` forward to
/// cluster boundaries: both endpoints move up to the first index whose gap
/// from its predecessor exceeds `ctol`, so no cluster of near-degenerate
/// eigenvalues straddles a range boundary.
///
/// Used to assign each degenerate cluster to exactly one owner rank in the
/// distributed two-stage solver — the per-cluster Gram–Schmidt and
/// Rayleigh–Ritz work of inverse iteration (see
/// [`crate::inverse_iteration`]) then stays local to that rank. Applying
/// this to every boundary of a `partition_range` tiling yields ranges that
/// still tile `0..lambda.len()` exactly (snapping is monotone and depends
/// only on the boundary index, not on the rank).
pub fn snap_range_to_clusters(
    lambda: &[f64],
    ctol: f64,
    range: std::ops::Range<usize>,
) -> std::ops::Range<usize> {
    let snap = |mut i: usize| {
        while i > 0 && i < lambda.len() && lambda[i] - lambda[i - 1] <= ctol {
            i += 1;
        }
        i.min(lambda.len())
    };
    let start = snap(range.start);
    let end = snap(range.end.max(start));
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigh::{eigvalsh, tridiagonalize};
    use crate::matrix::Matrix;

    fn symmetric_test_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    /// The lowest `k` eigenvalues of `a` through the Householder reduction
    /// and [`tridiagonal_eigenvalues_range_into`].
    fn lowest(mut a: Matrix, k: usize) -> Vec<f64> {
        let (d, e) = tridiagonalize(&mut a, false);
        let mut values = Vec::new();
        tridiagonal_eigenvalues_range_into(&d, &e, 0..k, &mut values);
        values
    }

    #[test]
    fn sturm_counts_on_diagonal_matrix() {
        let d = [1.0, 3.0, 5.0];
        let e = [0.0, 0.0, 0.0];
        let x = [0.0, 2.0, 4.0, 6.0, -1.0, 1.5, 3.5, 9.0];
        assert_eq!(sturm_count_multi(&d, &e, &x), [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn sturm_counts_are_monotone() {
        let d = [0.5, -1.0, 2.0, 0.0, 1.5];
        let e = [0.0, 0.7, -0.3, 0.9, 0.2];
        let shifts: Vec<f64> = (-40..40).map(|k| k as f64 * 0.25).collect();
        let counts: Vec<usize> = shifts
            .chunks_exact(STURM_LANES)
            .flat_map(|x| sturm_count_multi(&d, &e, x.try_into().unwrap()))
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(counts.last(), Some(&5));
    }

    #[test]
    fn range_matches_analytic_toeplitz() {
        // Tridiagonal Toeplitz: analytic eigenvalues 2 − 2cos(kπ/(n+1)).
        let n = 14;
        let d = vec![2.0; n];
        let mut e = vec![-1.0; n];
        e[0] = 0.0;
        let mut found = Vec::new();
        tridiagonal_eigenvalues_range_into(&d, &e, 0..n, &mut found);
        for (k, found) in found.iter().enumerate() {
            let expect =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((found - expect).abs() < 1e-10, "k={k}: {found} vs {expect}");
        }
    }

    #[test]
    fn lowest_window_matches_full_spectrum() {
        for n in [3usize, 8, 20, 24, 33] {
            let a = symmetric_test_matrix(n, 17 + n as u64);
            let full = eigvalsh(a.clone()).unwrap();
            let k = n / 2 + 1;
            let partial = lowest(a, k);
            assert_eq!(partial.len(), k);
            for (i, (p, f)) in partial.iter().zip(&full).enumerate() {
                assert!((p - f).abs() < 1e-9, "n={n}, λ_{i}: {p} vs {f}");
            }
        }
    }

    #[test]
    fn range_handles_degeneracies() {
        // diag(1,1,1,4) — triple eigenvalue.
        let vals = lowest(Matrix::from_diagonal(&[4.0, 1.0, 1.0, 1.0]), 4);
        for (got, want) in vals.iter().zip([1.0, 1.0, 1.0, 4.0]) {
            assert!((got - want).abs() < 1e-10, "{vals:?}");
        }
    }

    #[test]
    fn range_slices_concatenate_to_full_spectrum() {
        let n = 21;
        let a = symmetric_test_matrix(n, 7);
        let mut a = a;
        let (d, e) = tridiagonalize(&mut a, false);
        let mut full = Vec::new();
        tridiagonal_eigenvalues_range_into(&d, &e, 0..n, &mut full);
        // Three disjoint ranges must reproduce the full call bitwise.
        let mut out = Vec::new();
        let mut concat = Vec::new();
        for r in [0..7usize, 7..15, 15..21] {
            tridiagonal_eigenvalues_range_into(&d, &e, r, &mut out);
            concat.extend_from_slice(&out);
        }
        assert_eq!(concat.len(), n);
        for (i, (c, f)) in concat.iter().zip(&full).enumerate() {
            assert!(c == f, "λ_{i}: sliced {c} != full {f}");
        }
        // Empty range.
        tridiagonal_eigenvalues_range_into(&d, &e, 4..4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn snapping_keeps_clusters_whole() {
        let lambda = [0.0, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 2.0, 3.0];
        let ctol = 1e-6;
        // Boundary inside the triple cluster at 1.0 moves past it.
        assert_eq!(snap_range_to_clusters(&lambda, ctol, 0..2), 0..4);
        assert_eq!(snap_range_to_clusters(&lambda, ctol, 2..5), 4..5);
        assert_eq!(snap_range_to_clusters(&lambda, ctol, 3..6), 4..6);
        // Boundaries on gaps are untouched.
        assert_eq!(snap_range_to_clusters(&lambda, ctol, 1..5), 1..5);
        // Snapped partition_range-style tiling still tiles exactly.
        let cuts: Vec<usize> = [0usize, 2, 4, 6]
            .iter()
            .map(|&c| snap_range_to_clusters(&lambda, ctol, c..lambda.len()).start)
            .collect();
        assert_eq!(cuts.last(), Some(&lambda.len()));
        for w in cuts.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}

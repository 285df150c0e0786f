//! Inverse iteration for selected eigenvectors of a symmetric tridiagonal
//! matrix — stage two of the two-stage eigensolver.
//!
//! Given eigenvalues isolated to machine precision (Sturm bisection or QL on
//! the tridiagonal factor, see [`crate::bisection`] and [`crate::blocked`]),
//! each eigenvector follows from a handful of `O(n)` solves against the
//! shifted matrix `T − λI`, factored once per eigenvalue as `PLU` with
//! partial pivoting (LAPACK `stein`/`gttrf` style). Members of a *cluster*
//! of near-equal eigenvalues would all converge to the same dominant
//! direction, so inside a cluster every iterate is Gram–Schmidt
//! reorthogonalized against the finished cluster members, and the whole
//! cluster is finished with a Rayleigh–Ritz rotation (diagonalize
//! `Zᵀ T Z` in the cluster subspace) so near-degenerate — not exactly
//! degenerate — levels still receive accurate individual eigenvectors. That
//! accuracy matters downstream: under Fermi smearing, members of a
//! near-degenerate frontier cluster can carry *different* occupations, and
//! a mixed basis would leak those differences into the density matrix.
//!
//! Total cost is `O(k · n)` per solve sweep plus `O(c³)` per cluster of size
//! `c`, and all scratch lives in [`InverseIterScratch`], reused across MD
//! steps. Clusters are independent of each other, so a full-window call
//! ([`tridiagonal_eigenvectors_into`]) cuts `0..k` at cluster boundaries into
//! as many shards as the caller's compute lease allows and runs them side by
//! side. Every shard writes its own row band of the *one* `k × n` staging
//! buffer and brings only `O(n)` private scratch (plus `c × n` for a cluster
//! being rotated) — no second `n × k` buffer, no copy of `(d, e)` — and the
//! start vectors are keyed on the global eigenvalue index, so the result is
//! bitwise the one-shard result whatever the shard count.

use crate::bisection::snap_range_to_clusters;
use crate::eigh::{eigh_into, EighWorkspace};
use crate::kernels;
use crate::matrix::Matrix;

/// Maximum inverse-iteration sweeps per eigenvector. With shifts accurate to
/// machine precision one solve usually suffices; degenerate-cluster members
/// need a couple more after reorthogonalization.
const MAX_SWEEPS: usize = 5;

/// Cluster threshold relative to the matrix scale: consecutive eigenvalues
/// closer than this are reorthogonalized (and Rayleigh–Ritz-rotated) as one
/// group. Over-clustering is safe — the rotation recovers the individual
/// eigenvectors — so the threshold errs wide.
const CLUSTER_RTOL: f64 = 1e-6;

/// Reusable scratch of [`tridiagonal_eigenvectors_into`]: the row-major
/// eigenvector staging area all shards write into, and each shard's private
/// buffers.
#[derive(Debug, Default, Clone)]
pub struct InverseIterScratch {
    /// Finished eigenvectors, one *row* each (contiguous per vector for the
    /// Gram–Schmidt sweeps); transposed into the caller's column layout at
    /// the end. A shard owns the rows of its eigenvalue range.
    zrows: Matrix,
    /// One entry per shard of the widest call seen.
    shards: Vec<ShardScratch>,
}

/// What one shard needs besides its band of `zrows`: the `PLU` factor
/// arrays, the iterate and the per-cluster Rayleigh–Ritz buffers.
#[derive(Debug, Default, Clone)]
struct ShardScratch {
    /// Diagonal of `U`.
    du: Vec<f64>,
    /// First superdiagonal of `U`.
    u1: Vec<f64>,
    /// Second superdiagonal of `U` (filled in by row swaps).
    u2: Vec<f64>,
    /// Elimination multipliers.
    lmul: Vec<f64>,
    /// Row-swap flags of the partial pivoting.
    swapped: Vec<bool>,
    /// Current iterate.
    x: Vec<f64>,
    /// `T · z` scratch for Rayleigh quotients.
    tz: Vec<f64>,
    /// Cluster Gram matrix `Zᵀ T Z` / its eigenvector basis.
    cl_b: Matrix,
    /// Rotated cluster rows.
    cl_rot: Matrix,
    /// Ritz values and the scratch of their [`eigh_into`] solve.
    cl_values: Vec<f64>,
    cl_eigh: EighWorkspace,
}

/// Factor `T − shift·I = P L U` with partial pivoting (`gttrf` for a
/// symmetric tridiagonal). `d`/`e` use the crate convention (`e[0]` unused,
/// `e[i]` couples rows `i−1` and `i`).
fn factor_shifted(d: &[f64], e: &[f64], shift: f64, tiny: f64, s: &mut ShardScratch) {
    let n = d.len();
    s.du.clear();
    s.du.extend(d.iter().map(|&x| x - shift));
    s.u1.clear();
    s.u1.resize(n, 0.0);
    s.u2.clear();
    s.u2.resize(n, 0.0);
    s.lmul.clear();
    s.lmul.resize(n, 0.0);
    s.swapped.clear();
    s.swapped.resize(n, false);
    let m = n.saturating_sub(1);
    if m > 0 {
        s.u1[..m].copy_from_slice(&e[1..n]);
    }
    for i in 0..m {
        let b = e[i + 1];
        if s.du[i].abs() >= b.abs() {
            // No swap; guard an exactly-singular pivot.
            if s.du[i] == 0.0 {
                s.du[i] = tiny;
            }
            let l = b / s.du[i];
            s.lmul[i] = l;
            s.du[i + 1] -= l * s.u1[i];
            s.u1[i + 1] -= l * s.u2[i];
        } else {
            // Swap rows i and i+1 (|b| > |du[i]| ≥ 0, so b ≠ 0).
            s.swapped[i] = true;
            let (odd, ou1, ou2) = (s.du[i], s.u1[i], s.u2[i]);
            let l = odd / b;
            s.lmul[i] = l;
            s.du[i] = b;
            s.u1[i] = s.du[i + 1];
            s.u2[i] = s.u1[i + 1];
            s.du[i + 1] = ou1 - l * s.u1[i];
            s.u1[i + 1] = ou2 - l * s.u2[i];
        }
    }
    if s.du[n - 1] == 0.0 {
        s.du[n - 1] = tiny;
    }
}

/// Solve `(T − shift·I) x = b` in place using the current factorization.
fn solve_in_place(s: &ShardScratch, x: &mut [f64]) {
    let n = x.len();
    for i in 0..n.saturating_sub(1) {
        if s.swapped[i] {
            x.swap(i, i + 1);
        }
        x[i + 1] -= s.lmul[i] * x[i];
    }
    x[n - 1] /= s.du[n - 1];
    if n >= 2 {
        x[n - 2] = (x[n - 2] - s.u1[n - 2] * x[n - 1]) / s.du[n - 2];
    }
    for i in (0..n.saturating_sub(2)).rev() {
        x[i] = (x[i] - s.u1[i] * x[i + 1] - s.u2[i] * x[i + 2]) / s.du[i];
    }
}

/// Deterministic start vector: a splitmix-style hash of `(index, position)`
/// so repeated runs (and resumed workspaces) are bitwise identical.
#[inline]
fn seeded_entry(idx: usize, pos: usize) -> f64 {
    let mut z = (idx as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(pos as u64)
        .wrapping_add(0x632BE59BD9B4E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

#[inline]
fn norm(x: &[f64]) -> f64 {
    kernels::dot(x, x).sqrt()
}

/// Rayleigh–Ritz rotation of a finished cluster, given as its `c` rows of
/// the staging buffer: diagonalize `B = Zᵀ T Z` in the cluster subspace and
/// rotate the rows into the Ritz basis, recovering the true eigenvectors of
/// near-degenerate (not exactly degenerate) levels from the arbitrary
/// orthonormal basis inverse iteration produces.
fn rayleigh_ritz_rotate(d: &[f64], e: &[f64], cluster: &mut [f64], s: &mut ShardScratch) {
    let n = d.len();
    let c = cluster.len() / n;
    if c < 2 {
        return;
    }
    s.cl_b.resize_zeroed(c, c);
    for (q, zq) in cluster.chunks_exact(n).enumerate() {
        // tz = T z_q.
        s.tz.clear();
        s.tz.resize(n, 0.0);
        for i in 0..n {
            let mut acc = d[i] * zq[i];
            if i > 0 {
                acc += e[i] * zq[i - 1];
            }
            if i + 1 < n {
                acc += e[i + 1] * zq[i + 1];
            }
            s.tz[i] = acc;
        }
        // Row q holds z_p · T z_q = B[p, q]: Bᵀ, which the symmetrization
        // below averages into the same bits as B.
        for (b, zp) in s.cl_b.row_mut(q).iter_mut().zip(cluster.chunks_exact(n)) {
            *b = kernels::dot(zp, &s.tz);
        }
    }
    s.cl_b.symmetrize();
    // The one small dense solve: B = U diag(λ) Uᵀ.
    if eigh_into(&mut s.cl_b, &mut s.cl_values, &mut s.cl_eigh).is_err() {
        // Non-finite cluster matrix: leave the MGS basis untouched.
        return;
    }
    // Rotate: new row p = Σ_q U[q, p] · old row q.
    s.cl_rot.resize_zeroed(c, n);
    for p in 0..c {
        for (q, zq) in cluster.chunks_exact(n).enumerate() {
            let u = s.cl_b[(q, p)];
            if u == 0.0 {
                continue;
            }
            kernels::axpy(s.cl_rot.row_mut(p), u, zq);
        }
    }
    cluster.copy_from_slice(s.cl_rot.as_slice());
}

/// The cluster-detection tolerance [`tridiagonal_eigenvectors_into`] uses
/// for the tridiagonal matrix `(d, e)`: consecutive eigenvalues closer than
/// this are treated as one degenerate cluster.
///
/// Exposed so distributed callers can snap their eigenvalue-index shards to
/// the *same* cluster boundaries the inverse iteration will see (via
/// [`crate::bisection::snap_range_to_clusters`]), guaranteeing each cluster
/// a single owner rank.
pub fn cluster_tolerance(d: &[f64], e: &[f64]) -> f64 {
    CLUSTER_RTOL * scale_norm(d, e)
}

/// `max_i (|d_i| + |e_i| + |e_{i+1}|)`, floored at 1: the scale every
/// tolerance of the iteration is relative to.
fn scale_norm(d: &[f64], e: &[f64]) -> f64 {
    let n = d.len();
    (0..n)
        .map(|i| d[i].abs() + e[i].abs() + if i + 1 < n { e[i + 1].abs() } else { 0.0 })
        .fold(0.0f64, f64::max)
        .max(1.0)
}

/// Eigenvectors of the symmetric tridiagonal matrix `(d, e)` for the
/// pre-computed eigenvalues `lambda` (ascending), written column-wise into
/// `z` (`n × lambda.len()`, column `j` pairs with `lambda[j]`), by inverse
/// iteration with Gram–Schmidt reorthogonalization and Rayleigh–Ritz
/// rotation inside clusters.
///
/// The window is cut at cluster boundaries into as many shards as the
/// calling thread may take from the team ([`crate::team::width`]: the
/// compute lease's width, every hardware thread when unconstrained) and the
/// shards run side by side. A width-1 lease runs one
/// shard on the calling thread; the columns are bitwise the same either way.
///
/// `z` is reshaped with [`Matrix::resize_zeroed`]; after warmup the
/// numerical buffers no longer grow.
///
/// # Panics
/// Panics if `d.len() != e.len()`, `lambda.len() > d.len()` or `lambda` is
/// not sorted ascending.
pub fn tridiagonal_eigenvectors_into(
    d: &[f64],
    e: &[f64],
    lambda: &[f64],
    z: &mut Matrix,
    s: &mut InverseIterScratch,
) {
    eigenvectors_sharded(d, e, lambda, 0, crate::team::width(), z, s);
}

/// Offset-aware form of [`tridiagonal_eigenvectors_into`] for distributed
/// spectrum slicing: `lambda` is a contiguous sub-slice of a globally sorted
/// spectrum starting at global index `seed_offset`, and the deterministic
/// start vectors are keyed on the *global* index `seed_offset + j`. A rank's
/// slice is already one shard of the spectrum, so it runs as one shard on
/// the calling thread.
///
/// With shard boundaries snapped to cluster boundaries (so no cluster
/// straddles ranks and the shift-separation perturbation never crosses a
/// boundary — boundary gaps exceed the cluster tolerance, which dwarfs the
/// `10ε` shift separation), the columns produced by disjoint shards are
/// bitwise identical to the corresponding columns of a single full-window
/// call.
pub fn tridiagonal_eigenvectors_offset_into(
    d: &[f64],
    e: &[f64],
    lambda: &[f64],
    seed_offset: usize,
    z: &mut Matrix,
    s: &mut InverseIterScratch,
) {
    eigenvectors_sharded(d, e, lambda, seed_offset, 1, z, s);
}

/// Side of the square tiles of the final `zrows → z` transpose: 8 doubles
/// are one cache line, so a tile reads 8 lines and writes 8 lines instead of
/// striding through `z` one element per line.
const TRANSPOSE_TILE: usize = 8;

/// Both public entry points: `lambda` in at most `shards` cluster-snapped
/// shards, then the transpose into `z`.
fn eigenvectors_sharded(
    d: &[f64],
    e: &[f64],
    lambda: &[f64],
    seed_offset: usize,
    shards: usize,
    z: &mut Matrix,
    s: &mut InverseIterScratch,
) {
    let n = d.len();
    let k = lambda.len();
    assert_eq!(e.len(), n, "d/e length mismatch");
    assert!(k <= n, "more eigenvalues requested than the matrix has");
    assert!(
        lambda.windows(2).all(|w| w[0] <= w[1]),
        "eigenvalues must be sorted ascending"
    );
    z.resize_zeroed(n, k);
    if n == 0 || k == 0 {
        return;
    }
    if n == 1 {
        z[(0, 0)] = 1.0;
        return;
    }
    let tnorm = scale_norm(d, e);
    let ctol = CLUSTER_RTOL * tnorm;
    s.zrows.resize_zeroed(k, n);
    if s.shards.len() < shards {
        s.shards.resize_with(shards, ShardScratch::default);
    }
    // Equal eigenvalue counts, each cut moved up to the next cluster
    // boundary; a shard that a wide cluster swallowed is empty.
    let cut = |i: usize| snap_range_to_clusters(lambda, ctol, i * k / shards..k).start;
    let mut rest = s.zrows.as_mut_slice();
    let mut jobs = Vec::with_capacity(shards);
    for (i, scratch) in s.shards.iter_mut().take(shards).enumerate() {
        let range = cut(i)..cut(i + 1);
        let (band, tail) = rest.split_at_mut(range.len() * n);
        rest = tail;
        jobs.push((range, band, scratch));
    }
    // One shard per task; a shard's result does not depend on the thread.
    crate::team::chunks_for_each(shards, &mut jobs, 1, |_, job| {
        let (range, band, scratch) = &mut job[0];
        let seed = seed_offset + range.start;
        iterate_shard(d, e, &lambda[range.clone()], seed, tnorm, band, scratch);
    });
    // Transpose the row-staged vectors into the caller's column layout.
    let (zr, zc) = (s.zrows.as_slice(), z.as_mut_slice());
    for j0 in (0..k).step_by(TRANSPOSE_TILE) {
        let j1 = (j0 + TRANSPOSE_TILE).min(k);
        for i0 in (0..n).step_by(TRANSPOSE_TILE) {
            for i in i0..(i0 + TRANSPOSE_TILE).min(n) {
                for j in j0..j1 {
                    zc[i * k + j] = zr[j * n + i];
                }
            }
        }
    }
}

/// Inverse iteration for one shard: the eigenvectors of `lambda` (global
/// indices `seed..`) into the rows of `zrows` (`lambda.len() × n`).
fn iterate_shard(
    d: &[f64],
    e: &[f64],
    lambda: &[f64],
    seed: usize,
    tnorm: f64,
    zrows: &mut [f64],
    s: &mut ShardScratch,
) {
    let n = d.len();
    let k = lambda.len();
    let tiny = f64::EPSILON * tnorm;
    let ctol = CLUSTER_RTOL * tnorm;
    let sep = 10.0 * f64::EPSILON * tnorm;
    // The iterate is held outside the scratch so the factor arrays stay
    // borrowable during the sweeps; it is handed back at the end.
    let mut x = std::mem::take(&mut s.x);
    x.clear();
    x.resize(n, 0.0);

    let mut cluster_start = 0usize;
    let mut prev_shift = f64::NEG_INFINITY;
    for j in 0..k {
        // Perturb coincident shifts so successive factorizations differ.
        let mut shift = lambda[j];
        if shift <= prev_shift + sep {
            shift = prev_shift + sep;
        }
        prev_shift = shift;
        if j > 0 && lambda[j] - lambda[j - 1] > ctol {
            cluster_start = j;
        }
        factor_shifted(d, e, shift, tiny, s);
        for (pos, xv) in x.iter_mut().enumerate() {
            *xv = seeded_entry(seed + j, pos);
        }
        let inv = 1.0 / norm(&x);
        x.iter_mut().for_each(|v| *v *= inv);
        // Inverse-iteration sweeps with in-cluster reorthogonalization.
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            solve_in_place(s, &mut x);
            let growth = norm(&x);
            // Orthogonalize against the finished members of this cluster.
            for zp in zrows[cluster_start * n..j * n].chunks_exact(n) {
                let dot = kernels::dot(&x, zp);
                kernels::axpy(&mut x, -dot, zp);
            }
            let nrm = norm(&x);
            if nrm == 0.0 {
                // Fully projected out: restart from fresh noise.
                for (pos, xv) in x.iter_mut().enumerate() {
                    *xv = seeded_entry((seed + j).wrapping_add(0x5bd1), pos);
                }
                let inv = 1.0 / norm(&x);
                x.iter_mut().for_each(|v| *v *= inv);
                continue;
            }
            let inv = 1.0 / nrm;
            x.iter_mut().for_each(|v| *v *= inv);
            if converged {
                break;
            }
            // One solve amplifies the target component by ~1/|λ−shift|;
            // once the growth hits the shift accuracy floor, do one final
            // polish sweep and stop.
            if growth >= 0.01 / tiny {
                converged = true;
            }
        }
        zrows[j * n..(j + 1) * n].copy_from_slice(&x);
        // Cluster finished (next value far, or last index): rotate it.
        let cluster_ends = j + 1 == k || lambda[j + 1] - lambda[j] > ctol;
        if cluster_ends {
            rayleigh_ritz_rotate(d, e, &mut zrows[cluster_start * n..(j + 1) * n], s);
        }
    }
    s.x = x;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::{reduced_eigenvalues_into, tridiagonalize_blocked_into};
    use crate::eigh::eigh;

    #[test]
    fn sharded_matches_single_shard_bitwise_on_degenerate_clusters() {
        // The spectrum of `partial_handles_degenerate_clusters`: per unit
        // interval an exact triple, a 1e-9-split companion and a singleton.
        // With k = 24 the raw cuts of 2, 3 and 4 shards (12; 8, 16; 6, 12,
        // 18) all fall inside a four-member cluster and must move up to its
        // end.
        let n = 30;
        let target: Vec<f64> = (0..n)
            .map(|i| (i / 5) as f64 + [0.0, 0.0, 0.0, 1e-9, 0.4][i % 5])
            .collect();
        let mut seed = 4242u64;
        let mut noise = Matrix::from_fn(n, n, |_, _| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        noise.symmetrize();
        let q = eigh(noise).unwrap().vectors;
        let mut a = q
            .matmul(&Matrix::from_diagonal(&target))
            .matmul(&q.transpose());
        let mut ws = EighWorkspace::default();
        tridiagonalize_blocked_into(&mut a, &mut ws);
        let mut values = Vec::new();
        reduced_eigenvalues_into(&mut ws, &mut values).unwrap();
        let (d, e) = ws.tridiagonal_factor();
        let k = 24;
        let ctol = cluster_tolerance(d, e);
        assert!(
            values[12] - values[11] <= ctol && values[14] - values[13] > ctol,
            "a cluster must straddle k/2"
        );

        let solve = |shards: usize| {
            let mut z = Matrix::zeros(0, 0);
            let mut s = InverseIterScratch::default();
            eigenvectors_sharded(d, e, &values[..k], 0, shards, &mut z, &mut s);
            z
        };
        let single = solve(1);
        for shards in 2..=4 {
            assert!(solve(shards) == single, "{shards} shards");
        }
        // The lease decides the shard count of the public entry point.
        for width in 1..=4 {
            let mut z = Matrix::zeros(0, 0);
            crate::budget::ComputeLease::untracked(width).scoped(|| {
                let mut s = InverseIterScratch::default();
                tridiagonal_eigenvectors_into(d, e, &values[..k], &mut z, &mut s)
            });
            assert!(z == single, "lease width {width}");
        }
        // Orthonormal across the shard seams as well.
        let gram = single.t_matmul(&single);
        for i in 0..k {
            for j in 0..k {
                let target = if i == j { 1.0 } else { 0.0 };
                assert!((gram[(i, j)] - target).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn shards_outnumbering_clusters_leave_empty_shards() {
        // One cluster of three: every cut snaps to the end, so shards 1.. are
        // empty and shard 0 does the lot; and a transpose that is not a
        // multiple of the tile.
        let d = [1.0, 1.0, 1.0, 5.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0];
        let e = [0.0; 11];
        let lambda = [1.0, 1.0, 1.0];
        let mut s = InverseIterScratch::default();
        let mut z = Matrix::zeros(0, 0);
        eigenvectors_sharded(&d, &e, &lambda, 0, 4, &mut z, &mut s);
        let mut reference = Matrix::zeros(0, 0);
        eigenvectors_sharded(&d, &e, &lambda, 0, 1, &mut reference, &mut s);
        assert!(z == reference);
        for j in 0..3 {
            let col = z.col(j);
            let weight: f64 = col[..3].iter().map(|x| x * x).sum();
            assert!(
                (weight - 1.0).abs() < 1e-12,
                "column {j} leaves the eigenspace"
            );
        }
    }
}

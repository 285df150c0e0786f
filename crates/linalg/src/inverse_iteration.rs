//! Inverse iteration for selected eigenvectors of a symmetric tridiagonal
//! matrix — stage two of the two-stage eigensolver.
//!
//! Given eigenvalues isolated to machine precision (QL on the tridiagonal
//! factor, [`crate::blocked::reduced_eigenvalues_into`], on every engine),
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
//! steps.
//!
//! The factor and the solve are one serial chain per vector with a divide
//! on every row, so one vector at a time leaves the core waiting on
//! latency. They are written once, generic over a lane count `L`, on rows
//! of `[f64; L]`: an eigenvalue alone in its cluster (after any real
//! perturbation, every state of a tight-binding cell) needs no
//! orthogonalization, so up to eight such vectors are factored and solved
//! side by side, one per SIMD lane, while cluster members run at `L = 1`.
//! Each lane does what the scalar code did, operation for operation: the
//! pivot branch is a select of the numerator and the denominator ahead of
//! one division, the row swap a select, each lane's norm
//! [`kernels::dot`]'s accumulator tree, and each lane keeps its own sweep
//! count and convergence test. A column's bits therefore depend on its
//! shift, its global index and its cluster alone — not on which vectors
//! shared its lanes — and are the one-vector-at-a-time bits.
//!
//! Clusters are independent of each other, so a window is cut at cluster
//! boundaries into strips of at most `STRIP_COLS` (96) vectors
//! (`stream_eigenvectors`, behind
//! [`crate::blocked::stream_reduced_eigenvectors`]), which the threads of a
//! fan-out take one after another. Each strip is iterated into its thread's
//! staging band as the columns of an `n × strip` block (a cluster's
//! members as rows of `n` first, contiguous for its Gram–Schmidt sweeps),
//! transformed in place there (the back-transform, on the dense engines)
//! and handed to the caller's consumer, strips in ascending order, one at a
//! time. Nothing holds the `n × k` block unless a consumer builds one
//! ([`tridiagonal_eigenvectors_into`]). The start vectors are keyed on the
//! global eigenvalue index, so every column is bitwise the one-strip column
//! whatever the strip width and the thread count, and what a consumer adds
//! up strip by strip depends on the cut alone.

use crate::blocked::STRIP_COLS;
use crate::eigh::{eigh_into, EighWorkspace};
use crate::kernels;
use crate::matrix::{held, Matrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Maximum inverse-iteration sweeps per eigenvector. With shifts accurate to
/// machine precision one solve usually suffices; degenerate-cluster members
/// need a couple more after reorthogonalization.
const MAX_SWEEPS: usize = 5;

/// Cluster threshold relative to the matrix scale: consecutive eigenvalues
/// closer than this are reorthogonalized (and Rayleigh–Ritz-rotated) as one
/// group. Over-clustering is safe — the rotation recovers the individual
/// eigenvectors — so the threshold errs wide.
const CLUSTER_RTOL: f64 = 1e-6;

/// Singleton eigenvectors factored and solved side by side, one per lane of
/// the interleaved rows: eight f64 lanes are one AVX-512 register (two AVX2
/// ones), so each row of a sweep is one vector divide for eight vectors.
const LANES: usize = 8;

/// Accumulator lanes of [`norms`]: [`kernels::dot`]'s eight.
const NORM_ACCUMULATORS: usize = 8;

/// Reusable scratch of the strip driver (`stream_eigenvectors`): each
/// thread's private buffers, and how often a staging band had to grow.
#[derive(Debug, Default, Clone)]
pub struct InverseIterScratch {
    threads: Vec<ThreadScratch>,
    pub(crate) grown: usize,
}

/// One strip of a window as a stream hands it to its consumer: columns
/// `cols` of the window are the first `cols.len()` columns of the strip's
/// rows, each `stride` long, one row per vector component.
pub struct Strip<'a> {
    /// The window columns the strip holds.
    pub cols: std::ops::Range<usize>,
    rows: &'a [f64],
    stride: usize,
}

impl Strip<'_> {
    /// Component `r` of each of the strip's vectors.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.rows[r * self.stride..][..self.cols.len()]
    }

    /// Copy the strip into its columns of `z` (`n` rows).
    pub(crate) fn copy_into(&self, z: &mut Matrix) {
        for r in 0..z.rows() {
            z.row_mut(r)[self.cols.clone()].copy_from_slice(self.row(r));
        }
    }
}

impl InverseIterScratch {
    /// Bytes held by every thread's buffers, and by their staging bands
    /// alone.
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        let thread = |t: &ThreadScratch| {
            let (f, rr) = (&t.factor, t.cl_b.heap_bytes() + t.cl_rot.heap_bytes());
            let lanes = held(&[&f.du, &f.u1, &f.u2, &f.lmul]) + f.swapped.capacity();
            held(&[&t.band, &t.x, &t.tz, &t.cl_values, &t.cluster])
                + lanes
                + rr
                + t.cl_eigh.heap_bytes()
        };
        let bands = self.threads.iter().map(|t| held(&[&t.band])).sum();
        (self.threads.iter().map(thread).sum(), bands)
    }

    /// Size the bands and iterates of `threads` threads for vectors of
    /// length `n`, on the calling thread, so that a worker allocates nothing.
    fn crew(&mut self, threads: usize, n: usize) {
        if self.threads.len() < threads {
            self.threads.resize_with(threads, ThreadScratch::default);
        }
        for t in &mut self.threads[..threads] {
            self.grown += usize::from(staging(&mut t.band, 0, n).1);
            t.factor.size_for(n);
            size_exactly(&mut t.x, n * LANES, 0.0);
        }
    }

    /// Thread `t`'s staging band, sized for vectors of length `n`, lent to
    /// the reduction for a panel buffer until [`Self::give_back`]: it holds
    /// nothing between a strip stream and the next reduction.
    pub(crate) fn lend(&mut self, t: usize, n: usize) -> Vec<f64> {
        if self.threads.len() <= t {
            self.threads.resize_with(t + 1, ThreadScratch::default);
        }
        self.grown += usize::from(staging(&mut self.threads[t].band, 0, n).1);
        std::mem::take(&mut self.threads[t].band)
    }

    /// Take a band [`Self::lend`] lent back, at its full length.
    pub(crate) fn give_back(&mut self, t: usize, mut band: Vec<f64>) {
        band.resize(band.capacity(), 0.0);
        self.threads[t].band = band;
    }

    /// `fill(i, scratch)` for every strip `i` in `0..strips`, handed out one
    /// at a time to up to `threads` threads, each with its own scratch; the
    /// bands of all `threads` are sized for vectors of length `n` first,
    /// here on the caller. `fill` leaves strip `i` in its thread's band and
    /// returns its columns and row stride (`None`: an empty strip), and
    /// `consume` gets the strips in ascending `i`, one at a time, under the
    /// lock of a ticket: a thread whose predecessor is not consumed yet
    /// waits for it.
    pub(crate) fn stream<F, C>(
        &mut self,
        threads: usize,
        n: usize,
        strips: usize,
        fill: F,
        consume: C,
    ) where
        F: Fn(usize, &mut ThreadScratch) -> Option<(std::ops::Range<usize>, usize)> + Sync,
        C: FnMut(Strip<'_>) + Send,
    {
        self.crew(threads, n);
        let (next, crew) = (AtomicUsize::new(0), threads.min(strips));
        let (turn, done) = (Mutex::new((0, consume)), Condvar::new());
        crate::team::chunks_for_each(crew, &mut self.threads[..crew], 1, |_, scratch| loop {
            // Relaxed: the counter only hands out indices; strips travel
            // through the ticket's lock.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= strips {
                break;
            }
            let _abandon = Abandon(&turn, &done);
            let filled = fill(i, &mut scratch[0]);
            let mut ticket = turn.lock().expect("a consumer panicked");
            while ticket.0 != i {
                assert!(ticket.0 != usize::MAX, "an earlier strip panicked");
                ticket = done.wait(ticket).expect("a consumer panicked");
            }
            if let Some((cols, stride)) = filled {
                let rows = staged(&scratch[0].band, n * stride);
                (ticket.1)(Strip { cols, rows, stride });
            }
            ticket.0 += 1;
            done.notify_all();
        });
    }
}

/// Wakes the threads of a stream into a panic of their own when a strip
/// panics, instead of leaving them waiting for its ticket.
struct Abandon<'a, C>(&'a Mutex<(usize, C)>, &'a Condvar);

impl<C> Drop for Abandon<'_, C> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).0 = usize::MAX;
            self.1.notify_all();
        }
    }
}

/// What one thread needs: the staging band of its strip, the
/// lane-interleaved `PLU` factors and iterates, and the per-cluster
/// Gram–Schmidt and Rayleigh–Ritz buffers.
#[derive(Debug, Default, Clone)]
pub(crate) struct ThreadScratch {
    /// The strip being worked on ([`staging`]), one row per vector
    /// component.
    pub(crate) band: Vec<f64>,
    /// The factors of up to [`LANES`] shifted matrices.
    factor: LaneFactor,
    /// Up to [`LANES`] iterates, row-interleaved as the factors are.
    x: Vec<f64>,
    /// `T · z` scratch for Rayleigh quotients.
    tz: Vec<f64>,
    /// The finished members of the cluster being iterated, one row each.
    cluster: Vec<f64>,
    /// Cluster Gram matrix `Zᵀ T Z` / its eigenvector basis.
    cl_b: Matrix,
    /// Rotated cluster rows.
    cl_rot: Matrix,
    /// Ritz values and the scratch of their [`eigh_into`] solve.
    cl_values: Vec<f64>,
    cl_eigh: EighWorkspace,
}

/// `len` doubles of a thread's staging `band` from a 64-byte boundary on,
/// and whether it had to grow: to a full strip of length-`n` vectors at
/// least, so only a strip that a wide cluster widened grows it again.
pub(crate) fn staging(band: &mut Vec<f64>, len: usize, n: usize) -> (&mut [f64], bool) {
    let grew = band.len() < len + 7;
    if grew {
        *band = Vec::new();
        *band = vec![0.0; len.max(STRIP_COLS * n) + 7];
    }
    let start = aligned(band);
    (&mut band[start..start + len], grew)
}

/// The first `len` doubles [`staging`] handed out of `band`.
fn staged(band: &[f64], len: usize) -> &[f64] {
    &band[aligned(band)..][..len]
}

/// The index of the first element of `band` on a 64-byte boundary.
fn aligned(band: &[f64]) -> usize {
    (band.as_ptr() as usize).wrapping_neg() % 64 / 8
}

/// `T − shift_l·I = P_l L_l U_l` with partial pivoting (`gttrf` for a
/// symmetric tridiagonal) for `L ≤` [`LANES`] shifts at once, row `i` of
/// lane `l` at `[i·L + l]` of each array. Every buffer holds `n ·` [`LANES`]
/// entries whatever `L` is, so a call at `L = 1` and one at `L = 8` share it.
#[derive(Debug, Default, Clone)]
struct LaneFactor {
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
}

/// Size `v` to `len` entries, allocating exactly that once: the buffers of a
/// thread keep their size from step to step, and an amortized doubling would
/// leave a block the size of the old buffer behind in the heap.
fn size_exactly<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() != len {
        v.clear();
        v.reserve_exact(len);
        v.resize(len, fill);
    }
}

impl LaneFactor {
    fn size_for(&mut self, n: usize) {
        for v in [&mut self.du, &mut self.u1, &mut self.u2, &mut self.lmul] {
            size_exactly(v, n * LANES, 0.0);
        }
        size_exactly(&mut self.swapped, n * LANES, false);
    }

    /// Factor `T − shift[l]·I` into lane `l` (`n ≥ 2`). `d`/`e` use the
    /// crate convention (`e[0]` unused, `e[i]` couples rows `i−1` and `i`).
    ///
    /// Each lane does the scalar elimination's IEEE operations in its order:
    /// the pivot choice is a select, the multiplier one division of the
    /// selected numerator by the selected denominator, and the next row is
    /// updated from the selected pairs. `u2[i]` is still zero when row `i`
    /// is eliminated (only a swap at row `i` fills it), so it enters as the
    /// literal it would be read as.
    fn factor<const L: usize>(&mut self, d: &[f64], e: &[f64], shift: [f64; L], tiny: f64) {
        let n = d.len();
        let du = self.du[..n * L].as_chunks_mut::<L>().0;
        let u1 = self.u1[..n * L].as_chunks_mut::<L>().0;
        let u2 = self.u2[..n * L].as_chunks_mut::<L>().0;
        let lmul = self.lmul[..n * L].as_chunks_mut::<L>().0;
        let swapped = self.swapped[..n * L].as_chunks_mut::<L>().0;
        let guard = |x: f64| if x == 0.0 { tiny } else { x };
        // Row i of U as it stands when row i is eliminated.
        let mut di = shift.map(|s| d[0] - s);
        let mut ui = [e[1]; L];
        for i in 0..n - 1 {
            let b = e[i + 1];
            let dn = shift.map(|s| d[i + 1] - s);
            let un = if i + 2 < n { e[i + 2] } else { 0.0 };
            for l in 0..L {
                let keep = di[l].abs() >= b.abs();
                let dz = guard(di[l]);
                let m = (if keep { b } else { di[l] }) / (if keep { dz } else { b });
                let (p, q) = if keep { (dn[l], ui[l]) } else { (ui[l], dn[l]) };
                let (p2, q2) = if keep { (un, 0.0) } else { (0.0, un) };
                du[i][l] = if keep { dz } else { b };
                u1[i][l] = if keep { ui[l] } else { dn[l] };
                u2[i][l] = if keep { 0.0 } else { un };
                lmul[i][l] = m;
                swapped[i][l] = !keep;
                di[l] = p - m * q;
                ui[l] = p2 - m * q2;
            }
        }
        du[n - 1] = di.map(guard);
        u1[n - 1] = ui;
        u2[n - 1] = [0.0; L];
    }

    /// Solve `(T − shift[l]·I) x_l = b_l` in place for every lane, `x` row
    /// `i` holding the lanes' entries `i`.
    fn solve<const L: usize>(&self, x: &mut [[f64; L]]) {
        let n = x.len();
        let du = self.du[..n * L].as_chunks::<L>().0;
        let u1 = self.u1[..n * L].as_chunks::<L>().0;
        let u2 = self.u2[..n * L].as_chunks::<L>().0;
        let lmul = self.lmul[..n * L].as_chunks::<L>().0;
        let swapped = self.swapped[..n * L].as_chunks::<L>().0;
        // Forward: apply the row swaps and multipliers, row i+1 carried.
        let mut next = x[0];
        for i in 0..n - 1 {
            let below = x[i + 1];
            for l in 0..L {
                let sw = swapped[i][l];
                let top = if sw { below[l] } else { next[l] };
                let rest = if sw { next[l] } else { below[l] };
                x[i][l] = top;
                next[l] = rest - lmul[i][l] * top;
            }
        }
        // Back substitution through the two superdiagonals, rows i+1 and
        // i+2 carried.
        let mut x1 = [0.0; L];
        let mut x2 = [0.0; L];
        for l in 0..L {
            x1[l] = next[l] / du[n - 1][l];
        }
        x[n - 1] = x1;
        for i in (0..n - 1).rev() {
            let mut xi = [0.0; L];
            for l in 0..L {
                xi[l] = if i + 2 < n {
                    (x[i][l] - u1[i][l] * x1[l] - u2[i][l] * x2[l]) / du[i][l]
                } else {
                    (x[i][l] - u1[i][l] * x1[l]) / du[i][l]
                };
            }
            x[i] = xi;
            x2 = x1;
            x1 = xi;
        }
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

/// The Euclidean norm of every lane, each summed in [`kernels::dot`]'s
/// order: eight accumulators over the rows `q, q+8, q+16, …`, reduced
/// pairwise, then the tail rows in ascending order.
fn norms<const L: usize>(x: &[[f64; L]]) -> [f64; L] {
    let mut acc = [[0.0; L]; NORM_ACCUMULATORS];
    let mut rows = x.chunks_exact(NORM_ACCUMULATORS);
    for chunk in rows.by_ref() {
        for (a, r) in acc.iter_mut().zip(chunk) {
            for l in 0..L {
                a[l] += r[l] * r[l];
            }
        }
    }
    let mut s = [0.0; L];
    for l in 0..L {
        let a = |q: usize| acc[q][l];
        s[l] = ((a(0) + a(1)) + (a(2) + a(3))) + ((a(4) + a(5)) + (a(6) + a(7)));
    }
    for r in rows.remainder() {
        for l in 0..L {
            s[l] += r[l] * r[l];
        }
    }
    s.map(f64::sqrt)
}

/// Scale every lane of `x` by `1 / nrm` of that lane.
fn normalize<const L: usize>(x: &mut [[f64; L]], nrm: [f64; L]) {
    let inv = nrm.map(|v| 1.0 / v);
    for r in x.iter_mut() {
        for l in 0..L {
            r[l] *= inv[l];
        }
    }
}

/// Lane `l` of `x` starts from the seeded vector of global index `idx[l]`,
/// normalized.
fn seed_lanes<const L: usize>(x: &mut [[f64; L]], idx: [usize; L]) {
    for (pos, r) in x.iter_mut().enumerate() {
        for l in 0..L {
            r[l] = seeded_entry(idx[l], pos);
        }
    }
    normalize(x, norms(x));
}

/// Rayleigh–Ritz rotation of a finished cluster, given as its `c` rows of
/// the staging buffer: diagonalize `B = Zᵀ T Z` in the cluster subspace and
/// rotate the rows into the Ritz basis, recovering the true eigenvectors of
/// near-degenerate (not exactly degenerate) levels from the arbitrary
/// orthonormal basis inverse iteration produces.
fn rayleigh_ritz_rotate(d: &[f64], e: &[f64], cluster: &mut [f64], s: &mut ThreadScratch) {
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
/// [`snap_range_to_clusters`]), guaranteeing each cluster a single owner
/// rank.
pub fn cluster_tolerance(d: &[f64], e: &[f64]) -> f64 {
    CLUSTER_RTOL * scale_norm(d, e)
}

/// Snap an index `range` over the sorted eigenvalues `lambda` forward to
/// cluster boundaries: both endpoints move up to the first index whose gap
/// from its predecessor exceeds `ctol`, so no cluster of near-degenerate
/// eigenvalues straddles a range boundary.
///
/// Used to assign each degenerate cluster to exactly one owner — a shard of
/// [`tridiagonal_eigenvectors_into`], or a rank of the distributed solver —
/// so the per-cluster Gram–Schmidt and Rayleigh–Ritz work stays with it.
/// Applying this to every boundary of a `partition_range` tiling yields
/// ranges that still tile `0..lambda.len()` exactly (snapping is monotone
/// and depends only on the boundary index, not on the rank).
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
/// rotation inside clusters: `stream_eigenvectors` with a consumer that
/// copies each strip into its columns.
///
/// The strips of the window run on as many threads as the caller may take
/// from the team ([`crate::team::width`]: the compute lease's width, every
/// hardware thread when unconstrained); the columns are bitwise the same at
/// any width.
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
    s.grown += usize::from(z.resize_zeroed(d.len(), lambda.len()));
    let fan = (crate::team::width(), STRIP_COLS);
    stream_eigenvectors(
        d,
        e,
        lambda,
        0,
        fan,
        s,
        |_, _| {},
        |strip| strip.copy_into(z),
    );
}

/// The strip driver of every eigenvector stage: `lambda` (global indices
/// from `seed_offset`) cut at cluster boundaries into strips of at most
/// `strip_cols` vectors, worked through by `threads` threads. Each strip is
/// iterated into its thread's band as the columns of an `n × w` block (`w`
/// the strip's width rounded up to 8; the columns past it ride along
/// unread), then `transform(band, w)` runs on it there, and `consume` gets
/// it, strips in ascending order ([`InverseIterScratch::stream`]).
///
/// # Panics
/// Panics if `d.len() != e.len()`, `lambda.len() > d.len()` or `lambda` is
/// not sorted ascending.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_eigenvectors(
    d: &[f64],
    e: &[f64],
    lambda: &[f64],
    seed_offset: usize,
    (threads, strip_cols): (usize, usize),
    s: &mut InverseIterScratch,
    transform: impl Fn(&mut [f64], usize) + Sync,
    consume: impl FnMut(Strip<'_>) + Send,
) {
    let n = d.len();
    let k = lambda.len();
    assert_eq!(e.len(), n, "d/e length mismatch");
    assert!(k <= n, "more eigenvalues requested than the matrix has");
    assert!(
        lambda.windows(2).all(|w| w[0] <= w[1]),
        "eigenvalues must be sorted ascending"
    );
    if n == 0 || k == 0 {
        return;
    }
    let tnorm = scale_norm(d, e);
    let ctol = CLUSTER_RTOL * tnorm;
    // Strip `i` is `cut(i)..cut(i + 1)`: each cut moved up to the next
    // cluster boundary, so a strip that a wide cluster swallowed is empty.
    let cut = |i: usize| snap_range_to_clusters(lambda, ctol, (i * strip_cols).min(k)..k).start;
    let grown = AtomicUsize::new(0);
    let fill = |i: usize, scratch: &mut ThreadScratch| {
        let range = cut(i)..cut(i + 1);
        if range.is_empty() {
            return None;
        }
        let w = range.len().next_multiple_of(8);
        let mut band = std::mem::take(&mut scratch.band);
        let (rows, grew) = staging(&mut band, n * w, n);
        grown.fetch_add(usize::from(grew), Ordering::Relaxed);
        let seed = seed_offset + range.start;
        if n == 1 {
            rows[0] = 1.0;
        } else {
            iterate_strip(
                d,
                e,
                &lambda[range.clone()],
                seed,
                tnorm,
                (rows, w),
                scratch,
            );
        }
        transform(rows, w);
        scratch.band = band;
        Some((range, w))
    };
    s.stream(threads, n, k.div_ceil(strip_cols), fill, consume);
    s.grown += grown.into_inner();
}

/// Inverse iteration for one strip: the eigenvectors of `lambda` (global
/// indices `seed..`) into the columns of `out` (`n` rows of `w`).
///
/// The shifts follow one chain over the strip (coincident eigenvalues are
/// pushed apart by `10ε·‖T‖`) and the cluster boundaries come from the gaps.
/// Cluster members run one at a time ([`Iteration::iterate_one`]) against
/// the finished members' rows, and a finished cluster is rotated and
/// written out; singletons are collected and run [`LANES`] at a time
/// ([`Iteration::iterate_lanes`]). A vector's bits depend only on its shift,
/// its global index and its cluster, so the grouping changes none of them.
fn iterate_strip(
    d: &[f64],
    e: &[f64],
    lambda: &[f64],
    seed: usize,
    tnorm: f64,
    (out, w): (&mut [f64], usize),
    s: &mut ThreadScratch,
) {
    let n = d.len();
    let k = lambda.len();
    let it = Iteration {
        d,
        e,
        seed,
        tiny: f64::EPSILON * tnorm,
    };
    let ctol = CLUSTER_RTOL * tnorm;
    let sep = 10.0 * f64::EPSILON * tnorm;
    let mut batch = Batch::default();
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
        // Cluster finished (next value far, or last index).
        let cluster_ends = j + 1 == k || lambda[j + 1] - lambda[j] > ctol;
        if cluster_start == j && cluster_ends {
            batch.push(j, shift);
            if batch.len == LANES {
                it.iterate_lanes(&mut batch, (out, w), s);
            }
            continue;
        }
        let mut members = std::mem::take(&mut s.cluster);
        members.truncate((j - cluster_start) * n);
        it.iterate_one(j, shift, &members, s);
        members.extend_from_slice(&s.x[..n]);
        if cluster_ends {
            rayleigh_ritz_rotate(d, e, &mut members, s);
            for (q, v) in members.chunks_exact(n).enumerate() {
                let column = out[cluster_start + q..].iter_mut().step_by(w);
                write_lane(v.as_chunks::<1>().0, 0, column);
            }
        }
        s.cluster = members;
    }
    if batch.len > 0 {
        it.iterate_lanes(&mut batch, (out, w), s);
    }
}

/// Singletons waiting for a lane: strip-local index and shift.
#[derive(Default)]
struct Batch {
    len: usize,
    j: [usize; LANES],
    shift: [f64; LANES],
}

impl Batch {
    fn push(&mut self, j: usize, shift: f64) {
        self.j[self.len] = j;
        self.shift[self.len] = shift;
        self.len += 1;
    }
}

/// What every vector of a strip shares: the matrix, the global index of the
/// strip's first vector and the singular-pivot guard `ε·‖T‖`.
struct Iteration<'a> {
    d: &'a [f64],
    e: &'a [f64],
    seed: usize,
    tiny: f64,
}

impl Iteration<'_> {
    /// Whether a solve's growth says the shift has reached its accuracy
    /// floor: one solve amplifies the target component by `~1/|λ−shift|`.
    fn converged(&self, growth: f64) -> bool {
        growth >= 0.01 / self.tiny
    }

    /// Vector `j` (strip-local) of a cluster whose finished members are the
    /// rows of `members`, one at a time, into the first `n` entries of
    /// `s.x`: sweeps with Gram–Schmidt against the members, a restart from
    /// fresh noise if they project the iterate out, and one polish sweep
    /// after convergence.
    fn iterate_one(&self, j: usize, shift: f64, members: &[f64], s: &mut ThreadScratch) {
        let n = self.d.len();
        s.factor.factor(self.d, self.e, [shift], self.tiny);
        let x = s.x[..n].as_chunks_mut::<1>().0;
        seed_lanes(x, [self.seed + j]);
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            s.factor.solve(x);
            let [growth] = norms(x);
            // Orthogonalize against the finished members of this cluster.
            for zp in members.chunks_exact(n) {
                let dot = kernels::dot(x.as_flattened(), zp);
                kernels::axpy(x.as_flattened_mut(), -dot, zp);
            }
            let nrm = norms(x);
            if nrm == [0.0] {
                // Fully projected out: restart from fresh noise.
                seed_lanes(x, [(self.seed + j).wrapping_add(0x5bd1)]);
                continue;
            }
            normalize(x, nrm);
            if converged {
                break;
            }
            // Once the growth hits the floor, one final polish sweep.
            converged = self.converged(growth);
        }
    }

    /// The singletons of `batch`, one per lane, then the batch emptied. A
    /// singleton has no cluster to orthogonalize against, so a lane is
    /// [`Iteration::iterate_one`] without the projection: each lane sweeps
    /// until its own polish sweep or [`MAX_SWEEPS`], is written to its
    /// column of `out` (`n` rows of `w`) and rides along unread after that.
    /// Lanes past `batch.len` repeat the first. A lane whose solve comes out
    /// zero goes back through [`Iteration::iterate_one`], which restarts it.
    fn iterate_lanes(
        &self,
        batch: &mut Batch,
        (out, w): (&mut [f64], usize),
        s: &mut ThreadScratch,
    ) {
        let n = self.d.len();
        let used = std::mem::take(&mut batch.len);
        for l in used..LANES {
            (batch.j[l], batch.shift[l]) = (batch.j[0], batch.shift[0]);
        }
        let (lane_j, shift) = (batch.j, batch.shift);
        s.factor.factor(self.d, self.e, shift, self.tiny);
        let x = s.x[..n * LANES].as_chunks_mut::<LANES>().0;
        seed_lanes(x, lane_j.map(|j| self.seed + j));
        let mut active: [bool; LANES] = std::array::from_fn(|l| l < used);
        let mut redo = [false; LANES];
        let mut converged = [false; LANES];
        for _sweep in 0..MAX_SWEEPS {
            s.factor.solve(x);
            let growth = norms(x);
            normalize(x, growth);
            for l in 0..LANES {
                if !active[l] {
                    continue;
                }
                if growth[l] == 0.0 {
                    (redo[l], active[l]) = (true, false);
                } else if converged[l] {
                    active[l] = false;
                    write_lane(x, l, out[lane_j[l]..].iter_mut().step_by(w));
                } else {
                    converged[l] = self.converged(growth[l]);
                }
            }
            if !active.contains(&true) {
                break;
            }
        }
        for l in 0..LANES {
            if active[l] {
                write_lane(x, l, out[lane_j[l]..].iter_mut().step_by(w));
            }
        }
        for l in (0..LANES).filter(|&l| redo[l]) {
            self.iterate_one(lane_j[l], shift[l], &[], s);
            let x = s.x[..n].as_chunks::<1>().0;
            write_lane(x, 0, out[lane_j[l]..].iter_mut().step_by(w));
        }
    }
}

/// Copy lane `l` of the interleaved `x` into the entries of `column`.
fn write_lane<'a, const L: usize>(
    x: &[[f64; L]],
    l: usize,
    column: impl Iterator<Item = &'a mut f64>,
) {
    for (z, r) in column.zip(x) {
        *z = r[l];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::{reduced_eigenvalues_into, tridiagonalize_blocked_into};
    use crate::eigh::eigh;

    /// `lambda`'s eigenvectors into `z`, in strips of `strip_cols` worked
    /// through by `threads` threads.
    fn in_strips(
        d: &[f64],
        e: &[f64],
        lambda: &[f64],
        fan: (usize, usize),
        z: &mut Matrix,
        s: &mut InverseIterScratch,
    ) {
        s.grown += usize::from(z.resize_zeroed(d.len(), lambda.len()));
        stream_eigenvectors(
            d,
            e,
            lambda,
            0,
            fan,
            s,
            |_, _| {},
            |strip| strip.copy_into(z),
        );
    }

    #[test]
    fn strip_widths_and_thread_counts_give_the_same_bits_on_degenerate_clusters() {
        // The spectrum of `partial_handles_degenerate_clusters`: per unit
        // interval an exact triple, a 1e-9-split companion and a singleton.
        // With k = 24, cuts every 1 or 8 vectors fall inside four-member
        // clusters and must move up to their ends; the window ends on a
        // cluster boundary past the last full cut.
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
            values[8] - values[7] <= ctol && values[14] - values[13] > ctol,
            "a cluster must straddle the cut at 8"
        );

        let solve = |threads: usize, strip_cols: usize| {
            let mut z = Matrix::zeros(0, 0);
            let mut s = InverseIterScratch::default();
            let fan = (threads, strip_cols);
            in_strips(d, e, &values[..k], fan, &mut z, &mut s);
            z
        };
        let single = solve(1, STRIP_COLS);
        for strip_cols in [1, 8, STRIP_COLS] {
            for threads in 1..=4 {
                let z = solve(threads, strip_cols);
                assert!(z == single, "{threads} threads, strips of {strip_cols}");
            }
        }
        // The lease decides the thread count of the public entry point.
        for width in 1..=4 {
            let mut z = Matrix::zeros(0, 0);
            crate::budget::ComputeLease::untracked(width).scoped(|| {
                let mut s = InverseIterScratch::default();
                tridiagonal_eigenvectors_into(d, e, &values[..k], &mut z, &mut s)
            });
            assert!(z == single, "lease width {width}");
        }
        // Orthonormal across the strip seams as well.
        let gram = single.t_matmul(&single);
        for i in 0..k {
            for j in 0..k {
                let target = if i == j { 1.0 } else { 0.0 };
                assert!((gram[(i, j)] - target).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn a_cluster_wider_than_a_strip_widens_it() {
        // One cluster of three in strips of one: every later cut snaps to
        // the end, so strips 1.. are empty and strip 0 does the lot. The
        // first call sizes the output and its four threads' bands; a
        // narrower window grows none of them.
        let d = [1.0, 1.0, 1.0, 5.0, 9.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0];
        let e = [0.0; 11];
        let lambda = [1.0, 1.0, 1.0];
        let mut s = InverseIterScratch::default();
        let mut z = Matrix::zeros(0, 0);
        in_strips(&d, &e, &lambda, (4, 1), &mut z, &mut s);
        assert_eq!(s.grown, 5, "the output and four threads' bands");
        let mut reference = Matrix::zeros(0, 0);
        in_strips(&d, &e, &lambda, (1, STRIP_COLS), &mut reference, &mut s);
        assert!(z == reference);
        for j in 0..3 {
            let col = z.col(j);
            let weight: f64 = col[..3].iter().map(|x| x * x).sum();
            assert!(
                (weight - 1.0).abs() < 1e-12,
                "column {j} leaves the eigenspace"
            );
        }
        let grown = s.grown;
        in_strips(&d, &e, &lambda[..2], (1, 1), &mut z, &mut s);
        assert_eq!(s.grown, grown, "a narrower window grew a buffer");
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

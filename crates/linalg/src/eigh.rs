//! Symmetric eigensolver: Householder tridiagonalization followed by the
//! implicit-shift QL iteration, and the root-free rational QL ([`tqlrat`])
//! that takes a spectrum without vectors.
//!
//! This is the classic EISPACK/`tred2`+`tqli` pair (Numerical Recipes, ch. 11)
//! that tight-binding MD codes of the early 1990s ran at every timestep. The
//! reduction costs `4n³/3` flops (plus the same again for accumulating the
//! orthogonal transformation) and the QL iteration `~3n³` in the eigenvector
//! update, so the whole solve is O(n³) — the term that dominates a TBMD step
//! and that the parallel engines in `tbmd-parallel` attack.
//!
//! **Row layout.** The textbook loops walk columns of a row-major matrix
//! (`a[k][j]` over `k`, rotations of `z[k][i]` over `k`). Here every inner
//! loop runs along a contiguous row, and every element still sees the
//! textbook's terms in the textbook's order, with no reassociation. Each
//! term is a multiply then an add, as in EISPACK, except the axpys the
//! reduction hands to [`kernels::axpy4`] / [`kernels::axpy`], which fuse
//! them like every kernel:
//!
//! - the reduction forms `p = A·u` from the lower triangle a row at a time:
//!   row `j`'s own part as one sequential dot (four rows' chains
//!   interleaved to hide the add latency), the part below the diagonal as
//!   an axpy of row `k` into the earlier entries, in ascending `k`;
//! - the accumulation builds `Qᵀ` instead of `Q`: step `i` takes
//!   `g_j = Qᵀ_j · u` and `Qᵀ_j −= g_j (u / h)` along each row `j`, four rows
//!   sharing each `u_k / h`;
//! - [`tqli`] rotates pairs of rows of `Qᵀ`, the sort permutes rows, and one
//!   tiled in-place transpose hands [`eigh_into`]'s caller its columns.
//!
//! What that costs (2-vCPU host, warm, min of many calls): n = 32
//! 58–68 µs (93–98 µs walking columns), of which ≈ 30 µs is the QL
//! iteration's scalar recurrence, a latency chain the layout cannot touch;
//! n = 256 12–17 ms (121–140 ms walking columns, where every column step
//! missed cache). The remaining dot chains run at about one element per
//! cycle; only a different summation order would go faster, and that moves
//! bits.

use crate::kernels;
use crate::matrix::Matrix;

/// Eigendecomposition of a real symmetric matrix.
///
/// Invariants (verified by the test-suite and by property tests):
/// `values` is sorted ascending, `vectors` is orthogonal, and
/// `A · vectors.col(k) = values[k] · vectors.col(k)` for every `k`.
#[derive(Debug, Clone)]
pub struct Eigh {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Eigenvectors stored column-wise: column `k` pairs with `values[k]`.
    pub vectors: Matrix,
}

/// Errors the symmetric eigensolvers can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigError {
    /// The QL iteration failed to deflate an eigenvalue within the sweep
    /// budget; in practice this only happens for matrices containing NaN or
    /// infinities.
    NoConvergence { index: usize, iterations: usize },
    /// The input matrix is not square.
    NotSquare { rows: usize, cols: usize },
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NoConvergence { index, iterations } => write!(
                f,
                "QL iteration for eigenvalue {index} did not converge within {iterations} iterations"
            ),
            EigError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
        }
    }
}

impl std::error::Error for EigError {}

/// Maximum QL iterations permitted per eigenvalue before reporting failure.
const MAX_QL_ITERS: usize = 64;

/// Full eigendecomposition of a symmetric matrix.
///
/// The input is consumed (the reduction works in place on a copy would force
/// a clone anyway — callers that still need `a` should clone explicitly).
///
/// # Errors
/// [`EigError::NotSquare`] for rectangular input, [`EigError::NoConvergence`]
/// if the QL iteration stalls (non-finite input).
pub fn eigh(mut a: Matrix) -> Result<Eigh, EigError> {
    let mut values = Vec::new();
    let mut ws = EighWorkspace::default();
    eigh_into(&mut a, &mut values, &mut ws)?;
    Ok(Eigh { values, vectors: a })
}

/// Eigenvalues only: skips accumulating the orthogonal transformation and
/// takes the spectrum from the root-free [`tqlrat`] — several times cheaper
/// than [`eigh`].
pub fn eigvalsh(mut a: Matrix) -> Result<Vec<f64>, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(vec![]);
    }
    let (mut d, mut e) = tridiagonalize(&mut a, false);
    tqlrat(&mut d, &mut e)?;
    d.sort_by(|a, b| a.partial_cmp(b).expect("NaN eigenvalue"));
    Ok(d)
}

/// Reusable scratch for [`eigh_into`] and the blocked/partial solvers in
/// [`crate::blocked`] and [`crate::inverse_iteration`]: the subdiagonal
/// buffer, the sort permutation, and the blocked-pipeline scratch. Buffers
/// grow to the largest `n` seen and are then reused, so repeated solves (one
/// per MD step) perform no allocation after warmup.
#[derive(Debug, Default, Clone)]
pub struct EighWorkspace {
    pub(crate) e: Vec<f64>,
    pub(crate) order: Vec<usize>,
    pub(crate) blocked: crate::blocked::BlockedScratch,
    pub(crate) inviter: crate::inverse_iteration::InverseIterScratch,
}

impl EighWorkspace {
    /// The tridiagonal factor `(d, e)` left in the workspace by
    /// [`crate::blocked::tridiagonalize_blocked_into`] (`e[0]` unused,
    /// `e[i]` couples rows `i−1` and `i`).
    ///
    /// The distributed solver reads it for the cluster tolerance
    /// ([`crate::inverse_iteration::cluster_tolerance`]) its ranks snap their
    /// eigenvector shards with.
    pub fn tridiagonal_factor(&self) -> (&[f64], &[f64]) {
        (&self.blocked.d, &self.blocked.e)
    }

    /// Times the two-stage solver's eigenvector stage had to grow a staging
    /// band (or the output of a column-writing entry point).
    pub fn large_alloc_events(&self) -> usize {
        self.inviter.grown
    }

    /// Bytes of scratch held: the reduction's panels and factors, and each
    /// thread's inverse-iteration buffers and staging band.
    pub fn heap_bytes(&self) -> usize {
        let own = 8 * (self.e.capacity() + self.order.capacity());
        own + self.blocked.heap_bytes() + self.inviter.heap_bytes().0
    }

    /// The part of [`Self::heap_bytes`] in the staging bands: one strip of
    /// eigenvectors for each thread that ran the eigenvector stage.
    pub fn strip_bytes(&self) -> usize {
        self.inviter.heap_bytes().1
    }
}

/// Allocation-free eigendecomposition.
///
/// On success `a` is overwritten with the eigenvector matrix (column `k`
/// pairs with `values[k]`, ascending — the same invariants as [`eigh`], which
/// is now a thin wrapper over this). Only `values` and the workspace grow,
/// and only up to the largest `n` seen across calls.
///
/// Internally the vectors are rows ([`tridiagonalize_into`] leaves `Qᵀ`,
/// [`tqli`] rotates rows, the sort permutes rows) and one in-place
/// transpose at the end hands back columns.
///
/// # Errors
/// Same as [`eigh`].
pub fn eigh_into(
    a: &mut Matrix,
    values: &mut Vec<f64>,
    ws: &mut EighWorkspace,
) -> Result<(), EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    values.clear();
    values.resize(n, 0.0);
    if n == 0 {
        return Ok(());
    }
    ws.e.clear();
    ws.e.resize(n, 0.0);
    tridiagonalize_into(a, true, values, &mut ws.e);
    tqli(values, &mut ws.e, a)?;
    sort_eigenpairs(values, a, &mut ws.order);
    a.transpose_in_place();
    Ok(())
}

/// Householder reduction of a symmetric matrix to tridiagonal form
/// (EISPACK `tred2`).
///
/// On return `a` holds the transpose of the accumulated orthogonal matrix
/// `Q` (`Qᵀ A Q = T`; row `k` of `a` is column `k` of `Q`) when
/// `accumulate` is true, otherwise `a` is scratch. The diagonal of `T` is
/// returned in `d`, the subdiagonal in `e[1..]`. Only the lower triangle of
/// the input is read.
pub fn tridiagonalize(a: &mut Matrix, accumulate: bool) -> (Vec<f64>, Vec<f64>) {
    let n = a.rows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize_into(a, accumulate, &mut d, &mut e);
    (d, e)
}

/// [`tridiagonalize`] writing into caller-provided buffers (`d.len() == e.len()
/// == a.rows() >= 1`) — the allocation-free path used by [`eigh_into`].
pub fn tridiagonalize_into(a: &mut Matrix, accumulate: bool, d: &mut [f64], e: &mut [f64]) {
    let n = a.rows();
    assert!(n >= 1 && d.len() == n && e.len() == n);
    if n == 1 {
        d[0] = a[(0, 0)];
        e[0] = 0.0;
        a[(0, 0)] = 1.0;
        return;
    }
    let a = a.as_mut_slice();
    for i in (1..n).rev() {
        let l = i - 1;
        // Rows 0..i are the block still to reduce; row i's first i entries
        // become the Householder vector `u`.
        let (lead, rest) = a.split_at_mut(i * n);
        let u = &mut rest[..i];
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = u.iter().map(|x| x.abs()).sum();
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for x in u.iter_mut() {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                // p = A u / h in e[..i] (scratch until step j writes e[j]),
                // then p ← p − (uᵀp / 2h) u.
                let p = &mut e[..i];
                lower_symv(lead, n, u, p);
                let mut f = 0.0;
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj /= h;
                    f += *pj * uj;
                }
                let hh = f / (h + h);
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj -= hh * uj;
                }
                // Rank-2 update A ← A − u pᵀ − p uᵀ on the lower triangle.
                for (j, row) in lead.chunks_exact_mut(n).enumerate() {
                    let (fj, gj) = (u[j], p[j]);
                    for ((x, &pk), &uk) in row[..=j].iter_mut().zip(p.iter()).zip(u.iter()) {
                        *x -= fj * pk + gj * uk;
                    }
                }
            }
        } else {
            e[i] = u[l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    if accumulate {
        accumulate_qt(a, n, d);
    } else {
        for (i, di) in d.iter_mut().enumerate() {
            *di = a[i * n + i];
        }
    }
}

/// `p = A u` for the symmetric matrix stored in the lower triangle of the
/// first `u.len()` rows of `a` (row stride `n`), in `tred2`'s order: entry
/// `j` first takes row `j`'s own part `Σ_{k≤j} a[j,k]·u_k` as one
/// sequential chain (four rows' chains interleaved), then `a[k,j]·u_k` for
/// `k > j` in ascending `k`, added by row `k`'s axpy — four rows' axpys
/// fused into one [`kernels::axpy4`] pass below the four rows.
fn lower_symv(a: &[f64], n: usize, u: &[f64], p: &mut [f64]) {
    let m = u.len();
    let row = |r: usize| &a[r * n..=r * n + r];
    let mut r = 0;
    while r + 4 <= m {
        let (a0, a1, a2, a3) = (row(r), row(r + 1), row(r + 2), row(r + 3));
        let mut s = [0.0; 4];
        for ((((&x0, &x1), &x2), &x3), &uc) in a0.iter().zip(a1).zip(a2).zip(a3).zip(u) {
            s[0] += x0 * uc;
            s[1] += x1 * uc;
            s[2] += x2 * uc;
            s[3] += x3 * uc;
        }
        // Rows r+1, r+2, r+3 finish their own parts past column r.
        let quad = [a0, a1, a2, a3];
        for t in 1..4 {
            for c in r + 1..=r + t {
                s[t] += quad[t][c] * u[c];
            }
        }
        p[r..r + 4].copy_from_slice(&s);
        // Their transposed parts: left of the 4 × 4 diagonal block in one
        // pass, then inside it.
        kernels::axpy4(&mut p[..r], [u[r], u[r + 1], u[r + 2], u[r + 3]], quad);
        for t in 1..4 {
            for j in r..r + t {
                p[j] += quad[t][j] * u[r + t];
            }
        }
        r += 4;
    }
    for r in r..m {
        let own = row(r);
        p[r] = own.iter().zip(u).fold(0.0, |s, (&x, &uc)| s + x * uc);
        kernels::axpy(&mut p[..r], u[r], &own[..r]);
    }
}

/// Accumulate the Householder reflectors left by the reduction (`u` in row
/// `i`'s first `i` entries, `h` in `d[i]`) into `Qᵀ`, in place, and move the
/// diagonal of `T` into `d` — `tred2`'s accumulation with the roles of rows
/// and columns exchanged, so step `i` updates rows of `Qᵀ`: `g_j = Σ_k
/// Qᵀ[j,k]·u_k` (one sequential chain per row), then `Qᵀ[j,k] −= g_j·(u_k /
/// h)`, the same products in the same order as the column form.
fn accumulate_qt(a: &mut [f64], n: usize, d: &mut [f64]) {
    // The strict upper triangle holds `Q`'s strict lower triangle, which
    // the column form zeroes at step `k` before step `k + 1` first reads it.
    for (r, row) in a.chunks_exact_mut(n).enumerate() {
        row[r + 1..].fill(0.0);
    }
    for i in 0..n {
        let (lead, rest) = a.split_at_mut(i * n);
        let row_i = &mut rest[..n];
        if i > 0 && d[i] != 0.0 {
            reflect_rows(lead, n, &row_i[..i], d[i]);
        }
        d[i] = row_i[i];
        row_i[i] = 1.0;
        row_i[..i].fill(0.0);
    }
}

/// One accumulation step on the rows of `lead` (stride `n`, first `u.len()`
/// entries each): four rows at a time, so each `u_k / h` is formed once per
/// four rows and the four dot chains overlap.
fn reflect_rows(lead: &mut [f64], n: usize, u: &[f64], h: f64) {
    /// `u_k / h` is formed this many entries at a time, on the stack.
    const CHUNK: usize = 64;
    let i = u.len();
    let mut w = [0.0; CHUNK];
    for block in lead.chunks_mut(4 * n) {
        let m = block.len() / n;
        let mut rows: [&mut [f64]; 4] = Default::default();
        for (slot, row) in rows.iter_mut().zip(block.chunks_exact_mut(n)) {
            *slot = &mut row[..i];
        }
        let mut g = [0.0; 4];
        if m == 4 {
            let [r0, r1, r2, r3] = &rows;
            for ((((&x0, &x1), &x2), &x3), &uk) in r0
                .iter()
                .zip(r1.iter())
                .zip(r2.iter())
                .zip(r3.iter())
                .zip(u)
            {
                g[0] += x0 * uk;
                g[1] += x1 * uk;
                g[2] += x2 * uk;
                g[3] += x3 * uk;
            }
        } else {
            for (gt, row) in g.iter_mut().zip(&rows[..m]) {
                *gt = row.iter().zip(u).fold(0.0, |s, (&x, &uk)| s + x * uk);
            }
        }
        for k0 in (0..i).step_by(CHUNK) {
            let k1 = (k0 + CHUNK).min(i);
            let w = &mut w[..k1 - k0];
            for (wk, &uk) in w.iter_mut().zip(&u[k0..k1]) {
                *wk = uk / h;
            }
            for (row, &gt) in rows[..m].iter_mut().zip(&g) {
                for (x, &wk) in row[k0..k1].iter_mut().zip(w.iter()) {
                    *x -= gt * wk;
                }
            }
        }
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix
/// (EISPACK `tql2` / NR `tqli`).
///
/// `d` holds the diagonal, `e[1..]` the subdiagonal on entry; on success `d`
/// holds the (unsorted) eigenvalues. Every plane rotation applied to `T` is
/// simultaneously applied to the *rows* of `z` (the vectors are rows, each
/// of any length), so passing the `Qᵀ` from [`tridiagonalize`] yields the
/// eigenvectors of the original matrix as rows. Passing a `0×n` matrix
/// skips the eigenvector work entirely.
///
/// **Scaling contract** (shared with [`tqlrat`]). `(d, e)` is multiplied on
/// entry by the power of two that brings its largest magnitude into
/// `[1, 2)` and the spectrum is multiplied back on exit. Both are exact, so
/// the rotations and the returned values are those of the unscaled
/// iteration, and the rotation radii can be
/// taken as `(f² + g²).sqrt()` without a `hypot`: the squares cannot
/// overflow, and a radius that underflows to zero is below `2⁻⁵³⁷` of the
/// matrix norm — the deflation branch treats it as the zero it is. A factor
/// whose largest entry is zero, subnormal or not finite is iterated as given.
pub fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<(), EigError> {
    assert!(
        z.rows() == 0 || z.rows() == d.len(),
        "tqli: one vector row per eigenvalue"
    );
    at_unit_scale(d, e, |d, e| tqli_unit(d, e, z))
}

/// All eigenvalues of a symmetric tridiagonal matrix by Reinsch's rational
/// QL (EISPACK `tqlrat`): [`tqli`]'s iteration on the squared subdiagonal,
/// with no rotation and no square root in the inner loop (the shift takes
/// two roots an iteration) and no eigenvectors. `d`, `e` and the scaling
/// contract as [`tqli`]'s (at unit scale no square overflows); on success
/// `d` holds the unsorted eigenvalues, `e` is scratch. A squared element is
/// negligible at `(ε·t)²`, `t` the largest `|d_l| + |e_l|` met so far:
/// deflation is absolute at the matrix's scale, not relative to the
/// neighbouring diagonal as in [`tqli`].
///
/// # Errors
/// [`EigError::NoConvergence`] on non-finite input.
pub fn tqlrat(d: &mut [f64], e: &mut [f64]) -> Result<(), EigError> {
    at_unit_scale(d, e, tqlrat_unit)
}

/// Run `iterate` on `(d, e)` at unit scale: the scaling contract of
/// [`tqli`].
fn at_unit_scale(
    d: &mut [f64],
    e: &mut [f64],
    iterate: impl FnOnce(&mut [f64], &mut [f64]) -> Result<(), EigError>,
) -> Result<(), EigError> {
    if d.len() <= 1 {
        return Ok(());
    }
    let anorm = d.iter().chain(&e[1..]).fold(0.0f64, |m, x| m.max(x.abs()));
    // The exponent field alone: 2^⌊log₂ anorm⌋ for a normal `anorm`.
    let unit = f64::from_bits(anorm.to_bits() & f64::INFINITY.to_bits());
    let unit = if unit.is_normal() { unit } else { 1.0 };
    let inv_unit = 1.0 / unit;
    d.iter_mut()
        .chain(e.iter_mut())
        .for_each(|x| *x *= inv_unit);
    let result = iterate(d, e);
    d.iter_mut().for_each(|x| *x *= unit);
    result
}

/// The rational QL iteration proper, at unit scale. Past row `l`, `d` holds
/// the diagonal less the shifts `f`, which each deflated `d[l]` gets back.
/// The negated tests are EISPACK's: a NaN is not negligible, so non-finite
/// input runs into the sweep budget instead of deflating.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn tqlrat_unit(d: &mut [f64], e: &mut [f64]) -> Result<(), EigError> {
    let n = d.len();
    // The squared subdiagonal, renumbered to e[0..n-1].
    for i in 1..n {
        e[i - 1] = e[i] * e[i];
    }
    e[n - 1] = 0.0;
    let (mut f, mut t, mut floor, mut negligible) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for l in 0..n {
        let h = d[l].abs() + e[l].sqrt();
        if !(t > h) {
            t = h;
            floor = f64::EPSILON * t;
            negligible = floor * floor;
        }
        let mut iter = 0;
        loop {
            let mut m = l;
            while m + 1 < n && !(e[m] <= negligible) {
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(EigError::NoConvergence {
                    index: l,
                    iterations: iter,
                });
            }
            // Wilkinson shift, taken off every row past `l`.
            let s = e[l].sqrt();
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * s);
            let r = (p * p + 1.0).sqrt();
            d[l] = s / (p + r.copysign(p));
            let h = g - d[l];
            d[l + 1..].iter_mut().for_each(|x| *x -= h);
            f += h;
            // The rational QL sweep from `m` up to `l`.
            let nonzero = |g: f64| if g == 0.0 { floor } else { g };
            let mut g = nonzero(d[m]);
            let (mut h, mut s) = (g, 0.0);
            for i in (l..m).rev() {
                let p = g * h;
                let r = p + e[i];
                e[i + 1] = s * r;
                s = e[i] / r;
                d[i + 1] = h + s * (h + d[i]);
                g = nonzero(d[i] - e[i] / g);
                h = g * p / r;
            }
            e[l] = s * g;
            d[l] = h;
            // Converged once the new e[l]² = h·s·g is negligible; the test is
            // taken before the product, which could underflow.
            if h == 0.0 || e[l].abs() <= (negligible / h).abs() {
                break;
            }
            e[l] *= h;
        }
        d[l] += f;
    }
    Ok(())
}

/// The QL iteration proper, on a factor of roughly unit max-norm.
fn tqli_unit(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<(), EigError> {
    let n = d.len();
    // Renumber the subdiagonal to e[0..n-1] for convenient indexing.
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let zcols = z.cols();
    let z = z.as_mut_slice();
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Look for a negligible subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] has converged
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(EigError::NoConvergence {
                    index: l,
                    iterations: iter,
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = (g * g + 1.0).sqrt();
            g = d[m] - d[l] + e[l] / (g + r.abs().copysign(if g >= 0.0 { 1.0 } else { -1.0 }));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == 0.0 {
                    // Found a zero off-diagonal: deflate and retry.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Apply the rotation to eigenvector rows i and i+1.
                if !z.is_empty() {
                    let (head, tail) = z.split_at_mut((i + 1) * zcols);
                    let zi = &mut head[i * zcols..];
                    for (x, y) in zi.iter_mut().zip(&mut tail[..zcols]) {
                        f = *y;
                        *y = s * *x + c * f;
                        *x = c * *x - s * f;
                    }
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sort eigenvalues ascending and permute the eigenvector rows (the layout
/// [`tqli`] rotates) to match, in place: the permutation is applied by
/// cycle-following row swaps, so no copy of the (n²-sized) eigenvector
/// matrix is made. `order` is reusable scratch.
fn sort_eigenpairs(d: &mut [f64], z: &mut Matrix, order: &mut Vec<usize>) {
    let n = d.len();
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("NaN eigenvalue"));
    for i in 0..n {
        // order[i] is where position i's final value currently sits; chase
        // the chain past slots already fixed by earlier swaps.
        let mut src = order[i];
        while src < i {
            src = order[src];
        }
        if src != i {
            d.swap(i, src);
            z.swap_rows(i, src);
        }
    }
}

/// Residual `max_k ‖A v_k − λ_k v_k‖∞` — a cheap a-posteriori quality check
/// used by tests and by the eigensolver comparison report (experiment T4).
pub fn eig_residual(a: &Matrix, eig: &Eigh) -> f64 {
    let n = a.rows();
    let mut worst = 0.0f64;
    for k in 0..eig.values.len() {
        let v = eig.vectors.col(k);
        let av = a.matvec(&v);
        for i in 0..n {
            worst = worst.max((av[i] - eig.values[k] * v[i]).abs());
        }
    }
    worst
}

/// Deviation of `Vᵀ V` from the identity, measured as a max-abs entry.
pub fn orthogonality_defect(vectors: &Matrix) -> f64 {
    let vtv = vectors.t_matmul(vectors);
    let n = vtv.rows();
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let target = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((vtv[(i, j)] - target).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diagonal(&[3.0, -1.0, 2.0]);
        let eig = eigh(a).unwrap();
        assert!((eig.values[0] - -1.0).abs() < 1e-14);
        assert!((eig.values[1] - 2.0).abs() < 1e-14);
        assert!((eig.values[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn two_by_two_analytic() {
        // [[a, b], [b, c]] has eigenvalues (a+c)/2 ± sqrt(((a-c)/2)² + b²).
        let (a, b, c) = (2.0, 1.5, -1.0);
        let m = Matrix::from_vec(2, 2, vec![a, b, b, c]);
        let eig = eigh(m).unwrap();
        let mid = 0.5 * (a + c);
        let rad = (0.25 * (a - c) * (a - c) + b * b).sqrt();
        assert!((eig.values[0] - (mid - rad)).abs() < 1e-14);
        assert!((eig.values[1] - (mid + rad)).abs() < 1e-14);
    }

    #[test]
    fn residual_and_orthogonality_random() {
        for n in [1usize, 2, 3, 5, 16, 40] {
            let a = symmetric_test_matrix(n, n as u64 + 7);
            let eig = eigh(a.clone()).unwrap();
            let scale = a.max_abs().max(1.0);
            assert!(
                eig_residual(&a, &eig) < 1e-10 * scale * n as f64,
                "residual too large at n={n}"
            );
            assert!(
                orthogonality_defect(&eig.vectors) < 1e-11 * n as f64,
                "vectors not orthonormal at n={n}"
            );
        }
    }

    #[test]
    fn values_sorted_ascending() {
        let a = symmetric_test_matrix(24, 99);
        let eig = eigh(a).unwrap();
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        let a = symmetric_test_matrix(20, 5);
        let full = eigh(a.clone()).unwrap();
        let vals = eigvalsh(a).unwrap();
        for (a, b) in full.values.iter().zip(&vals) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = symmetric_test_matrix(30, 13);
        let tr = a.trace();
        let eig = eigh(a).unwrap();
        let s: f64 = eig.values.iter().sum();
        assert!((tr - s).abs() < 1e-10);
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // 3x3 with a double eigenvalue: diag(1, 1, 4) rotated.
        let d = Matrix::from_diagonal(&[1.0, 1.0, 4.0]);
        // Rotate by an arbitrary orthogonal matrix built from a Householder.
        let v = [1.0f64, 2.0, 3.0];
        let nv: f64 = v.iter().map(|x| x * x).sum::<f64>();
        let mut q = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                q[(i, j)] -= 2.0 * v[i] * v[j] / nv;
            }
        }
        let a = q.matmul(&d).matmul(&q.transpose());
        let eig = eigh(a.clone()).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 1.0).abs() < 1e-12);
        assert!((eig.values[2] - 4.0).abs() < 1e-12);
        assert!(eig_residual(&a, &eig) < 1e-11);
    }

    #[test]
    fn already_tridiagonal_input() {
        let n = 10;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = i as f64;
            if i + 1 < n {
                a[(i, i + 1)] = 0.5;
                a[(i + 1, i)] = 0.5;
            }
        }
        let eig = eigh(a.clone()).unwrap();
        assert!(eig_residual(&a, &eig) < 1e-12);
    }

    #[test]
    fn known_tridiagonal_toeplitz_eigenvalues() {
        // The n×n tridiagonal Toeplitz matrix with diagonal a and off-diagonal
        // b has eigenvalues a + 2b·cos(kπ/(n+1)), k = 1..n.
        let n = 12;
        let (a_diag, b_off) = (2.0, -1.0);
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = a_diag;
            if i + 1 < n {
                m[(i, i + 1)] = b_off;
                m[(i + 1, i)] = b_off;
            }
        }
        let eig = eigh(m).unwrap();
        let mut expected: Vec<f64> = (1..=n)
            .map(|k| {
                a_diag + 2.0 * b_off * (k as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos()
            })
            .collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in eig.values.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        }
    }

    #[test]
    fn tqli_spectrum_scales_with_the_factor() {
        // Rotation radii are plain √(f² + g²): at 1e±150 the squares leave
        // the f64 range unless the factor is brought to unit scale first.
        let n = 40;
        let mut a = symmetric_test_matrix(n, 17);
        let (d, e) = tridiagonalize(&mut a, false);
        let solve = |scale: f64| {
            let mut ds: Vec<f64> = d.iter().map(|x| x * scale).collect();
            let mut es: Vec<f64> = e.iter().map(|x| x * scale).collect();
            let mut z = Matrix::identity(n);
            tqli(&mut ds, &mut es, &mut z).unwrap();
            sort_eigenpairs(&mut ds, &mut z, &mut Vec::new());
            (ds, z)
        };
        let (reference, zref) = solve(1.0);
        let norm = reference.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for scale in [1e150, 1e-150, 3.0] {
            let (values, z) = solve(scale);
            for (got, want) in values.iter().zip(&reference) {
                assert!(
                    (got / scale - want).abs() <= 1e-12 * norm,
                    "scale {scale:e}: {} vs {want}",
                    got / scale
                );
            }
            assert!(orthogonality_defect(&z) < 1e-12 * n as f64);
            assert!(
                (&z - &zref).max_abs() < 1e-9,
                "scale {scale:e}: vectors moved"
            );
        }
        // A zero factor and a non-finite one are iterated as given.
        let (mut dz, mut ez) = (vec![0.0; 5], vec![0.0; 5]);
        tqli(&mut dz, &mut ez, &mut Matrix::zeros(0, 5)).unwrap();
        assert_eq!(dz, vec![0.0; 5]);
        let (mut dn, mut en) = (vec![1.0, f64::NAN, 2.0], vec![0.0, 0.5, 0.5]);
        assert!(matches!(
            tqli(&mut dn, &mut en, &mut Matrix::zeros(0, 3)),
            Err(EigError::NoConvergence { .. })
        ));
    }

    /// A random tridiagonal factor, entries in `[-0.5, 0.5)`, `e[0] = 0`.
    fn random_factor(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let d = (0..n).map(|_| next()).collect();
        let e = (0..n).map(|i| if i == 0 { 0.0 } else { next() }).collect();
        (d, e)
    }

    /// The ascending spectra of `(d, e)` from [`tqli`] and from [`tqlrat`].
    fn both_spectra(d: &[f64], e: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (mut dq, mut eq) = (d.to_vec(), e.to_vec());
        tqli(&mut dq, &mut eq, &mut Matrix::zeros(0, d.len())).unwrap();
        let (mut dr, mut er) = (d.to_vec(), e.to_vec());
        tqlrat(&mut dr, &mut er).unwrap();
        dq.sort_by(f64::total_cmp);
        dr.sort_by(f64::total_cmp);
        (dq, dr)
    }

    /// `max |λ_tqlrat − λ_tqli|` on `(d, e)` is at most `1e-13 · ‖T‖`, with
    /// `‖T‖` the largest row sum `|e_i| + |d_i| + |e_{i+1}|`.
    fn assert_root_free_matches_tqli(what: &str, d: &[f64], e: &[f64]) {
        let n = d.len();
        let norm = (0..n)
            .map(|i| e[i].abs() + d[i].abs() + e.get(i + 1).map_or(0.0, |x| x.abs()))
            .fold(0.0, f64::max);
        let (ql, rational) = both_spectra(d, e);
        let gap = ql
            .iter()
            .zip(&rational)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            gap <= 1e-13 * norm,
            "{what}: |Δλ| = {gap:e}, ‖T‖ = {norm:e}"
        );
    }

    #[test]
    fn root_free_spectrum_matches_tqli() {
        for (n, seed) in [(3usize, 1u64), (17, 2), (100, 3), (256, 4)] {
            let (d, e) = random_factor(n, seed);
            assert_root_free_matches_tqli(&format!("random {n}"), &d, &e);
        }
        // Toeplitz: 2 + 2·cos(kπ/(n+1)) on the diagonal 2, subdiagonal −1.
        let n = 64;
        let (d, mut e) = (vec![2.0; n], vec![-1.0; n]);
        e[0] = 0.0;
        assert_root_free_matches_tqli("Toeplitz", &d, &e);
        let (_, rational) = both_spectra(&d, &e);
        for (k, got) in rational.iter().rev().enumerate() {
            let want = 2.0 + 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64).cos();
            assert!(
                (got - want).abs() < 1e-13,
                "Toeplitz λ_{k}: {got} vs {want}"
            );
        }
        // Graded: entries falling by 10⁻¹⁵ along the factor, and rising.
        let grade = |i: usize| 10f64.powf(-(i as f64) / 4.0);
        let (d, mut e): (Vec<f64>, Vec<f64>) = (0..60).map(|i| (grade(i), 0.5 * grade(i))).unzip();
        e[0] = 0.0;
        assert_root_free_matches_tqli("graded down", &d, &e);
        let (mut d, mut e) = (d, e);
        d.reverse();
        e[1..].reverse();
        assert_root_free_matches_tqli("graded up", &d, &e);
    }

    #[test]
    fn root_free_spectrum_holds_clusters_and_splits() {
        // Wilkinson's W₂₁⁺: pairs of eigenvalues equal to 1e-14 and beyond.
        let d: Vec<f64> = (0..21).map(|i| (10.0 - i as f64).abs()).collect();
        let mut e = vec![1.0; 21];
        e[0] = 0.0;
        assert_root_free_matches_tqli("W21+", &d, &e);
        // Three copies of one block: split exactly, then coupled by 1e-15.
        let (block_d, block_e) = random_factor(7, 9);
        for link in [0.0, 1e-15] {
            let d: Vec<f64> = block_d.iter().cycle().take(21).copied().collect();
            let e: Vec<f64> = (0..21)
                .map(|i| {
                    if i % 7 == 0 {
                        if i == 0 {
                            0.0
                        } else {
                            link
                        }
                    } else {
                        block_e[i % 7]
                    }
                })
                .collect();
            assert_root_free_matches_tqli(&format!("three blocks, link {link:e}"), &d, &e);
        }
        // No subdiagonal at all: the diagonal is the spectrum, exactly.
        let (d, _) = random_factor(9, 5);
        let (_, rational) = both_spectra(&d, &[0.0; 9]);
        let mut want = d.clone();
        want.sort_by(f64::total_cmp);
        assert_eq!(rational, want);
        // 1 × 1 is its entry; 2 × 2 the closed form.
        let (mut one, mut none) = (vec![-3.25], vec![0.0]);
        tqlrat(&mut one, &mut none).unwrap();
        assert_eq!(one, vec![-3.25]);
        let (a, b, c) = (2.0, 1.5, -1.0);
        let (_, two) = both_spectra(&[a, c], &[0.0, b]);
        let (mid, rad) = (0.5 * (a + c), (0.25 * (a - c) * (a - c) + b * b).sqrt());
        assert!((two[0] - (mid - rad)).abs() < 1e-15 && (two[1] - (mid + rad)).abs() < 1e-15);
        assert_root_free_matches_tqli("2 × 2", &[a, c], &[0.0, b]);
    }

    #[test]
    fn root_free_spectrum_scales_with_the_factor() {
        // Squared subdiagonals at 1e±150 leave the f64 range unless the
        // factor is brought to unit scale first.
        let (d, e) = random_factor(40, 17);
        let (_, reference) = both_spectra(&d, &e);
        let norm = reference.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for scale in [1e150, 1e-150, 3.0] {
            let ds: Vec<f64> = d.iter().map(|x| x * scale).collect();
            let es: Vec<f64> = e.iter().map(|x| x * scale).collect();
            let (ql, rational) = both_spectra(&ds, &es);
            for ((got, want), ql) in rational.iter().zip(&reference).zip(&ql) {
                assert!(
                    (got / scale - want).abs() <= 1e-13 * norm,
                    "scale {scale:e}"
                );
                assert!((got - ql).abs() <= 1e-13 * norm * scale, "scale {scale:e}");
            }
        }
        // A zero factor is its own spectrum; a NaN does not converge.
        let (mut dz, mut ez) = (vec![0.0; 5], vec![0.0; 5]);
        tqlrat(&mut dz, &mut ez).unwrap();
        assert_eq!(dz, vec![0.0; 5]);
        let (mut dn, mut en) = (vec![1.0, f64::NAN, 2.0], vec![0.0, 0.5, 0.5]);
        assert!(matches!(
            tqlrat(&mut dn, &mut en),
            Err(EigError::NoConvergence { .. })
        ));
    }

    #[test]
    fn eigh_into_reuses_workspace_across_sizes() {
        let mut ws = EighWorkspace::default();
        let mut values = Vec::new();
        // Alternate sizes to exercise buffer shrink/grow reuse.
        for &(n, seed) in &[(18usize, 3u64), (6, 5), (25, 8), (1, 11)] {
            let a = symmetric_test_matrix(n, seed);
            let mut vectors = a.clone();
            eigh_into(&mut vectors, &mut values, &mut ws).unwrap();
            let reference = eigh(a.clone()).unwrap();
            assert_eq!(values, reference.values, "values differ at n={n}");
            assert_eq!(vectors, reference.vectors, "vectors differ at n={n}");
            assert!(
                eig_residual(
                    &a,
                    &Eigh {
                        values: values.clone(),
                        vectors
                    }
                ) < 1e-10
            );
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(3, 4);
        assert!(matches!(eigh(a), Err(EigError::NotSquare { .. })));
    }

    #[test]
    fn empty_matrix() {
        let eig = eigh(Matrix::zeros(0, 0)).unwrap();
        assert!(eig.values.is_empty());
    }

    #[test]
    fn one_by_one() {
        let eig = eigh(Matrix::from_vec(1, 1, vec![7.5])).unwrap();
        assert_eq!(eig.values, vec![7.5]);
        assert!((eig.vectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn similarity_invariance() {
        // Eigenvalues must be invariant under Q A Qᵀ for orthogonal Q.
        let a = symmetric_test_matrix(15, 21);
        let e1 = eigvalsh(a.clone()).unwrap();
        // Build Q from the eigenvectors of another symmetric matrix.
        let q = eigh(symmetric_test_matrix(15, 22)).unwrap().vectors;
        let b = q.matmul(&a).matmul(&q.transpose());
        let e2 = eigvalsh(b).unwrap();
        for (x, y) in e1.iter().zip(&e2) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }
}

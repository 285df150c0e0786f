//! Blocked Householder tridiagonalization and blocked reflector application —
//! stage one of the two-stage symmetric eigensolver.
//!
//! The scalar EISPACK `tred2` reduction interleaves a rank-2 update of the
//! trailing matrix with every reflector, one level-2 pass per column, and
//! its `tqli` companion then spends `O(n³)` more rotating all `n` vectors.
//! The blocked pipeline here follows the LAPACK `sytrd`/`latrd`
//! factorization instead:
//!
//! 1. **Panel factorization** — `NB` Householder reflectors are generated per
//!    panel; the trailing matrix is touched only through `NB` symmetric
//!    matrix–vector products (four rows of the lower triangle per pass,
//!    large blocks in row bands over the thread team, one fixed summation
//!    order either way) whose corrections against the pending panel (`V`,
//!    `W`, two reflectors per pass) keep the panel numerically exact. The
//!    panel's columns leave `a` once, at panel start, as contiguous rows of
//!    the panel buffer, and come back as reflectors once, at panel end.
//! 2. **Rank-2k trailing update** — after each panel the trailing block
//!    absorbs `A ← A − V Wᵀ − W Vᵀ` in one GEMM-shaped sweep over contiguous
//!    rows (the SYR2K analogue of the SYRK density-matrix kernel), four rows
//!    at a time through [`kernels::rank1_tile`], every term of the panel
//!    applied while a row tile sits in registers. Only the lower triangle exists:
//!    the panel matvec ([`kernels::symv_lower`]) reads nothing else. Rows are
//!    independent and dealt round-robin over the threads, so both halves of
//!    the triangle's area get done at once and each row is written by
//!    exactly one task.
//!
//! The back-transform, its T factors and [`Matrix::matmul`] go through the
//! same tile, so the GEMM-shaped half of the solver is one micro-kernel.
//!
//! The reflectors stay packed in the reduced matrix (LAPACK convention:
//! column `j` holds `v_j` below the subdiagonal, `v_j[j+1] = 1` implicit)
//! plus a `tau` array, so stage two can back-transform any subset of
//! tridiagonal eigenvectors with a blocked, GEMM-shaped compact-WY
//! application (`I − V T Vᵀ` per panel, [`apply_q_blocked`]) instead of
//! `tqli`'s per-rotation sweeps. All matrix scratch lives in
//! [`BlockedScratch`] (embedded in [`crate::eigh::EighWorkspace`]), so
//! repeated solves grow no buffer after warmup.

use crate::eigh::{tqlrat, EigError, EighWorkspace};
use crate::inverse_iteration::{staging, stream_eigenvectors, Strip};
use crate::kernels;
use crate::matrix::{held, Matrix};
use crate::team;
use std::sync::Mutex;

/// Panel width of the blocked reduction and of the compact-WY application.
/// 32 columns keep the panel (`2 · 32 · n` doubles) L2-resident at the
/// problem sizes TBMD produces while amortizing the trailing sweep well.
pub const TRIDIAG_BLOCK: usize = 32;

/// Widest column strip of `Z` one task of [`apply_q_blocked`] sweeps every
/// panel over. `n × 96` doubles stay L2-resident up to n ≈ 2500, and the
/// strip's `Vᵀ Z` block (`32 × 96` doubles, 24 KB) stays in L1.
pub(crate) const STRIP_COLS: usize = 96;

/// Row bands the panel matvec of a trailing block is cut into, and the
/// fewest rows a block must have to be cut at all. Measured on the 2-vCPU
/// reference host with the shuffle-free `dot4_axpy4`, reduction alone, the
/// medians of 3–4 alternated runs of 6–12 reductions each, under a width-2
/// lease: n = 640 unbanded 42–52 ms, 2 bands 34–45, 4 bands 33–48, 8 bands
/// 35–39; n = 864 unbanded 95–115, banded 70–82 (2), 67–74 (4), 71–80 (8).
/// Two, four and eight bands read the same; four divides evenly over 2 and 4
/// threads. Run inline (width 1) banded and unbanded read the same within
/// the host's noise (n = 640: 41–58 vs 44–47 ms). Below 256 rows a column's
/// matvec is a few µs and half of it no longer pays for a hand-off; floors
/// of 128 and 384 read the same as 256 within the noise (measured before the
/// kernel rewrite).
const SYMV_BANDS: usize = 4;
const SYMV_BAND_FLOOR: usize = 256;

/// Width of the two fan-outs that do not consult the lease yet:
/// [`rank2k_lower`] and the strip stream of the eigenvector stage take the
/// whole team (`si216-serial-nve` holds a width-1 lease and still reduces,
/// inverse-iterates and back-transforms on both cores). Narrowing
/// them to [`team::width`] is ROADMAP item 7(e); it reads as ≈ −25 % on
/// that workload, so it waits for the width-2 dense Si-216 workload of
/// item 7(d) that can show the other side of the trade. Inside a parallel
/// region (a message-passing rank, a tenant on a team worker) both run
/// inline, so they ask for one thread and stage one band.
fn whole_team() -> usize {
    if team::in_region() {
        1
    } else {
        team::size()
    }
}

/// Reusable scratch of the blocked reduction, the compact-WY application and
/// the partial-spectrum path. Buffers grow to the largest size seen, then
/// are reused — the same policy as every other workspace in the project.
#[derive(Debug, Default, Clone)]
pub struct BlockedScratch {
    /// Diagonal of the tridiagonal factor (valid after
    /// [`tridiagonalize_blocked_into`]).
    pub(crate) d: Vec<f64>,
    /// Subdiagonal: `e[0] = 0`, `e[i]` couples rows `i−1` and `i` — the same
    /// convention as [`crate::eigh::tridiagonalize`].
    pub(crate) e: Vec<f64>,
    /// Householder scales, `tau[j]` for the reflector stored in column `j`.
    pub(crate) tau: Vec<f64>,
    /// The panel buffer, `NB × n`, one *row* per panel column: at panel start
    /// row `c` is column `j0 + c` of `a` over rows `j0..n` (its lower
    /// triangle), copied in one row segment of `a` per row; each row is
    /// corrected and turned into its reflector `V` in place (explicit unit,
    /// zeros from `j0` up to it) and written back into `a` at panel end, so
    /// the reduction touches a panel column of `a` twice, not once per
    /// element read and once per element written.
    vpan: Matrix,
    /// Panel update vectors `W`, one row per reflector.
    wpan: Matrix,
    /// Negated compact-WY triangular factors `−T`, one `NB`-row band per
    /// panel.
    tmat: Matrix,
    /// The panel matvec's result.
    pvec: Vec<f64>,
    /// One partial matvec result per row band, `SYMV_BANDS × n`.
    bands: Vec<f64>,
    /// Scratch tridiagonal copy for the rational QL.
    dql: Vec<f64>,
    eql: Vec<f64>,
}

impl BlockedScratch {
    /// Diagonal of the most recent tridiagonal factor.
    pub fn diagonal(&self) -> &[f64] {
        &self.d
    }

    /// Subdiagonal of the most recent tridiagonal factor (`e[0] = 0`).
    pub fn subdiagonal(&self) -> &[f64] {
        &self.e
    }

    /// Bytes of the reduction's panels, factors and QL copies.
    pub(crate) fn heap_bytes(&self) -> usize {
        let factor = held(&[&self.d, &self.e, &self.tau, &self.dql, &self.eql]);
        let panels = [&self.vpan, &self.wpan, &self.tmat].map(Matrix::heap_bytes);
        factor + held(&[&self.pvec, &self.bands]) + panels.iter().sum::<usize>()
    }
}

/// Generate a Householder reflector for `x = [alpha, rest...]` such that
/// `H x = [beta, 0, ...]` with `H = I − τ v vᵀ`, `v[0] = 1`. Returns
/// `(tau, beta)` and overwrites `rest` with `v[1..]` (LAPACK `dlarfg`).
#[inline]
fn householder(alpha: f64, rest: &mut [f64]) -> (f64, f64) {
    let xnorm = rest.iter().map(|x| x * x).sum::<f64>().sqrt();
    if xnorm == 0.0 {
        return (0.0, alpha);
    }
    let beta = -alpha.signum() * alpha.hypot(xnorm);
    let tau = (beta - alpha) / beta;
    let inv = 1.0 / (alpha - beta);
    for x in rest.iter_mut() {
        *x *= inv;
    }
    (tau, beta)
}

/// Blocked Householder reduction of the symmetric matrix `a` to tridiagonal
/// form.
///
/// On return:
/// * `ws.blocked.d` / `ws.blocked.e` hold the tridiagonal factor in the same
///   `(d, e)` convention as [`crate::eigh::tridiagonalize`];
/// * `a`'s strict lower triangle below the first subdiagonal holds the
///   Householder vectors (column `j`: `v_j[j+1] = 1` implicit, `v_j[j+2..]`
///   explicit), `ws.blocked.tau` their scales — everything
///   [`apply_q_blocked`] needs to back-transform eigenvectors;
/// * the rest of `a` is scratch.
///
/// Only the lower triangle of `a` is read.
///
/// # Panics
/// Panics if `a` is not square.
pub fn tridiagonalize_blocked_into(a: &mut Matrix, ws: &mut EighWorkspace) {
    assert!(a.is_square(), "tridiagonalization requires a square matrix");
    let n = a.rows();
    let (s, inviter) = (&mut ws.blocked, &mut ws.inviter);
    s.d.clear();
    s.d.resize(n, 0.0);
    s.e.clear();
    s.e.resize(n, 0.0);
    s.tau.clear();
    s.tau.resize(n, 0.0);
    if n == 0 {
        return;
    }
    if n == 1 {
        s.d[0] = a[(0, 0)];
        return;
    }
    // ~(4/3)n³ flops: the symmetric matvecs plus the rank-2k sweeps.
    tbmd_trace::add(tbmd_trace::Counter::KernelFlops, 4 * (n as u64).pow(3) / 3);
    // The panels live in the eigenvector stage's staging bands (the one
    // band in a parallel region holds `V`), which are free until then.
    let lent = whole_team().min(2);
    for (t, pan) in [&mut s.vpan, &mut s.wpan]
        .into_iter()
        .enumerate()
        .take(lent)
    {
        let mut band = inviter.lend(t, n);
        band.clear();
        *pan = Matrix::from_vec(0, 0, band);
    }
    s.vpan.resize_zeroed(TRIDIAG_BLOCK, n);
    s.wpan.resize_zeroed(TRIDIAG_BLOCK, n);
    s.pvec.clear();
    s.pvec.resize(n, 0.0);
    if n > SYMV_BAND_FLOOR {
        s.bands.clear();
        s.bands.resize(SYMV_BANDS * n, 0.0);
    }

    let mut j0 = 0usize;
    while j0 + 2 < n {
        let jb = TRIDIAG_BLOCK.min(n - 2 - j0);
        // Panel start: columns j0..j0+jb of rows j0..n (lower triangle) into
        // rows 0..jb of `vpan`, one row segment of `a` per row. Each row is
        // corrected, turned into its reflector in place, and written back
        // into `a` at panel end: nothing reads a panel column of `a` before
        // then (the matvec reads columns past the reflector's own).
        for r in j0..n {
            let seg = &a.row(r)[j0..j0 + jb.min(r - j0 + 1)];
            for (c, &x) in seg.iter().enumerate() {
                s.vpan[(c, r)] = x;
            }
        }
        for jj in 0..jb {
            let j = j0 + jj;
            // --- 1. column j with the pending panel updates applied -------
            // x −= Σ_p (w_p[j] v_p + v_p[j] w_p), two reflectors per pass.
            let (done, x) = s.vpan.as_mut_slice().split_at_mut(jj * n);
            let x = &mut x[..n];
            let mut coef = [[0.0; 2]; TRIDIAG_BLOCK];
            for (p, c) in coef[..jj].iter_mut().enumerate() {
                *c = [s.wpan[(p, j)], done[p * n + j]];
            }
            subtract_reflectors(&mut x[j..], done, s.wpan.as_slice(), n, &coef[..jj]);
            s.d[j] = x[j];
            // --- 2. Householder reflector annihilating x[j+2..] -----------
            let (head, tail) = x[j + 1..].split_first_mut().expect("j + 1 < n");
            let (tau, beta) = householder(*head, tail);
            *head = 1.0;
            x[j0..=j].fill(0.0);
            s.tau[j] = tau;
            s.e[j + 1] = beta;
            if tau == 0.0 {
                s.wpan.row_mut(jj).fill(0.0);
                continue;
            }
            // --- 3. w = τ(A v − V(Wᵀv) − W(Vᵀv)); w −= (τ/2)(wᵀv)v --------
            // Symmetric matvec on the *panel-start* trailing block, reading
            // only the lower triangle: half the memory traffic of a mirrored
            // full-row form, and no mirror maintenance between panels.
            let v = s.vpan.row(jj);
            let p = &mut s.pvec;
            let lo = j + 1;
            symv_banded(a.as_slice(), n, lo, v, p, &mut s.bands);
            panel_correction(&mut p[lo..n], &v[lo..n], &s.vpan, &s.wpan, jj);
            for pv in p[lo..n].iter_mut() {
                *pv *= tau;
            }
            let wdotv = kernels::dot(&p[lo..n], &v[lo..n]);
            let gamma = -0.5 * tau * wdotv;
            let wrow = s.wpan.row_mut(jj);
            wrow[..lo].fill(0.0);
            for r in lo..n {
                wrow[r] = p[r] + gamma * v[r];
            }
        }
        // Panel end: the reflectors into a's columns, below the subdiagonal.
        for r in j0 + 2..n {
            let seg = &mut a.row_mut(r)[j0..j0 + jb.min(r - j0 - 1)];
            for (c, x) in seg.iter_mut().enumerate() {
                *x = s.vpan[(c, r)];
            }
        }
        // --- 4. rank-2k trailing update (SYR2K, lower triangle) -----------
        let t0 = j0 + jb;
        rank2k_lower(a, t0, jb, &s.vpan, &s.wpan);
        j0 = t0;
    }
    for (t, pan) in [&mut s.vpan, &mut s.wpan]
        .into_iter()
        .enumerate()
        .take(lent)
    {
        inviter.give_back(t, std::mem::take(pan).into_vec());
    }
    // Remaining 2×2 (or smaller) trailing block: read directly.
    if n >= 2 {
        s.d[n - 2] = a[(n - 2, n - 2)];
        s.d[n - 1] = a[(n - 1, n - 1)];
        s.e[n - 1] = a[(n - 1, n - 2)];
    }
}

/// `y −= Σ_q (c_q[0]·v_q + c_q[1]·w_q)` in ascending `q`, with `v_q`, `w_q`
/// rows `q` of the row-major panels `v`, `w` (row length `n`) and `y` their
/// columns `n − y.len()..n`: per element `((y − c₀[0]·v₀) − c₀[1]·w₀) − …`,
/// the order of one [`kernels::axpy2`] per reflector, with two reflectors per
/// [`kernels::axpy4`] pass over `y`.
fn subtract_reflectors(y: &mut [f64], v: &[f64], w: &[f64], n: usize, coef: &[[f64; 2]]) {
    let lo = n - y.len();
    let vw = |q: usize| (&v[q * n + lo..(q + 1) * n], &w[q * n + lo..(q + 1) * n]);
    let mut pairs = coef.chunks_exact(2);
    for (i, c) in pairs.by_ref().enumerate() {
        let ((v0, w0), (v1, w1)) = (vw(2 * i), vw(2 * i + 1));
        kernels::axpy4(
            y,
            [-c[0][0], -c[0][1], -c[1][0], -c[1][1]],
            [v0, w0, v1, w1],
        );
    }
    if let [c] = pairs.remainder() {
        let (v0, w0) = vw(coef.len() - 1);
        kernels::axpy2(y, -c[0], v0, -c[1], w0);
    }
}

/// The panel corrections of the matvec `p = A·v`: `p −= V (Wᵀv) + W (Vᵀv)`
/// over the first `jj` reflectors (rows) of `vpan`, `wpan`, with `p`, `v` and
/// the rows read over the last `p.len()` columns. Bit for bit `jj` rounds of
/// `(wv, vv) = dot2(v, w_q, v_q)` then `axpy2(p, −wv, v_q, −vv, w_q)`: the
/// dots of four reflectors are formed in one shared-operand pass
/// ([`kernels::dot8`], each in `dot2`'s lane order) and applied two
/// reflectors per pass over `p` ([`subtract_reflectors`]).
fn panel_correction(p: &mut [f64], v: &[f64], vpan: &Matrix, wpan: &Matrix, jj: usize) {
    let n = vpan.cols();
    let lo = n - p.len();
    let (vr, wr) = (|q| &vpan.row(q)[lo..], |q| &wpan.row(q)[lo..]);
    let mut q = 0;
    while q < jj {
        let mut coef = [[0.0; 2]; 4];
        let k = match jj - q {
            1 => {
                let (wv, vv) = kernels::dot2(v, wr(q), vr(q));
                coef[0] = [wv, vv];
                1
            }
            2 | 3 => {
                let d = kernels::dot4(v, wr(q), vr(q), wr(q + 1), vr(q + 1));
                coef[0] = [d[0], d[1]];
                coef[1] = [d[2], d[3]];
                2
            }
            _ => {
                let d = kernels::dot8(
                    v,
                    [
                        wr(q),
                        vr(q),
                        wr(q + 1),
                        vr(q + 1),
                        wr(q + 2),
                        vr(q + 2),
                        wr(q + 3),
                        vr(q + 3),
                    ],
                );
                coef = std::array::from_fn(|i| [d[2 * i], d[2 * i + 1]]);
                4
            }
        };
        let (vs, ws) = (&vpan.as_slice()[q * n..], &wpan.as_slice()[q * n..]);
        subtract_reflectors(p, vs, ws, n, &coef[..k]);
        q += k;
    }
}

/// The panel matvec `p[lo..n] = A[lo..n, lo..n] · v[lo..n]`
/// ([`kernels::symv_lower`]) — in one pass on the calling thread for a
/// trailing block of fewer than [`SYMV_BAND_FLOOR`] rows, else in
/// [`SYMV_BANDS`] row bands of equal area dealt over [`team::width`] threads:
/// band `b` ends where the lower triangle reaches `(b + 1) / SYMV_BANDS` of
/// its area, on a four-row pass boundary; each band fills its own partial
/// vector ([`kernels::symv_lower_band`]) and the partials are added per
/// element in band order. Whether a block is cut, where, and the order of
/// every addition depend on `(lo, n)` alone, so `p` — and with it `(d, e)`,
/// τ and the reflectors — is bitwise the same at every width, under every
/// lease and on a rank thread, which runs the bands inline one after another.
fn symv_banded(a: &[f64], n: usize, lo: usize, v: &[f64], p: &mut [f64], bands: &mut [f64]) {
    let m = n - lo;
    if m < SYMV_BAND_FLOOR {
        return kernels::symv_lower(a, n, lo, v, p);
    }
    let head = lo + m % 4;
    let passes = (n - head) / 4;
    // Rows `lo..r` hold (r − lo)² / 2 of the area: equal areas end at √ steps.
    let bound = |b: usize| match b {
        0 => lo,
        b => head + 4 * ((passes as f64) * (b as f64 / SYMV_BANDS as f64).sqrt()).round() as usize,
    };
    {
        // Straight on `team::run`, the partial vectors behind locks on the
        // stack: this runs once per column, and the hands `chunks_for_each`
        // would allocate for it left the heap too fragmented for the solver's
        // `n × k` buffers to grow in place (+3 MB peak RSS on
        // `cnt160-shared2-nvt`).
        let mut parts = bands.chunks_exact_mut(n);
        let parts: [_; SYMV_BANDS] =
            std::array::from_fn(|_| Mutex::new(parts.next().expect("SYMV_BANDS × n")));
        let width = team::width().min(SYMV_BANDS);
        team::run(width, &|tid| {
            for b in (tid..SYMV_BANDS).step_by(width) {
                let mut part = parts[b].lock().expect("one thread per band");
                kernels::symv_lower_band(a, n, lo, bound(b)..bound(b + 1), v, &mut part);
            }
        });
    }
    for (b, part) in bands.chunks_exact(n).enumerate() {
        let (r0, r1) = (bound(b), bound(b + 1));
        for (pv, &x) in p[lo..r0].iter_mut().zip(&part[lo..r0]) {
            *pv += x;
        }
        p[r0..r1].copy_from_slice(&part[r0..r1]);
    }
}

/// `A ← A − V Wᵀ − W Vᵀ` on the lower triangle of the trailing block
/// `[t0, n)`, with `V`, `W` the first `jb` rows of `vpan`, `wpan` (one
/// reflector per row): per element `(((y − v₀w₀) − w₀v₀) − v₁w₁) − w₁v₁ …`,
/// the order of one [`kernels::axpy2`] per pair in ascending pair order. One
/// fan-out over four-row groups, dealt round-robin: a group's shared columns
/// `t0..=r` go through one [`kernels::rank1_tile`] whose `2·jb` terms are the
/// panel rows `w₀, v₀, w₁, …` read in place, the six elements of the
/// triangle past them one term at a time; every term is one fused
/// multiply-add, as in the kernels. An element's arithmetic does not
/// depend on the thread count. Public so that the kernel table can time it.
pub fn rank2k_lower(a: &mut Matrix, t0: usize, jb: usize, vpan: &Matrix, wpan: &Matrix) {
    let ncols = a.cols();
    let nq = 2 * jb;
    let b: [&[f64]; 2 * TRIDIAG_BLOCK] = std::array::from_fn(|q| {
        let pan = if q % 2 == 0 { wpan } else { vpan };
        &pan.row(q / 2)[t0..]
    });
    let trailing = &mut a.as_mut_slice()[t0 * ncols..];
    team::chunks_for_each(whole_team(), trailing, 4 * ncols, |g, rows| {
        let r = t0 + 4 * g;
        // Term q's coefficient for row r + i: −v_p[r+i] for q = 2p, −w_p[r+i]
        // for q = 2p + 1.
        let mut coef = [[0.0; 4]; 2 * TRIDIAG_BLOCK];
        for (q, c) in coef[..nq].iter_mut().enumerate() {
            let pan = if q % 2 == 0 { vpan } else { wpan };
            let col = &pan.row(q / 2)[r..];
            for (i, ci) in c.iter_mut().enumerate().take(rows.len() / ncols) {
                *ci = -col[i];
            }
        }
        if rows.len() < 4 * ncols {
            // The last group may hold fewer than four rows: one at a time.
            for (i, y) in rows.chunks_exact_mut(ncols).enumerate() {
                let y = &mut y[t0..=r + i];
                kernels::rank1_tile::<1>([y], nq, |q| [coef[q][i]], |q| b[q]);
            }
            return;
        }
        let mut ys: [&mut [f64]; 4] = {
            let mut rows = rows.chunks_exact_mut(ncols);
            std::array::from_fn(|_| rows.next().expect("four rows"))
        };
        kernels::rank1_tile::<4>(
            ys.each_mut().map(|y| &mut y[t0..=r]),
            nq,
            |q| coef[q],
            |q| b[q],
        );
        // Rows r+1..r+3 past the shared columns: (r+1, r+1), (r+2, r+1..=r+2),
        // (r+3, r+1..=r+3).
        const TRIANGLE: [(usize, usize); 6] = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)];
        let mut acc = TRIANGLE.map(|(i, c)| ys[i][r + c]);
        for (cq, bq) in coef[..nq].iter().zip(&b) {
            for (x, &(i, c)) in acc.iter_mut().zip(&TRIANGLE) {
                *x = cq[i].mul_add(bq[r + c - t0], *x);
            }
        }
        for (x, (i, c)) in acc.into_iter().zip(TRIANGLE) {
            ys[i][r + c] = x;
        }
    });
}

/// A block of rows of panel `[j0, j0+jb)`'s reflector matrix `V` (`n × jb`,
/// column `p` = `v_{j0+p}`, rows `j0+1..n`), packed: row `i` is `V`'s row
/// `rows.start + i`, the reduction's segment `a.row(r)[j0..j0+jb]` — on the
/// panel's first `jb` rows with the implicit unit entry of reflector
/// `r − j0 − 1` and the zeros past it written out. The tiles read a block
/// from 8 KB of the stack instead of one page of `a` per row.
struct VBlock {
    rows: std::ops::Range<usize>,
    v: [[f64; TRIDIAG_BLOCK]; TRIDIAG_BLOCK],
}

/// Panel `[j0, j0+jb)`'s `V` as [`VBlock`]s in ascending row order: the
/// panel's first `jb` rows, then `NB` rows at a time.
fn panel_blocks(a: &Matrix, j0: usize, jb: usize) -> impl Iterator<Item = VBlock> + '_ {
    let (n, split) = (a.rows(), j0 + 1 + jb);
    let below = (split..n).step_by(TRIDIAG_BLOCK);
    let blocks =
        std::iter::once(j0 + 1..split).chain(below.map(move |r| r..n.min(r + TRIDIAG_BLOCK)));
    blocks.map(move |rows| {
        let mut v = [[0.0; TRIDIAG_BLOCK]; TRIDIAG_BLOCK];
        for (vr, r) in v.iter_mut().zip(rows.clone()) {
            let unit = r - j0 - 1;
            let packed = unit.min(jb);
            vr[..packed].copy_from_slice(&a.row(r)[j0..j0 + packed]);
            if unit < jb {
                vr[unit] = 1.0;
            }
        }
        VBlock { rows, v }
    })
}

impl VBlock {
    /// `x[p] += Σ_r V[r][p] · z(r)` over the block's rows `r` in ascending
    /// order, for the first `jb` rows of `x` (row stride `stride`, the first
    /// `width` columns): four rows of `x` per [`kernels::rank1_tile`].
    #[inline(always)]
    fn vt_times<'z>(
        &self,
        x: &mut [f64],
        (jb, stride, width): (usize, usize, usize),
        z: impl Fn(usize) -> &'z [f64],
    ) {
        let (r0, nq) = (self.rows.start, self.rows.len());
        let mut groups = x[..jb * stride].chunks_exact_mut(4 * stride);
        for (g, group) in groups.by_ref().enumerate() {
            let mut rows = group.chunks_exact_mut(stride).map(|row| &mut row[..width]);
            let out = std::array::from_fn(|_| rows.next().expect("four rows"));
            let coef = |q: usize| self.v[q][4 * g..4 * g + 4].try_into().expect("four");
            kernels::rank1_tile::<4>(out, nq, coef, |q| z(r0 + q));
        }
        let rest = groups.into_remainder().chunks_exact_mut(stride);
        for (p, row) in (jb - jb % 4..).zip(rest) {
            kernels::rank1_tile::<1>([&mut row[..width]], nq, |q| [self.v[q][p]], |q| z(r0 + q));
        }
    }

    /// `z[i] += Σ_p V[rows.start + i][p] · x(p)` over the first `jb`
    /// reflectors in ascending order, for the block's rows of `Z` (`stride`
    /// entries each in `z`, of which columns `cols`): four rows per
    /// [`kernels::rank1_tile`].
    #[inline(always)]
    fn times<'x>(
        &self,
        z: &mut [f64],
        (stride, cols): (usize, std::ops::Range<usize>),
        jb: usize,
        x: impl Fn(usize) -> &'x [f64],
    ) {
        let mut groups = z.chunks_exact_mut(4 * stride);
        for (g, group) in groups.by_ref().enumerate() {
            let mut rows = group
                .chunks_exact_mut(stride)
                .map(|row| &mut row[cols.clone()]);
            let out = std::array::from_fn(|_| rows.next().expect("four rows"));
            let v = &self.v[4 * g..4 * g + 4];
            let coef = |q: usize| [v[0][q], v[1][q], v[2][q], v[3][q]];
            kernels::rank1_tile::<4>(out, jb, coef, &x);
        }
        let done = self.rows.len() - self.rows.len() % 4;
        for (row, zrow) in self.v[done..]
            .iter()
            .zip(groups.into_remainder().chunks_exact_mut(stride))
        {
            kernels::rank1_tile::<1>([&mut zrow[cols.clone()]], jb, |q| [row[q]], &x);
        }
    }
}

/// Panels of the `n − 2` reflectors packed in an `n × n` reduction, as
/// `(panel, j0, jb)` in application order (last panel first):
/// `Q Z = B_0 (B_1 (⋯ (B_last Z)))`.
fn panels_rev(n: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let m = n - 2;
    (0..m.div_ceil(TRIDIAG_BLOCK)).rev().map(move |panel| {
        let j0 = panel * TRIDIAG_BLOCK;
        (panel, j0, TRIDIAG_BLOCK.min(m - j0))
    })
}

/// The negated compact-WY factor `−T` of every panel (forward, columnwise —
/// LAPACK `dlarft`) into the workspace, panel `p` in rows `p·NB..` of its
/// T-factor buffer: `H_{j0} ⋯ H_{j0+jb−1} = I − V T Vᵀ`. The Gram matrix
/// `Vᵀ V` a panel needs is summed 32 rows of `V` at a time, each block
/// against its own rows through [`kernels::rank1_tile`], so each entry adds
/// its rows of `V` in ascending order; only its upper triangle is kept. `a`
/// and `ws` as [`apply_q_blocked`] takes them (`a` at least 3 × 3), whose
/// first half this is; public so that the kernel table can time it.
pub fn build_t_factors(a: &Matrix, ws: &mut EighWorkspace) {
    let n = a.rows();
    let (tau, tmat) = (&ws.blocked.tau, &mut ws.blocked.tmat);
    tmat.resize_zeroed(
        (n - 2).div_ceil(TRIDIAG_BLOCK) * TRIDIAG_BLOCK,
        TRIDIAG_BLOCK,
    );
    for (panel, j0, jb) in panels_rev(n) {
        let t = &mut tmat.as_mut_slice()[panel * TRIDIAG_BLOCK * TRIDIAG_BLOCK..];
        let at = |p: usize, q: usize| p * TRIDIAG_BLOCK + q;
        // The whole square (its two triangles are the same bits: the products
        // commute), then the strict lower triangle back to zero.
        for block in panel_blocks(a, j0, jb) {
            let r0 = block.rows.start;
            block.vt_times(t, (jb, TRIDIAG_BLOCK, jb), |r| &block.v[r - r0]);
        }
        for p in 1..jb {
            t[at(p, 0)..at(p, p)].fill(0.0);
        }
        // −T[0..i, i] = −T[0..i, 0..i] · (−τ_i · VᵀV[0..i, i]), in place. Row
        // p reads column i only at q ≥ p, so the forward sweep never reads an
        // overwritten entry.
        for i in 0..jb {
            let ti = tau[j0 + i];
            t[at(i, i)] = -ti;
            for p in 0..i {
                t[at(p, i)] *= -ti;
            }
            for p in 0..i {
                t[at(p, i)] = (p..i).map(|q| t[at(p, q)] * t[at(q, i)]).sum();
            }
        }
    }
}

/// Apply every panel to one column strip of `Z`, its rows `stride` wide in
/// `strip`, at most `STRIP_COLS` columns at a time. Per panel, block by
/// block of `V` ([`VBlock`]): `X = Vᵀ Z`, a block of `Z`'s rows staying in
/// L1 across the four-row groups of `X`; `X ← −T X` in place, one row at a
/// time; `Z += V X`. All three go through [`kernels::rank1_tile`]. Every
/// element accumulates in ascending row (resp. reflector) order, one fused
/// multiply-add at a time, so a column's arithmetic does not depend
/// on which strip it is in.
fn sweep_strip(a: &Matrix, tmat: &Matrix, strip: &mut [f64], stride: usize) {
    let n = a.rows();
    // Cache-line aligned: strip widths are multiples of 8, so no vector
    // access to a row of `X` straddles two lines, wherever the frame lands.
    // Measured at n = 864, k = 610, two threads (alternating binaries, median
    // of 75–90 calls each): 24.0 ms as written, 25.9 ms with a plain array,
    // 28.4 ms with a plain array and unrounded widths (77 columns).
    #[repr(align(64))]
    struct XBlock([f64; TRIDIAG_BLOCK * STRIP_COLS]);
    let mut xblock = XBlock([0.0; TRIDIAG_BLOCK * STRIP_COLS]);
    for c0 in (0..stride).step_by(STRIP_COLS) {
        let cols = c0..stride.min(c0 + STRIP_COLS);
        let w = cols.len();
        for (panel, j0, jb) in panels_rev(n) {
            let x = &mut xblock.0[..jb * w];
            x.fill(0.0);
            for block in panel_blocks(a, j0, jb) {
                block.vt_times(x, (jb, w, w), |r| &strip[r * stride..][cols.clone()]);
            }
            for p in 0..jb {
                let trow = &tmat.row(panel * TRIDIAG_BLOCK + p)[p..jb];
                let (done, below) = x.split_at_mut((p + 1) * w);
                let xrow = &mut done[p * w..];
                for xv in xrow.iter_mut() {
                    *xv *= trow[0];
                }
                let rest = |q: usize| &below[q * w..];
                kernels::rank1_tile::<1>([xrow], jb - p - 1, |q| [trow[q + 1]], rest);
            }
            let x = &*x;
            for block in panel_blocks(a, j0, jb) {
                let rows = &mut strip[block.rows.start * stride..block.rows.end * stride];
                block.times(rows, (stride, cols.clone()), jb, |p| &x[p * w..]);
            }
        }
    }
}

/// [`build_t_factors`], and the flops of back-transforming `k` columns: panel
/// `[j0, j0+jb)` touches rows `j0+1..n`, `2·jb·(n−j0−1)·k` flops in each of
/// `Vᵀ Z` and `Z += V X`.
fn back_transform_setup(a: &Matrix, ws: &mut EighWorkspace, k: usize) {
    build_t_factors(a, ws);
    let rows: usize = panels_rev(a.rows())
        .map(|(_, j0, jb)| jb * (a.rows() - j0 - 1))
        .sum();
    tbmd_trace::add(tbmd_trace::Counter::KernelFlops, 4 * (rows * k) as u64);
}

/// Apply the orthogonal factor `Q = H_0 H_1 ⋯` of a blocked tridiagonal
/// reduction to the `n×k` matrix `z` in place (`z ← Q z`) by blocked
/// compact-WY applications (`I − V T Vᵀ` per panel). The threads of one
/// strip stream take column strips of `z` (at most `STRIP_COLS` wide, so a
/// strip stays L2-resident) one after another, copy each into their staging
/// band (rows on 64-byte boundaries), walk all panels over it with
/// `sweep_strip` and copy it back; columns never interact, so the result is
/// bitwise independent of strip width, thread count and of which columns
/// share a call. `a` must be the reflector-packed output of
/// [`tridiagonalize_blocked_into`] run with the same workspace.
///
/// # Panics
/// Panics if `z.rows()` differs from `a.rows()`.
pub fn apply_q_blocked(a: &Matrix, ws: &mut EighWorkspace, z: &mut Matrix) {
    let n = a.rows();
    let k = z.cols();
    assert_eq!(z.rows(), n, "apply_q_blocked: row mismatch");
    if n < 3 || k == 0 {
        return;
    }
    back_transform_setup(a, ws, k);
    // A strip count that is a multiple of the thread count keeps the
    // threads even; widths are multiples of 8 for the vector loops (the
    // last strip takes what is left, padded to 8 in the band with columns
    // that ride along unread).
    let nstrips = k.div_ceil(STRIP_COLS).next_multiple_of(whole_team());
    let width = k.div_ceil(nstrips).next_multiple_of(8).min(STRIP_COLS);
    let (tmat, out) = (&ws.blocked.tmat, Mutex::new(z));
    let lock = || out.lock().expect("a strip panicked outside the lock");
    ws.inviter.stream(
        whole_team(),
        n,
        k.div_ceil(width),
        |i, scratch| {
            let cols = i * width..k.min((i + 1) * width);
            let w = cols.len().next_multiple_of(8);
            let (strip, _) = staging(&mut scratch.band, n * w, n);
            let z = lock();
            for (r, row) in strip.chunks_exact_mut(w).enumerate() {
                row[..cols.len()].copy_from_slice(&z.row(r)[cols.clone()]);
            }
            drop(z);
            sweep_strip(a, tmat, strip, w);
            Some((cols, w))
        },
        |strip| strip.copy_into(&mut lock()),
    );
}

/// All `n` eigenvalues (ascending) of the tridiagonal factor currently in
/// the workspace, by the root-free rational QL ([`tqlrat`]) on a scratch
/// copy — `O(n²)` with a small constant, serial, so the spectrum (and every
/// bit downstream of it) is the same on every host, lease and thread count.
/// The `(d, e)` factor in the workspace is left intact for the eigenvector
/// stage, which needs no rotation from this one: inverse iteration takes
/// the values alone. The copy is iterated at unit scale and the spectrum
/// scaled back, both exactly (the scaling contract of
/// [`crate::eigh::tqli`]), so the values are in the units of `(d, e)`
/// whatever its magnitude. This is the one eigenvalue stage of every dense
/// engine: each distributed rank calls it on its replicated factor too.
///
/// # Errors
/// [`EigError::NoConvergence`] on non-finite input.
pub fn reduced_eigenvalues_into(
    ws: &mut EighWorkspace,
    values: &mut Vec<f64>,
) -> Result<(), EigError> {
    let s = &mut ws.blocked;
    s.dql.clear();
    s.dql.extend_from_slice(&s.d);
    s.eql.clear();
    s.eql.extend_from_slice(&s.e);
    tqlrat(&mut s.dql, &mut s.eql)?;
    s.dql
        .sort_by(|a, b| a.partial_cmp(b).expect("NaN eigenvalue"));
    values.clear();
    values.extend_from_slice(&s.dql);
    Ok(())
}

/// The eigenvector stage of the two-stage solver as a stream: the
/// eigenvectors of the original matrix for the ascending eigenvalues
/// `lambda` (global indices from `seed_offset`), given the reflector-packed
/// output `a` of [`tridiagonalize_blocked_into`] run with the same
/// workspace. One fan-out as wide as the back-transform takes (`whole_team`)
/// inverse-iterates each cluster-snapped strip of
/// [`crate::inverse_iteration`] and back-transforms it (`sweep_strip`) in
/// its thread's staging band, then hands it to `consume`, strips in
/// ascending order. No `n × k` block is held; every column is bitwise the
/// same at any lease width, thread count and shard split (a distributed
/// rank streams its cluster-snapped shard, `seed_offset` its first index).
pub fn stream_reduced_eigenvectors(
    a: &Matrix,
    lambda: &[f64],
    seed_offset: usize,
    ws: &mut EighWorkspace,
    consume: impl FnMut(Strip<'_>) + Send,
) {
    let n = a.rows();
    if n >= 3 && !lambda.is_empty() {
        back_transform_setup(a, ws, lambda.len());
    }
    let (d, e, tmat) = (&ws.blocked.d, &ws.blocked.e, &ws.blocked.tmat);
    let sweep = |strip: &mut [f64], w| {
        if n >= 3 {
            sweep_strip(a, tmat, strip, w)
        }
    };
    let fan = (whole_team(), STRIP_COLS);
    stream_eigenvectors(
        d,
        e,
        lambda,
        seed_offset,
        fan,
        &mut ws.inviter,
        sweep,
        consume,
    );
}

/// [`stream_reduced_eigenvectors`] into the columns of `z`, which ends up
/// `n × lambda.len()` with column `j` pairing `lambda[j]`: the `n × k`
/// block the reference paths and the tests read.
pub fn reduced_eigenvectors_into(
    a: &Matrix,
    lambda: &[f64],
    z: &mut Matrix,
    ws: &mut EighWorkspace,
) {
    ws.inviter.grown += usize::from(z.resize_zeroed(a.rows(), lambda.len()));
    stream_reduced_eigenvectors(a, lambda, 0, ws, |strip| strip.copy_into(z));
}

/// Two-stage partial eigendecomposition: blocked tridiagonal reduction, all
/// `n` eigenvalues (needed downstream for exact Fermi levels and entropy),
/// and eigenvectors for only the lowest `k` states.
///
/// On success `values` holds **all** `n` eigenvalues ascending, `vectors` is
/// `n × k` (column `j` pairs `values[j]`), and `a` holds the packed
/// reflectors (scratch from the caller's point of view). `k` is clamped to
/// `n`; with `k == n` this is a full solve whose eigenvector path goes
/// through inverse iteration instead of QL rotations.
///
/// # Errors
/// [`EigError::NotSquare`] for rectangular input, [`EigError::NoConvergence`]
/// for non-finite input.
pub fn eigh_partial_into(
    a: &mut Matrix,
    k: usize,
    values: &mut Vec<f64>,
    vectors: &mut Matrix,
    ws: &mut EighWorkspace,
) -> Result<(), EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let k = k.min(n);
    values.clear();
    if n == 0 {
        vectors.resize_zeroed(0, 0);
        return Ok(());
    }
    tridiagonalize_blocked_into(a, ws);
    reduced_eigenvalues_into(ws, values)?;
    reduced_eigenvectors_into(a, &values[..k], vectors, ws);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ComputeLease;
    use crate::eigh::{eig_residual, eigh, orthogonality_defect, tridiagonalize, Eigh};

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

    /// Reconstruct Q T Qᵀ from the packed reduction and compare against the
    /// original matrix — the definitive similarity pin.
    fn assert_reconstructs(a: &Matrix, tol: f64) {
        let n = a.rows();
        let mut packed = a.clone();
        let mut ws = EighWorkspace::default();
        tridiagonalize_blocked_into(&mut packed, &mut ws);
        // Z = T in dense form, then Q T, then (Q T) Qᵀ via Q (T Qᵀ)… easier:
        // build Q explicitly by applying to the identity.
        let mut q = Matrix::identity(n);
        apply_q_blocked(&packed, &mut ws, &mut q);
        let d = ws.blocked.diagonal().to_vec();
        let e = ws.blocked.subdiagonal().to_vec();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
            if i > 0 {
                t[(i - 1, i)] = e[i];
                t[(i, i - 1)] = e[i];
            }
        }
        let recon = q.matmul(&t).matmul(&q.transpose());
        let scale = a.max_abs().max(1.0);
        assert!(
            (&recon - a).max_abs() < tol * scale,
            "Q T Qᵀ deviates by {} at n={n}",
            (&recon - a).max_abs()
        );
        assert!(
            orthogonality_defect(&q) < tol,
            "Q not orthogonal at n={n}: {}",
            orthogonality_defect(&q)
        );
    }

    #[test]
    fn blocked_reduction_reconstructs_original() {
        // 131 columns of the identity span more than one strip.
        for n in [1usize, 2, 3, 4, 5, 8, 31, 32, 33, 64, 65, 100, 131] {
            let a = symmetric_test_matrix(n, 11 + n as u64);
            assert_reconstructs(&a, 1e-12 * n as f64);
        }
    }

    #[test]
    fn strip_sweep_matches_reflector_by_reflector() {
        // n − 2 = 201 reflectors: six full panels and a 9-wide one; the
        // column counts sit on both sides of one strip and, at k = n, span
        // several.
        let n = 203;
        let mut packed = symmetric_test_matrix(n, 91);
        let mut ws = EighWorkspace::default();
        tridiagonalize_blocked_into(&mut packed, &mut ws);
        for k in [1usize, 95, 96, 97, n] {
            let z0 = Matrix::from_fn(n, k, |i, j| ((i * 31 + j * 17) as f64 * 0.37).sin());
            let mut z = z0.clone();
            apply_q_blocked(&packed, &mut ws, &mut z);
            // Q z = H_0 (H_1 (⋯ z)), H_j = I − τ_j v_j v_jᵀ, one at a time.
            let mut reference = z0;
            for j in (0..n - 2).rev() {
                let v = |r: usize| if r == j + 1 { 1.0 } else { packed[(r, j)] };
                for c in 0..k {
                    let vtz: f64 = (j + 1..n).map(|r| v(r) * reference[(r, c)]).sum();
                    for r in j + 1..n {
                        reference[(r, c)] -= ws.blocked.tau[j] * v(r) * vtz;
                    }
                }
            }
            let err = (&z - &reference).max_abs();
            assert!(err < 1e-13, "k={k}: strip sweep deviates by {err}");
        }
    }

    #[test]
    fn reduction_is_bitwise_independent_of_the_lease_width() {
        // Sizes that are multiples of neither the 4-row matvec pass nor the
        // panel width; 131 and 203 stay below the band floor, 523 cuts the
        // matvec of its first eight panels into bands. (d, e), τ and the
        // packed reflectors unconstrained (the whole team), under width-1
        // and width-2 leases, and on a thread pinned inline as a
        // message-passing rank is.
        const { assert!(523 >= 2 * SYMV_BAND_FLOOR) };
        for n in [131usize, 203, 523] {
            let a = symmetric_test_matrix(n, 300 + n as u64);
            let reduce = move || {
                let mut packed = a.clone();
                let mut ws = EighWorkspace::default();
                tridiagonalize_blocked_into(&mut packed, &mut ws);
                (packed, ws.blocked.d, ws.blocked.e, ws.blocked.tau)
            };
            let wide = reduce();
            let rank = reduce.clone();
            let others = [
                ("width 1", ComputeLease::untracked(1).scoped(&reduce)),
                ("width 2", ComputeLease::untracked(2).scoped(&reduce)),
                (
                    "rank",
                    std::thread::spawn(move || {
                        team::pin_inline();
                        rank()
                    })
                    .join()
                    .expect("pinned reduction"),
                ),
            ];
            for (what, other) in &others {
                assert_eq!(wide.1, other.1, "d, n={n}, {what}");
                assert_eq!(wide.2, other.2, "e, n={n}, {what}");
                assert_eq!(wide.3, other.3, "tau, n={n}, {what}");
                for r in 2..n {
                    for c in 0..r - 1 {
                        assert!(
                            wide.0[(r, c)] == other.0[(r, c)],
                            "reflector ({r},{c}), n={n}, {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn banded_matvec_matches_the_single_pass() {
        // The same product in a different summation order: round-off apart,
        // on blocks at the floor, one row short of it (single pass: bitwise)
        // and of every length mod 4.
        let n = SYMV_BAND_FLOOR + 40;
        let a = symmetric_test_matrix(n, 17);
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut bands = vec![f64::NAN; SYMV_BANDS * n];
        for lo in [0usize, 1, 2, 3, 39, 40, 41] {
            let (mut banded, mut single) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            symv_banded(a.as_slice(), n, lo, &v, &mut banded, &mut bands);
            kernels::symv_lower(a.as_slice(), n, lo, &v, &mut single);
            assert!(
                banded[..lo].iter().all(|x| x.is_nan()),
                "wrote above the block"
            );
            let worst = (lo..n)
                .map(|i| (banded[i] - single[i]).abs())
                .fold(0.0, f64::max);
            if n - lo < SYMV_BAND_FLOOR {
                assert_eq!(worst, 0.0, "lo={lo}: below the floor is the single pass");
            } else {
                assert!(worst > 0.0, "lo={lo}: the bands did not engage");
                assert!(worst <= n as f64 * f64::EPSILON * 10.0, "lo={lo}: {worst}");
            }
        }
    }

    #[test]
    fn rank2k_matches_one_axpy2_per_reflector_pair_bitwise() {
        // Against the row loop this replaced — one `axpy2` per reflector,
        // rows with both coefficients zero skipped — on a copy of the same
        // matrix; an even and an odd panel width, one reflector zero below
        // its head (τ = 0 leaves such a pair behind).
        let (n, t0) = (75usize, 9usize);
        for jb in [TRIDIAG_BLOCK, TRIDIAG_BLOCK - 1, 1] {
            let saved = symmetric_test_matrix(n, 61);
            let mut vpan =
                Matrix::from_fn(TRIDIAG_BLOCK, n, |p, c| ((p * 13 + c * 7) as f64).sin());
            let mut wpan =
                Matrix::from_fn(TRIDIAG_BLOCK, n, |p, c| ((p * 5 + c * 11) as f64).cos());
            vpan.row_mut(0)[t0 + 2..].fill(0.0);
            wpan.row_mut(0).fill(0.0);
            let mut reference = saved.clone();
            for r in t0..n {
                for p in 0..jb {
                    let (vp, wp) = (vpan.row(p), wpan.row(p));
                    if vp[r] == 0.0 && wp[r] == 0.0 {
                        continue;
                    }
                    let row = reference.row_mut(r);
                    kernels::axpy2(&mut row[t0..=r], -vp[r], &wp[t0..=r], -wp[r], &vp[t0..=r]);
                }
            }
            let mut a = saved;
            rank2k_lower(&mut a, t0, jb, &vpan, &wpan);
            assert!(a == reference, "jb={jb}");
        }
    }

    #[test]
    fn t_factors_match_the_row_by_row_gram_bitwise() {
        // Against the accumulation the tiles replaced: the upper triangle of
        // VᵀV summed one row of V at a time (one `axpy` per reflector), then
        // the same in-place recursion. Full panels only (n = 34, 66), and a
        // last panel of 9 (75) or 1 (35) reflectors; n = 203 spans seven
        // blocks of V below the head.
        for n in [34usize, 35, 66, 75, 203] {
            let mut packed = symmetric_test_matrix(n, 500 + n as u64);
            let mut ws = EighWorkspace::default();
            tridiagonalize_blocked_into(&mut packed, &mut ws);
            build_t_factors(&packed, &mut ws);
            let (tau, tiled) = (&ws.blocked.tau, &ws.blocked.tmat);
            let mut reference = Matrix::zeros(tiled.rows(), TRIDIAG_BLOCK);
            for (panel, j0, jb) in panels_rev(n) {
                let t = &mut reference.as_mut_slice()[panel * TRIDIAG_BLOCK * TRIDIAG_BLOCK..];
                let at = |p: usize, q: usize| p * TRIDIAG_BLOCK + q;
                for r in j0 + 1..n {
                    let v: Vec<f64> = (0..jb)
                        .map(|p| match (r - j0 - 1).cmp(&p) {
                            std::cmp::Ordering::Less => 0.0,
                            std::cmp::Ordering::Equal => 1.0,
                            std::cmp::Ordering::Greater => packed[(r, j0 + p)],
                        })
                        .collect();
                    for p in 0..jb {
                        kernels::axpy(&mut t[at(p, p)..at(p, jb)], v[p], &v[p..]);
                    }
                }
                for i in 0..jb {
                    let ti = tau[j0 + i];
                    t[at(i, i)] = -ti;
                    for p in 0..i {
                        t[at(p, i)] *= -ti;
                    }
                    for p in 0..i {
                        t[at(p, i)] = (p..i).map(|q| t[at(p, q)] * t[at(q, i)]).sum();
                    }
                }
            }
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(tiled), bits(&reference), "n={n}");
        }
    }

    #[test]
    fn panel_correction_matches_one_dot2_and_axpy2_per_reflector_bitwise() {
        // Against the loop it replaced, for every reflector count up to past
        // one panel: groups of four, then a pair and a single left over. The
        // block is columns 9..75, so every dot has a tail.
        let (n, lo, rows) = (75usize, 9usize, 34usize);
        let vpan = Matrix::from_fn(rows, n, |q, c| ((q * 13 + c * 7) as f64 * 0.31).sin());
        let wpan = Matrix::from_fn(rows, n, |q, c| ((q * 5 + c * 11) as f64 * 0.17).cos());
        let v: Vec<f64> = (0..n).map(|c| (c as f64 * 0.37).sin()).collect();
        let p0: Vec<f64> = (0..n).map(|c| (c as f64 * 0.23).cos()).collect();
        for jj in 0..=33 {
            let mut reference = p0[lo..].to_vec();
            for q in 0..jj {
                let (vq, wq) = (&vpan.row(q)[lo..], &wpan.row(q)[lo..]);
                let (wv, vv) = kernels::dot2(&v[lo..], wq, vq);
                kernels::axpy2(&mut reference, -wv, vq, -vv, wq);
            }
            let mut p = p0[lo..].to_vec();
            panel_correction(&mut p, &v[lo..], &vpan, &wpan, jj);
            assert_eq!(
                p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "jj={jj}"
            );
        }
    }

    #[test]
    fn offset_sliced_eigenvectors_match_full_window_bitwise() {
        // The distributed-slicing contract: disjoint cluster-snapped shards
        // with global seed offsets reproduce the full-window columns exactly
        // — also when the shards start in the middle of a full-window strip
        // (n = 150: the 131-column window is swept as strips of 72).
        for (n, k, cuts) in [(48usize, 24usize, [8usize, 16]), (150, 131, [37, 101])] {
            let a = symmetric_test_matrix(n, 23);
            let mut packed = a.clone();
            let mut ws = EighWorkspace::default();
            tridiagonalize_blocked_into(&mut packed, &mut ws);
            let mut values = Vec::new();
            reduced_eigenvalues_into(&mut ws, &mut values).unwrap();
            let mut full = Matrix::zeros(0, 0);
            reduced_eigenvectors_into(&packed, &values[..k], &mut full, &mut ws);
            let ctol = crate::inverse_iteration::cluster_tolerance(
                ws.blocked.diagonal(),
                ws.blocked.subdiagonal(),
            );
            let snap = |raw: usize| {
                crate::inverse_iteration::snap_range_to_clusters(&values[..k], ctol, raw..k).start
            };
            let bounds = [0, snap(cuts[0]), snap(cuts[1]), k];
            for shard in bounds.windows(2) {
                let (lo, hi) = (shard[0], shard[1]);
                let mut z = Matrix::zeros(n, hi - lo);
                stream_reduced_eigenvectors(&packed, &values[lo..hi], lo, &mut ws, |strip| {
                    strip.copy_into(&mut z)
                });
                for (jj, j) in (lo..hi).enumerate() {
                    for i in 0..n {
                        assert!(
                            z[(i, jj)] == full[(i, j)],
                            "n={n} column {j} row {i}: sliced {} != full {}",
                            z[(i, jj)],
                            full[(i, j)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_matches_scalar_tridiagonalization_spectrum() {
        // Elimination orders differ, so (d, e) differ — but the spectra of
        // the two tridiagonal factors must agree to round-off.
        for n in [3usize, 10, 40, 75] {
            let a = symmetric_test_matrix(n, 5 + n as u64);
            let mut scalar = a.clone();
            let (d_s, e_s) = tridiagonalize(&mut scalar, false);
            let mut blocked = a.clone();
            let mut ws = EighWorkspace::default();
            tridiagonalize_blocked_into(&mut blocked, &mut ws);
            // Trace is preserved exactly by similarity.
            let tr_s: f64 = d_s.iter().sum();
            let tr_b: f64 = ws.blocked.diagonal().iter().sum();
            assert!((tr_s - tr_b).abs() < 1e-10 * n as f64);
            let (mut ds, mut es) = (d_s.clone(), e_s.clone());
            tqlrat(&mut ds, &mut es).unwrap();
            ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut vals = Vec::new();
            let mut ws2 = ws.clone();
            reduced_eigenvalues_into(&mut ws2, &mut vals).unwrap();
            for (x, y) in ds.iter().zip(&vals) {
                assert!((x - y).abs() < 1e-12 * n as f64, "n={n}: {x} vs {y}");
            }
        }
    }

    /// The full window (`k = n`) of [`eigh_partial_into`]: the blocked
    /// reduction, inverse iteration and [`apply_q_blocked`] as one solve.
    fn full_window(a: &Matrix, ws: &mut EighWorkspace) -> Eigh {
        let (mut packed, mut values, mut vectors) = (a.clone(), Vec::new(), Matrix::default());
        eigh_partial_into(&mut packed, a.rows(), &mut values, &mut vectors, ws).unwrap();
        Eigh { values, vectors }
    }

    #[test]
    fn full_window_matches_eigh() {
        for n in [1usize, 2, 7, 33, 64, 90] {
            let a = symmetric_test_matrix(n, 3 + n as u64);
            let reference = eigh(a.clone()).unwrap();
            let eig = full_window(&a, &mut EighWorkspace::default());
            for (x, y) in eig.values.iter().zip(&reference.values) {
                assert!((x - y).abs() < 1e-10, "n={n}: {x} vs {y}");
            }
            assert!(eig_residual(&a, &eig) < 1e-9 * n as f64, "residual n={n}");
            assert!(orthogonality_defect(&eig.vectors) < 1e-10 * n as f64);
        }
    }

    #[test]
    fn workspace_reuse_across_sizes() {
        let mut ws = EighWorkspace::default();
        for &(n, seed) in &[(40usize, 1u64), (12, 2), (64, 3), (5, 4)] {
            let a = symmetric_test_matrix(n, seed);
            let eig = full_window(&a, &mut ws);
            assert!(eig_residual(&a, &eig) < 1e-9 * n as f64);
        }
    }

    /// Residual and orthogonality of an `n × k` partial eigenvector set.
    fn assert_partial_quality(a: &Matrix, values: &[f64], vectors: &Matrix, tol: f64) {
        let (n, k) = (a.rows(), vectors.cols());
        for (j, &lambda) in values.iter().enumerate().take(k) {
            let v = vectors.col(j);
            let av = a.matvec(&v);
            for i in 0..n {
                assert!(
                    (av[i] - lambda * v[i]).abs() < tol,
                    "residual {} for pair {j} of n={n}",
                    (av[i] - lambda * v[i]).abs()
                );
            }
        }
        let vtv = vectors.t_matmul(vectors);
        for i in 0..k {
            for j in 0..k {
                let target = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (vtv[(i, j)] - target).abs() < tol,
                    "orthogonality defect {} at ({i},{j}), n={n}",
                    (vtv[(i, j)] - target).abs()
                );
            }
        }
    }

    #[test]
    fn partial_residual_and_orthogonality_random() {
        let mut ws = EighWorkspace::default();
        let mut values = Vec::new();
        let mut vectors = Matrix::default();
        for n in [1usize, 2, 5, 24, 61, 96] {
            let a = symmetric_test_matrix(n, 77 + n as u64);
            let k = n / 2 + 1;
            let mut packed = a.clone();
            eigh_partial_into(&mut packed, k, &mut values, &mut vectors, &mut ws).unwrap();
            assert_eq!(values.len(), n, "values must cover the whole spectrum");
            assert_eq!((vectors.rows(), vectors.cols()), (n, k.min(n)));
            let full = eigh(a.clone()).unwrap();
            for (x, y) in values.iter().zip(&full.values) {
                assert!((x - y).abs() < 1e-10, "n={n}: {x} vs {y}");
            }
            assert_partial_quality(&a, &values, &vectors, 1e-9 * n as f64);
        }
    }

    #[test]
    fn partial_with_k_equal_n_is_a_full_solve() {
        let n = 40;
        let a = symmetric_test_matrix(n, 1234);
        let mut ws = EighWorkspace::default();
        let mut values = Vec::new();
        let mut vectors = Matrix::default();
        let mut packed = a.clone();
        eigh_partial_into(&mut packed, n, &mut values, &mut vectors, &mut ws).unwrap();
        assert_partial_quality(&a, &values, &vectors, 1e-9 * n as f64);
    }

    #[test]
    fn partial_handles_degenerate_clusters() {
        // Spectrum with exact triple degeneracies plus near-degenerate
        // (1e-9-split) companions — the Fermi-smearing worst case: inverse
        // iteration must keep cluster members orthogonal, and the
        // Rayleigh–Ritz rotation must assign accurate individual vectors.
        let n = 30;
        let mut target = Vec::with_capacity(n);
        for i in 0..n {
            let base = (i / 5) as f64;
            let offset = match i % 5 {
                0..=2 => 0.0,
                3 => 1e-9,
                _ => 0.4,
            };
            target.push(base + offset);
        }
        let q = eigh(symmetric_test_matrix(n, 4242)).unwrap().vectors;
        let a = q
            .matmul(&Matrix::from_diagonal(&target))
            .matmul(&q.transpose());
        let mut ws = EighWorkspace::default();
        let mut values = Vec::new();
        let mut vectors = Matrix::default();
        let mut packed = a.clone();
        let k = 18; // cuts through a cluster boundary
        eigh_partial_into(&mut packed, k, &mut values, &mut vectors, &mut ws).unwrap();
        for (got, want) in values.iter().zip(&target) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert_partial_quality(&a, &values, &vectors, 1e-8);
    }

    #[test]
    fn empty_and_tiny() {
        let mut ws = EighWorkspace::default();
        let eig = full_window(&Matrix::zeros(0, 0), &mut ws);
        assert!(eig.values.is_empty());
        let eig = full_window(&Matrix::from_vec(1, 1, vec![4.0]), &mut ws);
        assert_eq!(eig.values, vec![4.0]);
        assert!((eig.vectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }
}

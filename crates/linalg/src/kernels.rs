//! Register-tiled microkernels for the dense and sparse hot paths.
//!
//! Every routine here is written for autovectorization on a single core:
//! fixed-width accumulator lanes break the latency chain of a naive
//! one-accumulator reduction (one multiply-add per 4–5 cycles) into
//! independent streams the compiler can keep in vector registers, and the
//! one GEMM micro-kernel, [`rank1_tile`], holds a `4 × 16` tile of the output in
//! registers across every rank-1 term, so an output element is loaded and
//! stored once per call instead of once per update. No explicit SIMD
//! intrinsics are used — the loops are shaped so LLVM's autovectorizer
//! emits packed AVX/AVX-512 code.
//!
//! The shape that vectorizes is a loop over `chunks_exact` / `as_chunks`
//! slices cut to one length first. An indexed loop over several slices
//! (`y0[i + l]`, `y1[i + l]`, …) keeps a bounds check per access and
//! compiles to scalar code: [`dot2`] and [`dot4`] were written that way and
//! ran at 1.9 and 2.9 GF/s at length 607 on a 2-vCPU AVX-512 Xeon; over
//! chunks the same summation order runs at 4.6 and 11.8 GF/s there, and the
//! 4×4 block [`dot4x4`] forms the bond blocks of a Si-216 density in
//! 2.2 ms where four `dot4` calls per block took 5.8 ms.
//!
//! A loop that vectorizes may still do so along the wrong axis. Per-row
//! accumulators that feed a per-row reduction — `R` rows of `[f64; 4]`
//! lanes, each summed `(a0 + a1) + (a2 + a3)` after the loop — can be packed
//! by LLVM's SLP vectorizer *across* rows (lane = row), because the final
//! reductions then look like vector adds; every chunk loaded in the loop is
//! then transposed into that layout. [`dot4_axpy4`] compiled that way: each
//! 4-column chunk carried 14 shuffle-class instructions (4 `vpermt2pd`,
//! 5 `vblendpd`, 2 `vbroadcastsd`, `vpunpcklqdq`, `vinsertf32x4`,
//! `vinsertf128`) and 7 vector loads beside its 8 `vmulpd` and 8 `vaddpd`.
//! Passed through `std::hint::black_box` before the reduction, the
//! accumulators stay one vector per row (lane = column mod 4, the lane
//! assignment the summation order defines) and the chunk was 5 loads, 8
//! `vmulpd`, 8 `vaddpd` (one with the load of `p` folded in) and 1 store,
//! no shuffle: the panel matvec of the blocked tridiagonalization ran
//! ≈ 1.3× faster on the same bits (measured before the kernels fused their
//! multiply-adds; each `vmulpd`/`vaddpd` pair is now one `vfmadd`). The
//! rule: keep such a reduction opaque and, after touching a loop of this
//! kind, count the shuffles in the loop of the binary that runs it
//! (`objdump -d`). The chunk loop of
//! `dot_block` reads shuffle-free as it is where it was checked ([`dot4x4`]
//! in the bond-density stage, [`dot8`] in the panel corrections): its
//! transposes sit after the loop.
//!
//! An outer product has two axes for the same trap. [`rank1_tile`] written
//! row loop outside, column loop inside, compiled lane = row: a vector of
//! four coefficients times a broadcast of `b`, the accumulators gathered and
//! scattered through memory every term, and the back-transform ran ≈ 7×
//! slower than the `axpy4` chains it replaced. With the column loop outside
//! each row's 16 columns are four `ymm` accumulators and a term is 4 loads,
//! 4 broadcasts and 16 multiply-adds, no spill. The tile shape is a
//! rule too. An earlier probe of such loops over plain `[f64; C]` arrays
//! found `R × C` = 4×24, 4×32, 8×16 and 2×32 compiled to scalar code
//! (1.9–3.8 GF/s) where 4×16, 6×16 and 8×8 ran at 19–25 GF/s in L1; with
//! the nesting here `--emit asm` shows packed code for all of them but
//! 8×16, whose 32 accumulators spill. 4×16 keeps 16 accumulators, 4
//! operands and the broadcasts inside the 32 vector registers. After
//! touching the tile, count `gather`, `vfmadd` and stack accesses in the
//! loops of the binary that runs it.
//!
//! Every term of every kernel is one fused multiply-add (`f64::mul_add`,
//! a single rounding), and every kernel has a fixed, documented summation
//! order. rustc performs no FMA contraction or reassociation on its own, so
//! the fusing is what the source asks for and nothing else: the serial and
//! fanned-out callers are bitwise identical by construction, because each
//! output element's accumulation order depends only on the inner index,
//! never on the thread partition, and a kernel built as a composition of
//! others (a tile as one [`axpy`] per term, [`dot4_axpy4`] as [`dot4`] plus
//! [`axpy4`]) is that composition bit for bit. The bits do not depend on the
//! target either: where the CPU has no FMA instruction `mul_add` is libm's
//! correctly rounded `fma`, the same value an order of magnitude slower.
//! Fusing halves the arithmetic instructions of the GEMM-shaped sweeps; K1d
//! reads their rates against the host's fused multiply-add peak.

/// Crossover below which the SYRK in `matrix.rs` stays on the calling
/// thread. A fan-out pays hand-off overhead that a ≤16×16 product (tiny
/// test cells, 4-orbital blocks) never amortizes — the same reasoning as
/// `TWO_STAGE_MIN_DIM` in `tbmd-model`, which keeps small systems on the
/// one-stage eigensolver. 16 keeps every matrix that fits in two cache
/// lines per row on one thread while letting real Hamiltonians (N ≥ 32)
/// fan out.
pub const KERNEL_MIN_DIM: usize = 16;

/// Accumulator lanes in [`dot`]. Eight f64 lanes fill one AVX-512 register
/// (or two AVX2 registers) and cover the ~4-cycle add latency at 2
/// adds/cycle throughput.
const DOT_LANES: usize = 8;

/// Accumulator lanes in the shared-operand dots ([`dot2`], [`dot4`]) —
/// fewer lanes per output keeps the register budget bounded when several
/// dots run in one pass.
const DOT2_LANES: usize = 4;

/// Eight-lane dot product of two contiguous slices.
///
/// Lane `l` accumulates elements `l, l+8, l+16, …`, one fused multiply-add
/// per element; the lanes are reduced
/// pairwise `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` and the tail (< 8
/// elements) is added last in ascending order. The order is fixed — the
/// result is deterministic and identical from every caller — but it is a
/// *different* fixed order than a single-accumulator loop, so replacing a
/// naive dot with this one is a round-off-level (≤ ~n·ε relative) change.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0; DOT_LANES];
    let mut xc = x.chunks_exact(DOT_LANES);
    let mut yc = y.chunks_exact(DOT_LANES);
    for (cx, cy) in xc.by_ref().zip(yc.by_ref()) {
        for l in 0..DOT_LANES {
            acc[l] = cx[l].mul_add(cy[l], acc[l]);
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        s = a.mul_add(b, s);
    }
    s
}

/// Two dots sharing the left operand: `(x·y, x·z)` in one pass.
///
/// Four lanes per output (eight live accumulators). Used where one vector
/// is dotted against two others back to back — e.g. the `w·v` / `v·v`
/// panel corrections in the blocked tridiagonalization — halving the loads
/// of the shared operand.
#[inline]
pub fn dot2(x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), z.len());
    let [[sy, sz]] = dot_block([x], [y, z]);
    (sy, sz)
}

/// Four dots sharing the left operand: `x·yj` for four right-hand sides.
///
/// The SYRK panel kernel uses this to price four output entries per pass
/// over a row, so each element of `x` is loaded once per four entries
/// instead of once per entry.
#[inline]
pub fn dot4(x: &[f64], y0: &[f64], y1: &[f64], y2: &[f64], y3: &[f64]) -> [f64; 4] {
    let n = x.len();
    debug_assert!(y0.len() == n && y1.len() == n && y2.len() == n && y3.len() == n);
    dot_block([x], [y0, y1, y2, y3])[0]
}

/// Eight dots sharing the left operand, each bit for bit the [`dot2`] /
/// [`dot4`] value of its pair: the panel corrections of the blocked
/// tridiagonalization dot one reflector against four `(w, v)` pairs per pass.
#[inline]
pub fn dot8(x: &[f64], y: [&[f64]; 8]) -> [f64; 8] {
    debug_assert!(y.iter().all(|yj| yj.len() == x.len()));
    dot_block([x], y)[0]
}

/// The 4×4 block of dots `x[i]·y[j]`: entry `[i][j]` is bit for bit
/// `dot4(x[i], y[0], y[1], y[2], y[3])[j]`, with every row loaded once per
/// block instead of once per row of `x`. This is the bond-block density
/// kernel: `ρ_IJ` between two four-orbital atoms is the dots of their four
/// rows of the scaled eigenvector factor.
#[inline]
pub fn dot4x4(x: [&[f64]; 4], y: [&[f64]; 4]) -> [[f64; 4]; 4] {
    dot_block(x, y)
}

/// `x[i]·y[j]` for every pair, the length that of `x[0]`, each entry in the
/// shared-operand order: [`DOT2_LANES`] accumulators over the elements
/// `l, l+4, …`, one fused multiply-add each, reduced `(a0 + a1) + (a2 + a3)`,
/// then the tail in ascending order, fused the same way. Over `as_chunks` slices of one length, so the chunk loop has no
/// bounds check and vectorizes.
#[inline(always)]
fn dot_block<const R: usize, const C: usize>(x: [&[f64]; R], y: [&[f64]; C]) -> [[f64; C]; R] {
    let n = x[0].len();
    let xs = x.map(|r| r[..n].as_chunks::<DOT2_LANES>());
    let ys = y.map(|r| r[..n].as_chunks::<DOT2_LANES>());
    let mut acc = [[[0.0; DOT2_LANES]; C]; R];
    for c in 0..n / DOT2_LANES {
        for (acc_i, xi) in acc.iter_mut().zip(&xs) {
            let xv = &xi.0[c];
            for (a, yj) in acc_i.iter_mut().zip(&ys) {
                let yv = &yj.0[c];
                for l in 0..DOT2_LANES {
                    a[l] = xv[l].mul_add(yv[l], a[l]);
                }
            }
        }
    }
    let mut s = acc.map(|row| row.map(|a| (a[0] + a[1]) + (a[2] + a[3])));
    for t in 0..n % DOT2_LANES {
        for (s_i, xi) in s.iter_mut().zip(&xs) {
            for (sv, yj) in s_i.iter_mut().zip(&ys) {
                *sv = xi.1[t].mul_add(yj.1[t], *sv);
            }
        }
    }
    s
}

/// `y += a * x`, one fused multiply-add per element. A plain streaming
/// update the autovectorizer already handles; exposed so call sites share
/// one spelling (and one flop count).
#[inline]
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = a.mul_add(xv, *yv);
    }
}

/// `y += a * x + b * w`, evaluated left-to-right per element
/// (`(y + a·x) + b·w`, one fused multiply-add per term): bit for bit two
/// [`axpy`] calls. This is the rank-2 trailing-update shape of the
/// blocked tridiagonalization; fusing the two AXPYs halves the traffic on
/// `y`.
#[inline]
pub fn axpy2(y: &mut [f64], a: f64, x: &[f64], b: f64, w: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    debug_assert_eq!(y.len(), w.len());
    for i in 0..y.len() {
        y[i] = b.mul_add(w[i], a.mul_add(x[i], y[i]));
    }
}

/// Four rank-1 updates of one output row: each element receives
/// `((o + a0·b0) + a1·b1) + a2·b2 + a3·b3`, one fused multiply-add per term,
/// i.e. four [`axpy`] calls in order, with the output row loaded and stored
/// once.
#[inline]
pub fn axpy4(orow: &mut [f64], a: [f64; 4], b: [&[f64]; 4]) {
    let n = orow.len();
    let [b0, b1, b2, b3] = [&b[0][..n], &b[1][..n], &b[2][..n], &b[3][..n]];
    for j in 0..n {
        orow[j] = fma4(orow[j], a, [b0[j], b1[j], b2[j], b3[j]]);
    }
}

/// `(((o + a₀b₀) + a₁b₁) + a₂b₂) + a₃b₃`, one fused multiply-add per term:
/// an element of [`axpy4`].
#[inline(always)]
fn fma4(o: f64, a: [f64; 4], b: [f64; 4]) -> f64 {
    a[3].mul_add(
        b[3],
        a[2].mul_add(b[2], a[1].mul_add(b[1], a[0].mul_add(b[0], o))),
    )
}

/// [`dot4`] and [`axpy4`] over the same four rows in one pass: returns
/// `x·yj` and leaves `p += Σ_j a[j]·yj`, bit for bit what
/// `dot4(x, y0, y1, y2, y3)` followed by `axpy4(p, a, y)` give, with every
/// row element loaded once instead of twice. This is a four-row pass of the
/// lower-triangle symmetric matvec ([`symv_lower`]): the rows' own dots and
/// their transposed contributions while the rows are hot.
///
/// Written over `chunks_exact` so no bounds check sits between the stores
/// to `p`, and with the four accumulators hidden from the final reduction
/// (`black_box`) so each row's lanes stay one vector — see the module doc.
#[inline]
pub fn dot4_axpy4(p: &mut [f64], x: &[f64], a: [f64; 4], y: [&[f64]; 4]) -> [f64; 4] {
    let n = p.len();
    let mut acc = [[0.0; DOT2_LANES]; 4];
    let mut pc = p.chunks_exact_mut(DOT2_LANES);
    let mut xc = x[..n].chunks_exact(DOT2_LANES);
    let mut yc = y.map(|yj| yj[..n].chunks_exact(DOT2_LANES));
    let [y0, y1, y2, y3] = &mut yc;
    let rows = y0
        .by_ref()
        .zip(y1.by_ref())
        .zip(y2.by_ref().zip(y3.by_ref()));
    for ((pp, xx), ((b0, b1), (b2, b3))) in pc.by_ref().zip(xc.by_ref()).zip(rows) {
        for l in 0..DOT2_LANES {
            let xv = xx[l];
            acc[0][l] = xv.mul_add(b0[l], acc[0][l]);
            acc[1][l] = xv.mul_add(b1[l], acc[1][l]);
            acc[2][l] = xv.mul_add(b2[l], acc[2][l]);
            acc[3][l] = xv.mul_add(b3[l], acc[3][l]);
            pp[l] = fma4(pp[l], a, [b0[l], b1[l], b2[l], b3[l]]);
        }
    }
    let mut s = std::hint::black_box(acc).map(|l| (l[0] + l[1]) + (l[2] + l[3]));
    let tail = yc.map(|c| c.remainder());
    for (i, (pv, &xv)) in pc
        .into_remainder()
        .iter_mut()
        .zip(xc.remainder())
        .enumerate()
    {
        let b = tail.map(|t| t[i]);
        for j in 0..4 {
            s[j] = xv.mul_add(b[j], s[j]);
        }
        *pv = fma4(*pv, a, b);
    }
    s
}

/// Columns of an output row [`rank1_tile`] holds in registers: two 512-bit
/// vectors, or four 256-bit ones, per row.
const TILE_COLS: usize = 16;

/// The one GEMM micro-kernel: `out[i] += Σ_q a(q)[i] · b(q)` over `q` in
/// `0..nq`, for `R` output rows of one length and rank-1 terms whose right
/// factors `b(q)` are at least that long. Each `R × 16` tile of the output is
/// held in registers across every term, so an output element is loaded and
/// stored once per call instead of once per few terms; its arithmetic is
/// `(…((o + a(0)[i]·b(0)) + a(1)[i]·b(1)) + …)` in ascending `q`, one
/// fused multiply-add per term — bit for bit one [`axpy`] per term, however
/// the caller cuts the rows, the columns or the terms into calls. The
/// `len mod 16` columns past the last tile go through 8-, 4- and 1-wide
/// tiles of the same code.
///
/// `a(q)` and `b(q)` are asked for once per term and column tile: they should
/// be a few loads, with any head of a panel that needs rewriting packed by
/// the caller beforehand.
#[inline(always)]
pub fn rank1_tile<'b, const R: usize>(
    mut out: [&mut [f64]; R],
    nq: usize,
    a: impl Fn(usize) -> [f64; R],
    b: impl Fn(usize) -> &'b [f64],
) {
    let len = out[0].len();
    debug_assert!(out.iter().all(|o| o.len() == len));
    let mut c = 0;
    while c + TILE_COLS <= len {
        tile::<R, TILE_COLS>(&mut out, c, nq, &a, &b);
        c += TILE_COLS;
    }
    if c + 8 <= len {
        tile::<R, 8>(&mut out, c, nq, &a, &b);
        c += 8;
    }
    if c + 4 <= len {
        tile::<R, 4>(&mut out, c, nq, &a, &b);
        c += 4;
    }
    for c in c..len {
        tile::<R, 1>(&mut out, c, nq, &a, &b);
    }
}

/// Columns `c..c + C` of [`rank1_tile`]: the `R × C` block in plain arrays,
/// every term applied to it in ascending `q`, then stored.
#[inline(always)]
fn tile<'b, const R: usize, const C: usize>(
    out: &mut [&mut [f64]; R],
    c: usize,
    nq: usize,
    a: &impl Fn(usize) -> [f64; R],
    b: &impl Fn(usize) -> &'b [f64],
) {
    let mut acc = [[0.0; C]; R];
    for (acc_i, o) in acc.iter_mut().zip(out.iter()) {
        acc_i.copy_from_slice(&o[c..c + C]);
    }
    for q in 0..nq {
        let aq = a(q);
        let bq: &[f64; C] = b(q)[c..c + C].try_into().expect("C columns");
        // Column outside, row inside: the other nesting lets LLVM's SLP
        // vectorizer pack lanes across rows (see the module doc).
        for (l, &bv) in bq.iter().enumerate() {
            for (acc_i, &ai) in acc.iter_mut().zip(&aq) {
                acc_i[l] = ai.mul_add(bv, acc_i[l]);
            }
        }
    }
    for (acc_i, o) in acc.iter().zip(out.iter_mut()) {
        o[c..c + C].copy_from_slice(acc_i);
    }
}

/// Symmetric matrix–vector product on the trailing block `[lo, n)` of the
/// row-major `n × n` matrix `a`, reading only its lower triangle:
/// `p[lo..n] = A[lo..n, lo..n] · v[lo..n]` — the panel `A·v` of the blocked
/// tridiagonalization.
///
/// Four rows per pass: over the columns `lo..r` that rows `r..r+4` share, one
/// [`dot4_axpy4`] prices the four row dots and scatters the four transposed
/// contributions, so a row element, `v` and `p` are each loaded once per
/// four rows; the 4×4 triangle on the diagonal is scalar, one fused
/// multiply-add per term like the rest. The
/// `(n − lo) mod 4` rows that do not fill a pass come *first*, where they
/// share no column and are a diagonal triangle of their own. `p[i]` therefore
/// sums: its [`dot4`] lane tree, its diagonal-triangle terms in ascending
/// column order, then one [`axpy4`] term group per later pass — a fixed order
/// that depends on `(lo, n)` alone. This is [`symv_lower_band`] with the
/// whole block as its one band.
///
/// # Panics
/// Panics if `a` is shorter than `n × n` or `v`, `p` shorter than `n`.
pub fn symv_lower(a: &[f64], n: usize, lo: usize, v: &[f64], p: &mut [f64]) {
    symv_lower_band(a, n, lo, lo..n, v, p);
}

/// The share of [`symv_lower`] that rows `band` of the trailing block
/// `[lo, n)` contribute, as a partial vector: `part[lo..band.end]` is
/// overwritten with the rows' own dots (at `band`) and their transposed
/// contributions (at `lo..band.end`), in the pass order of [`symv_lower`].
/// Summing the partials of bands that tile `lo..n`, per element and in band
/// order, gives `A·v`; each partial depends on `(lo, n, band)` alone, so the
/// sum does not depend on which thread formed which band.
///
/// `band.start` must be `lo` or sit on a pass boundary (a multiple of four
/// rows from `lo + (n − lo) mod 4`), `band.end` on a pass boundary.
///
/// # Panics
/// Panics if `a` is shorter than `n × n` or `v`, `part` shorter than
/// `band.end`.
pub fn symv_lower_band(
    a: &[f64],
    n: usize,
    lo: usize,
    band: std::ops::Range<usize>,
    v: &[f64],
    part: &mut [f64],
) {
    let row = |r: usize| &a[r * n..(r + 1) * n];
    // Rows r0..r1 against columns r0..r1: the part of a pass on the diagonal.
    let triangle = |p: &mut [f64], r0: usize, r1: usize| {
        for i in r0..r1 {
            let ai = row(i);
            for c in r0..i {
                p[i] = ai[c].mul_add(v[c], p[i]);
                p[c] = ai[c].mul_add(v[i], p[c]);
            }
            p[i] = ai[i].mul_add(v[i], p[i]);
        }
    };
    let head = lo + (n - lo) % 4;
    debug_assert!(
        band.start == lo || (band.start >= head && (band.start - head).is_multiple_of(4))
    );
    debug_assert!(band.end >= head && (band.end - head).is_multiple_of(4) && band.end <= n);
    part[lo..band.end].fill(0.0);
    if band.start == lo {
        triangle(part, lo, head);
    }
    for r in (band.start.max(head)..band.end).step_by(4) {
        let s = dot4_axpy4(
            &mut part[lo..r],
            &v[lo..r],
            [v[r], v[r + 1], v[r + 2], v[r + 3]],
            [row(r), row(r + 1), row(r + 2), row(r + 3)].map(|x| &x[lo..]),
        );
        part[r..r + 4].copy_from_slice(&s);
        triangle(part, r, r + 4);
    }
}

/// SYRK lower-triangle row block: fill `out[i][0..=i]` for one row `i`
/// with dots of row `i` against rows `0..=i` of `a`, four entries per
/// pass via [`dot4`].
///
/// Each entry's accumulation order depends only on the inner index, so the
/// serial and row-parallel callers agree bitwise.
#[inline]
pub fn syrk_row(orow: &mut [f64], i: usize, a: &[f64], lda: usize) {
    let arow = &a[i * lda..i * lda + lda];
    let mut j = 0;
    while j + 4 <= i + 1 {
        let s = dot4(
            arow,
            &a[j * lda..j * lda + lda],
            &a[(j + 1) * lda..(j + 1) * lda + lda],
            &a[(j + 2) * lda..(j + 2) * lda + lda],
            &a[(j + 3) * lda..(j + 3) * lda + lda],
        );
        orow[j] = s[0];
        orow[j + 1] = s[1];
        orow[j + 2] = s[2];
        orow[j + 3] = s[3];
        j += 4;
    }
    while j <= i {
        orow[j] = dot(arow, &a[j * lda..j * lda + lda]);
        j += 1;
    }
}

/// Dense row-major 4×4 block of a block-sparse (BSR) operator.
pub type Block4 = [[f64; 4]; 4];

/// One row of a four-column multivector: the four columns side by side, so
/// a row is one AVX2 register.
pub type Row4 = [f64; 4];

/// Rows of four doubles whose first row starts on a 64-byte boundary: the
/// storage of what [`bsr4_chebyshev_step`] streams. A `Vec<Row4>` is only
/// 16-byte aligned, so half of its 256-bit row loads and every 512-bit
/// row-pair access may split a cache line. A [`Block4`] is four consecutive
/// rows ([`Rows64::blocks`]).
#[derive(Debug, Default)]
pub struct Rows64 {
    /// Zeros around the rows: row `r` is `buf[start + 4r..start + 4r + 4]`.
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

impl Rows64 {
    /// `len` rows of zeros.
    pub fn zeroed(len: usize) -> Self {
        let mut rows = Rows64::with_capacity(len);
        rows.len = len;
        rows
    }

    /// Room for `len + extra` rows, at least twice the rows held.
    fn grow(&mut self, extra: usize) {
        let need = 4 * (self.len + extra);
        if self.start + need > self.buf.len() {
            self.move_to(need.max(8 * self.len));
        }
    }

    /// Move the rows to a buffer with room for `doubles` past a 64-byte
    /// boundary.
    fn move_to(&mut self, doubles: usize) {
        let mut buf = vec![0.0; doubles + 7];
        let start = (buf.as_ptr() as usize).wrapping_neg() % 64 / 8;
        buf[start..start + 4 * self.len].copy_from_slice(self.rows().as_flattened());
        (self.buf, self.start) = (buf, start);
    }

    /// No rows yet, room for `rows` of them.
    pub fn with_capacity(rows: usize) -> Self {
        let mut out = Rows64::default();
        out.move_to(4 * rows);
        out
    }

    /// The rows.
    pub fn rows(&self) -> &[Row4] {
        self.buf[self.start..self.start + 4 * self.len]
            .as_chunks()
            .0
    }

    /// The rows, writable.
    pub fn rows_mut(&mut self) -> &mut [Row4] {
        self.buf[self.start..self.start + 4 * self.len]
            .as_chunks_mut()
            .0
    }

    /// The rows as 4×4 blocks.
    pub fn blocks(&self) -> &[Block4] {
        self.rows().as_chunks().0
    }
}

impl Extend<Row4> for Rows64 {
    fn extend<I: IntoIterator<Item = Row4>>(&mut self, rows: I) {
        for row in rows {
            self.grow(1);
            let at = self.start + 4 * self.len;
            self.buf[at..at + 4].copy_from_slice(&row);
            self.len += 1;
        }
    }
}

impl FromIterator<Row4> for Rows64 {
    fn from_iter<I: IntoIterator<Item = Row4>>(rows: I) -> Self {
        let mut out = Rows64::default();
        out.extend(rows);
        out
    }
}

impl Clone for Rows64 {
    /// A copy on a boundary of its own.
    fn clone(&self) -> Self {
        let mut rows = Rows64::zeroed(self.len);
        rows.rows_mut().copy_from_slice(self.rows());
        rows
    }
}

/// A square block-sparse operator with 4×4 blocks whose diagonal is held
/// apart: block row `i` owns blocks `block_ptr[i]..block_ptr[i + 1]`, block
/// `b` multiplies rows `4·block_col[b]..+4` of the operand, and row
/// `4·i + r` has the diagonal entry `diag[i][r]` *in addition to* whatever
/// the block list holds there. A tight-binding on-site block is diagonal, so
/// it leaves the list altogether, and a spectral shift `A − σ` is a change
/// of `diag` alone.
#[derive(Debug, Clone, Copy)]
pub struct Bsr4<'a> {
    pub block_ptr: &'a [u32],
    pub block_col: &'a [u32],
    pub blocks: &'a [Block4],
    pub diag: &'a [[f64; 4]],
}

/// One three-term Chebyshev step of a four-column block recurrence over the
/// operator `A` of a [`Bsr4`]:
///
/// ```text
/// out = gain · A·x − prev
/// ```
///
/// For `H̃ = (H − shift)/scale` the caller takes `shift` off the diagonal
/// once and passes `gain = 1/scale` with a zero `prev` for the first step
/// `T₁ = H̃·T₀`, `gain = 2/scale` for every later one.
///
/// Every product is a fused multiply-add. Each of the 16 outputs of a block row sums its blocks in list
/// order in two chains — inner indices `k = 0, 1`, and `k = 2, 3` on top of
/// the diagonal term — joined once after the last block, before the scaling.
/// The split keeps two independent multiply-add streams per output in
/// flight; it is part of the summation order, not a tuning knob, so an output
/// entry depends only on its own row of `A` — never on how the caller
/// partitions atoms over threads. The row loads of `x` are shared by the four
/// output rows of a block and the four columns fill a vector register: 64
/// multiply-adds per 4 vector loads.
///
/// At 512 bits (the workspace build) a block of the `tbmd-benchmark` binary's
/// loop is two 512-bit loads of row pairs, four `vbroadcastf64x4` of `x`
/// rows, eight `vpermpd` (each puts `A[r][k]` and `A[r+1][k]` into the two
/// halves of a row pair, behind a zeroing `vpxor`) and eight `vfmadd213pd`;
/// at 256 bits, four row loads and sixteen `vfmadd231pd` with `{1to4}`
/// broadcasts. Either way a block costs ≈ 8 cycles, and each accumulator
/// takes two dependent fused multiply-adds per block. Shuffle-free 512-bit
/// layouts were measured on the Si-216 region, and each was slower per step
/// than this loop. One stored the blocks transposed, read by 128-bit
/// broadcasts, against an iterate with every column written twice (8
/// `vbroadcastf64x2`, 4 loads and 8 `vfmadd213pd` per block). One stored the
/// blocks pair-expanded against 128-bit broadcasts of `x`. The third was the
/// first with two block rows interleaved. They need 12 operand loads per
/// block, and on the 2-vCPU Emerald Rapids host these figures come from,
/// 512-bit broadcast loads sustain ≈ 1.3 per cycle (plain loads ≈ 1.7).
/// What pays instead is alignment ([`Rows64`]).
pub fn bsr4_chebyshev_step(a: Bsr4<'_>, gain: f64, x: &[Row4], prev: &[Row4], out: &mut [Row4]) {
    debug_assert_eq!(a.block_col.len(), a.blocks.len());
    assert_eq!(x.len(), 4 * (a.block_ptr.len() - 1));
    assert!(prev.len() == x.len() && out.len() == x.len() && 4 * a.diag.len() == x.len());
    let rows = out
        .chunks_exact_mut(4)
        .zip(x.chunks_exact(4).zip(prev.chunks_exact(4)));
    let operator = a.block_ptr.windows(2).zip(a.diag);
    for ((o, (xi, pi)), (w, d)) in rows.zip(operator) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let mut low = [[0.0f64; 4]; 4];
        let mut high = [[0.0f64; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                high[r][c] = d[r] * xi[r][c];
            }
        }
        for (blk, &j) in a.blocks[lo..hi].iter().zip(&a.block_col[lo..hi]) {
            let xb = &x[4 * j as usize..4 * j as usize + 4];
            for r in 0..4 {
                for c in 0..4 {
                    low[r][c] = blk[r][1].mul_add(xb[1][c], blk[r][0].mul_add(xb[0][c], low[r][c]));
                    high[r][c] =
                        blk[r][3].mul_add(xb[3][c], blk[r][2].mul_add(xb[2][c], high[r][c]));
                }
            }
        }
        let mut row = [[0.0f64; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                row[r][c] = gain.mul_add(low[r][c] + high[r][c], -pi[r][c]);
            }
        }
        o.copy_from_slice(&row);
    }
}

/// The ρ tails of a Chebyshev pass, a block of steps at a time: for each of
/// the `m` rows `b` of the `S` series `sums` (one after another, `m` rows
/// each), `sums_s[b] += Σ_k coeffs[k][s] · iterates[k·m + b]` over the
/// buffered iterates `k` in ascending order, one fused multiply-add per
/// term. The order is that of adding each iterate as it comes, so the bits
/// do not depend on how the steps are blocked; blocking keeps a row's `S`
/// accumulators in registers across the block instead of loading and
/// storing them at every step.
pub fn row_series<const S: usize>(sums: &mut [Row4], iterates: &[Row4], coeffs: &[[f64; S]]) {
    let m = sums.len() / S;
    assert!(sums.len() == S * m && iterates.len() == coeffs.len() * m);
    for b in 0..m {
        let mut acc: [Row4; S] = std::array::from_fn(|s| sums[s * m + b]);
        for (c, t) in coeffs.iter().zip(iterates[b..].iter().step_by(m)) {
            for (acc, &c) in acc.iter_mut().zip(c) {
                *acc = std::array::from_fn(|col| c.mul_add(t[col], acc[col]));
            }
        }
        for (s, acc) in acc.into_iter().enumerate() {
            sums[s * m + b] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn seq(n: usize, scale: f64, shift: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * scale + shift).collect()
    }

    fn naive_dot(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn dot_matches_naive_to_roundoff() {
        for n in [0, 1, 7, 8, 9, 16, 31, 64, 100] {
            let x = seq(n, 0.37, -3.1);
            let y = seq(n, -0.11, 2.2);
            let tiled = dot(&x, &y);
            let re = naive_dot(&x, &y);
            let scale: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum::<f64>();
            assert!(
                (tiled - re).abs() <= 1e-13 * scale.max(1.0),
                "n={n}: {tiled} vs {re}"
            );
        }
    }

    #[test]
    fn dot_is_deterministic() {
        let x = seq(77, 0.9, -0.4);
        let y = seq(77, -1.3, 0.8);
        assert_eq!(dot(&x, &y).to_bits(), dot(&x, &y).to_bits());
    }

    #[test]
    fn dot2_and_dot4_match_separate_dots_bitwise() {
        // dot2/dot4/dot8 use the same 4-lane order as each other, and must be
        // exactly the order-stable value a 4-lane single dot would give.
        for n in [0, 3, 4, 12, 29, 64, 607] {
            let x = seq(n, 0.21, 1.0);
            let y = seq(n, -0.43, 0.5);
            let z = seq(n, 0.77, -2.0);
            let w = seq(n, 0.05, 0.0);
            let (dy, dz) = dot2(&x, &y, &z);
            let s = dot4(&x, &y, &z, &w, &x);
            assert_eq!(dy.to_bits(), s[0].to_bits());
            assert_eq!(dz.to_bits(), s[1].to_bits());
            let (dw, dx) = dot2(&x, &w, &x);
            assert_eq!(dw.to_bits(), s[2].to_bits());
            assert_eq!(dx.to_bits(), s[3].to_bits());
            let e = dot8(&x, [&w, &x, &y, &z, &y, &z, &w, &x]);
            assert_eq!(
                e.map(f64::to_bits),
                [dw, dx, dy, dz, dy, dz, dw, dx].map(f64::to_bits)
            );
        }
    }

    #[test]
    fn dot4x4_entries_are_dot4_lanes_bitwise() {
        // Every tail length, a vector-long row, and an x block that repeats
        // its last row the way a short atom's block does.
        for n in (0..=9).chain([607]) {
            let rows: [Vec<f64>; 8] =
                std::array::from_fn(|r| seq(n, 0.13 * r as f64 - 0.41, 0.7 - 0.2 * r as f64));
            let x = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[2][..]];
            let y = [&rows[4][..], &rows[5][..], &rows[6][..], &rows[7][..]];
            let block = dot4x4(x, y);
            for (i, xi) in x.iter().enumerate() {
                let want = dot4(xi, y[0], y[1], y[2], y[3]);
                assert_eq!(
                    block[i].map(f64::to_bits),
                    want.map(f64::to_bits),
                    "n={n} row {i}"
                );
            }
        }
    }

    #[test]
    fn matmul_is_bitwise_ascending_p() {
        // The tiled product must match the naive i-k-j accumulation exactly
        // (same order per element, one fused multiply-add per term), on a
        // tile's worth of rows and columns and the remainders past it.
        let (m, k, n) = (6, 13, 21);
        let a = crate::Matrix::from_fn(m, k, |i, p| (i * k + p) as f64 * 0.3 - 1.0);
        let b = crate::Matrix::from_fn(k, n, |p, j| ((p * n + j) * 37 % 101) as f64 * 0.01 - 0.5);
        let out = a.matmul(&b);
        for i in 0..m {
            let mut reference = vec![0.0; n];
            for p in 0..k {
                for j in 0..n {
                    reference[j] = a[(i, p)].mul_add(b[(p, j)], reference[j]);
                }
            }
            for j in 0..n {
                assert_eq!(out[(i, j)].to_bits(), reference[j].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn rank1_tile_is_one_axpy_per_term_bitwise() {
        // Every output length up to 40 (each remainder below 16, before and
        // after a full tile) and term counts from none to 70, against one
        // `axpy` per (term, row); the right factors are longer than the rows.
        for len in 0..=40 {
            for nq in 0..=70 {
                let b: Vec<Vec<f64>> = (0..nq)
                    .map(|q| seq(len + 3, 0.07 * q as f64 - 0.9, 0.3 - 0.01 * q as f64))
                    .collect();
                let coef =
                    |q: usize| std::array::from_fn(|i| ((q * 5 + i * 3) as f64 * 0.41).sin());
                let rows: [Vec<f64>; 4] =
                    std::array::from_fn(|i| seq(len, -0.13 * i as f64, 0.2 + i as f64));
                let mut reference = rows.clone();
                for (q, bq) in b.iter().enumerate() {
                    let aq: [f64; 4] = coef(q);
                    for (r, &ai) in reference.iter_mut().zip(&aq) {
                        axpy(r, ai, &bq[..len]);
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let mut four = rows.clone();
                let [r0, r1, r2, r3] = &mut four;
                rank1_tile::<4>([r0, r1, r2, r3], nq, coef, |q| &b[q]);
                let mut one = rows[2].clone();
                rank1_tile::<1>([&mut one], nq, |q| [coef(q)[2]], |q| &b[q]);
                for i in 0..4 {
                    assert_eq!(
                        bits(&four[i]),
                        bits(&reference[i]),
                        "len={len} nq={nq} row {i}"
                    );
                }
                assert_eq!(bits(&one), bits(&reference[2]), "len={len} nq={nq} R = 1");
            }
        }
    }

    /// `seq(n, scale, shift)` in a buffer of its own, starting `skew`
    /// elements past a 32-byte boundary: `buf[start..]`.
    fn skewed(n: usize, skew: usize, scale: f64, shift: f64) -> (Vec<f64>, usize) {
        let mut buf = vec![f64::NAN; n + 8];
        let start = buf.as_ptr().align_offset(32) + skew;
        buf[start..start + n].copy_from_slice(&seq(n, scale, shift));
        (buf, start)
    }

    #[test]
    fn dot4_axpy4_is_dot4_then_axpy4_bitwise() {
        // Every tail length and a vector-long row; every operand starts 0–3
        // elements past a 32-byte boundary, as the `[lo..]` slices
        // `symv_lower_band` hands the kernel do, each operand skewed
        // differently.
        for n in (0..=9).chain([607]) {
            for skew in 0..4 {
                let (xb, x0) = skewed(n, skew, 0.21, 1.0);
                let yb: [_; 4] = std::array::from_fn(|j| {
                    skewed(n + j, (skew + j + 1) % 4, 0.3 * j as f64 - 0.43, 0.5)
                });
                let x = &xb[x0..x0 + n];
                let y: [&[f64]; 4] = std::array::from_fn(|j| &yb[j].0[yb[j].1..yb[j].1 + n + j]);
                let a = [0.7, -1.1, 0.3, 2.9];
                let (mut pb, p0) = skewed(n, (skew + 2) % 4, -0.17, 0.9);
                let mut reference = pb[p0..p0 + n].to_vec();
                let fused = &mut pb[p0..p0 + n];
                let dots = dot4_axpy4(fused, x, a, y);
                let want = dot4(x, &y[0][..n], &y[1][..n], &y[2][..n], &y[3][..n]);
                axpy4(&mut reference, a, y);
                assert_eq!(
                    dots.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "n={n} skew={skew}"
                );
                assert_eq!(
                    fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "n={n} skew={skew}"
                );
            }
        }
    }

    #[test]
    fn symv_lower_matches_row_at_a_time() {
        // Trailing blocks of every length mod 4, including shorter than one
        // pass; the upper triangle is poisoned to prove it is never read.
        let n = 23;
        let a: Vec<f64> = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                if c > r {
                    f64::NAN
                } else {
                    ((r * 31 + c * 17) as f64 * 0.37).sin()
                }
            })
            .collect();
        let v = seq(n, 0.13, -1.4);
        for lo in [0, 1, 2, 3, 12, 19, 20, 21, 22] {
            let mut p = vec![f64::NAN; n];
            symv_lower(&a, n, lo, &v, &mut p);
            let mut reference = vec![0.0; n];
            for r in lo..n {
                let row = &a[r * n..];
                reference[r] += dot(&row[lo..=r], &v[lo..=r]);
                axpy(&mut reference[lo..r], v[r], &row[lo..r]);
            }
            for i in lo..n {
                assert!(
                    (p[i] - reference[i]).abs() <= n as f64 * f64::EPSILON * 10.0,
                    "lo={lo} i={i}: {} vs {}",
                    p[i],
                    reference[i]
                );
            }
            assert!(p[..lo].iter().all(|x| x.is_nan()), "wrote above the block");
            // The same block as two bands cut on a pass boundary, their
            // partial vectors added in band order.
            let cut = lo + (n - lo) % 4 + 4 * ((n - lo) / 8);
            let (mut upper, mut lower) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            symv_lower_band(&a, n, lo, lo..cut, &v, &mut upper);
            symv_lower_band(&a, n, lo, cut..n, &v, &mut lower);
            assert!(
                upper[cut..].iter().all(|x| x.is_nan()),
                "wrote below its band"
            );
            for i in lo..n {
                let banded = if i < cut {
                    upper[i] + lower[i]
                } else {
                    lower[i]
                };
                assert!(
                    (banded - reference[i]).abs() <= n as f64 * f64::EPSILON * 10.0,
                    "lo={lo} i={i}: banded {banded} vs {}",
                    reference[i]
                );
            }
        }
    }

    /// 3 block rows, an empty one in the middle, a non-zero diagonal beside
    /// the blocks; `x` and `prev` to go with them.
    struct Bsr4Fixture {
        block_ptr: [u32; 4],
        block_col: [u32; 4],
        blocks: Vec<Block4>,
        diag: [[f64; 4]; 3],
        x: Vec<Row4>,
        prev: Vec<Row4>,
    }

    const GAIN: f64 = 0.5;

    impl Bsr4Fixture {
        fn new() -> Self {
            let blocks = (0..4)
                .map(|b| {
                    let mut a = [[0.0; 4]; 4];
                    for (r, row) in a.iter_mut().enumerate() {
                        for (k, v) in row.iter_mut().enumerate() {
                            *v = ((b * 16 + r * 4 + k) as f64 * 0.37).sin();
                        }
                    }
                    a
                })
                .collect();
            Bsr4Fixture {
                block_ptr: [0, 2, 2, 4],
                block_col: [0, 2, 0, 1],
                blocks,
                diag: std::array::from_fn(|i| {
                    std::array::from_fn(|r| 0.4 * i as f64 - 0.3 * r as f64)
                }),
                x: (0..12)
                    .map(|i| std::array::from_fn(|c| ((i * 4 + c) as f64 * 0.21).cos()))
                    .collect(),
                prev: (0..12)
                    .map(|i| std::array::from_fn(|c| (i as f64) * 0.1 - c as f64))
                    .collect(),
            }
        }

        fn step(&self) -> Vec<Row4> {
            let a = Bsr4 {
                block_ptr: &self.block_ptr,
                block_col: &self.block_col,
                blocks: &self.blocks,
                diag: &self.diag,
            };
            let mut out = vec![[0.0; 4]; 12];
            bsr4_chebyshev_step(a, GAIN, &self.x, &self.prev, &mut out);
            out
        }
    }

    #[test]
    fn bsr4_step_matches_dense_recurrence() {
        // Against the dense 12×12 operator applied column by column.
        let fx = Bsr4Fixture::new();
        let mut dense = vec![[0.0f64; 12]; 12];
        for i in 0..3 {
            for b in fx.block_ptr[i] as usize..fx.block_ptr[i + 1] as usize {
                for r in 0..4 {
                    for k in 0..4 {
                        dense[4 * i + r][4 * fx.block_col[b] as usize + k] = fx.blocks[b][r][k];
                    }
                }
            }
            for r in 0..4 {
                dense[4 * i + r][4 * i + r] += fx.diag[i][r];
            }
        }
        let out = fx.step();
        for (i, row) in out.iter().enumerate() {
            for (c, got) in row.iter().enumerate() {
                let ax: f64 = (0..12).map(|j| dense[i][j] * fx.x[j][c]).sum();
                let expect = GAIN * ax - fx.prev[i][c];
                assert!((got - expect).abs() < 1e-13, "({i},{c})");
            }
        }
    }

    #[test]
    fn row_series_adds_one_iterate_at_a_time_however_blocked() {
        // Three series over five rows, from eleven iterates of those rows:
        // each term one fused multiply-add in iterate order, whether the
        // iterates come one at a time, in blocks of four, or all at once.
        let mut rng = StdRng::seed_from_u64(57);
        let m = 5;
        let mut random = |len: usize| -> Vec<Row4> {
            (0..len)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0)))
                .collect()
        };
        let (sums0, iterates) = (random(3 * m), random(11 * m));
        let coeffs: Vec<[f64; 3]> = (0..11)
            .map(|k| std::array::from_fn(|s| (k as f64 - 2.0 * s as f64) * 0.37))
            .collect();
        let mut want = sums0.clone();
        for (k, c) in coeffs.iter().enumerate() {
            for b in 0..m {
                for (s, &c) in c.iter().enumerate() {
                    let (t, acc) = (iterates[k * m + b], &mut want[s * m + b]);
                    *acc = std::array::from_fn(|col| c.mul_add(t[col], acc[col]));
                }
            }
        }
        let bits = |v: &[Row4]| v.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
        for block in [1, 4, 11] {
            let mut sums = sums0.clone();
            for (c, t) in coeffs.chunks(block).zip(iterates.chunks(block * m)) {
                row_series(&mut sums, t, c);
            }
            assert_eq!(bits(&sums), bits(&want), "blocks of {block}");
        }
    }

    /// A random operator of `slots` block rows of 0–6 blocks each, ascending
    /// distinct columns; slot 1 is a one-orbital atom (rows and columns 1–3
    /// of its slot zero in the operator and in every iterate).
    fn random_bsr4(rng: &mut StdRng, slots: usize) -> (Vec<u32>, Vec<u32>, Vec<Block4>, Vec<Row4>) {
        let live = |slot: usize, k: usize| slot != 1 || k == 0;
        let (mut ptr, mut cols, mut blocks) = (vec![0u32], Vec::new(), Vec::new());
        for i in 0..slots {
            let mut row: Vec<u32> = (0..rng.gen_range(0..=6))
                .map(|_| rng.gen_range(0..slots as u32))
                .collect();
            row.sort_unstable();
            row.dedup();
            for &j in &row {
                blocks.push(std::array::from_fn(|r| {
                    std::array::from_fn(|k| {
                        let v = rng.gen_range(-1.0..1.0);
                        if live(i, r) && live(j as usize, k) {
                            v
                        } else {
                            0.0
                        }
                    })
                }));
            }
            cols.extend(row);
            ptr.push(cols.len() as u32);
        }
        let diag = (0..slots)
            .map(|i| {
                std::array::from_fn(|r| {
                    if live(i, r) {
                        rng.gen_range(-2.0..2.0)
                    } else {
                        0.0
                    }
                })
            })
            .collect();
        (ptr, cols, blocks, diag)
    }

    #[test]
    fn bsr4_step_is_one_fmadd_per_term_bitwise() {
        let mut rng = StdRng::seed_from_u64(50);
        let slots = 9;
        let (block_ptr, block_col, blocks, diag) = random_bsr4(&mut rng, slots);
        let a = Bsr4 {
            block_ptr: &block_ptr,
            block_col: &block_col,
            blocks: &blocks,
            diag: &diag,
        };
        let multivector = |rng: &mut StdRng| -> Vec<Row4> {
            (0..4 * slots)
                .map(|row| {
                    std::array::from_fn(|_| {
                        if row / 4 != 1 || row % 4 == 0 {
                            rng.gen_range(-1.0..1.0)
                        } else {
                            0.0
                        }
                    })
                })
                .collect()
        };
        let (x, prev) = (multivector(&mut rng), multivector(&mut rng));
        let scale = 3.7f64;
        for gain in [1.0 / scale, 2.0 / scale] {
            // The documented order, one term at a time: per output, the k = 0, 1
            // chain from zero and the k = 2, 3 chain from the diagonal term,
            // each over the blocks in list order, joined, then the gain step.
            let mut want = vec![[0.0; 4]; 4 * slots];
            for i in 0..slots {
                for r in 0..4 {
                    for c in 0..4 {
                        let (mut low, mut high) = (0.0, diag[i][r] * x[4 * i + r][c]);
                        for b in block_ptr[i] as usize..block_ptr[i + 1] as usize {
                            let (blk, j) = (&blocks[b], 4 * block_col[b] as usize);
                            low = blk[r][0].mul_add(x[j][c], low);
                            low = blk[r][1].mul_add(x[j + 1][c], low);
                            high = blk[r][2].mul_add(x[j + 2][c], high);
                            high = blk[r][3].mul_add(x[j + 3][c], high);
                        }
                        want[4 * i + r][c] = gain.mul_add(low + high, -prev[4 * i + r][c]);
                    }
                }
            }
            let bits = |v: &[Row4]| v.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut out = vec![[f64::NAN; 4]; 4 * slots];
            bsr4_chebyshev_step(a, gain, &x, &prev, &mut out);
            assert_eq!(bits(&out), bits(&want), "gain {gain}");
        }
    }

    #[test]
    fn rows64_start_on_a_cache_line_and_keep_their_rows() {
        let mut rows = Rows64::default();
        for i in 0..100 {
            rows.extend([[i as f64; 4]]);
            assert_eq!(rows.rows().as_ptr() as usize % 64, 0);
        }
        let copy = rows.clone();
        assert_eq!(copy.rows().as_ptr() as usize % 64, 0);
        assert_eq!(copy.rows(), rows.rows());
        assert_eq!(copy.blocks().len(), 25);
        let mut exact = Rows64::with_capacity(3);
        exact.extend([[1.0; 4], [2.0; 4], [3.0; 4]]);
        assert_eq!(exact.rows().as_ptr() as usize % 64, 0);
        assert_eq!(exact.buf.len(), 12 + 7);
        assert!((0..100).all(|i| rows.rows()[i] == [i as f64; 4]));
        assert_eq!(Rows64::zeroed(7).rows(), &[[0.0; 4]; 7]);
    }

    #[test]
    fn axpy2_left_to_right_order() {
        let mut y = seq(11, 0.4, 1.0);
        let x = seq(11, -0.2, 0.3);
        let w = seq(11, 0.6, -0.9);
        let mut reference = y.clone();
        axpy2(&mut y, 2.0, &x, -0.5, &w);
        for i in 0..11 {
            reference[i] = reference[i] + 2.0 * x[i] + (-0.5) * w[i];
        }
        for i in 0..11 {
            assert_eq!(y[i].to_bits(), reference[i].to_bits());
        }
    }
}

//! Dense row-major matrices.
//!
//! This is the storage type for tight-binding Hamiltonians, eigenvector sets
//! and density matrices. It is intentionally small: the workspace only needs
//! real square/rectangular `f64` matrices, symmetric eigensolvers and matrix
//! products. Products are cache-blocked; the symmetric rank-k product can
//! fan out over the thread team (see [`Matrix::par_syrk`]).

use crate::kernels::{self, KERNEL_MIN_DIM};
use crate::team;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// Cache block edge used by the blocked matrix product. 64×64 `f64` blocks
/// are 32 KiB, comfortably inside a typical L1 data cache for three operands.
const MATMUL_BLOCK: usize = 64;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length does not match dimensions"
        );
        Matrix { rows, cols, data }
    }

    /// Build a diagonal matrix from a slice of diagonal entries.
    pub fn from_diagonal(d: &[f64]) -> Self {
        let mut m = Matrix::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Elements the backing allocation holds room for.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self * x` (eight-lane [`kernels::dot`] per
    /// row).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        tbmd_trace::add(
            tbmd_trace::Counter::KernelFlops,
            2 * (self.rows * self.cols) as u64,
        );
        self.rows_iter().map(|row| kernels::dot(row, x)).collect()
    }

    /// Cache-blocked serial matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        matmul_into(self, other, &mut out);
        out
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        let (n, m, k) = (self.cols, other.cols, self.rows);
        let mut out = Matrix::zeros(n, m);
        for p in 0..k {
            let arow = self.row(p);
            let brow = other.row(p);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Largest absolute asymmetry `|A_ij - A_ji|`.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square());
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// Force exact symmetry by averaging `A` and `Aᵀ` in place.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// In-place scale by a scalar.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// `self += s * other` (AXPY on the flat data).
    pub fn axpy(&mut self, s: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Symmetric rank-k product `self · selfᵀ` (SYRK).
    ///
    /// Only the lower triangle is computed — each entry is a dot product of
    /// two contiguous rows, accumulated over the inner index in ascending
    /// order exactly like the blocked [`Matrix::matmul`] — and then mirrored,
    /// so the result matches `self.matmul(&self.transpose())` to round-off at
    /// half the flops, with no materialized transpose.
    pub fn syrk(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.rows);
        syrk_into(self, &mut out, false);
        out
    }

    /// [`Matrix::syrk`], rows fanned out over the thread team.
    ///
    /// Bitwise identical to the serial variant: each output entry is one
    /// independent row-dot, so the partition cannot change any summation
    /// order.
    pub fn par_syrk(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.rows);
        syrk_into(self, &mut out, true);
        out
    }

    /// SYRK into a caller-owned output, reusing its allocation when the
    /// capacity suffices (the workspace path: zero large allocations after
    /// warmup). Returns `true` if `out` had to grow its allocation.
    pub fn syrk_reuse(&self, out: &mut Matrix, parallel: bool) -> bool {
        let grew = out.resize_zeroed(self.rows, self.rows);
        syrk_into(self, out, parallel);
        grew
    }

    /// Swap rows `i` and `j` in place.
    pub(crate) fn swap_rows(&mut self, i: usize, j: usize) {
        let (lo, hi) = (i.min(j), i.max(j));
        if lo == hi {
            return;
        }
        let c = self.cols;
        let (head, tail) = self.data.split_at_mut(hi * c);
        head[lo * c..(lo + 1) * c].swap_with_slice(&mut tail[..c]);
    }

    /// Transpose a square matrix in place, swapping 8 × 8 tiles across the
    /// diagonal (a cache line each way).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub(crate) fn transpose_in_place(&mut self) {
        const TILE: usize = 8;
        assert!(
            self.is_square(),
            "in-place transpose of a non-square matrix"
        );
        let n = self.rows;
        for i0 in (0..n).step_by(TILE) {
            for j0 in (i0..n).step_by(TILE) {
                for i in i0..(i0 + TILE).min(n) {
                    for j in j0.max(i + 1)..(j0 + TILE).min(n) {
                        self.data.swap(i * n + j, j * n + i);
                    }
                }
            }
        }
    }

    /// Reshape to `rows × cols` and zero-fill, reusing the existing
    /// allocation when it holds `rows × cols` elements. Returns `true` if
    /// the backing storage had to grow — the allocation counter the
    /// evaluation workspaces expose. Growth frees the old storage first and
    /// allocates exactly `rows × cols` elements.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) -> bool {
        let grow = self.data.capacity() < rows * cols;
        if grow {
            self.data = Vec::new();
            self.data.reserve_exact(rows * cols);
        }
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        grow
    }

    /// Bytes of the backing allocation.
    pub fn heap_bytes(&self) -> usize {
        held(&[&self.data])
    }

    /// The backing allocation, handed back to whoever lent it.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

/// Bytes of the allocations behind `vecs`.
pub(crate) fn held(vecs: &[&Vec<f64>]) -> usize {
    8 * vecs.iter().map(|v| v.capacity()).sum::<usize>()
}

/// Blocked GEMM kernel of [`Matrix::matmul`].
///
/// Splits the output into `MATMUL_BLOCK`-row bands; each band walks the inner
/// dimension in blocks so that the working set of `a`, `b` and `out` stays
/// cache-resident, and four output rows at a time go through
/// [`kernels::rank1_tile`] (the `m mod 4` rows left over one at a time).
/// Every output element accumulates in ascending inner-index order
/// regardless of banding, bit for bit the naive `i-k-j` loop.
fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    tbmd_trace::add(tbmd_trace::Counter::KernelFlops, 2 * (m * k * n) as u64);
    if n == 0 {
        return;
    }
    let brow = |p: usize| &b.data[p * n..(p + 1) * n];
    for (band_idx, out_band) in out.data.chunks_mut(MATMUL_BLOCK * n).enumerate() {
        let i0 = band_idx * MATMUL_BLOCK;
        for p0 in (0..k).step_by(MATMUL_BLOCK) {
            let nq = MATMUL_BLOCK.min(k - p0);
            let b = |q: usize| brow(p0 + q);
            let i_rest = i0 + out_band.len() / (4 * n) * 4;
            let mut quads = out_band.chunks_exact_mut(4 * n);
            for (g, quad) in quads.by_ref().enumerate() {
                let i = i0 + 4 * g;
                let rows: [&[f64]; 4] = std::array::from_fn(|r| &a.row(i + r)[p0..p0 + nq]);
                let mut out_rows = quad.chunks_exact_mut(n);
                let out_rows = std::array::from_fn(|_| out_rows.next().expect("four rows"));
                kernels::rank1_tile::<4>(out_rows, nq, |q| rows.map(|r| r[q]), b);
            }
            for (r, orow) in quads.into_remainder().chunks_exact_mut(n).enumerate() {
                let arow = &a.row(i_rest + r)[p0..p0 + nq];
                kernels::rank1_tile::<1>([orow], nq, |q| [arow[q]], b);
            }
        }
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the initial state of reusable buffers.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// SYRK kernel shared by the serial and parallel entry points: fill the
/// lower triangle with the [`kernels::syrk_row`] multi-dot row kernel,
/// then mirror. `out` must already be `a.rows × a.rows`. Each entry is one
/// independent row-dot with a fixed lane order, so the partition cannot
/// change any summation order and serial/parallel agree bitwise. Tiny
/// matrices (≤ [`KERNEL_MIN_DIM`]) run the same kernel serially — the
/// row kernel has no panel setup to amortize, only the hand-off is
/// skipped.
fn syrk_into(a: &Matrix, out: &mut Matrix, parallel: bool) {
    let n = a.rows;
    let k = a.cols;
    debug_assert_eq!((out.rows, out.cols), (n, n));
    tbmd_trace::add(tbmd_trace::Counter::KernelFlops, (n * (n + 1) * k) as u64);
    let width = if parallel && n > KERNEL_MIN_DIM {
        team::width()
    } else {
        1
    };
    team::chunks_for_each(width, &mut out.data, n.max(1), |i, orow| {
        kernels::syrk_row(orow, i, &a.data, k);
    });
    // Mirror the strict lower triangle onto the upper one.
    for i in 1..n {
        for j in 0..i {
            let v = out.data[i * n + j];
            out.data[j * n + i] = v;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, o: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (o.rows, o.cols));
        let data = self.data.iter().zip(&o.data).map(|(a, b)| a + b).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, o: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (o.rows, o.cols));
        let data = self.data.iter().zip(&o.data).map(|(a, b)| a - b).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, o: &Matrix) {
        self.axpy(1.0, o);
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, o: &Matrix) {
        self.axpy(-1.0, o);
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, o: &Matrix) -> Matrix {
        self.matmul(o)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>11.4e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Simple deterministic LCG fill; avoids pulling rand into unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn identity_is_neutral() {
        let a = test_matrix(17, 17, 3);
        let i = Matrix::identity(17);
        let left = i.matmul(&a);
        let right = a.matmul(&i);
        assert!((&left - &a).max_abs() < 1e-15);
        assert!((&right - &a).max_abs() < 1e-15);
    }

    #[test]
    fn blocked_matmul_matches_naive() {
        // Sizes straddling the block edge exercise all remainder paths.
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 7, 3),
            (64, 64, 64),
            (65, 63, 70),
            (130, 17, 129),
        ] {
            let a = test_matrix(m, k, 11);
            let b = test_matrix(k, n, 23);
            let blocked = a.matmul(&b);
            let naive = naive_matmul(&a, &b);
            assert!(
                (&blocked - &naive).max_abs() < 1e-12,
                "mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = test_matrix(40, 31, 13);
        let b = test_matrix(40, 29, 17);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!((&fast - &slow).max_abs() < 1e-12);
    }

    #[test]
    fn matvec_consistent_with_matmul() {
        let a = test_matrix(12, 9, 19);
        let x: Vec<f64> = (0..9).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let xm = Matrix::from_vec(9, 1, x.clone());
        let via_mm = a.matmul(&xm);
        let via_mv = a.matvec(&x);
        for i in 0..12 {
            assert!((via_mm[(i, 0)] - via_mv[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = test_matrix(14, 6, 29);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn trace_and_diagonal() {
        let d = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut a = test_matrix(10, 10, 31);
        assert!(a.asymmetry() > 0.0);
        a.symmetrize();
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    #[should_panic]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn syrk_matches_matmul_with_transpose() {
        for &(n, k, seed) in &[
            (1usize, 1usize, 3u64),
            (7, 5, 47),
            (16, 16, 53),
            (33, 20, 59),
        ] {
            let a = test_matrix(n, k, seed);
            let reference = a.matmul(&a.transpose());
            let s = a.syrk();
            assert_eq!(s.rows(), n);
            assert_eq!(s.cols(), n);
            assert!(
                (&s - &reference).max_abs() < 1e-12,
                "n={n} k={k}: syrk deviates from matmul"
            );
            assert_eq!(s.asymmetry(), 0.0, "syrk output must be exactly symmetric");
        }
    }

    #[test]
    fn par_syrk_matches_serial() {
        let a = test_matrix(70, 24, 61);
        assert_eq!(a.par_syrk(), a.syrk());
    }

    #[test]
    fn syrk_reuse_reshapes_and_matches() {
        let mut out = Matrix::zeros(3, 3);
        let big = test_matrix(25, 10, 67);
        big.syrk_reuse(&mut out, false);
        assert_eq!(out, big.syrk());
        // Shrinking back must not leave stale entries behind.
        let small = test_matrix(4, 6, 71);
        small.syrk_reuse(&mut out, true);
        assert_eq!(out, small.syrk());
    }

    #[test]
    fn resize_zeroed_reuses_capacity() {
        let mut m = Matrix::zeros(20, 20);
        let cap = m.data.capacity();
        assert!(!m.resize_zeroed(10, 15), "shrink must not reallocate");
        assert_eq!((m.rows(), m.cols()), (10, 15));
        assert_eq!(m.data.capacity(), cap);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(m.resize_zeroed(40, 40), "growth must be reported");
    }

    #[test]
    fn axpy_and_ops() {
        let a = test_matrix(6, 6, 41);
        let b = test_matrix(6, 6, 43);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        for i in 0..6 {
            for j in 0..6 {
                assert!((c[(i, j)] - (a[(i, j)] + 2.0 * b[(i, j)])).abs() < 1e-14);
            }
        }
        let mut d = a.clone();
        d += &b;
        d -= &b;
        assert!((&d - &a).max_abs() < 1e-14);
    }
}

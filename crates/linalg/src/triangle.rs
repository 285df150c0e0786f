//! Row stores of a square matrix: what the blocked reduction, its T factors
//! and the back-transform read of `H` (each row up to its diagonal), from a
//! whole [`Matrix`] or from its [`LowerTriangle`], the `H` of every dense
//! engine.

use crate::matrix::Matrix;
use std::ops::Range;

/// Where the rows of an `n × n` row store start in its data: `n` doubles
/// apart, or `packed` as in [`LowerTriangle`].
#[derive(Debug, Clone, Copy)]
pub struct RowLayout {
    /// Rows (and columns).
    pub dim: usize,
    /// Whether rows hold only their lower triangle and its padding.
    pub packed: bool,
}

impl RowLayout {
    /// Offset of row `r` (`r ≤ dim`); row `r` ends where row `r + 1`
    /// starts. Packed rows `8m..8m + 8` are `8(m + 1)` doubles each.
    #[inline]
    pub fn start(self, r: usize) -> usize {
        if !self.packed {
            return r * self.dim;
        }
        let (m, i) = (r / 8, r % 8);
        8 * (m + 1) * (4 * m + i)
    }

    /// `data`, a store laid out so from the start of row `rows.start` on,
    /// cut into runs of `step` rows of `rows` (the last may hold fewer).
    pub fn runs<'a>(
        self,
        mut data: &'a mut [f64],
        rows: Range<usize>,
        step: usize,
    ) -> impl ExactSizeIterator<Item = &'a mut [f64]> + 'a {
        let end = rows.end;
        rows.step_by(step).map(move |r| {
            let len = self.start((r + step).min(end)) - self.start(r);
            let (run, rest) = std::mem::take(&mut data).split_at_mut(len);
            data = rest;
            run
        })
    }
}

/// A square matrix stored by rows, row `r` holding at least columns
/// `0..=r`.
pub trait RowStore: Sync {
    /// Where the rows start.
    fn layout(&self) -> RowLayout;
    /// Every row, one after another.
    fn data(&self) -> &[f64];
    /// See [`RowStore::data`].
    fn data_mut(&mut self) -> &mut [f64];
    /// Make the store `n × n` and zero, reusing the allocation when it
    /// holds enough. Returns whether it had to grow.
    fn resize_square(&mut self, n: usize) -> bool;

    /// Row `r`, padding included.
    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        let l = self.layout();
        &self.data()[l.start(r)..l.start(r + 1)]
    }

    /// See [`RowStore::row`].
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let l = self.layout();
        &mut self.data_mut()[l.start(r)..l.start(r + 1)]
    }
}

impl RowStore for Matrix {
    fn layout(&self) -> RowLayout {
        assert!(self.is_square(), "a row store is a square matrix");
        let dim = self.rows();
        RowLayout { dim, packed: false }
    }

    fn data(&self) -> &[f64] {
        self.as_slice()
    }

    fn data_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }

    fn resize_square(&mut self, n: usize) -> bool {
        self.resize_zeroed(n, n)
    }
}

/// The lower triangle of a symmetric `n × n` matrix by rows: row `r` holds
/// columns `0..=r`, zero-padded to a multiple of 8 doubles, and starts on a
/// 64-byte boundary, so no vector load of a row straddles two cache lines.
/// Half a [`Matrix`]'s bytes (n = 864: 2.87 MiB against 5.70). The rows
/// start at the first such boundary of a plain allocation 7 doubles longer:
/// an aligned one leaves a free fragment in front of it that kept glibc's
/// heap from shrinking between sessions (`tests/session_memory.rs` read a
/// 1.6× peak rise).
#[derive(Debug, Default)]
pub struct LowerTriangle {
    dim: usize,
    buf: Vec<f64>,
}

impl LowerTriangle {
    /// The lower triangle of the square `m`.
    pub fn from_lower(m: &Matrix) -> Self {
        let mut out = LowerTriangle::default();
        out.resize_square(m.layout().dim);
        for r in 0..out.dim {
            out.row_mut(r)[..=r].copy_from_slice(&m.row(r)[..=r]);
        }
        out
    }

    /// The triangle into `m`, made `n × n` with zeros above the diagonal.
    /// Returns whether `m` had to grow.
    pub fn copy_into(&self, m: &mut Matrix) -> bool {
        let grew = m.resize_zeroed(self.dim, self.dim);
        for r in 0..self.dim {
            m.row_mut(r)[..=r].copy_from_slice(&self.row(r)[..=r]);
        }
        grew
    }

    /// Bytes of the allocation.
    pub fn heap_bytes(&self) -> usize {
        8 * self.buf.capacity()
    }

    /// Where the rows sit in `buf` (nowhere before the first resize).
    fn aligned_rows(&self) -> Range<usize> {
        let start = ((self.buf.as_ptr() as usize).wrapping_neg() % 64 / 8).min(self.buf.len());
        start..start + self.layout().start(self.dim)
    }
}

impl RowStore for LowerTriangle {
    fn layout(&self) -> RowLayout {
        let dim = self.dim;
        RowLayout { dim, packed: true }
    }

    fn data(&self) -> &[f64] {
        let rows = self.aligned_rows();
        &self.buf[rows]
    }

    fn data_mut(&mut self) -> &mut [f64] {
        let rows = self.aligned_rows();
        &mut self.buf[rows]
    }

    fn resize_square(&mut self, n: usize) -> bool {
        self.dim = n;
        let len = self.layout().start(n) + 7;
        let grow = self.buf.capacity() < len;
        if grow {
            self.buf = Vec::new();
            self.buf.reserve_exact(len);
        }
        self.buf.clear();
        self.buf.resize(len, 0.0);
        grow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_rows_sit_on_cache_lines_and_hold_their_diagonal() {
        for n in [0usize, 1, 7, 8, 9, 96, 257] {
            let mut t = LowerTriangle::default();
            assert!(t.resize_square(n) || n == 0);
            let l = t.layout();
            for r in 0..n {
                let row = t.row(r);
                assert_eq!(row.as_ptr() as usize % 64, 0, "n={n} row {r}");
                assert_eq!(row.len(), (r + 1).next_multiple_of(8), "n={n} row {r}");
                assert_eq!(l.start(r + 1) - l.start(r), row.len());
            }
            assert_eq!(t.data().len(), l.start(n));
            assert_eq!(t.heap_bytes(), 8 * (l.start(n) + 7));
            assert!(!t.resize_square(n / 2), "shrinking reuses the allocation");
        }
        // Si-216: 864 orbitals in 2.87 MiB.
        let dim = 864;
        assert_eq!(8 * RowLayout { dim, packed: true }.start(dim), 3_013_632);
    }

    #[test]
    fn the_triangle_round_trips_through_a_matrix() {
        assert!(LowerTriangle::default().data().is_empty());
        let m = Matrix::from_fn(19, 19, |i, j| (i * 19 + j) as f64);
        let mut back = Matrix::default();
        assert!(LowerTriangle::from_lower(&m).copy_into(&mut back));
        for i in 0..19 {
            for j in 0..19 {
                assert_eq!(back[(i, j)], if j <= i { m[(i, j)] } else { 0.0 });
            }
        }
    }
}

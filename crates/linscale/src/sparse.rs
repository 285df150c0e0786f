//! Sparse Hamiltonian storage for the linear-scaling engine.
//!
//! A short-ranged tight-binding Hamiltonian has O(1) non-zeros per row, so
//! the dense `n²` storage and O(n³) diagonalization are pure waste for large
//! systems — the insight behind the 1994 linear-scaling TBMD methods. This
//! module builds the CSR matrix straight from a neighbour list and restricts
//! it to per-atom localization regions stored as 4×4 blocks, the operator
//! the Chebyshev block recurrence consumes.

use tbmd_linalg::kernels::{self, Block4, Bsr4, Row4, StepTail};
use tbmd_model::{sk_block, OrbitalIndex, TbModel};
use tbmd_structure::{NeighborList, Structure};

/// Symmetric sparse matrix in CSR format.
#[derive(Debug, Clone)]
pub struct SparseH {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseH {
    /// Assemble the Γ-point tight-binding Hamiltonian in CSR form.
    pub fn build(
        s: &Structure,
        nl: &NeighborList,
        model: &dyn TbModel,
        index: &OrbitalIndex,
    ) -> Self {
        let n_atoms = s.n_atoms();
        let n = index.total();
        // Accumulate per-row maps first (blocks of different images of the
        // same pair must sum), then flatten to CSR.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 0..n_atoms {
            let oi = index.offset(i);
            let ni = s.species(i).n_orbitals();
            let e = model.on_site(s.species(i));
            for (k, &ek) in e.iter().enumerate().take(ni) {
                push_add(&mut rows[oi + k], oi + k, ek);
            }
            for nb in nl.neighbors(i) {
                let v = model.hoppings(nb.dist);
                if v.iter().all(|&x| x == 0.0) {
                    continue;
                }
                let b = sk_block(nb.disp.to_array(), v);
                let oj = index.offset(nb.j);
                let nj = s.species(nb.j).n_orbitals();
                for (mu, row) in b.iter().enumerate().take(ni) {
                    for (nu, &x) in row.iter().enumerate().take(nj) {
                        push_add(&mut rows[oi + mu], oj + nu, x);
                    }
                }
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut rows {
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        SparseH {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Dense `y = A x` (four-lane gathered dot per CSR row).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (i, yo) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            *yo = kernels::sparse_dot_csr(&self.col_idx[lo..hi], &self.values[lo..hi], x);
        }
        y
    }

    /// Entry `(i, j)` (O(log nnz_row)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Row non-zeros as `(column, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Gershgorin bounds `(min, max)` on the spectrum.
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..self.n {
            let mut diag = 0.0;
            let mut radius = 0.0;
            for (j, v) in self.row(i) {
                if j == i {
                    diag = v;
                } else {
                    radius += v.abs();
                }
            }
            lo = lo.min(diag - radius);
            hi = hi.max(diag + radius);
        }
        if self.n == 0 {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Largest absolute asymmetry (diagnostic; the TB Hamiltonian must be
    /// symmetric).
    pub fn asymmetry(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.n {
            for (j, v) in self.row(i) {
                worst = worst.max((v - self.get(j, i)).abs());
            }
        }
        worst
    }
}

fn push_add(row: &mut Vec<(usize, f64)>, col: usize, v: f64) {
    if let Some(entry) = row.iter_mut().find(|(c, _)| *c == col) {
        entry.1 += v;
    } else {
        row.push((col, v));
    }
}

/// Block index marking a column span outside the region during
/// [`LocalRegion::build`].
const OUTSIDE: usize = usize::MAX;

/// A localization region: the orbitals of all atoms within `r_loc` of a
/// centre atom, and the Hamiltonian restricted to them as flat 4×4 blocks
/// (BSR) beside its diagonal ([`Bsr4`]).
///
/// Every atom of the region owns one *slot* — four consecutive rows of the
/// padded local space — whatever its orbital count, so one block kernel
/// serves every species: rows `4·slot + k` with `k ≥ n_orbitals` are
/// identically zero in the operator and stay zero in every iterate.
#[derive(Debug, Clone)]
pub struct LocalRegion {
    /// Global orbital indices inside the region, ascending.
    pub orbitals: Vec<usize>,
    /// Padded local row `4·slot + k` of each entry of `orbitals`.
    rows: Vec<u32>,
    /// Blocks of slot `i` are `block_ptr[i]..block_ptr[i + 1]`.
    block_ptr: Vec<u32>,
    /// Column slot of each block, ascending within a block row.
    block_col: Vec<u32>,
    blocks: Vec<Block4>,
    /// Diagonal of the restricted Hamiltonian, `diag[slot][k]` for row
    /// `4·slot + k`; the blocks hold zero there. An atom's own block is in
    /// the list only if something is left in it — the atom couples to one of
    /// its periodic images.
    diag: Vec<[f64; 4]>,
}

impl LocalRegion {
    /// Build the region of atoms within `r_loc` (minimum-image distance) of
    /// `center_atom`. An infinite/huge radius reproduces the full system.
    pub fn build(
        s: &Structure,
        index: &OrbitalIndex,
        h: &SparseH,
        center_atom: usize,
        r_loc: f64,
    ) -> Self {
        // Atoms ascend, and so do their orbital offsets.
        let mut orbitals = Vec::new();
        let mut rows = Vec::new();
        let mut slot_orbitals = Vec::new();
        for a in 0..s.n_atoms() {
            if a == center_atom || s.distance(center_atom, a) <= r_loc {
                let first = orbitals.len();
                let base = 4 * slot_orbitals.len() as u32;
                for k in 0..s.species(a).n_orbitals() {
                    orbitals.push(index.offset(a) + k);
                    rows.push(base + k as u32);
                }
                slot_orbitals.push(first..orbitals.len());
            }
        }
        let mut region = LocalRegion {
            orbitals,
            rows,
            block_ptr: vec![0],
            block_col: Vec::new(),
            blocks: Vec::new(),
            diag: Vec::new(),
        };
        let mut row_blocks: Vec<(u32, Block4)> = Vec::new();
        // Column spans `(first, width, e)` met along the rows of one atom:
        // global columns `first..first + width` are block `e` of
        // `row_blocks`, or lie outside the region when `e == OUTSIDE`.
        // Columns ascend along a CSR row, an atom's orbitals are contiguous
        // and its rows meet (nearly) the same spans, so the ordered list
        // turns one search per entry into one per neighbour atom.
        let mut spans: Vec<(usize, usize, usize)> = Vec::new();
        for (slot, locals) in slot_orbitals.into_iter().enumerate() {
            row_blocks.clear();
            spans.clear();
            let mut diag = [0.0; 4];
            for (r, l) in locals.enumerate() {
                let mut next = 0;
                let (mut first, mut width, mut e) = (0, 0, OUTSIDE);
                for (c, v) in h.row(region.orbitals[l]) {
                    if c.wrapping_sub(first) >= width {
                        while next < spans.len() && spans[next].0 + spans[next].1 <= c {
                            next += 1;
                        }
                        if next == spans.len() || c < spans[next].0 {
                            spans.insert(next, region.span_of(c, &mut row_blocks));
                        }
                        (first, width, e) = spans[next];
                    }
                    if c == region.orbitals[l] {
                        diag[r] = v;
                    } else if e != OUTSIDE {
                        row_blocks[e].1[r][c - first] = v;
                    }
                }
            }
            region.diag.push(diag);
            row_blocks.retain(|b| b.0 != slot as u32 || b.1 != [[0.0; 4]; 4]);
            row_blocks.sort_unstable_by_key(|b| b.0);
            for &(slot, block) in &row_blocks {
                region.block_col.push(slot);
                region.blocks.push(block);
            }
            region.block_ptr.push(region.blocks.len() as u32);
        }
        region
    }

    /// The span of global column `c` (see `build`): the orbitals of its atom
    /// with their block in `row_blocks` (added if new), or the gap between
    /// two region orbitals.
    fn span_of(&self, c: usize, row_blocks: &mut Vec<(u32, Block4)>) -> (usize, usize, usize) {
        match self.orbitals.binary_search(&c) {
            Ok(lc) => {
                let (slot, k) = (self.rows[lc] / 4, (self.rows[lc] % 4) as usize);
                let width = self.rows[lc - k..]
                    .iter()
                    .take_while(|&&row| row / 4 == slot)
                    .count();
                let e = match row_blocks.iter().position(|b| b.0 == slot) {
                    Some(e) => e,
                    None => {
                        row_blocks.push((slot, [[0.0; 4]; 4]));
                        row_blocks.len() - 1
                    }
                };
                (c - k, width, e)
            }
            Err(at) => {
                let first = if at == 0 {
                    0
                } else {
                    self.orbitals[at - 1] + 1
                };
                let end = self.orbitals.get(at).map_or(usize::MAX, |&o| o);
                (first, end - first, OUTSIDE)
            }
        }
    }

    /// Number of orbitals in the region.
    pub fn len(&self) -> usize {
        self.orbitals.len()
    }

    /// True for an empty region (never happens for a valid centre).
    pub fn is_empty(&self) -> bool {
        self.orbitals.is_empty()
    }

    /// Rows of the padded local space (four per atom): the length of every
    /// multivector the region operator acts on.
    pub fn padded_len(&self) -> usize {
        4 * (self.block_ptr.len() - 1)
    }

    /// Padded local row of a global orbital, if inside.
    pub fn local_index(&self, global: usize) -> Option<usize> {
        let l = self.orbitals.binary_search(&global).ok()?;
        Some(self.rows[l] as usize)
    }

    /// The restricted Hamiltonian `P A Pᵀ` as the block kernel takes it.
    pub(crate) fn operator(&self) -> Bsr4<'_> {
        Bsr4 {
            block_ptr: &self.block_ptr,
            block_col: &self.block_col,
            blocks: &self.blocks,
            diag: &self.diag,
        }
    }

    /// `P A Pᵀ x` for a four-column multivector of
    /// [`padded_len`](Self::padded_len) rows: one raw step of the block
    /// kernel (unit gain, nothing subtracted).
    pub fn apply(&self, x: &[Row4]) -> Vec<Row4> {
        let zero = vec![[0.0; 4]; x.len()];
        let mut out = zero.clone();
        kernels::bsr4_chebyshev_step(self.operator(), 1.0, x, &zero, &mut out, StepTail::None);
        out
    }

    /// `Σ_ν (P A Pᵀ x)[row0 + ν][ν]` over the four columns of `x`, where
    /// `row0` is the first padded row of an atom: with `x` that atom's ρ
    /// columns this is its share of the band energy `Tr ρH`.
    pub fn block_row_trace(&self, row0: usize, x: &[Row4]) -> f64 {
        let slot = row0 / 4;
        let (lo, hi) = (
            self.block_ptr[slot] as usize,
            self.block_ptr[slot + 1] as usize,
        );
        let mut acc = 0.0;
        for (nu, d) in self.diag[slot].iter().enumerate() {
            acc += d * x[row0 + nu][nu];
        }
        for (a, &j) in self.blocks[lo..hi].iter().zip(&self.block_col[lo..hi]) {
            let xb = &x[4 * j as usize..4 * j as usize + 4];
            for nu in 0..4 {
                for k in 0..4 {
                    acc += a[nu][k] * xb[k][nu];
                }
            }
        }
        acc
    }

    /// Stored entries of the operator (16 per block, structural zeros and
    /// padding included, plus the 4 diagonal entries of each slot): the
    /// multiply-adds one column of one recurrence step executes — the cost
    /// metric of the O(N) scaling experiment.
    pub fn nnz(&self) -> usize {
        16 * self.blocks.len() + 4 * self.diag.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_linalg::Matrix;
    use tbmd_model::{build_hamiltonian, silicon_gsp, TbModel};
    use tbmd_structure::{bulk_diamond, NeighborList, Species};

    fn setup() -> (
        tbmd_structure::Structure,
        NeighborList,
        OrbitalIndex,
        SparseH,
        Matrix,
    ) {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let model = silicon_gsp();
        let nl = NeighborList::build(&s, model.cutoff());
        let index = OrbitalIndex::new(&s);
        let sparse = SparseH::build(&s, &nl, &model, &index);
        let dense = build_hamiltonian(&s, &nl, &model, &index);
        (s, nl, index, sparse, dense)
    }

    #[test]
    fn sparse_matches_dense() {
        let (_, _, _, sparse, dense) = setup();
        assert_eq!(sparse.n(), dense.rows());
        for i in 0..sparse.n() {
            for j in 0..sparse.n() {
                assert!(
                    (sparse.get(i, j) - dense[(i, j)]).abs() < 1e-14,
                    "entry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let (_, _, _, sparse, dense) = setup();
        let x: Vec<f64> = (0..sparse.n()).map(|i| (i as f64 * 0.37).sin()).collect();
        let ys = sparse.matvec(&x);
        let yd = dense.matvec(&x);
        for (a, b) in ys.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_and_sparse() {
        let (_, _, _, sparse, _) = setup();
        assert!(sparse.asymmetry() < 1e-12);
        // 64 atoms × 4 orbitals = 256; each atom couples to itself + 4
        // neighbours → ≤ 5 blocks of 16 per atom row-block.
        assert!(sparse.nnz() <= 64 * 5 * 16);
        assert!(sparse.nnz() >= 64 * 4 * 16);
    }

    #[test]
    fn gershgorin_contains_spectrum() {
        let (_, _, _, sparse, dense) = setup();
        let (lo, hi) = sparse.gershgorin_bounds();
        let eigs = tbmd_linalg::eigvalsh(dense).unwrap();
        assert!(eigs[0] >= lo - 1e-9);
        assert!(eigs[eigs.len() - 1] <= hi + 1e-9);
    }

    /// `P A Pᵀ x` through the block kernel, `x` in column 0.
    fn apply(region: &LocalRegion, x: &[f64]) -> Vec<f64> {
        let xs: Vec<Row4> = x.iter().map(|&v| [v, 0.0, 0.0, 0.0]).collect();
        region.apply(&xs).iter().map(|r| r[0]).collect()
    }

    #[test]
    fn full_region_reproduces_matvec() {
        let (s, _, index, sparse, _) = setup();
        let region = LocalRegion::build(&s, &index, &sparse, 0, 1e9);
        assert_eq!(region.len(), sparse.n());
        assert_eq!(region.padded_len(), sparse.n());
        let x: Vec<f64> = (0..sparse.n()).map(|i| (i as f64 * 0.11).cos()).collect();
        let y_full = sparse.matvec(&x);
        let y_region = apply(&region, &x);
        for (a, b) in y_full.iter().zip(&y_region) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// CSR of the non-zeros of a dense matrix.
    fn from_dense(a: &Matrix) -> SparseH {
        let mut h = SparseH {
            n: a.rows(),
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        };
        for row in a.rows_iter() {
            for (c, &v) in row.iter().enumerate().filter(|(_, &v)| v != 0.0) {
                h.col_idx.push(c);
                h.values.push(v);
            }
            h.row_ptr.push(h.col_idx.len());
        }
        h
    }

    #[test]
    fn own_block_with_off_diagonal_entries_stays_in_the_list() {
        // An on-site s–p_x coupling, planted by hand: the Slater–Koster
        // terms of an atom's own images cancel off the diagonal in an
        // orthorhombic cell, so no model builds one.
        let (s, _, index, sparse, mut dense) = setup();
        let atom = 3;
        let o = index.offset(atom);
        dense[(o, o + 1)] = 0.37;
        dense[(o + 1, o)] = 0.37;
        let planted = from_dense(&dense);
        let plain = LocalRegion::build(&s, &index, &sparse, atom, 1e9);
        let region = LocalRegion::build(&s, &index, &planted, atom, 1e9);
        assert_eq!(region.nnz(), plain.nnz() + 16, "one more block");

        let x: Vec<f64> = (0..dense.rows()).map(|i| (i as f64 * 0.11).cos()).collect();
        let y_dense = dense.matvec(&x);
        for (a, b) in apply(&region, &x).iter().zip(&y_dense) {
            assert!((a - b).abs() < 1e-12);
        }
        // Column 1 holds x, so the trace picks row o + 1 of H·x.
        let xs: Vec<Row4> = x.iter().map(|&v| [0.0, v, 0.0, 0.0]).collect();
        let row0 = region.local_index(o).unwrap();
        assert!((region.block_row_trace(row0, &xs) - y_dense[o + 1]).abs() < 1e-12);
    }

    #[test]
    fn truncated_region_smaller() {
        let (s, _, index, sparse, _) = setup();
        let region = LocalRegion::build(&s, &index, &sparse, 0, 4.0);
        assert!(region.len() < sparse.n());
        assert!(region.len() >= 4, "centre atom must be inside");
        assert!(!region.is_empty());
        // Centre orbitals map to valid local indices.
        assert!(region.local_index(index.offset(0)).is_some());
        assert!(region.nnz() < sparse.nnz());
    }

    #[test]
    fn scaled_step_shifts_spectrum() {
        // The first step of the recurrence seeded at atom 1 (orbitals 4..8)
        // is (H − 2)/4 applied to its unit columns.
        let (s, _, index, sparse, _) = setup();
        let region = LocalRegion::build(&s, &index, &sparse, 0, 1e9);
        let mut rec = crate::BlockRecurrence::new(&region, 4, 4, 2.0, 4.0);
        rec.advance();
        let x: Vec<f64> = (0..sparse.n())
            .map(|i| if i == 5 { 1.0 } else { 0.0 })
            .collect();
        let y_raw = sparse.matvec(&x);
        for i in 0..sparse.n() {
            let expected = (y_raw[i] - 2.0 * x[i]) / 4.0;
            assert!((rec.current()[i][1] - expected).abs() < 1e-12);
        }
    }
}

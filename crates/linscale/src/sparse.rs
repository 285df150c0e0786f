//! Sparse Hamiltonian storage for the linear-scaling engine.
//!
//! A short-ranged tight-binding Hamiltonian has O(1) non-zeros per row, so
//! the dense `n²` storage and O(n³) diagonalization are pure waste for large
//! systems — the insight behind the 1994 linear-scaling TBMD methods. This
//! module builds the matrix straight from a neighbour list as 4×4 blocks,
//! one per coupled atom pair, beside the on-site diagonal — the layout the
//! Chebyshev block recurrence consumes — and restricts it to per-atom
//! localization regions as index views into that one matrix.
//!
//! A region holds no copy of H (copies held 33× the entries of the
//! `SparseH` at Si-216, r_loc 6 Å: 4.45 MB). A recurrence gathers its
//! region's blocks into a buffer of its own, so one region's blocks are
//! live per thread. Reading them through the index inside the kernel gave
//! the same bits 5–8 % slower per step on that region (moment step 956 →
//! 1006 ns, density step 816 → 888 ns), so the gather stays.

use crate::engine::members;
use std::cell::RefCell;
use tbmd_linalg::kernels::{self, Block4, Bsr4, Row4, Rows64};
use tbmd_linalg::{tqli, Matrix};
use tbmd_model::{sk_block, BondTable, KeptCandidates, OrbitalIndex, TbModel};
use tbmd_structure::{NeighborList, Structure};

/// `Σ_r x[r][c]·y[r][c]` for each column `c`.
fn column_dots(x: &[Row4], y: &[Row4]) -> [f64; 4] {
    std::array::from_fn(|c| x.iter().zip(y).map(|(a, b)| a[c] * b[c]).sum())
}

/// `x[r][c] *= f[c]`.
fn scale_columns(x: &mut [Row4], f: [f64; 4]) {
    for r in x {
        *r = std::array::from_fn(|c| r[c] * f[c]);
    }
}

/// The Γ-point tight-binding Hamiltonian in the block layout of its
/// localization regions: block rows over padded four-row slots, one slot per
/// atom, one 4×4 block per neighbour atom with non-zero hoppings, the
/// on-site diagonal held apart — what the block kernel reads ([`Bsr4`]).
/// Rows `4·slot + k` with `k ≥ n_orbitals` of the slot's atom are
/// identically zero, so one block kernel serves every species.
#[derive(Debug, Clone)]
pub struct SparseH {
    index: OrbitalIndex,
    /// Blocks of slot `i` are `block_ptr[i]..block_ptr[i + 1]`.
    block_ptr: Vec<u32>,
    /// Column slot of each block, ascending within a block row.
    block_col: Vec<u32>,
    /// The blocks, four rows each.
    blocks: Rows64,
    /// `diag[slot][k]` for row `4·slot + k`; the blocks hold zero there. A
    /// slot's own block is in the list only if something is left in it off
    /// the diagonal — the atom couples to one of its periodic images.
    diag: Rows64,
}

impl SparseH {
    /// No block rows yet.
    fn empty(index: &OrbitalIndex) -> Self {
        SparseH {
            index: index.clone(),
            block_ptr: vec![0],
            block_col: Vec::new(),
            blocks: Rows64::default(),
            diag: Rows64::default(),
        }
    }

    /// Append the block row of the next slot: its diagonal and its
    /// `(column slot, block)` pairs in ascending column order.
    fn push(&mut self, diag: [f64; 4], blocks: impl IntoIterator<Item = (u32, Block4)>) {
        for (col, block) in blocks {
            self.block_col.push(col);
            self.blocks.extend(block);
        }
        self.block_ptr.push(self.block_col.len() as u32);
        self.diag.extend([diag]);
    }

    /// The blocks of slot `i` with their column slots, ascending.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, &Block4)> {
        let range = self.block_ptr[i] as usize..self.block_ptr[i + 1] as usize;
        let cols = self.block_col[range.clone()].iter().map(|&c| c as usize);
        cols.zip(&self.blocks.blocks()[range])
    }

    /// The diagonal of each slot.
    fn diag(&self) -> &[[f64; 4]] {
        self.diag.rows()
    }

    /// [`SparseH::assemble`] on a bond table of its own: the signature the
    /// standalone benchmark package calls.
    pub fn build(
        s: &Structure,
        nl: &NeighborList,
        model: &dyn TbModel,
        index: &OrbitalIndex,
    ) -> Self {
        let mut bonds = BondTable::default();
        bonds.fill(model, nl);
        SparseH::assemble(s, nl, model, &bonds, index)
    }

    /// Assemble the Hamiltonian block by block from the hoppings of `bonds`
    /// (filled for `nl`) and the model's on-site energies. Each atom's
    /// on-site energies come first, then every neighbour image's
    /// Slater–Koster block is added in list order, so each entry is summed
    /// in the order the dense assembly sums it.
    pub fn assemble(
        s: &Structure,
        nl: &NeighborList,
        model: &dyn TbModel,
        bonds: &BondTable,
        index: &OrbitalIndex,
    ) -> Self {
        let mut h = SparseH::empty(index);
        let mut row: Vec<(u32, Block4)> = Vec::new();
        for i in 0..s.n_atoms() {
            let ni = index.n_orbitals(i);
            let mut diag = [0.0; 4];
            diag[..ni].copy_from_slice(&model.on_site(s.species(i))[..ni]);
            row.clear();
            for (nb, t) in bonds.entries(nl, i) {
                if t.v.iter().all(|&x| x == 0.0) {
                    continue;
                }
                let b = sk_block(nb.disp.to_array(), t.v);
                let e = match row.iter().position(|r| r.0 as usize == nb.j) {
                    Some(e) => e,
                    None => {
                        row.push((nb.j as u32, [[0.0; 4]; 4]));
                        row.len() - 1
                    }
                };
                let nj = index.n_orbitals(nb.j);
                for (mu, (b_row, h_row)) in b.iter().zip(&mut row[e].1).enumerate().take(ni) {
                    for (nu, (&x, y)) in b_row.iter().zip(h_row).enumerate().take(nj) {
                        if nb.j == i && mu == nu {
                            diag[mu] += x;
                        } else {
                            *y += x;
                        }
                    }
                }
            }
            row.retain(|&(j, b)| j as usize != i || b != [[0.0; 4]; 4]);
            row.sort_unstable_by_key(|r| r.0);
            h.push(diag, row.iter().copied());
        }
        h
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.index.total()
    }

    /// Stored entries (see [`LocalRegion::nnz`]).
    pub fn nnz(&self) -> usize {
        16 * self.block_col.len() + 4 * self.diag().len()
    }

    /// Entry `(i, j)` (O(atoms): a lookup for tests and diagnostics).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let atom_of = |orbital: usize| {
            let mut atoms = (0..self.diag().len()).rev();
            let a = atoms.find(|&a| self.index.offset(a) <= orbital).unwrap();
            (a, orbital - self.index.offset(a))
        };
        let ((a, mu), (b, nu)) = (atom_of(i), atom_of(j));
        if i == j {
            return self.diag()[a][mu];
        }
        let mut blocks = self.row(a);
        blocks
            .find(|&(c, _)| c == b)
            .map_or(0.0, |(_, block)| block[mu][nu])
    }

    /// Gershgorin bounds `(min, max)` on the spectrum. Each row's radius sums
    /// its off-diagonal entries in ascending column order (the zeros the
    /// blocks hold on the diagonal add nothing); padded rows and columns are
    /// no part of the matrix and are skipped.
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        if self.diag().is_empty() {
            return (0.0, 0.0);
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (a, diag) in self.diag().iter().enumerate() {
            for (mu, &d) in diag.iter().enumerate().take(self.index.n_orbitals(a)) {
                let mut radius = 0.0;
                for (c, block) in self.row(a) {
                    for &x in &block[mu][..self.index.n_orbitals(c)] {
                        radius += x.abs();
                    }
                }
                lo = lo.min(d - radius);
                hi = hi.max(d + radius);
            }
        }
        (lo, hi)
    }

    /// Bounds `(min, max)` on the spectrum: the extreme Ritz values of four
    /// 30-step Lanczos chains without reorthogonalisation (one per column of
    /// a fixed pseudo-random start, zero on padded rows), each widened by its
    /// residual `β_k·|z_{i,k−1}|`. `None` if QL fails.
    pub fn lanczos_bounds(&self) -> Option<(f64, f64)> {
        let a = Bsr4 {
            block_ptr: &self.block_ptr,
            block_col: &self.block_col,
            blocks: self.blocks.blocks(),
            diag: self.diag(),
        };
        let n = 4 * a.diag.len();
        let (mut cur, mut state) = (Rows64::zeroed(n), 0x9e37_79b9_7f4a_7c15u64);
        for (r, row) in cur.rows_mut().iter_mut().enumerate() {
            if r % 4 < self.index.n_orbitals(r / 4) {
                for x in row {
                    state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
                    *x = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                }
            }
        }
        let (mut prev, mut next) = (Rows64::zeroed(n), Rows64::zeroed(n));
        let (mut alphas, mut betas) = (Vec::new(), Vec::new());
        let mut beta = column_dots(cur.rows(), cur.rows()).map(f64::sqrt);
        for _ in 0..30 {
            // v_j = w_j/β_j, then w_{j+1} = A·v_j − β_j·v_{j−1} − α_j·v_j.
            scale_columns(cur.rows_mut(), beta.map(|b| 1.0 / b));
            scale_columns(prev.rows_mut(), beta);
            let (v, w) = (cur.rows(), next.rows_mut());
            kernels::bsr4_chebyshev_step(a, 1.0, v, prev.rows(), w);
            let alpha = column_dots(w, v);
            for (w, v) in w.iter_mut().zip(v) {
                (0..4).for_each(|c| w[c] -= alpha[c] * v[c]);
            }
            let next_beta = column_dots(w, w).map(f64::sqrt);
            alphas.push(alpha);
            betas.push(next_beta);
            // A chain whose Krylov space is exhausted ends them all.
            if (0..4).any(|c| next_beta[c] <= 1e-9 * (alpha[c].abs() + beta[c])) {
                break;
            }
            beta = next_beta;
            (prev, cur, next) = (cur, next, prev);
        }
        let k = alphas.len();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for c in 0..4 {
            let mut d: Vec<f64> = alphas.iter().map(|a| a[c]).collect();
            let sub = betas[..k - 1].iter().map(|b| b[c]);
            let mut e: Vec<f64> = std::iter::once(0.0).chain(sub).collect();
            let mut z = Matrix::identity(k);
            tqli(&mut d, &mut e, &mut z).ok()?;
            let residual = |i: usize| betas[k - 1][c] * z[(i, k - 1)].abs();
            let low = (0..k).min_by(|&i, &j| d[i].total_cmp(&d[j]))?;
            let high = (0..k).max_by(|&i, &j| d[i].total_cmp(&d[j]))?;
            lo = lo.min(d[low] - residual(low));
            hi = hi.max(d[high] + residual(high));
        }
        Some((lo, hi))
    }
}

thread_local! {
    /// The slot of each atom in the region [`LocalRegion::new`] is building
    /// on this thread, `u32::MAX` for every atom outside it (and for all of
    /// them between builds): one lookup per block instead of a search.
    static SLOTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// A localization region: the atoms within `r_loc` of a centre atom
/// (minimum-image distance), and an index view of the Hamiltonian restricted to
/// them. It holds no block values, only the `(local column slot, SparseH
/// block)` pairs of each member's blocks whose column atom is a member; a
/// recurrence gathers the blocks into buffers of its own
/// ([`BlockRecurrence`](crate::BlockRecurrence)).
///
/// Every member owns one *slot* — four consecutive rows of the padded local
/// space — whatever its orbital count, so one block kernel serves every
/// species: rows `4·slot + k` with `k ≥ n_orbitals` are identically zero in
/// the operator and stay zero in every iterate.
#[derive(Debug, Clone)]
pub struct LocalRegion<'h> {
    h: &'h SparseH,
    /// The atom of each slot (whose diagonal the slot takes), ascending.
    atoms: Vec<u32>,
    /// Blocks of slot `i` are `block_ptr[i]..block_ptr[i + 1]`.
    block_ptr: Vec<u32>,
    /// Column slot of each block, ascending within a block row.
    block_col: Vec<u32>,
    /// Index of each block in `h`.
    block_src: Vec<u32>,
}

impl<'h> LocalRegion<'h> {
    /// The region of `center_atom` over the atoms a scan of every atom
    /// finds within `r_loc`; an infinite radius gives the full system. The
    /// engines pick members from kept candidates (`LocalRegion::new`); this
    /// is the signature the standalone benchmark package calls.
    pub fn build(
        s: &Structure,
        _index: &OrbitalIndex,
        h: &'h SparseH,
        center_atom: usize,
        r_loc: f64,
    ) -> Self {
        let every_atom = KeptCandidates::default();
        LocalRegion::new(h, members(s, &every_atom, center_atom, r_loc))
    }

    /// The view of `h` over the member atoms `atoms` (ascending): each
    /// member's blocks whose column atom is a member, found through the
    /// thread's slot map ([`SLOTS`]).
    pub(crate) fn new(h: &'h SparseH, atoms: Vec<u32>) -> Self {
        let row = |a: u32| h.block_ptr[a as usize]..h.block_ptr[a as usize + 1];
        let most = atoms.iter().map(|&a| row(a).len()).sum();
        let (mut block_ptr, mut k) = (Vec::with_capacity(atoms.len() + 1), 0);
        let (mut block_col, mut block_src) = (vec![0; most], vec![0; most]);
        block_ptr.push(0);
        SLOTS.with_borrow_mut(|slots| {
            slots.resize(h.diag().len(), u32::MAX);
            for (slot, &a) in atoms.iter().enumerate() {
                slots[a as usize] = slot as u32;
            }
            // Branch-free: every block is written, and the count moves past
            // the members' blocks only.
            for &a in &atoms {
                for b in row(a) {
                    (block_col[k], block_src[k]) = (slots[h.block_col[b as usize] as usize], b);
                    k += (block_col[k] != u32::MAX) as usize;
                }
                block_ptr.push(k as u32);
            }
            atoms.iter().for_each(|&a| slots[a as usize] = u32::MAX);
        });
        block_col.truncate(k);
        block_src.truncate(k);
        LocalRegion {
            h,
            atoms,
            block_ptr,
            block_col,
            block_src,
        }
    }

    /// Global orbital indices inside the region, ascending.
    pub fn orbitals(&self) -> Vec<usize> {
        let (index, atoms) = (&self.h.index, self.atoms.iter().map(|&a| a as usize));
        atoms
            .flat_map(|a| index.offset(a)..index.offset(a) + index.n_orbitals(a))
            .collect()
    }

    /// Number of orbitals in the region.
    pub fn len(&self) -> usize {
        self.atoms
            .iter()
            .map(|&a| self.h.index.n_orbitals(a as usize))
            .sum()
    }

    /// True for an empty region (never happens for a valid centre).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Rows of the padded local space (four per atom): the length of every
    /// multivector the region operator acts on.
    pub fn padded_len(&self) -> usize {
        4 * self.atoms.len()
    }

    /// The slot of a member atom.
    pub(crate) fn slot(&self, atom: usize) -> Option<usize> {
        self.atoms.binary_search(&(atom as u32)).ok()
    }

    /// Padded local row of a global orbital, if inside.
    pub fn local_index(&self, global: usize) -> Option<usize> {
        let index = &self.h.index;
        let slot = self
            .atoms
            .partition_point(|&a| index.offset(a as usize) <= global)
            .checked_sub(1)?;
        let k = global - index.offset(self.atoms[slot] as usize);
        (k < index.n_orbitals(self.atoms[slot] as usize)).then_some(4 * slot + k)
    }

    /// The region's blocks and the diagonal of each slot less `shift`,
    /// gathered from its [`SparseH`] into buffers of their own.
    pub(crate) fn gather(&self, shift: f64) -> (Rows64, Rows64) {
        let mut blocks = Rows64::with_capacity(4 * self.block_src.len());
        let all = self.h.blocks.blocks();
        blocks.extend(self.block_src.iter().flat_map(|&b| all[b as usize]));
        let diag = self.atoms.iter().map(|&a| self.h.diag()[a as usize]);
        (blocks, diag.map(|d| d.map(|e| e - shift)).collect())
    }

    /// The restricted Hamiltonian `P A Pᵀ` as the block kernel takes it, on
    /// the `blocks` of [`LocalRegion::gather`] and a slot diagonal `diag`.
    pub(crate) fn operator<'a>(&'a self, blocks: &'a Rows64, diag: &'a [[f64; 4]]) -> Bsr4<'a> {
        Bsr4 {
            block_ptr: &self.block_ptr,
            block_col: &self.block_col,
            blocks: blocks.blocks(),
            diag,
        }
    }

    /// `P A Pᵀ x` for a four-column multivector of
    /// [`padded_len`](Self::padded_len) rows: one raw step of the block
    /// kernel (unit gain, nothing subtracted).
    pub fn apply(&self, x: &[Row4]) -> Vec<Row4> {
        let zero = vec![[0.0; 4]; x.len()];
        let mut out = zero.clone();
        let (blocks, diag) = self.gather(0.0);
        let a = self.operator(&blocks, diag.rows());
        kernels::bsr4_chebyshev_step(a, 1.0, x, &zero, &mut out);
        out
    }

    /// `Σ_ν (P A Pᵀ x)[row0 + ν][ν]` over the four columns of `x`, where
    /// `row0` is the first padded row of an atom: with `x` that atom's ρ
    /// columns this is its share of the band energy `Tr ρH`. Reads the
    /// block row straight from the [`SparseH`].
    pub fn block_row_trace(&self, row0: usize, x: &[Row4]) -> f64 {
        let slot = row0 / 4;
        let mut acc = 0.0;
        for (nu, d) in self.h.diag()[self.atoms[slot] as usize].iter().enumerate() {
            acc += d * x[row0 + nu][nu];
        }
        let range = self.block_ptr[slot] as usize..self.block_ptr[slot + 1] as usize;
        for (&j, &b) in self.block_col[range.clone()]
            .iter()
            .zip(&self.block_src[range])
        {
            let (a, xb) = (&self.h.blocks.blocks()[b as usize], &x[4 * j as usize..]);
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
        16 * self.block_col.len() + 4 * self.atoms.len()
    }

    /// Heap bytes the view holds.
    pub(crate) fn bytes(&self) -> usize {
        let words = self.atoms.capacity() + self.block_ptr.capacity();
        4 * (words + self.block_col.capacity() + self.block_src.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_linalg::Matrix;
    use tbmd_linalg::Vec3;
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
                assert_eq!(sparse.get(i, j), dense[(i, j)], "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn symmetric_and_sparse() {
        let (_, _, _, sparse, _) = setup();
        for i in 0..sparse.n() {
            for j in 0..i {
                assert!((sparse.get(i, j) - sparse.get(j, i)).abs() < 1e-12);
            }
        }
        // 64 atoms × 4 orbitals = 256; each atom couples to 4 neighbours →
        // 4 blocks of 16 beside its 4 diagonal entries, its own block empty.
        assert_eq!(sparse.nnz(), 64 * (4 * 16 + 4));
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
        let (s, _, index, sparse, dense) = setup();
        let region = LocalRegion::build(&s, &index, &sparse, 0, 1e9);
        assert_eq!(region.len(), sparse.n());
        assert_eq!(region.padded_len(), sparse.n());
        assert_eq!(region.nnz(), sparse.nnz());
        let x: Vec<f64> = (0..sparse.n()).map(|i| (i as f64 * 0.11).cos()).collect();
        let y_full = dense.matvec(&x);
        let y_region = apply(&region, &x);
        for (a, b) in y_full.iter().zip(&y_region) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The non-zero 4×4 blocks of a dense matrix over four-orbital atoms.
    fn from_dense(a: &Matrix, index: &OrbitalIndex) -> SparseH {
        let mut h = SparseH::empty(index);
        for i in 0..a.rows() / 4 {
            let entry = |j: usize, mu: usize, nu: usize| match (i, mu) == (j, nu) {
                true => 0.0,
                false => a[(4 * i + mu, 4 * j + nu)],
            };
            let blocks = (0..a.rows() / 4)
                .map(|j| {
                    (
                        j as u32,
                        std::array::from_fn(|mu| std::array::from_fn(|nu| entry(j, mu, nu))),
                    )
                })
                .filter(|(_, b)| *b != [[0.0; 4]; 4]);
            h.push(std::array::from_fn(|k| a[(4 * i + k, 4 * i + k)]), blocks);
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
        let planted = from_dense(&dense, &index);
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

    /// The region as the copying build made it: the members of a scan of
    /// every atom, then each member's diagonal, column slots and blocks
    /// copied out of `h`.
    type Copied = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<Block4>, Vec<[f64; 4]>);
    fn copied(s: &Structure, h: &SparseH, center: usize, r_loc: f64) -> Copied {
        let members: Vec<usize> = (0..s.n_atoms())
            .filter(|&a| a == center || s.distance(center, a) <= r_loc)
            .collect();
        let (mut ptr, mut cols, mut blocks, mut diag) = (vec![0], vec![], vec![], vec![]);
        for &a in &members {
            for (c, block) in h.row(a) {
                if let Ok(slot) = members.binary_search(&c) {
                    cols.push(slot as u32);
                    blocks.push(*block);
                }
            }
            ptr.push(cols.len() as u32);
            diag.push(h.diag()[a]);
        }
        let atoms = members.iter().map(|&a| a as u32).collect();
        (atoms, ptr, cols, blocks, diag)
    }

    /// What the view gathers, in the same layout.
    fn gathered(region: &LocalRegion) -> Copied {
        let (blocks, diag) = region.gather(0.0);
        let (blocks, diag) = (blocks.blocks().to_vec(), diag.rows().to_vec());
        let (ptr, cols) = (region.block_ptr.clone(), region.block_col.clone());
        (region.atoms.clone(), ptr, cols, blocks, diag)
    }

    fn bits(c: &Copied) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>) {
        let values = c.3.iter().flatten().flatten().chain(c.4.iter().flatten());
        (
            c.0.clone(),
            c.1.clone(),
            c.2.clone(),
            values.map(|x| x.to_bits()).collect(),
        )
    }

    #[test]
    fn views_gather_the_copying_build_bitwise() {
        use crate::engine::members;
        use rand::{rngs::StdRng, SeedableRng};
        use tbmd_model::KeptCandidates;
        let model = silicon_gsp();
        for reps in [2, 3] {
            let mut s = bulk_diamond(Species::Silicon, reps, reps, reps);
            s.perturb(&mut StdRng::seed_from_u64(reps as u64), 0.05);
            let l = s.cell().lengths;
            let index = OrbitalIndex::new(&s);
            let mut candidates = KeptCandidates::default();
            for r_loc in [6.0, f64::INFINITY] {
                // Kept candidates across moves past the cell faces: atom 0
                // steps out of the cell (kept), atom 1 is wrapped a period
                // away (rebuilt); the view holds the copies' bits throughout.
                let mut moved = s.clone();
                for step in 0..3 {
                    match step {
                        1 => moved.positions_mut()[0] -= Vec3::new(0.2, 0.1, 0.0),
                        2 => moved.positions_mut()[1] += Vec3::new(l.x, 0.0, -l.z),
                        _ => {}
                    }
                    let nl = NeighborList::build(&moved, model.cutoff());
                    let h = SparseH::build(&moved, &nl, &model, &index);
                    candidates.update(&moved, r_loc);
                    let stride = if r_loc.is_finite() { 1 } else { 5 };
                    for center in (0..moved.n_atoms()).step_by(stride) {
                        let view =
                            LocalRegion::new(&h, members(&moved, &candidates, center, r_loc));
                        let scan = LocalRegion::build(&moved, &index, &h, center, r_loc);
                        let want = bits(&copied(&moved, &h, center, r_loc));
                        assert_eq!(
                            bits(&gathered(&view)),
                            want,
                            "Si-{}, atom {center}",
                            8 * reps.pow(3)
                        );
                        assert_eq!(bits(&gathered(&scan)), want);
                    }
                }
            }
        }
    }

    #[test]
    fn scaled_step_shifts_spectrum() {
        // The first step of the recurrence seeded at atom 1 (orbitals 4..8)
        // is (H − 2)/4 applied to its unit columns.
        let (s, _, index, sparse, dense) = setup();
        let region = LocalRegion::build(&s, &index, &sparse, 0, 1e9);
        let mut rec = crate::BlockRecurrence::new(&region, 4, 4, 2.0, 4.0);
        rec.advance();
        let x: Vec<f64> = (0..sparse.n())
            .map(|i| if i == 5 { 1.0 } else { 0.0 })
            .collect();
        let y_raw = dense.matvec(&x);
        for i in 0..sparse.n() {
            let expected = (y_raw[i] - 2.0 * x[i]) / 4.0;
            assert!((rec.current()[i][1] - expected).abs() < 1e-12);
        }
    }
}

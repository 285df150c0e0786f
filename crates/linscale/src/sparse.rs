//! Sparse Hamiltonian storage for the linear-scaling engine.
//!
//! A short-ranged tight-binding Hamiltonian has O(1) non-zeros per row, so
//! the dense `n²` storage and O(n³) diagonalization are pure waste for large
//! systems — the insight behind the 1994 linear-scaling TBMD methods. This
//! module builds the matrix straight from a neighbour list as 4×4 blocks,
//! one per coupled atom pair, beside the on-site diagonal — the layout the
//! Chebyshev block recurrence consumes — and restricts it to per-atom
//! localization regions by copying the blocks whose atoms lie inside.

use tbmd_linalg::kernels::{self, Block4, Bsr4, Row4, Rows64, StepTail};
use tbmd_model::{sk_block, BondTable, OrbitalIndex, TbModel};
use tbmd_structure::{NeighborList, Structure};

/// Block rows over padded four-row slots, one slot per atom, with the
/// diagonal held apart: the storage of [`SparseH`] and of every
/// [`LocalRegion`], and what the block kernel reads ([`Bsr4`]).
///
/// Rows `4·slot + k` with `k ≥ n_orbitals` of the slot's atom are
/// identically zero, so one block kernel serves every species.
#[derive(Debug, Clone)]
struct BlockRows {
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

impl BlockRows {
    /// No block rows yet, room for `slots` of them and `blocks` blocks.
    fn with_capacity(slots: usize, blocks: usize) -> Self {
        BlockRows {
            block_ptr: vec![0],
            block_col: Vec::with_capacity(blocks),
            blocks: Rows64::with_capacity(4 * blocks),
            diag: Rows64::with_capacity(slots),
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

    /// Stored entries: 16 per block, structural zeros and padding included,
    /// plus the 4 diagonal entries of each slot.
    fn nnz(&self) -> usize {
        16 * self.block_col.len() + 4 * self.diag().len()
    }
}

/// The Γ-point tight-binding Hamiltonian in the block layout of its
/// localization regions: one padded slot per atom, one 4×4 block per
/// neighbour atom with non-zero hoppings, the on-site diagonal beside them.
#[derive(Debug, Clone)]
pub struct SparseH {
    index: OrbitalIndex,
    h: BlockRows,
}

impl SparseH {
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
        let mut h = BlockRows::with_capacity(s.n_atoms(), 0);
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
        SparseH {
            index: index.clone(),
            h,
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.index.total()
    }

    /// Stored entries (see [`LocalRegion::nnz`]).
    pub fn nnz(&self) -> usize {
        self.h.nnz()
    }

    /// Entry `(i, j)` (O(atoms): a lookup for tests and diagnostics).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let atom_of = |orbital: usize| {
            let mut atoms = (0..self.h.diag().len()).rev();
            let a = atoms.find(|&a| self.index.offset(a) <= orbital).unwrap();
            (a, orbital - self.index.offset(a))
        };
        let ((a, mu), (b, nu)) = (atom_of(i), atom_of(j));
        if i == j {
            return self.h.diag()[a][mu];
        }
        let mut blocks = self.h.row(a);
        blocks
            .find(|&(c, _)| c == b)
            .map_or(0.0, |(_, block)| block[mu][nu])
    }

    /// Gershgorin bounds `(min, max)` on the spectrum. Each row's radius sums
    /// its off-diagonal entries in ascending column order (the zeros the
    /// blocks hold on the diagonal add nothing); padded rows and columns are
    /// no part of the matrix and are skipped.
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        if self.h.diag().is_empty() {
            return (0.0, 0.0);
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (a, diag) in self.h.diag().iter().enumerate() {
            for (mu, &d) in diag.iter().enumerate().take(self.index.n_orbitals(a)) {
                let mut radius = 0.0;
                for (c, block) in self.h.row(a) {
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
}

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
    h: BlockRows,
}

impl LocalRegion {
    /// Build the region of atoms within `r_loc` (minimum-image distance) of
    /// `center_atom`. An infinite/huge radius reproduces the full system.
    /// Each member atom's block row is copied from `h`, keeping the blocks
    /// whose column atom is a member.
    pub fn build(
        s: &Structure,
        index: &OrbitalIndex,
        h: &SparseH,
        center_atom: usize,
        r_loc: f64,
    ) -> Self {
        // Atoms ascend, and so do their orbital offsets and slots.
        let members: Vec<usize> = (0..s.n_atoms())
            .filter(|&a| a == center_atom || s.distance(center_atom, a) <= r_loc)
            .collect();
        // The blocks whose column atom is a member, counted first so the
        // region's rows are allocated once, exactly.
        let inside = |a: usize| {
            let members = &members;
            h.h.row(a).filter_map(move |(c, block)| {
                Some((members.binary_search(&c).ok()? as u32, *block))
            })
        };
        let n_blocks = members.iter().map(|&a| inside(a).count()).sum();
        let mut region = LocalRegion {
            orbitals: Vec::new(),
            rows: Vec::new(),
            h: BlockRows::with_capacity(members.len(), n_blocks),
        };
        for (slot, &a) in members.iter().enumerate() {
            for k in 0..index.n_orbitals(a) {
                region.orbitals.push(index.offset(a) + k);
                region.rows.push((4 * slot + k) as u32);
            }
            region.h.push(h.h.diag()[a], inside(a));
        }
        region
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
        4 * self.h.diag().len()
    }

    /// Padded local row of a global orbital, if inside.
    pub fn local_index(&self, global: usize) -> Option<usize> {
        let l = self.orbitals.binary_search(&global).ok()?;
        Some(self.rows[l] as usize)
    }

    /// The restricted Hamiltonian `P A Pᵀ` as the block kernel takes it.
    pub(crate) fn operator(&self) -> Bsr4<'_> {
        Bsr4 {
            block_ptr: &self.h.block_ptr,
            block_col: &self.h.block_col,
            blocks: self.h.blocks.blocks(),
            diag: self.h.diag(),
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
        let mut acc = 0.0;
        for (nu, d) in self.h.diag()[slot].iter().enumerate() {
            acc += d * x[row0 + nu][nu];
        }
        for (j, a) in self.h.row(slot) {
            let xb = &x[4 * j..4 * j + 4];
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
        self.h.nnz()
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
        let mut h = BlockRows::with_capacity(a.rows() / 4, 0);
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
        SparseH {
            index: index.clone(),
            h,
        }
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

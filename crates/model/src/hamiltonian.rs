//! Assembly of the dense tight-binding Hamiltonian from a structure, a
//! neighbour list and a model.
//!
//! The basis is the union of each atom's orbitals in atom order (`s, p_x,
//! p_y, p_z` within an atom). Off-diagonal 4×4 blocks come from the
//! Slater–Koster table evaluated at each neighbour displacement; periodic
//! systems are treated at the Γ point, so every image of a pair adds its
//! block on top (an atom's interaction with its *own* images lands on the
//! diagonal block, which is what makes small supercells come out right).

use crate::model::TbModel;
use crate::slater_koster::sk_block;
use crate::stages::BondTable;
use tbmd_linalg::{team, Matrix, RowStore};
use tbmd_structure::{NeighborList, Structure};

/// Maps atoms to rows/columns of the Hamiltonian.
#[derive(Debug, Clone)]
pub struct OrbitalIndex {
    offsets: Vec<usize>,
    total: usize,
}

impl OrbitalIndex {
    /// Build the orbital offsets for a structure.
    pub fn new(s: &Structure) -> Self {
        let mut offsets = Vec::with_capacity(s.n_atoms());
        let mut total = 0;
        for i in 0..s.n_atoms() {
            offsets.push(total);
            total += s.species(i).n_orbitals();
        }
        OrbitalIndex { offsets, total }
    }

    /// First orbital index of atom `i`.
    #[inline]
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Number of orbitals of atom `i`.
    #[inline]
    pub fn n_orbitals(&self, i: usize) -> usize {
        self.offsets.get(i + 1).unwrap_or(&self.total) - self.offsets[i]
    }

    /// Total orbital count.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Build the dense Γ-point Hamiltonian in eV.
///
/// # Panics
/// Panics if the structure contains a species the model does not support
/// (callers go through `TbCalculator`, which validates first).
pub fn build_hamiltonian(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    index: &OrbitalIndex,
) -> Matrix {
    let mut h = Matrix::zeros(0, 0);
    build_hamiltonian_into(s, nl, model, index, &mut h);
    h
}

/// [`build_hamiltonian`] into a caller-owned buffer, reusing its allocation
/// when the capacity suffices, on a [`BondTable`] of its own. Returns `true`
/// if the buffer had to grow. The standalone benchmark package calls the
/// H build by this signature; the engines fill their table once per
/// evaluation and call [`assemble_hamiltonian_into`].
pub fn build_hamiltonian_into(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    index: &OrbitalIndex,
    h: &mut Matrix,
) -> bool {
    let mut bonds = BondTable::default();
    bonds.fill(model, nl);
    assemble_hamiltonian_into(s, nl, model, &bonds, index, h)
}

/// The H stage: the dense Γ-point Hamiltonian in eV from the hoppings of
/// `bonds` (filled for `nl`) and the model's on-site energies, into a
/// caller-owned store: the whole matrix into a [`Matrix`], its lower
/// triangle into a [`tbmd_linalg::LowerTriangle`] (every entry the same
/// bits either way). Returns `true` if the store had to grow.
///
/// Each atom's band of 4 rows (`assemble_band`) is one task of a
/// [`team::for_each_dealt`] over [`team::width`] threads — the compute
/// lease's width, 1 on a rank thread. Bands are disjoint and a band's
/// arithmetic does not depend on the thread that runs it, so `H` is the same
/// bits at every width.
pub fn assemble_hamiltonian_into(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    bonds: &BondTable,
    index: &OrbitalIndex,
    h: &mut impl RowStore,
) -> bool {
    let n = index.total();
    let grew = h.resize_square(n);
    let l = h.layout();
    team::for_each_dealt(team::width(), l.runs(h.data_mut(), 0..n, 4), |i, band| {
        assemble_band(s, nl, model, bonds, index, i, (band, l.packed))
    });
    grew
}

/// Assemble atom `i`'s band of `H` — its 4 rows, zeroed on entry, as one
/// slice of rows of one length: the on-site energies on the diagonal, then
/// one Slater–Koster block per directed neighbour entry in list order
/// (self-image entries accumulate on the diagonal block); only the entries
/// up to the diagonal if `lower`.
fn assemble_band(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    bonds: &BondTable,
    index: &OrbitalIndex,
    i: usize,
    (band, lower): (&mut [f64], bool),
) {
    let (oi, n) = (index.offset(i), band.len() / 4);
    // All bundled models have 4 orbitals/atom, which makes the band layout
    // uniform; assert so a future heteronuclear model fails loudly here.
    assert_eq!(oi, 4 * i, "band assembly assumes 4 orbitals per atom");
    for (k, &ek) in model.on_site(s.species(i)).iter().enumerate() {
        band[k * n + oi + k] = ek;
    }
    for (nb, t) in bonds.entries(nl, i) {
        let oj = index.offset(nb.j);
        if t.v.iter().all(|&x| x == 0.0) || (lower && oj > oi) {
            continue;
        }
        let b = sk_block(nb.disp.to_array(), t.v);
        for (mu, row) in b.iter().enumerate() {
            for (nu, &x) in row.iter().enumerate() {
                if !lower || oj + nu <= oi + mu {
                    band[mu * n + oj + nu] += x;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carbon::carbon_xwch;
    use crate::model::TbModel;
    use crate::silicon::silicon_gsp;
    use tbmd_structure::{bulk_diamond, dimer, Species};

    fn si_setup(nx: usize) -> (Structure, NeighborList, OrbitalIndex) {
        let s = bulk_diamond(Species::Silicon, nx, nx, nx);
        let m = silicon_gsp();
        let nl = NeighborList::build(&s, m.cutoff());
        let idx = OrbitalIndex::new(&s);
        (s, nl, idx)
    }

    #[test]
    fn orbital_index_layout() {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let idx = OrbitalIndex::new(&s);
        assert_eq!(idx.total(), 32);
        assert_eq!(idx.offset(0), 0);
        assert_eq!(idx.offset(1), 4);
        assert_eq!(idx.offset(7), 28);
    }

    #[test]
    fn hamiltonian_is_symmetric() {
        let (s, nl, idx) = si_setup(1);
        let m = silicon_gsp();
        let h = build_hamiltonian(&s, &nl, &m, &idx);
        assert!(h.asymmetry() < 1e-12, "asymmetry {}", h.asymmetry());
    }

    #[test]
    fn dimer_hamiltonian_blocks() {
        let m = silicon_gsp();
        let s = dimer(Species::Silicon, 2.35);
        let nl = NeighborList::build(&s, m.cutoff());
        let idx = OrbitalIndex::new(&s);
        let h = build_hamiltonian(&s, &nl, &m, &idx);
        assert_eq!(h.rows(), 8);
        // On-site energies on the diagonal.
        assert!((h[(0, 0)] - -5.25).abs() < 1e-12);
        assert!((h[(1, 1)] - 1.20).abs() < 1e-12);
        // Bond along x: the s_i–px_j element is +V_spσ(2.35).
        let v = m.hoppings(2.35);
        assert!((h[(0, 5)] - v[1]).abs() < 1e-12);
        assert!((h[(5, 0)] - v[1]).abs() < 1e-12); // = −(−V_spσ) by symmetry
        assert!((h[(1, 4)] - -v[1]).abs() < 1e-12);
        // py_i–py_j is a π bond.
        assert!((h[(2, 6)] - v[3]).abs() < 1e-12);
        // No s_i–py_j coupling for a bond along x.
        assert!(h[(0, 6)].abs() < 1e-15);
    }

    #[test]
    fn carbon_diamond_symmetric_and_correct_size() {
        let m = carbon_xwch();
        let s = bulk_diamond(Species::Carbon, 1, 1, 1);
        let nl = NeighborList::build(&s, m.cutoff());
        let idx = OrbitalIndex::new(&s);
        let h = build_hamiltonian(&s, &nl, &m, &idx);
        assert_eq!(h.rows(), 32);
        assert!(h.asymmetry() < 1e-12);
    }

    #[test]
    fn diagonal_blocks_gain_self_image_terms_in_small_cells() {
        // In the 8-atom Si cell with a ~3.8 Å cutoff no self-images are in
        // range (box edge 5.43 Å), so diagonal off-elements remain zero; in
        // an artificially shrunk cell they must appear.
        let (_, nl, idx) = si_setup(1);
        let m = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let h = build_hamiltonian(&s, &nl, &m, &idx);
        let o = idx.offset(0);
        // s–p on-site coupling zero in the unstrained cell:
        assert!(h[(o, o + 1)].abs() < 1e-12);

        // Compressed cell: bond 1.85 Å → box edge 4.27 Å, self-images at
        // 4.27 > cutoff 3.8, still none. Compress harder: bond 1.6 → edge
        // 3.69 < 3.8 → self-images appear on the diagonal block (s–s term).
        let s2 = tbmd_structure::bulk_diamond_with_bond(Species::Silicon, 1.6, 1, 1, 1);
        let nl2 = NeighborList::build(&s2, m.cutoff());
        let h2 = build_hamiltonian(&s2, &nl2, &m, &idx);
        // The self-image ss hopping is along a lattice vector; px–px picks up
        // σ/π mix; at minimum the diagonal s element shifts away from ε_s.
        assert!(
            (h2[(o, o)] - -5.25).abs() > 1e-6,
            "expected self-image contribution on the diagonal, got {}",
            h2[(o, o)]
        );
        assert!(h2.asymmetry() < 1e-12);
    }

    #[test]
    fn eigenvalue_count_matches_orbitals() {
        let (s, nl, idx) = si_setup(1);
        let m = silicon_gsp();
        let h = build_hamiltonian(&s, &nl, &m, &idx);
        let vals = tbmd_linalg::eigvalsh(h).unwrap();
        assert_eq!(vals.len(), s.n_orbitals());
        // Spectrum bounded by on-site ± coordination × max hop (Gershgorin).
        let vmax = m
            .hoppings(2.35)
            .iter()
            .map(|x| x.abs())
            .fold(0.0f64, f64::max);
        let bound = 5.25 + 3.71 + 16.0 * vmax;
        for &e in &vals {
            assert!(
                e.abs() < bound,
                "eigenvalue {e} outside Gershgorin-ish bound"
            );
        }
    }
}

//! The bond-block density stage against the full-matrix reference: on every
//! block the force and stress contractions can read it is the SYRK density
//! matrix, its dense view is zero everywhere else, and forces and stress do
//! not notice the difference.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd_linalg::{eigh, reduced_eigenvectors_into, Matrix};
use tbmd_model::{
    bond_block_elements, bond_density, bond_force, carbon_xwch, density_matrix, electronic_forces,
    occupations, silicon_gsp, sk_block, stress_from_density, DenseCache, GspTbModel, Hoppings,
    OccupationScheme, OrbitalIndex, PhaseTimings, RhoBlocks, TbCalculator, TbModel, Workspace,
};
use tbmd_structure::{
    bulk_diamond, bulk_diamond_with_bond, fullerene_c60, NeighborList, Species, Structure,
};

/// The store invariant: it holds one double per bond-block element; read
/// through it, `ρ_ij` of every atom's diagonal block and of both blocks of
/// every pair with a list entry equals `full` to 1e-13, and `ρ_ji` is
/// bitwise `ρ_ijᵀ`. Its dense view is exactly zero on every other element.
fn assert_bond_blocks(nl: &NeighborList, index: &OrbitalIndex, rho: &RhoBlocks, full: &Matrix) {
    assert_eq!(rho.as_slice().len(), bond_block_elements(nl, index));
    for i in 0..nl.n_atoms() {
        for j in nl.neighbors(i).iter().map(|nb| nb.j).chain([i]) {
            let (ij, ji) = (rho.block(i, j), rho.block(j, i));
            for mu in 0..index.n_orbitals(i) {
                for nu in 0..index.n_orbitals(j) {
                    assert_eq!(ij(mu, nu).to_bits(), ji(nu, mu).to_bits(), "{i},{j}");
                    let err = ij(mu, nu) - full[(index.offset(i) + mu, index.offset(j) + nu)];
                    assert!(err.abs() <= 1e-13, "block ({i},{j}) off by {err}");
                }
            }
        }
    }
    let bond = rho.to_dense(index);
    let n = index.total();
    assert_eq!((bond.rows(), bond.cols()), (n, n));
    let mut listed = vec![false; n * n];
    for i in 0..nl.n_atoms() {
        let pairs = nl.neighbors(i).iter().map(|nb| nb.j);
        for j in pairs.chain([i]) {
            for mu in 0..index.n_orbitals(i) {
                for nu in 0..index.n_orbitals(j) {
                    listed[(index.offset(i) + mu) * n + index.offset(j) + nu] = true;
                }
            }
        }
    }
    for a in 0..n {
        for b in 0..n {
            assert_eq!(bond[(a, b)].to_bits(), bond[(b, a)].to_bits(), "({a},{b})");
            if listed[a * n + b] {
                let err = (bond[(a, b)] - full[(a, b)]).abs();
                assert!(err <= 1e-13, "listed element ({a},{b}) off by {err}");
            } else {
                assert_eq!(bond[(a, b)], 0.0, "unlisted element ({a},{b})");
            }
        }
    }
}

/// The occupied eigenvectors of the last dense evaluation in `ws` and their
/// count: all `n` columns of `ws.h` after a one-stage solve, or the `k` the
/// two-stage solve streamed into ρ, recomputed from the step's own
/// reflectors and factor.
fn occupied_vectors(ws: &mut Workspace) -> (Matrix, usize) {
    match ws.dense_cache {
        DenseCache::Sliced { occupied } => {
            let mut z = Matrix::default();
            reduced_eigenvectors_into(&ws.h_lower, &ws.values[..occupied], &mut z, &mut ws.eigh);
            (z, occupied)
        }
        DenseCache::Full { .. } => (ws.h.clone(), ws.h.cols()),
        DenseCache::None => panic!("no dense solve in the workspace"),
    }
}

/// Run the dense pipeline's front half on `s`, rebuild the full `ρ` from the
/// very eigenvectors it left behind, and compare blocks, trace, forces (both
/// force stages' forms) and — for periodic cells — stress.
fn check_pipeline(s: &Structure, model: &dyn TbModel, sliced: bool) {
    let calc = TbCalculator::new(model);
    let mut ws = Workspace::new();
    let (index, occ) = calc
        .density_with(s, &mut ws, &mut PhaseTimings::default())
        .unwrap();
    assert_eq!(
        matches!(ws.dense_cache, DenseCache::Sliced { .. }),
        sliced,
        "{:?}",
        ws.dense_cache
    );
    let (vectors, k) = occupied_vectors(&mut ws);
    let full = density_matrix(&vectors, &occ.f[..k]);
    let (nl, rho) = (ws.neighbors.list(), ws.rho_blocks());
    assert_bond_blocks(nl, &index, rho, &full);
    let dense = rho.to_dense(&index);
    assert!((dense.trace() - s.n_electrons() as f64).abs() < 1e-9);

    let scatter = |rho| electronic_forces(s, nl, model, &index, rho);
    let bonds = &ws.bonds;
    let gather_full = |i: usize| {
        let (oi, full) = (index.offset(i), &full);
        bond_force(nl, bonds, i, |j| {
            let oj = index.offset(j);
            move |mu, nu| full[(oi + mu, oj + nu)]
        })
    };
    for (i, (fb, ff)) in scatter(&dense).iter().zip(scatter(&full)).enumerate() {
        let tol = 1e-12 * (1.0 + ff.max_abs());
        assert!((*fb - ff).max_abs() <= tol, "scatter force on atom {i}");
        let gather = bond_force(nl, bonds, i, |j| rho.block(i, j));
        let gap = (gather - gather_full(i)).max_abs();
        assert!(gap <= tol, "gather force on atom {i}: {gap}");
    }
    if let Some(volume) = s.cell().volume() {
        let stress = |rho| stress_from_density(nl, bonds, rho, volume);
        let (sb, sf) = (
            stress(rho),
            stress(&RhoBlocks::from_dense(nl, &index, &full)),
        );
        for a in 0..3 {
            for b in 0..3 {
                let tol = 1e-12 * (1.0 + sf[a][b].abs());
                assert!((sb[a][b] - sf[a][b]).abs() <= tol, "stress ({a},{b})");
            }
        }
    }
}

#[test]
fn si64_sliced_matches_full_density() {
    let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
    s.perturb(&mut StdRng::seed_from_u64(17), 0.08);
    check_pipeline(&s, &silicon_gsp(), true);
}

#[test]
fn si8_full_with_duplicate_and_self_images_matches_full_density() {
    // Compressed to a 3.74 Å cell edge, inside the 3.8 Å cutoff: atoms see
    // their own images and several images of the same neighbour.
    let model = silicon_gsp();
    let mut s = bulk_diamond_with_bond(Species::Silicon, 1.62, 1, 1, 1);
    s.perturb(&mut StdRng::seed_from_u64(19), 0.05);
    let nl = NeighborList::build(&s, model.cutoff());
    let images_of = |i: usize, j: usize| nl.neighbors(i).iter().filter(|nb| nb.j == j).count();
    assert!((0..8).any(|i| images_of(i, i) > 0), "no self images");
    assert!(
        (0..8).any(|i| (0..8).any(|j| j != i && images_of(i, j) > 1)),
        "no duplicate images"
    );
    check_pipeline(&s, &model, false);
}

#[test]
fn carbon_cluster_matches_full_density() {
    let mut s = fullerene_c60(1.44);
    s.perturb(&mut StdRng::seed_from_u64(23), 0.04);
    check_pipeline(&s, &carbon_xwch(), true);
}

/// Silicon hoppings for every species, so a hydrogen (one orbital) can sit in
/// a silicon cell.
struct AnySpecies(GspTbModel);

impl TbModel for AnySpecies {
    fn name(&self) -> &str {
        "any-species"
    }
    fn supports(&self, _: Species) -> bool {
        true
    }
    fn cutoff(&self) -> f64 {
        self.0.cutoff()
    }
    fn on_site(&self, _: Species) -> [f64; 4] {
        self.0.on_site(Species::Silicon)
    }
    fn hoppings(&self, r: f64) -> Hoppings {
        self.0.hoppings(r)
    }
    fn hoppings_deriv(&self, r: f64) -> Hoppings {
        self.0.hoppings_deriv(r)
    }
    fn repulsion(&self, r: f64) -> (f64, f64) {
        self.0.repulsion(r)
    }
    fn embedding(&self, x: f64) -> (f64, f64) {
        self.0.embedding(x)
    }
}

#[test]
fn one_orbital_atom_gets_rectangular_blocks() {
    // Si-7 + H: 29 orbitals, the hydrogen in the middle of the atom order so
    // 4×1, 1×4 and 1×1 blocks all occur. The dense `H` assembly and the 4×4
    // block readers of the force stages are four-orbital only, so this cell
    // checks the density stage alone, on a Hamiltonian assembled here.
    let model = AnySpecies(silicon_gsp());
    let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
    s.substitute(3, Species::Hydrogen);
    s.perturb(&mut StdRng::seed_from_u64(29), 0.08);
    let nl = NeighborList::build(&s, model.cutoff());
    let index = OrbitalIndex::new(&s);
    let n = index.total();
    assert_eq!((n, index.n_orbitals(3), index.n_orbitals(7)), (29, 1, 4));

    let mut h = Matrix::zeros(n, n);
    for i in 0..s.n_atoms() {
        let (oi, ni) = (index.offset(i), index.n_orbitals(i));
        for mu in 0..ni {
            h[(oi + mu, oi + mu)] += model.on_site(s.species(i))[mu];
        }
        for nb in nl.neighbors(i) {
            let block = sk_block(nb.disp.to_array(), model.hoppings(nb.dist));
            for mu in 0..ni {
                for nu in 0..index.n_orbitals(nb.j) {
                    h[(oi + mu, index.offset(nb.j) + nu)] += block[mu][nu];
                }
            }
        }
    }
    h.symmetrize();
    let eig = eigh(h).unwrap();
    let occ = occupations(
        &eig.values,
        s.n_electrons(),
        OccupationScheme::Fermi { kt: 0.1 },
    );

    let mut rho = RhoBlocks::default();
    bond_density(&nl, &index, &eig.vectors, &occ.f, &mut rho);
    assert_bond_blocks(&nl, &index, &rho, &density_matrix(&eig.vectors, &occ.f));
    assert!((rho.to_dense(&index).trace() - s.n_electrons() as f64).abs() < 1e-9);
}

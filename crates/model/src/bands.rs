//! Electronic band structures: Bloch Hamiltonians at arbitrary k-points.
//!
//! The MD engines work at the Γ point of (large) supercells, but validating
//! a tight-binding parametrization — and reproducing the band-structure
//! figures of the era — needs `H(k)` along symmetry lines. The Bloch sum
//!
//! ```text
//! H(k)_{μν} = Σ_T e^{i k·T} H^{(T)}_{μν}
//! ```
//!
//! runs over the periodic-image translations `T` recorded in the neighbour
//! list; `H(k)` is complex Hermitian, `A + iB` with `A` symmetric and `B`
//! antisymmetric. Rather than adding a complex eigensolver, we use the
//! standard real embedding
//!
//! ```text
//! M = [ A  −B ]
//!     [ B   A ]
//! ```
//!
//! which is real symmetric with every eigenvalue of `H(k)` doubled — solved
//! by the existing Householder+QL kernel, and the doubling is collapsed on
//! the way out.

use crate::hamiltonian::OrbitalIndex;
use crate::model::TbModel;
use crate::slater_koster::sk_block;
use tbmd_linalg::{eigvalsh, EigError, Matrix, Vec3};
use tbmd_structure::{NeighborList, Structure};

/// Real (`A`) and imaginary (`B`) parts of the Bloch Hamiltonian at `k`
/// (in Å⁻¹, Cartesian).
pub fn bloch_hamiltonian(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    index: &OrbitalIndex,
    k: Vec3,
) -> (Matrix, Matrix) {
    let n = index.total();
    let mut a = Matrix::zeros(n, n);
    let mut b = Matrix::zeros(n, n);
    for i in 0..s.n_atoms() {
        let e = model.on_site(s.species(i));
        let o = index.offset(i);
        for (korb, &ek) in e.iter().enumerate() {
            a[(o + korb, o + korb)] += ek;
        }
    }
    let lengths = s.cell().lengths;
    for i in 0..s.n_atoms() {
        let oi = index.offset(i);
        for nb in nl.neighbors(i) {
            let v = model.hoppings(nb.dist);
            if v.iter().all(|&x| x == 0.0) {
                continue;
            }
            let block = sk_block(nb.disp.to_array(), v);
            // Phase on the image translation vector (periodic gauge).
            let t = Vec3::new(
                nb.shift[0] as f64 * lengths.x,
                nb.shift[1] as f64 * lengths.y,
                nb.shift[2] as f64 * lengths.z,
            );
            let phase = k.dot(t);
            let (cos_p, sin_p) = (phase.cos(), phase.sin());
            let oj = index.offset(nb.j);
            for (mu, row) in block.iter().enumerate() {
                for (nu, &x) in row.iter().enumerate() {
                    a[(oi + mu, oj + nu)] += x * cos_p;
                    b[(oi + mu, oj + nu)] += x * sin_p;
                }
            }
        }
    }
    (a, b)
}

/// Eigenvalues of the complex Hermitian `A + iB` via the real `2n×2n`
/// embedding. Input `a` must be symmetric and `b` antisymmetric (checked in
/// debug builds).
pub fn hermitian_eigenvalues(a: &Matrix, b: &Matrix) -> Result<Vec<f64>, EigError> {
    let n = a.rows();
    debug_assert!(a.asymmetry() < 1e-9, "A not symmetric");
    debug_assert!(
        {
            let mut worst = 0.0f64;
            for i in 0..n {
                for j in 0..n {
                    worst = worst.max((b[(i, j)] + b[(j, i)]).abs());
                }
            }
            worst < 1e-9
        },
        "B not antisymmetric"
    );
    let mut m = Matrix::zeros(2 * n, 2 * n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = a[(i, j)];
            m[(n + i, n + j)] = a[(i, j)];
            m[(i, n + j)] = -b[(i, j)];
            m[(n + i, j)] = b[(i, j)];
        }
    }
    let doubled = eigvalsh(m)?;
    // Every eigenvalue appears twice (sorted), so take every other one.
    Ok(doubled.into_iter().step_by(2).collect())
}

/// Band energies (ascending, `n_orbitals` of them) at one k-point.
pub fn band_energies(s: &Structure, model: &dyn TbModel, k: Vec3) -> Result<Vec<f64>, EigError> {
    let nl = NeighborList::build(s, model.cutoff());
    let index = OrbitalIndex::new(s);
    let (a, b) = bloch_hamiltonian(s, &nl, model, &index, k);
    hermitian_eigenvalues(&a, &b)
}

/// Band energies along a k-path; one `Vec` of bands per k-point.
pub fn band_structure(
    s: &Structure,
    model: &dyn TbModel,
    kpath: &[Vec3],
) -> Result<Vec<Vec<f64>>, EigError> {
    let nl = NeighborList::build(s, model.cutoff());
    let index = OrbitalIndex::new(s);
    kpath
        .iter()
        .map(|&k| {
            let (a, b) = bloch_hamiltonian(s, &nl, model, &index, k);
            hermitian_eigenvalues(&a, &b)
        })
        .collect()
}

/// Uniformly interpolate a piecewise-linear k-path through the given
/// vertices with `points_per_segment` samples per leg (vertices included).
pub fn k_path(vertices: &[Vec3], points_per_segment: usize) -> Vec<Vec3> {
    assert!(points_per_segment >= 1);
    if vertices.len() < 2 {
        return vertices.to_vec();
    }
    let mut path = Vec::new();
    for seg in vertices.windows(2) {
        for p in 0..points_per_segment {
            let t = p as f64 / points_per_segment as f64;
            path.push(seg[0] + (seg[1] - seg[0]) * t);
        }
    }
    path.push(*vertices.last().expect("non-empty"));
    path
}

/// Fundamental gap from bands sampled on a k-set: `min(conduction) −
/// max(valence)` with `n_electrons` filling (two per band per k). Negative
/// values mean the valence maximum exceeds the conduction minimum (an
/// indirect overlap, i.e. a metal).
pub fn band_gap(bands_per_k: &[Vec<f64>], n_electrons: usize) -> Option<f64> {
    let n_filled = n_electrons / 2;
    let mut vbm = f64::NEG_INFINITY;
    let mut cbm = f64::INFINITY;
    for bands in bands_per_k {
        if n_filled == 0 || n_filled > bands.len() {
            return None;
        }
        vbm = vbm.max(bands[n_filled - 1]);
        if n_filled < bands.len() {
            cbm = cbm.min(bands[n_filled]);
        }
    }
    cbm.is_finite().then_some(cbm - vbm)
}

/// Gaussian-broadened electronic density of states from a set of
/// eigenvalues; returns `(energy, dos)` samples.
pub fn density_of_states(eigenvalues: &[f64], sigma: f64, n_points: usize) -> Vec<(f64, f64)> {
    assert!(sigma > 0.0 && n_points >= 2);
    if eigenvalues.is_empty() {
        return vec![];
    }
    let lo = eigenvalues.iter().cloned().fold(f64::INFINITY, f64::min) - 4.0 * sigma;
    let hi = eigenvalues
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        + 4.0 * sigma;
    let norm = 1.0 / (sigma * (2.0 * std::f64::consts::PI).sqrt());
    (0..n_points)
        .map(|p| {
            let e = lo + (hi - lo) * p as f64 / (n_points - 1) as f64;
            let dos: f64 = eigenvalues
                .iter()
                .map(|&ev| {
                    let x = (e - ev) / sigma;
                    norm * (-0.5 * x * x).exp()
                })
                .sum();
            (e, dos)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carbon::carbon_xwch;
    use crate::silicon::silicon_gsp;
    use tbmd_structure::{bulk_diamond, graphene_sheet, Species};

    #[test]
    fn gamma_point_matches_real_hamiltonian() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let nl = NeighborList::build(&s, model.cutoff());
        let index = OrbitalIndex::new(&s);
        let (a, b) = bloch_hamiltonian(&s, &nl, &model, &index, Vec3::ZERO);
        assert!(b.max_abs() < 1e-14, "Γ-point Hamiltonian must be real");
        let h = crate::hamiltonian::build_hamiltonian(&s, &nl, &model, &index);
        assert!((&a - &h).max_abs() < 1e-12);
        let bloch = hermitian_eigenvalues(&a, &b).unwrap();
        let real = eigvalsh(h).unwrap();
        for (x, y) in bloch.iter().zip(&real) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn hermitian_embedding_known_2x2() {
        // H = [[1, i], [-i, 1]] has eigenvalues 0 and 2.
        let a = Matrix::identity(2);
        let mut b = Matrix::zeros(2, 2);
        b[(0, 1)] = 1.0;
        b[(1, 0)] = -1.0;
        let vals = hermitian_eigenvalues(&a, &b).unwrap();
        assert!((vals[0] - 0.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bands_periodic_in_reciprocal_lattice() {
        // Shifting k by a reciprocal lattice vector leaves bands unchanged.
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let l = s.cell().lengths.x;
        let g = 2.0 * std::f64::consts::PI / l;
        let k1 = Vec3::new(0.3 * g, 0.1 * g, 0.0);
        let k2 = k1 + Vec3::new(g, 0.0, 0.0);
        let b1 = band_energies(&s, &model, k1).unwrap();
        let b2 = band_energies(&s, &model, k2).unwrap();
        for (x, y) in b1.iter().zip(&b2) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn time_reversal_symmetry() {
        // ε(k) = ε(−k) for a real-basis TB model.
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let g = 2.0 * std::f64::consts::PI / s.cell().lengths.x;
        let k = Vec3::new(0.23 * g, 0.11 * g, 0.37 * g);
        let plus = band_energies(&s, &model, k).unwrap();
        let minus = band_energies(&s, &model, -k).unwrap();
        for (x, y) in plus.iter().zip(&minus) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn silicon_has_a_gap() {
        // Sample Γ, X, L of the conventional cubic cell: the Kwon model must
        // show a clear semiconductor gap (experimental 1.17 eV; TB models of
        // this family land within a factor ~2).
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let g = 2.0 * std::f64::consts::PI / s.cell().lengths.x;
        let ks = k_path(
            &[
                Vec3::ZERO,
                Vec3::new(g / 2.0, 0.0, 0.0),
                Vec3::new(g / 4.0, g / 4.0, g / 4.0),
            ],
            6,
        );
        let bands = band_structure(&s, &model, &ks).unwrap();
        let gap = band_gap(&bands, s.n_electrons()).unwrap();
        assert!(
            gap > 0.3 && gap < 3.0,
            "Si gap {gap} eV outside the physical window"
        );
    }

    #[test]
    fn graphene_is_semimetallic() {
        // The π bands must touch at the analytic Dirac point. With the A–B
        // bond along x (the sheet builder's orientation), the Dirac momentum
        // is K = (2π/3a_cc, 2π/(3√3 a_cc), 0); the supercell gauge used by
        // `bloch_hamiltonian` reaches its folded image directly.
        let model = carbon_xwch();
        let s = graphene_sheet(1.42, 1, 1);
        let acc = 1.42;
        let k_dirac = Vec3::new(
            2.0 * std::f64::consts::PI / (3.0 * acc),
            2.0 * std::f64::consts::PI / (3.0 * 3.0f64.sqrt() * acc),
            0.0,
        );
        let dirac_bands = band_energies(&s, &model, k_dirac).unwrap();
        let dirac_gap = band_gap(&[dirac_bands], s.n_electrons()).unwrap().abs();
        let gamma_bands = band_energies(&s, &model, Vec3::ZERO).unwrap();
        let gamma_gap = band_gap(&[gamma_bands], s.n_electrons()).unwrap().abs();
        assert!(
            dirac_gap < 0.1,
            "graphene gap at K is {dirac_gap} eV — Dirac point not reproduced"
        );
        assert!(gamma_gap > 3.0, "Γ gap {gamma_gap} eV suspiciously small");
    }

    #[test]
    fn k_path_interpolation() {
        let path = k_path(&[Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)], 4);
        assert_eq!(path.len(), 5);
        assert!((path[2].x - 0.5).abs() < 1e-12);
        assert_eq!(path.last().unwrap().x, 1.0);
        assert_eq!(k_path(&[Vec3::ZERO], 3).len(), 1);
    }

    #[test]
    fn band_gap_edge_cases() {
        let bands = vec![vec![-1.0, 0.5, 2.0]];
        assert_eq!(band_gap(&bands, 2), Some(1.5));
        // Fully filled: no conduction band.
        assert_eq!(band_gap(&bands, 6), None);
        assert_eq!(band_gap(&bands, 0), None);
    }

    #[test]
    fn dos_integrates_to_state_count() {
        let eigenvalues: Vec<f64> = (0..20).map(|i| i as f64 * 0.5 - 5.0).collect();
        let dos = density_of_states(&eigenvalues, 0.2, 400);
        let de = dos[1].0 - dos[0].0;
        let integral: f64 = dos.iter().map(|&(_, d)| d * de).sum();
        assert!(
            (integral - 20.0).abs() < 0.1,
            "DOS integral {integral} != 20"
        );
        assert!(density_of_states(&[], 0.1, 10).is_empty());
    }
}

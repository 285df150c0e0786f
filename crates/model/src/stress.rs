//! Virial stress tensor for periodic tight-binding systems.
//!
//! Under a uniform strain `ε` every pair vector scales, `d → (1+ε)d`, so
//!
//! ```text
//! σ_ab = (1/V) ∂E/∂ε_ab
//!      = (1/V) [ Σ_pairs (∂E_bs/∂d_a) d_b + Σ_entries f'(x_i) φ'(r) d̂_a d_b ]
//! ```
//!
//! with the electronic `∂E/∂d` evaluated from the same density-matrix ×
//! Slater–Koster-gradient contraction as the forces. Self-image pairs (an
//! atom bonded to its own periodic copy) carry no force but *do* carry
//! stress — their bond vector is a lattice vector, which strains with the
//! cell.
//!
//! Sign convention: positive `tr σ / 3` means the system pushes outward
//! under compression has `p = −tr σ/3 > 0`; a crystal at its equilibrium
//! lattice constant has `σ ≈ 0`.

use crate::calculator::{PhaseTimings, TbCalculator, TbError};
use crate::model::TbModel;
use crate::occupations::OccupationScheme;
use crate::stages::{bond_contraction, BondTable, RhoBlocks};
use crate::workspace::Workspace;
use tbmd_structure::{NeighborList, Structure};

/// Symmetric 3×3 stress tensor in eV/Å³.
pub type StressTensor = [[f64; 3]; 3];

/// Pressure `p = −tr σ / 3` in eV/Å³.
pub fn pressure(stress: &StressTensor) -> f64 {
    -(stress[0][0] + stress[1][1] + stress[2][2]) / 3.0
}

/// eV/Å³ → GPa.
pub const EV_PER_A3_TO_GPA: f64 = 160.217_663;

/// Compute the virial stress of a fully periodic structure: the front half
/// of the dense pipeline ([`TbCalculator::density_with`]) for `ρ`, then
/// [`stress_from_density`].
///
/// # Errors
/// Returns [`TbError::EmptyStructure`] for empty input and propagates
/// eigensolver failures; panics if the cell is not fully periodic (no
/// volume).
pub fn stress_tensor(
    s: &Structure,
    model: &dyn TbModel,
    occupation: OccupationScheme,
) -> Result<StressTensor, TbError> {
    let mut ws = Workspace::new();
    let calc = TbCalculator::with_occupation(model, occupation);
    calc.density_with(s, &mut ws, &mut PhaseTimings::default())?;
    let volume = s
        .cell()
        .volume()
        .expect("stress tensor requires a fully periodic cell");
    Ok(stress_from_density(
        ws.neighbors.list(),
        &ws.bonds,
        ws.rho_blocks(),
        volume,
    ))
}

/// Stress from the bond-block `ρ` and the bond table of the same evaluation
/// (both filled for `nl`), for engines that already hold both.
pub fn stress_from_density(
    nl: &NeighborList,
    bonds: &BondTable,
    rho: &RhoBlocks,
    volume: f64,
) -> StressTensor {
    let mut sigma = [[0.0; 3]; 3];
    for i in 0..nl.n_atoms() {
        let dfdx_i = bonds.embedding(i).1;
        for (nb, t) in bonds.entries(nl, i) {
            let d = nb.disp;
            // Electronic part: (∂E/∂d_a) = ρ_ij : G_a summed over the block
            // (the directed double-count is absorbed by the ½ of the pair
            // sum — see module docs). Self-image entries included.
            if let Some(de_dd) = bond_contraction(nb, t.v, t.dv, rho.block(i, nb.j)) {
                for a in 0..3 {
                    for b in 0..3 {
                        sigma[a][b] += de_dd[a] * d[b];
                    }
                }
            }
            // Repulsive part: f'(x_i) φ'(r) d̂_a d_b per directed entry.
            if t.dphi != 0.0 {
                let scale = dfdx_i * t.dphi / nb.dist;
                for (a, srow) in sigma.iter_mut().enumerate() {
                    for (sv, db) in srow.iter_mut().zip(d.to_array()) {
                        *sv += scale * d[a] * db;
                    }
                }
            }
        }
    }
    for row in &mut sigma {
        for x in row.iter_mut() {
            *x /= volume;
        }
    }
    // Enforce exact symmetry (round-off level asymmetry from the block sums).
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        let avg = 0.5 * (sigma[a][b] + sigma[b][a]);
        sigma[a][b] = avg;
        sigma[b][a] = avg;
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculator::TbCalculator;
    use crate::provider::ForceProvider;
    use crate::silicon::silicon_gsp;
    use tbmd_linalg::Vec3;
    use tbmd_structure::{bulk_diamond_with_bond, Cell, Species};

    const KT: OccupationScheme = OccupationScheme::Fermi { kt: 0.1 };

    /// Numerical dE/dε_aa via uniform scaling along one axis.
    fn numerical_stress_diag(bond: f64, axis: usize, h: f64) -> f64 {
        let model = silicon_gsp();
        let calc = TbCalculator::with_occupation(&model, KT);
        let energy_at = |eps: f64| -> f64 {
            let s0 = bulk_diamond_with_bond(Species::Silicon, bond, 1, 1, 1);
            let mut lengths = s0.cell().lengths;
            lengths[axis] *= 1.0 + eps;
            let positions: Vec<Vec3> = s0
                .positions()
                .iter()
                .map(|&r| {
                    let mut p = r;
                    p[axis] *= 1.0 + eps;
                    p
                })
                .collect();
            let strained = tbmd_structure::Structure::homogeneous(
                Species::Silicon,
                positions,
                Cell::orthorhombic(lengths.x, lengths.y, lengths.z),
            );
            calc.energy_only(&strained).unwrap()
        };
        let v = {
            let s0 = bulk_diamond_with_bond(Species::Silicon, bond, 1, 1, 1);
            s0.cell().volume().unwrap()
        };
        (energy_at(h) - energy_at(-h)) / (2.0 * h) / v
    }

    #[test]
    fn stress_matches_numerical_strain_derivative() {
        // Compressed lattice: large anisotropy-free stress; analytic virial
        // must match the numerical strain derivative.
        let model = silicon_gsp();
        for bond in [2.25, 2.35, 2.45] {
            let s = bulk_diamond_with_bond(Species::Silicon, bond, 1, 1, 1);
            let sigma = stress_tensor(&s, &model, KT).unwrap();
            let numerical = numerical_stress_diag(bond, 0, 1e-5);
            assert!(
                (sigma[0][0] - numerical).abs() < 5e-4 * (1.0 + numerical.abs()),
                "bond {bond}: analytic {} vs numerical {}",
                sigma[0][0],
                numerical
            );
        }
    }

    #[test]
    fn equilibrium_crystal_nearly_stress_free() {
        // The 2×2×2 cell: the repulsion calibration fixed dE/d(bond) = 0 at
        // 2.35 Å for this supercell, so its pressure must be near zero (the
        // 8-atom cell sits ~4 GPa off — Γ-point finite-size shift).
        let model = silicon_gsp();
        let s = bulk_diamond_with_bond(Species::Silicon, 2.35, 2, 2, 2);
        let sigma = stress_tensor(&s, &model, KT).unwrap();
        let p = pressure(&sigma) * EV_PER_A3_TO_GPA;
        assert!(p.abs() < 2.0, "equilibrium pressure {p} GPa");
        // Cubic symmetry: diagonal components equal, off-diagonals zero.
        assert!((sigma[0][0] - sigma[1][1]).abs() < 1e-8);
        assert!(sigma[0][1].abs() < 1e-8);
    }

    #[test]
    fn compression_gives_positive_pressure() {
        let model = silicon_gsp();
        let compressed = bulk_diamond_with_bond(Species::Silicon, 2.20, 1, 1, 1);
        let expanded = bulk_diamond_with_bond(Species::Silicon, 2.50, 1, 1, 1);
        let p_c = pressure(&stress_tensor(&compressed, &model, KT).unwrap());
        let p_e = pressure(&stress_tensor(&expanded, &model, KT).unwrap());
        assert!(p_c > 0.0, "compressed crystal must push out (p = {p_c})");
        assert!(p_e < 0.0, "expanded crystal must pull in (p = {p_e})");
    }

    #[test]
    fn bulk_modulus_order_of_magnitude() {
        // B = −V dp/dV ≈ 98 GPa for Si; estimate from two pressures.
        let model = silicon_gsp();
        let (b1, b2) = (2.33, 2.37);
        let p1 = pressure(
            &stress_tensor(
                &bulk_diamond_with_bond(Species::Silicon, b1, 1, 1, 1),
                &model,
                KT,
            )
            .unwrap(),
        );
        let p2 = pressure(
            &stress_tensor(
                &bulk_diamond_with_bond(Species::Silicon, b2, 1, 1, 1),
                &model,
                KT,
            )
            .unwrap(),
        );
        // V ∝ bond³ → dV/V = 3 db/b.
        let dv_over_v = 3.0 * (b2 - b1) / 2.35;
        let bulk_modulus = -(p2 - p1) / dv_over_v * EV_PER_A3_TO_GPA;
        assert!(
            bulk_modulus > 40.0 && bulk_modulus < 250.0,
            "Si bulk modulus {bulk_modulus} GPa outside physical window"
        );
    }
}

//! Silicon tight-binding parametrization in the Goodwin–Skinner–Pettifor
//! form, following Kwon, Biswas, Wang, Ho & Soukoulis (Phys. Rev. B 49, 7242
//! (1994)) — *the* silicon TBMD model of the SC'94 era.
//!
//! Functional form (see [`crate::scaling`]):
//!
//! * on-site: `ε_s = −5.25 eV`, `ε_p = +1.20 eV`
//! * hoppings `V_λ(r) = V_λ(r₀) (r₀/r)² exp{2[−(r/r_c)^{n_c} + (r₀/r_c)^{n_c}]}`
//!   with `r₀ = 2.360352 Å`, `r_c = 3.67 Å`, `n_c = 6.48` and
//!   `V(r₀) = [−2.038, 1.745, 2.75, −1.075] eV`
//! * repulsion `φ(r) = (r₀/r)^m exp{m[−(r/d_c)^{m_c} + (r₀/d_c)^{m_c}]}`
//!   with `m = 6.8755`, `m_c = 13.017`, `d_c = 3.66995 Å`, embedded through
//!   `f(x) = Σ_{k=1}^4 c_k x^k`, `c = [2.1604385, −0.1384393, 5.8398423·10⁻³,
//!   −8.0263577·10⁻⁵]` (eV)
//!
//! **Substitutions** (documented per DESIGN.md): the published model is
//! truncated with a short polynomial tail; we use the C² smootherstep tail
//! over `[2.8, 3.8] Å`, which keeps the model first-neighbour in the diamond
//! structure (1st shell 2.35 Å, 2nd shell 3.84 Å) like the original GSP fit.
//! The embedding carries a calibration factor `repulsion_scale` chosen so the
//! model's diamond equilibrium bond length reproduces 2.35 Å with the tail
//! above (see `calibration` test and EXPERIMENTS.md T5).

use crate::model::{EmbeddingPolynomial, GspTbModel};
use crate::scaling::{CutoffTail, GspScaling, RadialFunction, RadialShape};
use tbmd_structure::Species;

/// Reference bond length of the fit (diamond Si first-neighbour distance).
pub const SI_R0: f64 = 2.360352;

/// Inner edge of the cutoff tail (Å).
pub const SI_TAIL_INNER: f64 = 2.8;

/// Outer cutoff (Å): interactions vanish beyond this.
pub const SI_TAIL_OUTER: f64 = 3.8;

/// Calibration factor on the embedding term (see module docs): chosen so
/// that `dE/d(bond) = 0` at 2.35 Å in the diamond structure with the
/// smootherstep cutoff tail used here (the published fit used a different
/// truncation, which shifts the equilibrium by a few percent if left
/// uncompensated). Determined from the equation-of-state scan in
/// `tests/eos.rs`: κ = −E_bs′(2.35)/E_rep′(2.35) = 18.261/16.247.
pub const SI_REPULSION_SCALE: f64 = 1.124;

/// Build the silicon model.
pub fn silicon_gsp() -> GspTbModel {
    let tail = CutoffTail::new(SI_TAIL_INNER, SI_TAIL_OUTER);
    let hop_shape = RadialShape {
        scaling: GspScaling::new(SI_R0, 2.0, 3.67, 6.48),
        tail,
    };
    let rep = RadialFunction {
        amplitude: 1.0,
        shape: RadialShape {
            scaling: GspScaling::new(SI_R0, 6.8755, 3.66995, 13.017),
            tail,
        },
    };
    let embed = EmbeddingPolynomial {
        coefficients: vec![0.0, 2.1604385, -0.1384393, 5.8398423e-3, -8.0263577e-5],
    };
    GspTbModel {
        name: "Si-GSP/Kwon".to_string(),
        species: Species::Silicon,
        e_s: -5.25,
        e_p: 1.20,
        hop_amplitudes: [-2.038, 1.745, 2.75, -1.075],
        hop_shape,
        rep,
        embed,
        repulsion_scale: SI_REPULSION_SCALE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TbModel;

    #[test]
    fn reference_distance_values() {
        let m = silicon_gsp();
        let v = m.hoppings(SI_R0);
        assert!((v[0] - -2.038).abs() < 1e-12);
        assert!((v[1] - 1.745).abs() < 1e-12);
        assert!((v[2] - 2.75).abs() < 1e-12);
        assert!((v[3] - -1.075).abs() < 1e-12);
        let (phi, _) = m.repulsion(SI_R0);
        assert!((phi - 1.0).abs() < 1e-12, "φ(r0) = {phi}");
    }

    #[test]
    fn supports_only_silicon() {
        let m = silicon_gsp();
        assert!(m.supports(Species::Silicon));
        assert!(!m.supports(Species::Carbon));
        assert!(!m.supports(Species::Hydrogen));
    }

    #[test]
    fn cutoff_excludes_second_shell() {
        let m = silicon_gsp();
        assert!(m.cutoff() <= 3.8 + 1e-12);
        // Second diamond shell at 3.84 Å must see exactly zero interaction.
        let v = m.hoppings(3.84);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(m.repulsion(3.84).0, 0.0);
    }

    #[test]
    fn hoppings_decay() {
        let m = silicon_gsp();
        let near = m.hoppings(2.2);
        let far = m.hoppings(3.0);
        for k in 0..4 {
            assert!(near[k].abs() > far[k].abs());
        }
    }

    #[test]
    fn sp3_bonding_signs() {
        // σ bonds: ssσ < 0, spσ > 0, ppσ > 0, ppπ < 0 — the universal
        // ordering for sp³ semiconductors.
        let v = silicon_gsp().hoppings(2.35);
        assert!(v[0] < 0.0 && v[1] > 0.0 && v[2] > 0.0 && v[3] < 0.0);
    }

    #[test]
    fn repulsion_is_positive_and_embedding_monotone() {
        let m = silicon_gsp();
        for &r in &[2.0, 2.35, 2.7, 3.2] {
            assert!(m.repulsion(r).0 > 0.0, "φ({r}) must be positive");
        }
        // f is increasing over the physical range x ∈ (0, ~8).
        for &x in &[0.5, 1.0, 2.0, 4.0, 6.0] {
            let (_, df) = m.embedding(x);
            assert!(df > 0.0, "f'({x}) = {df}");
        }
    }

    #[test]
    fn hopping_derivatives_match_finite_difference() {
        let m = silicon_gsp();
        let h = 1e-6;
        for &r in &[2.1, 2.36, 2.9, 3.3, 3.75] {
            let d = m.hoppings_deriv(r);
            let vp = m.hoppings(r + h);
            let vm = m.hoppings(r - h);
            for k in 0..4 {
                let fd = (vp[k] - vm[k]) / (2.0 * h);
                assert!(
                    (fd - d[k]).abs() < 1e-5 * (1.0 + d[k].abs()),
                    "r={r}, k={k}"
                );
            }
        }
    }
}

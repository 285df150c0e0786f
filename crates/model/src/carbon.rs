//! Carbon tight-binding parametrization of Xu, Wang, Chan & Ho
//! (J. Phys.: Condens. Matter 4, 6047 (1992)) — the standard carbon TBMD
//! model of the era, fit simultaneously to diamond, graphite, the linear
//! chain and the dimer.
//!
//! Functional form (see [`crate::scaling`]):
//!
//! * on-site: `ε_s = −2.99 eV`, `ε_p = +3.71 eV`
//! * hoppings `V_λ(r)` in GSP form with `r₀ = 1.536329 Å`, `n = 2`,
//!   `n_c = 6.5`, `r_c = 2.18 Å` and
//!   `V(r₀) = [−5.0, 4.7, 5.5, −1.55] eV`
//! * repulsion `φ(r) = φ₀ (d₀/r)^m exp{m[−(r/d_c)^{m_c} + (d₀/d_c)^{m_c}]}`
//!   with `φ₀ = 8.18555 eV`, `d₀ = 1.64 Å`, `m = 3.30304`, `m_c = 8.6655`,
//!   `d_c = 2.1052 Å`
//! * embedding `f(x) = Σ_{k=0}^4 c_k x^k` with
//!   `c = [−2.5909765118191, 0.5721151498619, −1.7896349903996·10⁻³,
//!   2.3539221516757·10⁻⁵, −1.24251169551587·10⁻⁷]` (eV)
//!
//! **Substitution** (per DESIGN.md): the published tail polynomial between
//! `r₁ = 2.45 Å` and `r_m = 2.6 Å` is replaced by the C² smootherstep tail
//! over the same window. The window sits between the graphene/diamond first
//! (1.42/1.54 Å) and second (2.46/2.52 Å) shells; second-shell interactions
//! survive only through the strongly suppressed tail region, as in the
//! original model.

use crate::model::{EmbeddingPolynomial, GspTbModel};
use crate::scaling::{CutoffTail, GspScaling, RadialFunction, RadialShape};
use tbmd_structure::Species;

/// Hopping reference distance of the fit (Å).
pub const C_R0: f64 = 1.536_329;

/// Repulsion reference distance (Å).
pub const C_D0: f64 = 1.64;

/// Inner edge of the cutoff tail (Å).
pub const C_TAIL_INNER: f64 = 2.45;

/// Outer cutoff (Å).
pub const C_TAIL_OUTER: f64 = 2.6;

/// Calibration factor on the embedding term (1.0 = published fit).
pub const C_REPULSION_SCALE: f64 = 1.0;

/// Build the carbon model.
pub fn carbon_xwch() -> GspTbModel {
    let tail = CutoffTail::new(C_TAIL_INNER, C_TAIL_OUTER);
    let hop_shape = RadialShape {
        scaling: GspScaling::new(C_R0, 2.0, 2.18, 6.5),
        tail,
    };
    let rep = RadialFunction {
        amplitude: 8.18555,
        shape: RadialShape {
            scaling: GspScaling::new(C_D0, 3.30304, 2.1052, 8.6655),
            tail,
        },
    };
    let embed = EmbeddingPolynomial {
        coefficients: vec![
            -2.5909765118191,
            0.5721151498619,
            -1.7896349903996e-3,
            2.3539221516757e-5,
            -1.24251169551587e-7,
        ],
    };
    GspTbModel {
        name: "C-XWCH".to_string(),
        species: Species::Carbon,
        e_s: -2.99,
        e_p: 3.71,
        hop_amplitudes: [-5.0, 4.7, 5.5, -1.55],
        hop_shape,
        rep,
        embed,
        repulsion_scale: C_REPULSION_SCALE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TbModel;

    #[test]
    fn reference_distance_values() {
        let m = carbon_xwch();
        let v = m.hoppings(C_R0);
        assert!((v[0] - -5.0).abs() < 1e-12);
        assert!((v[1] - 4.7).abs() < 1e-12);
        assert!((v[2] - 5.5).abs() < 1e-12);
        assert!((v[3] - -1.55).abs() < 1e-12);
        let (phi, _) = m.repulsion(C_D0);
        assert!((phi - 8.18555).abs() < 1e-10);
    }

    #[test]
    fn supports_only_carbon() {
        let m = carbon_xwch();
        assert!(m.supports(Species::Carbon));
        assert!(!m.supports(Species::Silicon));
    }

    #[test]
    fn cutoff_value() {
        let m = carbon_xwch();
        assert!((m.cutoff() - 2.6).abs() < 1e-12);
        assert!(m.hoppings(2.6).iter().all(|&x| x == 0.0));
        assert!(m.hoppings(2.4)[0].abs() > 0.0);
    }

    #[test]
    fn graphene_bond_stronger_than_diamond_bond() {
        // Shorter bond → larger |hoppings|.
        let m = carbon_xwch();
        let g = m.hoppings(1.42);
        let d = m.hoppings(1.54);
        for k in 0..4 {
            assert!(g[k].abs() > d[k].abs());
        }
    }

    #[test]
    fn repulsion_derivative_matches_finite_difference() {
        let m = carbon_xwch();
        let h = 1e-6;
        for &r in &[1.3, 1.54, 1.9, 2.3, 2.5] {
            let (_, dphi) = m.repulsion(r);
            let fd = (m.repulsion(r + h).0 - m.repulsion(r - h).0) / (2.0 * h);
            assert!(
                (fd - dphi).abs() < 1e-4 * (1.0 + dphi.abs()),
                "r={r}: {fd} vs {dphi}"
            );
        }
    }

    #[test]
    fn embedding_matches_finite_difference() {
        let m = carbon_xwch();
        let h = 1e-6;
        for &x in &[1.0, 4.0, 10.0, 20.0] {
            let (_, df) = m.embedding(x);
            let fd = (m.embedding(x + h).0 - m.embedding(x - h).0) / (2.0 * h);
            assert!((fd - df).abs() < 1e-6 * (1.0 + df.abs()), "x={x}");
        }
    }

    #[test]
    fn sp3_bonding_signs() {
        let v = carbon_xwch().hoppings(1.54);
        assert!(v[0] < 0.0 && v[1] > 0.0 && v[2] > 0.0 && v[3] < 0.0);
    }
}

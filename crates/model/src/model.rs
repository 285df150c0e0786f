//! The tight-binding model abstraction.
//!
//! A [`TbModel`] supplies everything the Hamiltonian builder and force engine
//! need: on-site energies, distance-dependent hopping integrals (with
//! analytic radial derivatives), and the repulsive pair/embedding functional
//!
//! ```text
//! E_rep = Σ_i f( Σ_j φ(r_ij) )
//! ```
//!
//! The two bundled parametrizations — [`crate::silicon::silicon_gsp`] and
//! [`crate::carbon::carbon_xwch`] — share the Goodwin–Skinner–Pettifor
//! functional form and are instances of [`GspTbModel`].

use crate::scaling::{RadialFunction, RadialShape};
use crate::slater_koster::Hoppings;
use tbmd_structure::Species;

/// Interface every tight-binding parametrization implements.
///
/// The bundled models are homonuclear (one species each), so the radial
/// functions take only a distance; `supports` gates which structures the
/// calculator will accept.
pub trait TbModel: Send + Sync {
    /// Human-readable name (reported by benches and logs).
    fn name(&self) -> &str;

    /// Whether this model parametrizes the given species.
    fn supports(&self, sp: Species) -> bool;

    /// Interaction cutoff radius in Å (hoppings and repulsion both vanish
    /// at and beyond this distance).
    fn cutoff(&self) -> f64;

    /// On-site orbital energies `[ε_s, ε_p, ε_p, ε_p]` in eV.
    fn on_site(&self, sp: Species) -> [f64; 4];

    /// Hopping integrals `[V_ssσ, V_spσ, V_ppσ, V_ppπ]` at distance `r`.
    fn hoppings(&self, r: f64) -> Hoppings;

    /// Radial derivatives of the hopping integrals at distance `r`.
    fn hoppings_deriv(&self, r: f64) -> Hoppings;

    /// Repulsive pair function `φ(r)` and its derivative `φ'(r)`.
    fn repulsion(&self, r: f64) -> (f64, f64);

    /// Every radial term of a bond of length `r` at once: what the
    /// evaluation stages read, through the [`crate::BondTable`]. The default
    /// composes [`TbModel::hoppings`], [`TbModel::hoppings_deriv`] and
    /// [`TbModel::repulsion`]; a model whose radial functions share work
    /// overrides it with the same bits.
    fn bond(&self, r: f64) -> BondTerms {
        let (phi, dphi) = self.repulsion(r);
        BondTerms {
            v: self.hoppings(r),
            dv: self.hoppings_deriv(r),
            phi,
            dphi,
        }
    }

    /// Embedding function `f(x)` and `f'(x)` applied to each atom's summed
    /// pair repulsion.
    fn embedding(&self, x: f64) -> (f64, f64);
}

/// The radial terms of one bond: the hoppings and their derivatives, the
/// pair repulsion and its derivative, all at the bond's length.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BondTerms {
    /// Hopping integrals `[V_ssσ, V_spσ, V_ppσ, V_ppπ]`.
    pub v: Hoppings,
    /// Their radial derivatives.
    pub dv: Hoppings,
    /// Pair repulsion `φ(r)`.
    pub phi: f64,
    /// Its derivative `φ′(r)`.
    pub dphi: f64,
}

/// Polynomial embedding `f(x) = Σ_k c_k x^k` (Horner evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingPolynomial {
    /// Coefficients `c_0 … c_d`, lowest order first.
    pub coefficients: Vec<f64>,
}

impl EmbeddingPolynomial {
    /// `(f(x), f'(x))` in one pass.
    pub fn eval(&self, x: f64) -> (f64, f64) {
        let mut f = 0.0;
        let mut df = 0.0;
        for &c in self.coefficients.iter().rev() {
            df = df * x + f;
            f = f * x + c;
        }
        (f, df)
    }
}

/// A concrete single-species GSP-form tight-binding model.
#[derive(Debug, Clone)]
pub struct GspTbModel {
    pub(crate) name: String,
    pub(crate) species: Species,
    pub(crate) e_s: f64,
    pub(crate) e_p: f64,
    /// Hopping amplitudes `V_λ(r₀)` in Slater–Koster order.
    pub(crate) hop_amplitudes: [f64; 4],
    /// The one radial shape the four hoppings share.
    pub(crate) hop_shape: RadialShape,
    /// Repulsive pair function φ(r).
    pub(crate) rep: RadialFunction,
    /// Embedding polynomial f(x).
    pub(crate) embed: EmbeddingPolynomial,
    /// Global scale on the embedding term; 1.0 for the published fit, used
    /// by the calibration described in DESIGN.md when a transcribed constant
    /// needed adjustment to land the equilibrium geometry.
    pub(crate) repulsion_scale: f64,
}

impl GspTbModel {
    /// The single species this model parametrizes.
    pub fn species(&self) -> Species {
        self.species
    }
}

impl TbModel for GspTbModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn supports(&self, sp: Species) -> bool {
        sp == self.species
    }

    fn cutoff(&self) -> f64 {
        self.rep.cutoff().max(self.hop_shape.cutoff())
    }

    fn on_site(&self, sp: Species) -> [f64; 4] {
        debug_assert!(
            self.supports(sp),
            "species {sp} not parametrized by {}",
            self.name
        );
        [self.e_s, self.e_p, self.e_p, self.e_p]
    }

    fn hoppings(&self, r: f64) -> Hoppings {
        self.hop_shape
            .factors(r)
            .map_or([0.0; 4], |[s, t]| self.hop_amplitudes.map(|a| a * s * t))
    }

    fn hoppings_deriv(&self, r: f64) -> Hoppings {
        self.hop_shape
            .factors_with_derivatives(r)
            .map_or([0.0; 4], |[s, ds, t, dt]| {
                self.hop_amplitudes.map(|a| a * (ds * t + s * dt))
            })
    }

    fn repulsion(&self, r: f64) -> (f64, f64) {
        self.rep.value_and_derivative(r)
    }

    /// One evaluation of each radial shape: the same expressions as the
    /// per-distance methods, so the same bits.
    fn bond(&self, r: f64) -> BondTerms {
        let a = self.hop_amplitudes;
        let (v, dv) = self
            .hop_shape
            .factors_with_derivatives(r)
            .map_or(([0.0; 4], [0.0; 4]), |[s, ds, t, dt]| {
                (a.map(|a| a * s * t), a.map(|a| a * (ds * t + s * dt)))
            });
        let (phi, dphi) = self.rep.value_and_derivative(r);
        BondTerms { v, dv, phi, dphi }
    }

    fn embedding(&self, x: f64) -> (f64, f64) {
        let (f, df) = self.embed.eval(x);
        (self.repulsion_scale * f, self.repulsion_scale * df)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_eval_and_derivative() {
        // f(x) = 1 + 2x + 3x² → f(2) = 17, f'(2) = 14.
        let p = EmbeddingPolynomial {
            coefficients: vec![1.0, 2.0, 3.0],
        };
        let (f, df) = p.eval(2.0);
        assert!((f - 17.0).abs() < 1e-14);
        assert!((df - 14.0).abs() < 1e-14);
    }

    #[test]
    fn polynomial_empty_and_constant() {
        let zero = EmbeddingPolynomial {
            coefficients: vec![],
        };
        assert_eq!(zero.eval(3.0), (0.0, 0.0));
        let c = EmbeddingPolynomial {
            coefficients: vec![4.5],
        };
        assert_eq!(c.eval(-2.0), (4.5, 0.0));
    }

    #[test]
    fn polynomial_derivative_finite_difference() {
        let p = EmbeddingPolynomial {
            coefficients: vec![0.0, 2.1604385, -0.1384393, 5.8398423e-3, -8.0263577e-5],
        };
        let h = 1e-6;
        for &x in &[0.5, 1.0, 3.0, 7.0] {
            let (_, df) = p.eval(x);
            let fd = (p.eval(x + h).0 - p.eval(x - h).0) / (2.0 * h);
            assert!((df - fd).abs() < 1e-6 * (1.0 + df.abs()), "x={x}");
        }
    }
}

//! Vibrational analysis: finite-difference dynamical matrix and normal-mode
//! frequencies — the vibrational-DOS validation the era's TBMD papers ran on
//! clusters and crystals.
//!
//! The mass-weighted Hessian (dynamical matrix at Γ)
//!
//! ```text
//! D_{iα,jβ} = −(1/√(m_i m_j)) ∂F_{iα}/∂R_{jβ}
//! ```
//!
//! is assembled from central differences of the analytic forces (one force
//! evaluation per displaced coordinate, 6N total) and diagonalized with the
//! workspace eigensolver; eigenvalues `λ` give angular frequencies
//! `ω = √(λ·ACCEL_CONV)` in fs⁻¹. Rigid translations (and rotations, for
//! clusters) appear as (near-)zero modes — a stringent force-consistency
//! check.

use tbmd_linalg::{eigh, Matrix};
use tbmd_model::units::ACCEL_CONV;
use tbmd_model::{ForceProvider, TbError};
use tbmd_structure::Structure;

/// Result of a normal-mode calculation.
#[derive(Debug, Clone)]
pub struct NormalModes {
    /// Eigenvalues of the dynamical matrix (eV/Å²/amu), ascending. Negative
    /// values signal an unstable (saddle) configuration.
    pub eigenvalues: Vec<f64>,
    /// Frequencies ν = ω/2π in THz for the non-negative modes (`0.0` where
    /// the eigenvalue is negative; pair with [`NormalModes::is_stable`]).
    pub frequencies_thz: Vec<f64>,
    /// Mass-weighted eigenvectors, column-wise.
    pub modes: Matrix,
}

impl NormalModes {
    /// Number of (near-)zero modes below the tolerance — 3 for a periodic
    /// crystal (translations), 5–6 for a cluster (plus rotations). Judged on
    /// `√(|λ|·ACCEL_CONV)` so slightly negative finite-difference zero modes
    /// count too.
    pub fn n_zero_modes(&self, tol_thz: f64) -> usize {
        self.eigenvalues
            .iter()
            .filter(|&&l| (l.abs() * ACCEL_CONV).sqrt() * thz_conversion() <= tol_thz)
            .count()
    }

    /// Largest frequency (THz): the last one, the eigenvalues being
    /// ascending; 0.0 with no modes.
    pub fn max_frequency_thz(&self) -> f64 {
        self.frequencies_thz.last().copied().unwrap_or(0.0)
    }

    /// `true` when no eigenvalue is significantly negative (all modes are
    /// real up to the zero-mode tolerance).
    pub fn is_stable(&self, tol: f64) -> bool {
        self.eigenvalues.iter().all(|&l| l > -tol.abs())
    }
}

/// fs⁻¹ → THz conversion for ν = ω/(2π): 1/fs = 1000/2π THz on the ω scale.
fn thz_conversion() -> f64 {
    1000.0 / (2.0 * std::f64::consts::PI)
}

/// Compute Γ-point normal modes by central finite differences of the
/// analytic forces.
///
/// `displacement` is the finite-difference step in Å (1e-3 is a good
/// default: small enough for linearity, large enough to dominate the force
/// noise of smeared occupations).
pub fn normal_modes(
    structure: &Structure,
    provider: &dyn ForceProvider,
    displacement: f64,
) -> Result<NormalModes, TbError> {
    assert!(displacement > 0.0);
    let n = structure.n_atoms();
    let dim = 3 * n;
    let masses = structure.masses();
    let mut hessian = Matrix::zeros(dim, dim);
    // Column j of ∂F/∂R: displace coordinate j by ±h.
    for j_atom in 0..n {
        for beta in 0..3 {
            let col = 3 * j_atom + beta;
            let mut plus = structure.clone();
            plus.positions_mut()[j_atom][beta] += displacement;
            let fp = provider.evaluate(&plus)?.forces;
            let mut minus = structure.clone();
            minus.positions_mut()[j_atom][beta] -= displacement;
            let fm = provider.evaluate(&minus)?.forces;
            for i_atom in 0..n {
                for alpha in 0..3 {
                    let dfda = (fp[i_atom][alpha] - fm[i_atom][alpha]) / (2.0 * displacement);
                    hessian[(3 * i_atom + alpha, col)] = -dfda;
                }
            }
        }
    }
    // Mass weighting + symmetrization (finite differences break exact
    // symmetry at round-off level).
    let mut d = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            let mi = masses[i / 3];
            let mj = masses[j / 3];
            d[(i, j)] = hessian[(i, j)] / (mi * mj).sqrt();
        }
    }
    d.symmetrize();
    let eig = eigh(d)?;
    let frequencies_thz = eig
        .values
        .iter()
        .map(|&l| {
            if l > 0.0 {
                (l * ACCEL_CONV).sqrt() * thz_conversion()
            } else {
                0.0
            }
        })
        .collect();
    Ok(NormalModes {
        eigenvalues: eig.values,
        frequencies_thz,
        modes: eig.vectors,
    })
}

/// Histogram of the vibrational density of states from mode frequencies.
pub fn vibrational_dos(frequencies_thz: &[f64], n_bins: usize, max_thz: f64) -> Vec<(f64, f64)> {
    assert!(n_bins > 0 && max_thz > 0.0);
    let mut bins = vec![0.0; n_bins];
    for &f in frequencies_thz {
        if f > 0.0 && f < max_thz {
            bins[(f / max_thz * n_bins as f64) as usize] += 1.0;
        }
    }
    bins.into_iter()
        .enumerate()
        .map(|(k, c)| ((k as f64 + 0.5) * max_thz / n_bins as f64, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbmd_model::{silicon_gsp, OccupationScheme, TbCalculator};
    use tbmd_structure::{bulk_diamond, dimer, Species};

    #[test]
    fn dimer_has_one_stretch_mode() {
        let model = silicon_gsp();
        let calc = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
        // Relax first so the Hessian is evaluated at the minimum.
        let mut s = dimer(Species::Silicon, 2.47);
        let opts = crate::relax::RelaxOptions {
            force_tolerance: 1e-4,
            ..Default::default()
        };
        crate::relax::relax(&mut s, &calc, &opts).unwrap();
        let modes = normal_modes(&s, &calc, 1e-3).unwrap();
        assert_eq!(modes.frequencies_thz.len(), 6);
        // 5 zero modes (3 translations + 2 rotations), 1 stretch.
        assert_eq!(modes.n_zero_modes(1.0), 5, "{:?}", modes.frequencies_thz);
        let stretch = modes.max_frequency_thz();
        // Si₂ stretch ~ 12–16 THz experimentally (511 cm⁻¹ ≈ 15.3 THz).
        assert!(
            stretch > 5.0 && stretch < 25.0,
            "Si2 stretch {stretch} THz implausible"
        );
        assert!(modes.is_stable(1e-3));
    }

    #[test]
    fn crystal_translations_are_zero_modes() {
        let model = silicon_gsp();
        let calc = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let modes = normal_modes(&s, &calc, 1e-3).unwrap();
        assert_eq!(modes.frequencies_thz.len(), 24);
        // Exactly 3 acoustic zero modes at Γ.
        assert_eq!(
            modes.n_zero_modes(0.8),
            3,
            "{:?}",
            &modes.frequencies_thz[..6]
        );
        assert!(
            modes.is_stable(1e-2),
            "unstable crystal: {:?}",
            &modes.eigenvalues[..4]
        );
        // Folded optical branch: Si Raman mode is 15.5 THz; TB models land
        // within a few THz.
        let top = modes.max_frequency_thz();
        assert!(top > 10.0 && top < 25.0, "Si top phonon {top} THz");
    }

    #[test]
    fn vibrational_dos_counts_modes() {
        let freqs = vec![0.0, 2.0, 5.5, 5.6, 11.0];
        let dos = vibrational_dos(&freqs, 4, 12.0);
        assert_eq!(dos.len(), 4);
        let total: f64 = dos.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4.0); // zero mode excluded
        assert_eq!(dos[1].1, 2.0); // the 5.5/5.6 pair in bin [3,6)
    }
}

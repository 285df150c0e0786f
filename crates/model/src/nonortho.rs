//! Non-orthogonal tight binding: overlap matrices and Pulay forces.
//!
//! Orthogonal TB (the default engines) assumes `⟨μ|ν⟩ = δ_{μν}`. The
//! non-orthogonal schemes of the era (DFTB/Frauenheim, Menon–Subbaswamy)
//! keep an explicit overlap `S` built from the same Slater–Koster table as
//! `H`, solve the generalized problem `H C = S C ε`, and add the Pulay term
//! to the forces:
//!
//! ```text
//! E_bs = 2 Σ_n f_n ε_n,    ρ = 2 Σ_n f_n c_n c_nᵀ,   w = 2 Σ_n f_n ε_n c_n c_nᵀ
//! F_i  = −Σ_{μν} ρ_{μν} ∂H_{μν}/∂R_i + Σ_{μν} w_{μν} ∂S_{μν}/∂R_i − ∂E_rep/∂R_i
//! ```
//!
//! with `w` the energy-weighted density matrix. Setting every overlap
//! integral to zero recovers the orthogonal theory exactly (tested).
//!
//! The bundled [`silicon_nonortho_demo`] dresses the GSP/Kwon silicon model
//! with a physically-shaped overlap (same radial scaling as the hoppings,
//! small amplitudes) — a *demonstration* parametrization for exercising the
//! formalism, clearly not a published fit; see DESIGN.md's substitution
//! policy.

use crate::calculator::{density_matrix_into, repulsive_energy_forces, PhaseTimings, TbError};
use crate::hamiltonian::{assemble_bands, build_hamiltonian, build_hamiltonian_into, OrbitalIndex};
use crate::model::{GspTbModel, TbModel};
use crate::occupations::{occupations, OccupationScheme};
use crate::provider::{ForceEvaluation, ForceProvider};
use crate::slater_koster::{sk_block_gradient, Hoppings};
use crate::stages::{entropy_term, epilogue, prologue, validate};
use crate::workspace::{DenseCache, Workspace};
use tbmd_linalg::{generalized_eigh, generalized_eigh_into, GeneralizedEigError, Matrix, Vec3};
use tbmd_structure::{NeighborList, Species, Structure};
use tbmd_trace::Phase;

/// A tight-binding model with an explicit overlap table.
pub trait NonOrthogonalTbModel: TbModel {
    /// Overlap integrals `[S_ssσ, S_spσ, S_ppσ, S_ppπ]` at distance `r`
    /// (dimensionless; on-site overlap is the identity).
    fn overlaps(&self, r: f64) -> Hoppings;

    /// Radial derivatives of the overlap integrals.
    fn overlaps_deriv(&self, r: f64) -> Hoppings;
}

/// The GSP silicon model dressed with a demonstration overlap: the hopping
/// radial shape with amplitudes `[−0.06, 0.05, 0.08, −0.03]` at `r₀`
/// (magnitudes typical of sp³ minimal-basis overlaps, small enough that `S`
/// stays safely positive definite for all bonded geometries).
#[derive(Debug, Clone)]
pub struct SiliconNonOrthoDemo {
    base: GspTbModel,
    overlap_amplitudes: [f64; 4],
}

/// Build the demonstration non-orthogonal silicon model.
pub fn silicon_nonortho_demo() -> SiliconNonOrthoDemo {
    SiliconNonOrthoDemo {
        base: crate::silicon::silicon_gsp(),
        overlap_amplitudes: [-0.06, 0.05, 0.08, -0.03],
    }
}

impl SiliconNonOrthoDemo {
    /// Variant with all overlaps zero — must reproduce the orthogonal
    /// calculator exactly (used by the equivalence test).
    pub fn with_zero_overlap() -> Self {
        SiliconNonOrthoDemo {
            base: crate::silicon::silicon_gsp(),
            overlap_amplitudes: [0.0; 4],
        }
    }
}

impl TbModel for SiliconNonOrthoDemo {
    fn name(&self) -> &str {
        "Si-GSP+overlap-demo"
    }
    fn supports(&self, sp: Species) -> bool {
        self.base.supports(sp)
    }
    fn cutoff(&self) -> f64 {
        self.base.cutoff()
    }
    fn on_site(&self, sp: Species) -> [f64; 4] {
        self.base.on_site(sp)
    }
    fn hoppings(&self, r: f64) -> Hoppings {
        self.base.hoppings(r)
    }
    fn hoppings_deriv(&self, r: f64) -> Hoppings {
        self.base.hoppings_deriv(r)
    }
    fn repulsion(&self, r: f64) -> (f64, f64) {
        self.base.repulsion(r)
    }
    fn embedding(&self, x: f64) -> (f64, f64) {
        self.base.embedding(x)
    }
}

impl NonOrthogonalTbModel for SiliconNonOrthoDemo {
    fn overlaps(&self, r: f64) -> Hoppings {
        // Reuse the hopping radial shape: S_λ(r) = s_λ · V_λ(r)/V_λ(r₀).
        let v = self.base.hoppings(r);
        let v0: Hoppings = [-2.038, 1.745, 2.75, -1.075];
        [
            self.overlap_amplitudes[0] * v[0] / v0[0],
            self.overlap_amplitudes[1] * v[1] / v0[1],
            self.overlap_amplitudes[2] * v[2] / v0[2],
            self.overlap_amplitudes[3] * v[3] / v0[3],
        ]
    }

    fn overlaps_deriv(&self, r: f64) -> Hoppings {
        let dv = self.base.hoppings_deriv(r);
        let v0: Hoppings = [-2.038, 1.745, 2.75, -1.075];
        [
            self.overlap_amplitudes[0] * dv[0] / v0[0],
            self.overlap_amplitudes[1] * dv[1] / v0[1],
            self.overlap_amplitudes[2] * dv[2] / v0[2],
            self.overlap_amplitudes[3] * dv[3] / v0[3],
        ]
    }
}

/// Build the overlap matrix (identity on-site, Slater–Koster blocks from the
/// model's overlap table off-site).
pub fn build_overlap(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn NonOrthogonalTbModel,
    index: &OrbitalIndex,
) -> Matrix {
    let mut sm = Matrix::zeros(0, 0);
    build_overlap_into(s, nl, model, index, &mut sm);
    sm
}

/// [`build_overlap`] into a caller-owned buffer, reusing its allocation when
/// the capacity suffices. Returns `true` if the buffer had to grow.
pub fn build_overlap_into(
    _s: &Structure,
    nl: &NeighborList,
    model: &dyn NonOrthogonalTbModel,
    index: &OrbitalIndex,
    sm: &mut Matrix,
) -> bool {
    assemble_bands(nl, index, sm, |_| [1.0; 4], |r| model.overlaps(r))
}

/// Non-orthogonal tight-binding calculator (generalized eigenproblem +
/// Pulay forces).
pub struct NonOrthoCalculator<'m> {
    model: &'m dyn NonOrthogonalTbModel,
    /// Occupation scheme (default 0.1 eV Fermi smearing).
    pub occupation: OccupationScheme,
}

impl<'m> NonOrthoCalculator<'m> {
    /// Default calculator.
    pub fn new(model: &'m dyn NonOrthogonalTbModel) -> Self {
        NonOrthoCalculator {
            model,
            occupation: OccupationScheme::Fermi { kt: 0.1 },
        }
    }

    fn solve(
        &self,
        s: &Structure,
    ) -> Result<(NeighborList, OrbitalIndex, tbmd_linalg::Eigh), TbError> {
        let nl = NeighborList::build(s, self.model.cutoff());
        let index = OrbitalIndex::new(s);
        let h = build_hamiltonian(s, &nl, self.model, &index);
        let sm = build_overlap(s, &nl, self.model, &index);
        let eig = generalized_eigh(&h, &sm).map_err(map_gen_err)?;
        Ok((nl, index, eig))
    }
}

fn map_gen_err(e: GeneralizedEigError) -> TbError {
    match e {
        GeneralizedEigError::Eig(inner) => TbError::Eigensolver(inner),
        _ => TbError::OverlapNotPositiveDefinite,
    }
}

impl ForceProvider for NonOrthoCalculator<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.evaluate_with(s, &mut Workspace::new())
    }

    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        validate(self.model, s)?;
        // The generalized solve leaves S-orthonormal vectors, which the
        // plain-residual health probe cannot consume.
        ws.dense_cache = DenseCache::None;
        let mut timings = PhaseTimings::default();
        prologue(self.model, s, ws, &mut timings);
        let nl = ws.neighbors.list();
        let index = OrbitalIndex::new(s);
        let n = index.total();

        let sp = tbmd_trace::span(Phase::Hamiltonian);
        let mut grew = build_hamiltonian_into(s, nl, self.model, &index, &mut ws.h) as usize;
        grew += build_overlap_into(s, nl, self.model, &index, &mut ws.overlap) as usize;
        timings.hamiltonian = sp.finish();

        // Generalized solve H C = S C ε through the persistent Cholesky
        // sub-workspace (the factor of S and the congruence-reduced matrix
        // are reused across steps).
        let sp = tbmd_trace::span(Phase::Diagonalize);
        let gen_before = ws.geneigh.large_alloc_events();
        generalized_eigh_into(
            &ws.h,
            &ws.overlap,
            &mut ws.values,
            &mut ws.c,
            &mut ws.geneigh,
        )
        .map_err(map_gen_err)?;
        grew += ws.geneigh.large_alloc_events() - gen_before;
        timings.diagonalize = sp.finish();

        let sp = tbmd_trace::span(Phase::Density);
        let occ = occupations(&ws.values, s.n_electrons(), self.occupation);
        let band = occ.band_energy(&ws.values);
        // Density matrix via the shared SYRK kernel; energy-weighted density
        // w = 2 Σ f ε c cᵀ by explicit accumulation (weights can be
        // negative, so no √-scaling factorization applies).
        grew += density_matrix_into(&ws.c, &occ.f, &mut ws.w, &mut ws.rho);
        grew += ws.wrho.resize_zeroed(n, n) as usize;
        for (k, &f) in occ.f.iter().enumerate() {
            let fe = 2.0 * f * ws.values[k];
            if fe.abs() < 1e-14 {
                continue;
            }
            for i in 0..n {
                let ci = fe * ws.c[(i, k)];
                for j in 0..n {
                    ws.wrho[(i, j)] += ci * ws.c[(j, k)];
                }
            }
        }
        timings.density = sp.finish();

        // Forces: electronic −ρ:∂H + w:∂S per directed entry, plus repulsion.
        let sp = tbmd_trace::span(Phase::Forces);
        let mut forces = vec![Vec3::ZERO; s.n_atoms()];
        for (i, fo) in forces.iter_mut().enumerate() {
            let oi = index.offset(i);
            let mut fi = Vec3::ZERO;
            for nb in nl.neighbors(i) {
                if nb.j == i {
                    continue;
                }
                let oj = index.offset(nb.j);
                let v = self.model.hoppings(nb.dist);
                let dv = self.model.hoppings_deriv(nb.dist);
                let sv = self.model.overlaps(nb.dist);
                let dsv = self.model.overlaps_deriv(nb.dist);
                let grad_h = sk_block_gradient(nb.disp.to_array(), v, dv);
                let grad_s = sk_block_gradient(nb.disp.to_array(), sv, dsv);
                for gamma in 0..3 {
                    let mut acc = 0.0;
                    for mu in 0..4 {
                        for nu in 0..4 {
                            acc += ws.rho[(oi + mu, oj + nu)] * grad_h[gamma][mu][nu]
                                - ws.wrho[(oi + mu, oj + nu)] * grad_s[gamma][mu][nu];
                        }
                    }
                    fi[gamma] += 2.0 * acc;
                }
            }
            *fo = fi;
        }
        let (e_rep, rep_forces) = repulsive_energy_forces(s, nl, self.model, true);
        for (f, rf) in forces.iter_mut().zip(rep_forces.expect("forces")) {
            *f += rf;
        }
        timings.forces = sp.finish();
        ws.grown += grew;
        epilogue(grew, &timings, &[]);
        Ok(ForceEvaluation {
            energy: band + e_rep + entropy_term(self.occupation, occ.entropy),
            forces,
            timings,
        })
    }

    fn energy_only(&self, s: &Structure) -> Result<f64, TbError> {
        validate(self.model, s)?;
        let (nl, _, eig) = self.solve(s)?;
        let occ = occupations(&eig.values, s.n_electrons(), self.occupation);
        let (e_rep, _) = repulsive_energy_forces(s, &nl, self.model, false);
        Ok(occ.band_energy(&eig.values) + e_rep + entropy_term(self.occupation, occ.entropy))
    }

    fn provider_name(&self) -> &str {
        "nonortho-tb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculator::TbCalculator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbmd_linalg::Cholesky;
    use tbmd_structure::{bulk_diamond, dimer};

    #[test]
    fn zero_overlap_reproduces_orthogonal_theory() {
        let ortho_model = crate::silicon::silicon_gsp();
        let ortho = TbCalculator::new(&ortho_model);
        let no_model = SiliconNonOrthoDemo::with_zero_overlap();
        let nonortho = NonOrthoCalculator::new(&no_model);
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(4);
        s.perturb(&mut rng, 0.06);
        let a = ortho.evaluate(&s).unwrap();
        let b = nonortho.evaluate(&s).unwrap();
        assert!(
            (a.energy - b.energy).abs() < 1e-8,
            "{} vs {}",
            a.energy,
            b.energy
        );
        for (fa, fb) in a.forces.iter().zip(&b.forces) {
            assert!((*fa - *fb).max_abs() < 1e-7);
        }
    }

    #[test]
    fn overlap_matrix_positive_definite() {
        let model = silicon_nonortho_demo();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(5);
        s.perturb(&mut rng, 0.1);
        let nl = NeighborList::build(&s, model.cutoff());
        let index = OrbitalIndex::new(&s);
        let sm = build_overlap(&s, &nl, &model, &index);
        assert!(sm.asymmetry() < 1e-12);
        assert!(
            Cholesky::factor(&sm).is_ok(),
            "overlap not positive definite"
        );
    }

    #[test]
    fn overlap_changes_the_spectrum() {
        let ortho_model = crate::silicon::silicon_gsp();
        let ortho = TbCalculator::new(&ortho_model);
        let no_model = silicon_nonortho_demo();
        let nonortho = NonOrthoCalculator::new(&no_model);
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let a = ortho.evaluate(&s).unwrap();
        let b = nonortho.evaluate(&s).unwrap();
        assert!(
            (a.energy - b.energy).abs() > 0.1,
            "overlap should shift the total energy appreciably"
        );
    }

    #[test]
    fn pulay_forces_match_energy_gradient() {
        // The decisive test: with finite overlap, forces are only correct if
        // the w:∂S Pulay term is right.
        let model = silicon_nonortho_demo();
        let calc = NonOrthoCalculator::new(&model);
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(6);
        s.perturb(&mut rng, 0.08);
        let eval = calc.evaluate(&s).unwrap();
        let h = 1e-5;
        for (i, gamma) in [(0usize, 0usize), (1, 2), (3, 1), (5, 0)] {
            let mut sp = s.clone();
            sp.positions_mut()[i][gamma] += h;
            let ep = calc.energy_only(&sp).unwrap();
            let mut sm = s.clone();
            sm.positions_mut()[i][gamma] -= h;
            let em = calc.energy_only(&sm).unwrap();
            let fd = -(ep - em) / (2.0 * h);
            let an = eval.forces[i][gamma];
            assert!(
                (fd - an).abs() < 2e-4 * (1.0 + an.abs()),
                "Pulay force mismatch atom {i} comp {gamma}: fd={fd}, an={an}"
            );
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let model = silicon_nonortho_demo();
        let calc = NonOrthoCalculator::new(&model);
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(7);
        s.perturb(&mut rng, 0.1);
        let eval = calc.evaluate(&s).unwrap();
        let net: Vec3 = eval.forces.iter().copied().sum();
        assert!(net.max_abs() < 1e-7, "net force {net:?}");
    }

    #[test]
    fn dimer_binds_with_overlap() {
        let model = silicon_nonortho_demo();
        let calc = NonOrthoCalculator::new(&model);
        let e_short = calc.energy_only(&dimer(Species::Silicon, 2.4)).unwrap();
        let e_long = calc.energy_only(&dimer(Species::Silicon, 3.5)).unwrap();
        assert!(e_short < e_long);
    }

    /// A recorded run on this engine has phase histograms.
    #[test]
    fn evaluation_feeds_the_trace_registry() {
        let model = silicon_nonortho_demo();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let calc = NonOrthoCalculator::new(&model);
        crate::stages::assert_feeds_trace_registry(&calc, &s);
    }
}

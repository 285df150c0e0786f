//! Shared-memory fan-out stages of the dense pipeline.
//!
//! The shared-memory engine is the dense calculator
//! ([`tbmd_model::TbCalculator`]) with two stages swapped: `H` is assembled
//! band by band across the thread team (rows belonging to different atoms
//! are disjoint, so the build is a chunk loop over 4-row bands), and forces
//! are an independent gather-form map over atoms against the shared density
//! matrix. Neighbours, the two-stage eigensolve (threaded inside
//! `tbmd-linalg`) and the serial bond-block density stage are the
//! calculator's own.
//! Both stages take [`team::width`] threads — the compute lease's width —
//! and a band or an atom computes the same bits on whichever thread it
//! lands, so the result does not depend on the lease.

use tbmd_linalg::{team, Matrix, Vec3};
use tbmd_model::{
    assemble_band, bond_force, build_hamiltonian_into, dense_block, embedding, DenseStages,
    OrbitalIndex, TbCalculator, TbModel,
};
use tbmd_structure::{NeighborList, Structure};

/// The fan-out `H`-assembly and force stages.
pub const FAN_OUT: DenseStages = DenseStages {
    hamiltonian: par_build_hamiltonian_into,
    forces: par_forces,
    name: "shared-memory-tb",
};

/// The shared-memory engine: the dense calculator (default smearing,
/// two-stage eigensolver) with the [`FAN_OUT`] stages plugged in. Set
/// `occupation` / `solver` on the result as on any [`TbCalculator`].
pub fn shared_memory_tb(model: &dyn TbModel) -> TbCalculator<'_> {
    let mut calc = TbCalculator::new(model);
    calc.stages = FAN_OUT;
    calc
}

/// Parallel Hamiltonian assembly into a caller-owned buffer, reusing its
/// allocation. Returns `true` if the buffer had to grow. Every atom's 4-row
/// band is written by exactly one task running the serial build's own
/// [`assemble_band`], so the result is bitwise the serial build's at every
/// width.
pub fn par_build_hamiltonian_into(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    index: &OrbitalIndex,
    h: &mut Matrix,
) -> bool {
    let n_orb = index.total();
    if n_orb == 0 {
        return build_hamiltonian_into(s, nl, model, index, h);
    }
    let grew = h.resize_zeroed(n_orb, n_orb);
    team::chunks_for_each(team::width(), h.as_mut_slice(), 4 * n_orb, |i, band| {
        let on_site = model.on_site(s.species(i));
        assemble_band(nl, index, i, band, on_site, |r| model.hoppings(r))
    });
    grew
}

/// Parallel electronic + repulsive forces in gather form: each atom's force
/// ([`bond_force`]) reads the shared density matrix and the per-atom
/// embedding derivatives, writing only its own entry — one task per atom
/// with fixed-order arithmetic, so the forces are bitwise the same at every
/// width. Returns the repulsive energy alongside.
pub fn par_forces(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    index: &OrbitalIndex,
    rho: &Matrix,
) -> (f64, Vec<Vec3>) {
    let n = s.n_atoms();
    let fx = embedding(model, nl, n);
    let e_rep: f64 = fx.iter().map(|&(f, _)| f).sum();
    let force_on = |i: usize| -> Vec3 {
        let oi = index.offset(i);
        bond_force(model, nl, i, &fx, |j| dense_block(rho, oi, index.offset(j)))
    };
    (e_rep, team::map(team::width(), n, force_on))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbmd_model::{carbon_xwch, silicon_gsp, DenseSolver, ForceProvider, TbError};
    use tbmd_structure::{bulk_diamond, fullerene_c60, Species};

    /// The shared-memory engine must agree with the serial reference to
    /// near round-off for energy and every force component.
    fn assert_engines_agree(s: &Structure, model: &dyn TbModel, solver: DenseSolver) {
        let serial = TbCalculator::new(model);
        let mut parallel = shared_memory_tb(model);
        parallel.solver = solver;
        let a = serial.evaluate(s).unwrap();
        let b = parallel.evaluate(s).unwrap();
        assert!(
            (a.energy - b.energy).abs() < 1e-7,
            "energy mismatch: {} vs {}",
            a.energy,
            b.energy
        );
        for (i, (fa, fb)) in a.forces.iter().zip(&b.forces).enumerate() {
            assert!(
                (*fa - *fb).max_abs() < 1e-6,
                "force mismatch atom {i}: {fa:?} vs {fb:?}"
            );
        }
    }

    #[test]
    fn matches_serial_on_silicon_two_stage() {
        let model = silicon_gsp();
        // 2x2x2 cell: 64 atoms / 256 orbitals, above TWO_STAGE_MIN_DIM so
        // the sliced path (not the small-size QL fallback) is exercised.
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rng = StdRng::seed_from_u64(9);
        s.perturb(&mut rng, 0.08);
        assert_engines_agree(&s, &model, DenseSolver::TwoStage);
    }

    #[test]
    fn matches_serial_on_carbon_cluster() {
        let model = carbon_xwch();
        let mut s = fullerene_c60(1.44);
        let mut rng = StdRng::seed_from_u64(4);
        s.perturb(&mut rng, 0.04);
        assert_engines_agree(&s, &model, DenseSolver::FullQl);
    }

    #[test]
    fn parallel_hamiltonian_matches_serial_build() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rng = StdRng::seed_from_u64(5);
        s.perturb(&mut rng, 0.05);
        let nl = NeighborList::build(&s, model.cutoff());
        let index = OrbitalIndex::new(&s);
        let serial = tbmd_model::build_hamiltonian(&s, &nl, &model, &index);
        let mut parallel = Matrix::default();
        par_build_hamiltonian_into(&s, &nl, &model, &index, &mut parallel);
        assert_eq!(serial.as_slice(), parallel.as_slice(), "same band body");
    }

    #[test]
    fn rejects_unsupported_species() {
        let model = silicon_gsp();
        let engine = shared_memory_tb(&model);
        let s = tbmd_structure::dimer(Species::Carbon, 1.4);
        assert!(matches!(
            engine.evaluate(&s),
            Err(TbError::UnsupportedSpecies { .. })
        ));
    }

    #[test]
    fn provider_name() {
        let model = silicon_gsp();
        assert_eq!(shared_memory_tb(&model).provider_name(), "shared-memory-tb");
    }
}

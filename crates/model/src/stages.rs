//! The stages of one tight-binding evaluation, each written once.
//!
//! Every engine in the workspace runs the same step — neighbours → `H` →
//! solve → `ρ` → forces — and differs only in *where* the solve happens
//! (one thread, a rank shard, a localization region, a k-point). The parts
//! that do not depend on that choice live here as plain functions:
//!
//! * [`validate`] — reject empty structures and unparametrized species;
//! * [`prologue`] / [`epilogue`] — the neighbour-list update (the only
//!   place the `Neighbors` span is opened) and the end-of-evaluation
//!   accounting (the only place off-thread phase clocks are fed to the
//!   trace registry);
//! * [`solve_occupied`] — the dense eigensolve for the occupied subspace
//!   (the only place [`TWO_STAGE_MIN_DIM`] is consulted, the
//!   [`DenseCache`] marker set and the `Diagonalize` span opened);
//! * [`entropy_term`] — the Mermin `−T_e S` correction;
//! * [`embedding`] — the per-atom repulsive embedding pre-pass;
//! * [`bond_contraction`] / [`bond_force`] — `ρ_ij : ∂B/∂d` for one bond and
//!   the gather-form force on one atom, generic over how a 4×4 block of `ρ`
//!   is read (dense matrix, flat replicated slice, local O(N) blocks).
//!
//! [`crate::TbCalculator::compute_with`] strings them into the one dense
//! Γ-point pipeline; the distributed and O(N) engines call the same leaves
//! around their own solves.

use crate::calculator::{DenseSolver, PhaseTimings, TbError, TWO_STAGE_MIN_DIM};
use crate::model::TbModel;
use crate::occupations::{occupations, occupied_count, OccupationScheme, Occupations};
use crate::slater_koster::sk_block_gradient;
use crate::units::KB_EV;
use crate::workspace::{DenseCache, Workspace};
use tbmd_linalg::{
    eigh_into, par_jacobi_eigh_into, reduced_eigenvalues_into, reduced_eigenvectors_into,
    tridiagonalize_blocked_into, Matrix, Vec3, JACOBI_MAX_SWEEPS, JACOBI_TOL,
};
use tbmd_structure::{Neighbor, NeighborList, Structure};
use tbmd_trace::{Counter, Hist, Phase};

/// Reject empty structures and species the model does not parametrize.
pub fn validate(model: &dyn TbModel, s: &Structure) -> Result<(), TbError> {
    if s.n_atoms() == 0 {
        return Err(TbError::EmptyStructure);
    }
    for i in 0..s.n_atoms() {
        let species = s.species(i);
        if !model.supports(species) {
            return Err(TbError::UnsupportedSpecies {
                species,
                model: model.name().to_string(),
            });
        }
    }
    Ok(())
}

/// Neighbour prologue of an evaluation on the calling thread: bring
/// `ws.neighbors` up to date with `s` under the `Neighbors` span and note
/// the outcome in `timings`.
pub fn prologue(
    model: &dyn TbModel,
    s: &Structure,
    ws: &mut Workspace,
    timings: &mut PhaseTimings,
) {
    let sp = tbmd_trace::span(Phase::Neighbors);
    let outcome = ws.neighbors.update(s, model.cutoff());
    timings.neighbors = sp.finish();
    timings.note_neighbors(outcome);
}

/// Evaluation epilogue: surface `grown` large-buffer growth events, and feed
/// the registry the `unspanned` phases of `timings` — the ones clocked per
/// rank or per k-point, where a span would add up time-shared threads — as
/// one `phase_ns` add and one histogram sample each. Span-timed phases fed
/// themselves on `finish` and must not be listed.
pub fn epilogue(grown: usize, timings: &PhaseTimings, unspanned: &[Phase]) {
    tbmd_trace::add(Counter::AllocGrowth, grown as u64);
    if !tbmd_trace::active() {
        return;
    }
    for &p in unspanned {
        let ns = timings.phase(p).as_nanos() as u64;
        tbmd_trace::add_phase_ns(p, ns);
        tbmd_trace::record_ns(Hist::for_phase(p), ns);
    }
}

/// Diagonalize `ws.h` for the occupied subspace under one `Diagonalize`
/// span (returned as `timings.diagonalize`'s value).
///
/// [`DenseSolver::TwoStage`] at `n ≥` [`TWO_STAGE_MIN_DIM`] reduces `ws.h`
/// to tridiagonal form (reflectors stay packed in it), takes the complete
/// spectrum from the tridiagonal factor, and inverse-iterates only the `k`
/// states the occupations keep (`f > 10⁻¹²`, exactly the set the
/// density-matrix filter keeps; `k = n` is simply a full solve) into
/// `ws.c`. Below the crossover, and for the one-stage reference solvers,
/// all `n` eigenvectors overwrite `ws.h` in place. Either way the spectrum
/// lands in `ws.values`, `ws.dense_cache` says where the vectors are, and
/// [`DenseCache::vectors`] hands them out.
pub fn solve_occupied(
    ws: &mut Workspace,
    n_electrons: usize,
    occupation: OccupationScheme,
    solver: DenseSolver,
) -> Result<(Occupations, std::time::Duration), TbError> {
    let sp = tbmd_trace::span(Phase::Diagonalize);
    let two_stage = solver == DenseSolver::TwoStage && ws.h.rows() >= TWO_STAGE_MIN_DIM;
    if two_stage {
        tridiagonalize_blocked_into(&mut ws.h, &mut ws.eigh);
        reduced_eigenvalues_into(&mut ws.eigh, &mut ws.values)?;
        tbmd_trace::add(Counter::SturmBisections, ws.values.len() as u64);
    } else if solver == DenseSolver::ParallelJacobi {
        par_jacobi_eigh_into(
            &mut ws.h,
            &mut ws.values,
            &mut ws.jacobi,
            JACOBI_TOL,
            JACOBI_MAX_SWEEPS,
        )?;
    } else {
        eigh_into(&mut ws.h, &mut ws.values, &mut ws.eigh)?;
    }
    let occ = occupations(&ws.values, n_electrons, occupation);
    let occupied = occupied_count(&occ.f);
    ws.dense_cache = if two_stage {
        reduced_eigenvectors_into(&ws.h, &ws.values[..occupied], &mut ws.c, &mut ws.eigh);
        DenseCache::Sliced { occupied }
    } else {
        DenseCache::Full { occupied }
    };
    Ok((occ, sp.finish()))
}

/// The Mermin correction `−T_e S` for an electronic entropy `S` (eV/K):
/// `T_e = kt / k_B`, so `−T_e·S = −(kt/k_B)·S`. Zero without smearing.
pub fn entropy_term(occupation: OccupationScheme, entropy: f64) -> f64 {
    match occupation {
        OccupationScheme::Fermi { kt } if kt > 0.0 => -(kt / KB_EV) * entropy,
        _ => 0.0,
    }
}

/// Embedding value and derivative `(f(x_i), f'(x_i))` of every atom's summed
/// pair repulsion `x_i = Σ_j φ(r_ij)` (self-images included: their bonds are
/// constant lattice vectors, but they do count towards `x_i`).
pub fn embedding(model: &dyn TbModel, nl: &NeighborList, n_atoms: usize) -> Vec<(f64, f64)> {
    (0..n_atoms)
        .map(|i| {
            let x = nl
                .neighbors(i)
                .iter()
                .map(|nb| model.repulsion(nb.dist).0)
                .sum();
            model.embedding(x)
        })
        .collect()
}

/// `ρ_ij : ∂B/∂d` for one directed bond: the Cartesian vector with components
/// `Σ_{μν} ρ(μ,ν) ∂B_{μν}/∂d_γ`, with `rho(μ, ν)` reading the 4×4 block of
/// the density matrix between the bond's atoms. `None` beyond the hopping
/// cutoff (skin entries), where the block gradient vanishes identically.
#[inline]
pub fn bond_contraction(
    model: &dyn TbModel,
    nb: &Neighbor,
    rho: impl Fn(usize, usize) -> f64,
) -> Option<Vec3> {
    let v = model.hoppings(nb.dist);
    let dv = model.hoppings_deriv(nb.dist);
    if v.iter().all(|&x| x == 0.0) && dv.iter().all(|&x| x == 0.0) {
        return None;
    }
    let grad = sk_block_gradient(nb.disp.to_array(), v, dv);
    Some(Vec3::from_array(std::array::from_fn(|gamma| {
        let mut acc = 0.0;
        for (mu, grow) in grad[gamma].iter().enumerate() {
            for (nu, &g) in grow.iter().enumerate() {
                acc += rho(mu, nu) * g;
            }
        }
        acc
    })))
}

/// Force on atom `i` in gather form: electronic `2 ρ_ij : ∂B/∂d` plus
/// repulsive `(f'(x_i) + f'(x_j)) φ'(r) d̂` over its neighbours, writing
/// nothing but the returned value — so atoms can be mapped in any order, on
/// any thread or rank. `rho_ij(j)` yields the `(μ, ν)` reader of the block
/// between `i` and neighbour atom `j`. Self-image entries carry no force:
/// their bond vector is a fixed lattice translation.
#[inline]
pub fn bond_force<R: Fn(usize, usize) -> f64>(
    model: &dyn TbModel,
    nl: &NeighborList,
    i: usize,
    fx: &[(f64, f64)],
    rho_ij: impl Fn(usize) -> R,
) -> Vec3 {
    let mut fi = Vec3::ZERO;
    for nb in nl.neighbors(i) {
        if nb.j == i {
            continue;
        }
        if let Some(acc) = bond_contraction(model, nb, rho_ij(nb.j)) {
            fi += acc * 2.0;
        }
        let (_, dphi) = model.repulsion(nb.dist);
        if dphi != 0.0 {
            let unit = nb.disp / nb.dist;
            fi += unit * ((fx[i].1 + fx[nb.j].1) * dphi);
        }
    }
    fi
}

/// The `(μ, ν)` reader of the block between atoms at orbital offsets `oi`
/// and `oj` of a dense density matrix.
#[inline]
pub fn dense_block(rho: &Matrix, oi: usize, oj: usize) -> impl Fn(usize, usize) -> f64 + '_ {
    move |mu, nu| rho[(oi + mu, oj + nu)]
}

/// Test helper for the engines clocked through [`prologue`]/[`epilogue`]:
/// one evaluation feeds whoever is listening one sample per phase (none for
/// communication), equal to the timings handed back.
#[cfg(test)]
pub(crate) fn assert_feeds_trace_registry(
    calc: &dyn crate::provider::ForceProvider,
    s: &Structure,
) {
    let scope = tbmd_trace::ScopedSink::new("stages");
    let eval = {
        let _guard = scope.enter();
        calc.evaluate(s).unwrap()
    };
    let (snap, hists) = (scope.snapshot(), scope.histograms());
    for p in Phase::ALL {
        let expected = u64::from(p != Phase::Communication);
        assert_eq!(hists.hist(Hist::for_phase(p)).count(), expected, "{p:?}");
        assert_eq!(
            snap.phase_ns(p),
            eval.timings.phase(p).as_nanos() as u64,
            "{p:?}"
        );
    }
    assert!(snap.phase_ns(Phase::Diagonalize) > 0);
}

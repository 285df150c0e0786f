//! Eigensolver health probe: the physics watchdog behind the periodic
//! `eig_health` JSONL records.
//!
//! MD only ever consumes the density matrix, so a slowly degrading
//! eigensolve (lost orthogonality under heavy deflation, inverse-iteration
//! stagnation on a pathological cluster) shows up as silently wrong forces
//! long before anything crashes. The probe re-derives an independent check:
//! rebuild a pristine `H` for the current structure, run the *production*
//! solver stage on a copy, then measure `‖Hv − λv‖∞` against the untouched
//! `H` and spot-check orthogonality on a sampled occupied eigenpair. Cost
//! is one extra evaluation-sized solve, so it runs on a stride (see
//! `RecorderConfig` in `tbmd-core`), not every step.

use crate::calculator::{DenseSolver, PhaseTimings, TbCalculator, TbError};
use crate::hamiltonian::{assemble_hamiltonian_into, OrbitalIndex};
use crate::model::TbModel;
use crate::occupations::OccupationScheme;
use crate::workspace::{DenseCache, Workspace};
use tbmd_linalg::{Matrix, RowStore};
use tbmd_structure::Structure;
use tbmd_trace::HealthRecord;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `‖Hv − λv‖∞` and an orthogonality spot-check on the sampled eigenpair
/// `v` (index `sampled`) against the pristine `h`, and on its neighbour
/// `other` in the window when there is one.
fn probe(
    h: &Matrix,
    values: &[f64],
    (sampled, v, other): (usize, Vec<f64>, Option<Vec<f64>>),
    step: usize,
) -> HealthRecord {
    let lambda = values[sampled];
    let residual_inf = h
        .matvec(&v)
        .iter()
        .zip(&v)
        .map(|(hv_i, v_i)| (hv_i - lambda * v_i).abs())
        .fold(0.0_f64, f64::max);

    let mut orthogonality = (dot(&v, &v) - 1.0).abs();
    if let Some(other) = other {
        orthogonality = orthogonality.max(dot(&v, &other).abs());
    }
    HealthRecord {
        step,
        residual_inf,
        orthogonality,
        sampled_index: sampled,
        n_orbitals: h.rows(),
    }
}

/// The sampled eigenpair and its neighbour as the last solve left them, for
/// a structure of `n` orbitals: columns `full` and its
/// [`DenseCache::neighbour`] of `h` after the one-stage solve, the pair the
/// two-stage stream copied out of its strips (index `occupied / 2`).
/// `None` without a cache, or when its buffers belong to another size.
fn sampled_pair(
    ws: &Workspace,
    n: usize,
    full: usize,
) -> Option<(usize, Vec<f64>, Option<Vec<f64>>)> {
    let fits = n > 0 && ws.h_lower.layout().dim == n;
    match ws.dense_cache {
        DenseCache::Sliced { occupied } if fits && occupied > 0 && ws.probe_pair.len() == 2 * n => {
            let (v, other) = ws.probe_pair.split_at(n);
            Some((
                occupied / 2,
                v.to_vec(),
                (occupied > 1).then(|| other.to_vec()),
            ))
        }
        DenseCache::Full { occupied }
            if fits && ws.h.rows() == n && ws.h.cols() == n && occupied <= n =>
        {
            let other = (n > 1).then(|| ws.h.col(DenseCache::neighbour(full, n)));
            Some((full, ws.h.col(full), other))
        }
        _ => None,
    }
}

/// Solve the structure's eigenproblem with the production solver path (the
/// front half of the dense body, [`TbCalculator::density_with`]) and
/// report residual + orthogonality of a sampled occupied eigenpair.
///
/// `step` is carried through into the [`HealthRecord`] so the JSONL line
/// lands at the right place in the run stream. The probe allocates its own
/// workspace: it must not perturb the MD loop's persistent buffers (the
/// disabled-sink bitwise guarantee covers runs without a recorder; probing
/// is explicitly an extra-work path).
pub fn eigensolver_health(
    model: &dyn TbModel,
    s: &Structure,
    occupation: OccupationScheme,
    solver: DenseSolver,
    step: usize,
) -> Result<HealthRecord, TbError> {
    let mut ws = Workspace::new();
    let mut calc = TbCalculator::with_occupation(model, occupation);
    calc.solver = solver;
    calc.density_with(s, &mut ws, &mut PhaseTimings::default())?;
    // Middle of the solved window (all `n` states after a one-stage solve):
    // clear of both the deflation-prone band edges and the Fermi-window
    // boundary.
    let index = OrbitalIndex::new(s);
    let n = index.total();
    let pair = sampled_pair(&ws, n, n / 2).expect("the solve leaves eigenvectors");
    // The pristine `H` whole: the solvers overwrite their input in place.
    let mut h0 = Matrix::default();
    assemble_hamiltonian_into(s, ws.neighbors.list(), model, &ws.bonds, &index, &mut h0);
    Ok(probe(&h0, &ws.values, pair, step))
}

/// Incremental health probe on the *cached* eigenpairs of the last dense
/// solve — cheap enough to run every step.
///
/// Where [`eigensolver_health`] pays for an independent full solve, this
/// checks the production solve's own output: it rebuilds a pristine `H`
/// into the [`Workspace::health_h`] scratch (one `O(n²)` assembly, reusing
/// the workspace's current neighbour list and bond table) and measures
/// `‖Hv − λv‖∞` plus an orthogonality spot-check on the sampled occupied
/// eigenpair left behind by the last `evaluate_with`. No eigensolve happens, so the cost is a
/// Hamiltonian build and one matvec.
///
/// Returns `Ok(None)` when the workspace holds no consumable eigenpairs —
/// a fresh workspace, or a last evaluation by an engine that solves in
/// per-rank or per-region buffers (distributed, O(N)). Callers fall back to the strided [`eigensolver_health`] probe.
pub fn cached_eigensolver_health(
    model: &dyn TbModel,
    s: &Structure,
    ws: &mut Workspace,
    step: usize,
) -> Result<Option<HealthRecord>, TbError> {
    let (DenseCache::Sliced { occupied } | DenseCache::Full { occupied }) = ws.dense_cache else {
        return Ok(None);
    };
    let index = OrbitalIndex::new(s);
    // Middle of the occupied window, as in the full probe. A cache marker
    // is only trustworthy if the buffers it points at still match the
    // structure being probed.
    let Some(pair) = sampled_pair(ws, index.total(), occupied / 2) else {
        return Ok(None);
    };
    if ws.values.len() <= pair.0 {
        return Ok(None);
    }
    // The last evaluation updated `ws.neighbors` and `ws.bonds` for exactly
    // these positions.
    let (nl, bonds) = (ws.neighbors.list(), &ws.bonds);
    ws.grown += assemble_hamiltonian_into(s, nl, model, bonds, &index, &mut ws.health_h) as usize;
    Ok(Some(probe(&ws.health_h, &ws.values, pair, step)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silicon::silicon_gsp;
    use tbmd_structure::{bulk_diamond, Species};

    #[test]
    fn healthy_solve_has_tiny_residual() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 2, 2, 2); // 64 atoms, 256 orbitals
        let health = eigensolver_health(
            &model,
            &s,
            OccupationScheme::Fermi { kt: 0.1 },
            DenseSolver::TwoStage,
            0,
        )
        .expect("probe");
        assert_eq!(health.n_orbitals, 256);
        assert!(health.sampled_index > 0 && health.sampled_index < 256);
        assert!(
            health.residual_inf < 1e-8,
            "residual {:.3e}",
            health.residual_inf
        );
        assert!(
            health.orthogonality < 1e-10,
            "orthogonality {:.3e}",
            health.orthogonality
        );
    }

    #[test]
    fn probe_agrees_across_solvers() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        for solver in [DenseSolver::TwoStage, DenseSolver::FullQl] {
            let health =
                eigensolver_health(&model, &s, OccupationScheme::Fermi { kt: 0.1 }, solver, 3)
                    .expect("probe");
            assert_eq!(health.step, 3);
            assert!(health.residual_inf < 1e-8, "{solver:?}");
        }
    }

    /// The incremental probe consumes what the production solve left behind
    /// — both cache layouts (sliced two-stage, full QL) — and reports the
    /// same tiny residuals the independent full probe would.
    #[test]
    fn cached_probe_checks_production_eigenpairs() {
        use crate::calculator::TbCalculator;

        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 2, 2, 2); // 256 orbitals
        for solver in [DenseSolver::TwoStage, DenseSolver::FullQl] {
            let calc = TbCalculator::with_solver(&model, solver);
            let mut ws = Workspace::new();
            calc.compute_with(&s, &mut ws).expect("evaluation");
            match (solver, ws.dense_cache) {
                (DenseSolver::TwoStage, DenseCache::Sliced { occupied }) => {
                    assert!(occupied > 0 && occupied <= 256)
                }
                (DenseSolver::FullQl, DenseCache::Full { occupied }) => {
                    assert!(occupied > 0 && occupied <= 256)
                }
                (solver, cache) => panic!("{solver:?} left unexpected cache {cache:?}"),
            }
            let health = cached_eigensolver_health(&model, &s, &mut ws, 7)
                .expect("probe")
                .expect("cache present");
            assert_eq!(health.step, 7);
            assert_eq!(health.n_orbitals, 256);
            assert!(
                health.residual_inf < 1e-8,
                "{solver:?}: residual {:.3e}",
                health.residual_inf
            );
            assert!(
                health.orthogonality < 1e-10,
                "{solver:?}: orthogonality {:.3e}",
                health.orthogonality
            );
        }
    }

    /// No cached eigenpairs → `None`, never a bogus record.
    #[test]
    fn cached_probe_declines_without_a_cache() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut ws = Workspace::new();
        assert!(cached_eigensolver_health(&model, &s, &mut ws, 0)
            .expect("probe")
            .is_none());
    }
}

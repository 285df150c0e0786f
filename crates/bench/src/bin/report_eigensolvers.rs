//! **Experiment T4b** — the two-stage blocked eigensolver against the
//! one-stage Householder+QL solve, on random symmetric matrices and on real
//! TB Hamiltonians: the partial path (QL values + inverse-iteration vectors
//! for the lowest n/2 states) against the full one-stage solve, each with
//! residual and orthogonality columns, and the worst eigenvalue deviation
//! from the QL spectrum. The timings are what `TWO_STAGE_MIN_DIM` is chosen
//! from, so they are taken as an MD step sees them: warm, on a reused
//! workspace, the minimum of several calls after an untimed one.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_eigensolvers [-- max_n [check]]`
//!
//! With `check` anywhere on the command line the binary exits non-zero
//! unless every residual, orthogonality defect and eigenvalue deviation is
//! at round-off — the CI smoke gate for the eigensolver stack.

use std::time::{Duration, Instant};
use tbmd::linalg::{
    eig_residual, eigh_into, eigh_partial_into, orthogonality_defect, Eigh, EighWorkspace, Matrix,
};
use tbmd::{silicon_gsp, Species};
use tbmd_bench::{check_gate, fmt_e, fmt_ms, BenchArgs, Report, ReportTable};
use tbmd_model::{build_hamiltonian, OrbitalIndex, TbModel};
use tbmd_structure::NeighborList;

/// Timed calls per solver, after one untimed call.
const TIMED_CALLS: usize = 7;

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = next();
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    a
}

fn tb_hamiltonian(reps: usize) -> Matrix {
    let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
    let model = silicon_gsp();
    let nl = NeighborList::build(&s, model.cutoff());
    let index = OrbitalIndex::new(&s);
    build_hamiltonian(&s, &nl, &model, &index)
}

/// Minimum wall time of [`TIMED_CALLS`] calls of `solve`, after one
/// untimed call that grows every buffer it reuses.
fn warm_min(mut solve: impl FnMut()) -> Duration {
    solve();
    (0..TIMED_CALLS)
        .map(|_| {
            let t0 = Instant::now();
            solve();
            t0.elapsed()
        })
        .min()
        .expect("at least one timed call")
}

fn main() {
    let args = BenchArgs::parse();
    let max_n = args.pos_usize(0, 256);
    let mut check_worst = 0.0f64;
    let mut t4b = ReportTable::new(
        "T4b: one-stage QL vs two-stage partial solve (warm, min of 7 calls)",
        &[
            "matrix",
            "QL/ms",
            "partial/ms",
            "k",
            "QL resid",
            "QL orth",
            "part resid",
            "part orth",
            "max |Δλ|",
        ],
    );
    // 64, 96 (either side of the crossover), then doubling from 128.
    let doubling = std::iter::successors(Some(128usize), |n| Some(2 * n));
    let mut matrices: Vec<(String, Matrix)> = [64usize, 96]
        .into_iter()
        .chain(doubling)
        .take_while(|&n| n <= max_n)
        .map(|n| (format!("random {n}"), random_symmetric(n, n as u64)))
        .collect();
    matrices.push(("Si-8 H (32)".into(), tb_hamiltonian(1)));
    matrices.push(("Si-64 H (256)".into(), tb_hamiltonian(2)));

    for (label, a) in &matrices {
        let n = a.rows();
        // Householder + QL, every eigenvector.
        let mut ws = EighWorkspace::default();
        let mut ql = Eigh {
            values: Vec::new(),
            vectors: a.clone(),
        };
        let t_ql = warm_min(|| {
            ql.vectors.as_mut_slice().copy_from_slice(a.as_slice());
            eigh_into(&mut ql.vectors, &mut ql.values, &mut ws).expect("QL");
        });
        let ql_resid = eig_residual(a, &ql);
        let ql_orth = orthogonality_defect(&ql.vectors);

        // Partial spectrum at half filling (the TBMD occupied window).
        let k = (n / 2).max(1);
        let mut part_a = a.clone();
        let mut part_values = Vec::new();
        let mut part_vectors = Matrix::default();
        let t_part = warm_min(|| {
            part_a.as_mut_slice().copy_from_slice(a.as_slice());
            eigh_partial_into(&mut part_a, k, &mut part_values, &mut part_vectors, &mut ws)
                .expect("partial");
        });
        let part_eig = Eigh {
            values: part_values[..k].to_vec(),
            vectors: part_vectors,
        };
        let part_resid = eig_residual(a, &part_eig);
        let part_orth = orthogonality_defect(&part_eig.vectors);
        let part_dev: f64 = ql
            .values
            .iter()
            .zip(&part_values)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);

        let scale = 1.0 / (n as f64);
        for q in [
            ql_resid * scale,
            ql_orth * scale,
            part_resid * scale,
            part_orth * scale,
            part_dev,
        ] {
            check_worst = check_worst.max(q);
        }
        t4b.row(vec![
            label.clone(),
            fmt_ms(t_ql),
            fmt_ms(t_part),
            k.to_string(),
            fmt_e(ql_resid),
            fmt_e(ql_orth),
            fmt_e(part_resid),
            fmt_e(part_orth),
            fmt_e(part_dev),
        ]);
    }
    let mut report = Report::new("eigensolvers");
    report
        .table(t4b)
        .note("The one-stage solve computes every eigenvector, the partial path only")
        .note("the lowest k; the crossover is TWO_STAGE_MIN_DIM. Residuals and")
        .note("orthogonality at round-off.");
    report.emit(&args);
    if args.check {
        const CHECK_TOL: f64 = 1e-8;
        check_gate(
            check_worst < CHECK_TOL,
            &format!("worst normalized defect {check_worst:.2e} (tolerance {CHECK_TOL:.0e})"),
        );
    }
}

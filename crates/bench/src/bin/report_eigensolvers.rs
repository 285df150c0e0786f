//! **Experiment T4b** — the two-stage blocked eigensolver against the
//! one-stage Householder+QL reference, on random symmetric matrices and on
//! real TB Hamiltonians: blocked Householder reduction + compact-WY full
//! solve, and the partial path (QL values + inverse-iteration vectors for
//! the lowest n/2 states) — each with residual and orthogonality columns,
//! and the worst eigenvalue deviation from the QL spectrum.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_eigensolvers [-- max_n [check]]`
//!
//! With `check` anywhere on the command line the binary exits non-zero
//! unless every residual, orthogonality defect and eigenvalue deviation is
//! at round-off — the CI smoke gate for the eigensolver stack.

use std::time::Instant;
use tbmd::linalg::{
    eig_residual, eigh, eigh_blocked_into, eigh_partial_into, orthogonality_defect, EighWorkspace,
    Matrix,
};
use tbmd::{silicon_gsp, Species};
use tbmd_bench::{check_gate, fmt_e, fmt_ms, BenchArgs, Report, ReportTable};
use tbmd_model::{build_hamiltonian, OrbitalIndex, TbModel};
use tbmd_structure::NeighborList;

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

fn main() {
    let args = BenchArgs::parse();
    let max_n = args.pos_usize(0, 256);
    let mut check_worst = 0.0f64;
    let mut t4b = ReportTable::new(
        "T4b: two-stage blocked solver (full + partial spectrum)",
        &[
            "matrix",
            "QL/ms",
            "blkFull/ms",
            "partial/ms",
            "k",
            "blk resid",
            "blk orth",
            "part resid",
            "part orth",
            "max |Δλ|",
        ],
    );
    let mut matrices: Vec<(String, Matrix)> = Vec::new();
    let mut n = 64usize;
    while n <= max_n {
        matrices.push((format!("random {n}"), random_symmetric(n, n as u64)));
        n *= 2;
    }
    matrices.push(("Si-8 H (32)".into(), tb_hamiltonian(1)));
    matrices.push(("Si-64 H (256)".into(), tb_hamiltonian(2)));

    for (label, a) in &matrices {
        // Householder + QL.
        let t0 = Instant::now();
        let ql = eigh(a.clone()).expect("QL");
        let t_ql = t0.elapsed();
        let max_dev = |other: &tbmd::linalg::Eigh| -> f64 {
            ql.values
                .iter()
                .zip(&other.values)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max)
        };

        // Two-stage blocked solver, full spectrum.
        let n = a.rows();
        let mut ws = EighWorkspace::default();
        let mut blk = a.clone();
        let mut blk_values = Vec::new();
        let t0 = Instant::now();
        eigh_blocked_into(&mut blk, &mut blk_values, &mut ws).expect("blocked");
        let t_blk = t0.elapsed();
        let blk_eig = tbmd::linalg::Eigh {
            values: blk_values,
            vectors: blk,
        };
        let blk_resid = eig_residual(a, &blk_eig);
        let blk_orth = orthogonality_defect(&blk_eig.vectors);

        // Partial spectrum at half filling (the TBMD occupied window).
        let k = (n / 2).max(1);
        let mut part_a = a.clone();
        let mut part_values = Vec::new();
        let mut part_vectors = Matrix::default();
        let t0 = Instant::now();
        eigh_partial_into(&mut part_a, k, &mut part_values, &mut part_vectors, &mut ws)
            .expect("partial");
        let t_part = t0.elapsed();
        let part_eig = tbmd::linalg::Eigh {
            values: part_values[..k].to_vec(),
            vectors: part_vectors,
        };
        let part_resid = eig_residual(a, &part_eig);
        let part_orth = orthogonality_defect(&part_eig.vectors);
        let blk_dev = max_dev(&blk_eig);
        let part_dev: f64 = ql
            .values
            .iter()
            .zip(&part_eig.values)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);

        let scale = 1.0 / (n as f64);
        for q in [
            blk_resid * scale,
            blk_orth * scale,
            part_resid * scale,
            part_orth * scale,
            blk_dev,
            part_dev,
        ] {
            check_worst = check_worst.max(q);
        }
        t4b.row(vec![
            label.clone(),
            fmt_ms(t_ql),
            fmt_ms(t_blk),
            fmt_ms(t_part),
            k.to_string(),
            fmt_e(blk_resid),
            fmt_e(blk_orth),
            fmt_e(part_resid),
            fmt_e(part_orth),
            fmt_e(blk_dev.max(part_dev)),
        ]);
    }
    let mut report = Report::new("eigensolvers");
    report
        .table(t4b)
        .note("Two-stage: partial path computes only the lowest k eigenvectors, so")
        .note("it undercuts every full solve; residuals/orthogonality at round-off.");
    report.emit(&args);
    if args.check {
        const CHECK_TOL: f64 = 1e-8;
        check_gate(
            check_worst < CHECK_TOL,
            &format!("worst normalized defect {check_worst:.2e} (tolerance {CHECK_TOL:.0e})"),
        );
    }
}

//! **Experiment T1** — per-phase serial timing breakdown of one TBMD step
//! versus system size.
//!
//! Regenerates the canonical "where does the time go" table: neighbour-list
//! build, Hamiltonian assembly, diagonalization, density matrix, forces.
//! Expected shape: diagonalization is O(N³) and its share grows with N until
//! it dominates — the observation that motivated both the parallel
//! eigensolvers and the O(N) methods.
//!
//! The table is measured through a persistent [`Workspace`], so the
//! neighbour column reflects the amortized skin-list path (refreshes, not
//! rebuilds) and the density column the bond-block density stage; the `nl` column
//! reports rebuild/refresh counts over the samples. A cold (fresh-workspace)
//! evaluation is cross-checked against the warm one to 1e-10.
//!
//! A second table shows the same breakdown for the message-passing
//! [`DistributedTb`] engine (rank 0's wall clock per phase, all virtual
//! ranks time-sharing this host), with the collective windows carved out
//! into a dedicated `comm` column.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_phase_breakdown [-- max_reps]`

use tbmd::linscale::LinearScalingTb;
use tbmd::trace::{Counter, ScopedSink};
use tbmd::{silicon_gsp, DistributedTb, ForceProvider, Species, TbCalculator, Workspace};
use tbmd_bench::{fmt_f, fmt_ms, BenchArgs, Report, ReportTable};

fn main() {
    let args = BenchArgs::parse();
    let max_reps = args.pos_usize(0, 3);
    let model = silicon_gsp();
    let calc = TbCalculator::new(&model);
    // Observe the whole report so the kernel-layer counters (kernel_flops,
    // chebyshev_matvecs) land in the tables below.
    let scope = ScopedSink::new("phase_breakdown");
    let _observing = scope.enter();

    let mut t1 = ReportTable::new(
        "T1: per-phase time per TBMD force evaluation, Si diamond supercells (serial, this host)",
        &[
            "N",
            "orbitals",
            "nbrs/ms",
            "H/ms",
            "diag/ms",
            "density/ms",
            "forces/ms",
            "total/ms",
            "diag share",
            "kern GF/s",
            "nl",
        ],
    );
    for reps in 1..=max_reps {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
        // Warm once, then measure an averaged step through the same
        // workspace — the steady state an MD loop sees.
        let mut ws = Workspace::new();
        let warmup = calc.evaluate_with(&s, &mut ws).expect("evaluation");
        let n_samples = if s.n_atoms() <= 64 { 3 } else { 1 };
        let mut acc = tbmd::model::PhaseTimings::default();
        let mut eval = None;
        let before = scope.snapshot();
        for _ in 0..n_samples {
            let e = calc.evaluate_with(&s, &mut ws).expect("evaluation");
            acc.accumulate(&e.timings);
            eval = Some(e);
        }
        let kernel_flops = scope
            .snapshot()
            .since(&before)
            .counter(Counter::KernelFlops);
        // Equivalence check: the cold path must agree to 1e-10.
        let warm = eval.expect("at least one sample");
        let de = (warm.energy - warmup.energy).abs();
        let df = warm
            .forces
            .iter()
            .zip(&warmup.forces)
            .map(|(a, b)| (*a - *b).max_abs())
            .fold(0.0f64, f64::max);
        let cold = calc.evaluate(&s).expect("evaluation");
        let de_cold = (warm.energy - cold.energy).abs();
        assert!(
            de < 1e-10 && de_cold < 1e-10 && df < 1e-10,
            "warm/cold paths diverged"
        );
        let scale = 1.0 / n_samples as f64;
        let t = |d: std::time::Duration| d.mul_f64(scale);
        let total = t(acc.total());
        let diag_share = acc.diagonalize.as_secs_f64() / acc.total().as_secs_f64();
        t1.row(vec![
            s.n_atoms().to_string(),
            s.n_orbitals().to_string(),
            fmt_ms(t(acc.neighbors)),
            fmt_ms(t(acc.hamiltonian)),
            fmt_ms(t(acc.diagonalize)),
            fmt_ms(t(acc.density)),
            fmt_ms(t(acc.forces)),
            fmt_ms(total),
            format!("{}%", fmt_f(100.0 * diag_share, 1)),
            fmt_f(kernel_flops as f64 / 1e9 / acc.total().as_secs_f64(), 2),
            format!("{}r/{}f", acc.nl_rebuilds, acc.nl_refreshes),
        ]);
    }

    // Distributed engine: per-phase wall times measured on rank 0, through
    // the engine's persistent per-rank workspace pool (warm steady state).
    let mut t1b = ReportTable::new(
        "T1b: per-phase time, distributed two-stage sliced engine (rank 0 wall clock)",
        &[
            "N",
            "P",
            "nbrs/ms",
            "H/ms",
            "diag/ms",
            "density/ms",
            "forces/ms",
            "comm/ms",
            "total/ms",
            "diag share",
        ],
    );
    for reps in 1..=max_reps.min(2) {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
        for p in [2usize, 4] {
            let mut ws = Workspace::new();
            let dist = DistributedTb::new(&model, p);
            dist.evaluate_with(&s, &mut ws).expect("evaluation"); // warmup
            let eval = dist.evaluate_with(&s, &mut ws).expect("evaluation");
            let t = &eval.timings;
            let diag_share = t.diagonalize.as_secs_f64() / t.total().as_secs_f64();
            t1b.row(vec![
                s.n_atoms().to_string(),
                p.to_string(),
                fmt_ms(t.neighbors),
                fmt_ms(t.hamiltonian),
                fmt_ms(t.diagonalize),
                fmt_ms(t.density),
                fmt_ms(t.forces),
                fmt_ms(t.communication),
                fmt_ms(t.total()),
                format!("{}%", fmt_f(100.0 * diag_share, 1)),
            ]);
        }
    }
    // O(N) engine at the same size: one evaluation with its matvec count
    // and the block-recurrence throughput from the kernel_flops counter.
    let mut t1c = ReportTable::new(
        "T1c: linear-scaling engine (Si-64, warm, order 350, untruncated)",
        &["eval/ms", "matvecs", "GFLOP/s"],
    );
    {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, 2, 2, 2);
        let engine = LinearScalingTb::new(&model);
        let mut ws = Workspace::new();
        engine.evaluate_with(&s, &mut ws).expect("warmup");
        let before = scope.snapshot();
        let t0 = std::time::Instant::now();
        engine.evaluate_with(&s, &mut ws).expect("evaluation");
        let wall = t0.elapsed();
        let delta = scope.snapshot().since(&before);
        t1c.row(vec![
            fmt_ms(wall),
            delta.counter(Counter::ChebyshevMatvecs).to_string(),
            fmt_f(
                delta.counter(Counter::KernelFlops) as f64 / wall.as_secs_f64() / 1e9,
                2,
            ),
        ]);
    }

    let mut report = Report::new("phase_breakdown");
    report
        .table(t1)
        .table(t1b)
        .table(t1c)
        .note("Shape check: diag/ms grows ~N³ and its share increases with N.")
        .note("nl = neighbour-list rebuilds/refreshes over the measured samples (static atoms: all refreshes).")
        .note("All P virtual ranks time-share this host, so distributed totals exceed")
        .note("serial ones; the per-phase *shape* (diag dominating, density next) is the datum.");
    report.emit(&args);
}

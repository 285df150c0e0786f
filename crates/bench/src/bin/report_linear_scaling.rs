//! **Experiment F5** — O(N) Chebyshev Fermi-operator expansion versus exact
//! diagonalization: accuracy knobs and the time-versus-N crossover.
//!
//! Three sub-tables: (a) energy/force error versus Chebyshev order at fixed
//! radius, (b) error versus localization radius at fixed order, (c) wall
//! time, multiply-adds per atom and energy error versus N for both engines
//! at the settings of the `si216-linscale-nve` benchmark workload (order
//! 350, r_loc 6.0 Å, kT 0.2 eV). Expected: spectral convergence in the
//! order, exponential-ish radius convergence for gapped Si, flat
//! multiply-adds per atom (the O(N) signature) and a dense-engine N³
//! blow-up.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_linear_scaling [-- max_reps [check]]`
//!
//! With `check` the binary exits non-zero unless (a) multiply-adds per atom
//! stay flat within 1.25× from the smallest to the largest cell of (c),
//! (b) the O(N) energy is within 20 meV/atom of the dense one on Si-216
//! (the benchmark's size and gate; needs `max_reps ≥ 3`) and
//! (c) the block recurrence reproduces a scalar per-column reference to
//! 1e-12 — counts and values only, no timings.

use std::time::Instant;
use tbmd::{silicon_gsp, ForceProvider, LinearScalingTb, OccupationScheme, Species, TbCalculator};
use tbmd_bench::{check_gate, fmt_e, fmt_f, fmt_s, BenchArgs, RegionFixture, Report, ReportTable};
use tbmd_model::TbModel;
use tbmd_structure::Structure;

/// Largest deviation, over `order` terms, of the block recurrence of atom 0
/// of `s` (region radius `r_loc`) from a scalar recurrence run one column at
/// a time on the dense restriction of H.
fn blocked_vs_scalar(s: &Structure, model: &dyn TbModel, r_loc: f64, order: usize) -> f64 {
    let fx = RegionFixture::new(s, model, r_loc);
    let (region, h, (shift, scale)) = (&fx.region, &fx.h, fx.window);
    let orbs = &region.orbitals;
    let n = orbs.len();
    let a: Vec<Vec<f64>> = (orbs.iter())
        .map(|&g| orbs.iter().map(|&c| h.get(g, c)).collect())
        .collect();
    let apply = |x: &[f64]| -> Vec<f64> {
        let dot = |l: usize| a[l].iter().zip(x).map(|(v, y)| v * y).sum::<f64>();
        (0..n).map(|l| (dot(l) - shift * x[l]) / scale).collect()
    };
    let mut rec = fx.recurrence(0);
    let mut prev: Vec<Vec<f64>> = vec![vec![0.0; n]; 4];
    let mut cur: Vec<Vec<f64>> = (0..4)
        .map(|nu| {
            orbs.iter()
                .map(|&g| f64::from(g == fx.index.offset(0) + nu))
                .collect()
        })
        .collect();
    let mut worst = 0.0f64;
    for k in 1..order {
        rec.advance();
        for nu in 0..4 {
            let factor = if k == 1 { 1.0 } else { 2.0 };
            let ht = apply(&cur[nu]);
            let next: Vec<f64> = (0..n).map(|l| factor * ht[l] - prev[nu][l]).collect();
            for (l, &g) in orbs.iter().enumerate() {
                let row = region.local_index(g).expect("inside");
                worst = worst.max((rec.current()[row][nu] - next[l]).abs());
            }
            prev[nu] = std::mem::replace(&mut cur[nu], next);
        }
    }
    worst
}

fn max_force_dev(a: &[tbmd::Vec3], b: &[tbmd::Vec3]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).max_abs())
        .fold(0.0, f64::max)
}

fn main() {
    let args = BenchArgs::parse();
    let max_reps = args.pos_usize(0, 4).max(3);
    let kt = 0.3;
    let model = silicon_gsp();
    let dense = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt });

    // (a) order convergence, untruncated, 8 atoms (perturbed so forces are
    // non-trivial).
    let mut s8 = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        s8.perturb(&mut rng, 0.05);
    }
    let ref8 = dense.compute(&s8).expect("dense");
    let e_ref8 = ref8.energy;
    let mut f5a = ReportTable::new(
        "F5a: Chebyshev-order convergence (Si 8 atoms, untruncated, kT = 0.3 eV)",
        &["order", "|ΔE|/atom/eV", "max |ΔF|/eV/Å"],
    );
    for order in [50usize, 100, 200, 400] {
        let engine = LinearScalingTb::new(&model).with_kt(kt).with_order(order);
        let eval = engine.evaluate(&s8).expect("O(N)");
        f5a.row(vec![
            order.to_string(),
            fmt_e((eval.energy - e_ref8).abs() / 8.0),
            fmt_e(max_force_dev(&eval.forces, &ref8.forces)),
        ]);
    }

    // (b) radius convergence at order 250, 64 atoms (perturbed).
    let mut s64 = tbmd::structure::bulk_diamond(Species::Silicon, 2, 2, 2);
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        s64.perturb(&mut rng, 0.05);
    }
    let ref64 = dense.compute(&s64).expect("dense");
    let e_ref64 = ref64.energy;
    let mut f5b = ReportTable::new(
        "F5b: localization-radius convergence (Si 64 atoms, order 250)",
        &[
            "r_loc/Å",
            "orbitals/region",
            "|ΔE|/atom/eV",
            "max |ΔF|/eV/Å",
        ],
    );
    for r_loc in [3.0f64, 4.0, 5.2, 6.5] {
        let engine = LinearScalingTb::new(&model)
            .with_kt(kt)
            .with_order(250)
            .with_r_loc(r_loc);
        let eval = engine.evaluate(&s64).expect("O(N)");
        let report = engine.last_report().expect("report");
        f5b.row(vec![
            fmt_f(r_loc, 1),
            (report.total_region_orbitals / s64.n_atoms()).to_string(),
            fmt_e((eval.energy - e_ref64).abs() / 64.0),
            fmt_e(max_force_dev(&eval.forces, &ref64.forces)),
        ]);
    }

    // (c) time vs N at the benchmark's O(N) settings (perturbed cells).
    let (kt_c, order_c, r_loc_c) = (0.2, 350usize, 6.0);
    let dense_c = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: kt_c });
    let mut f5c = ReportTable::new(
        "F5c: dense O(N³) vs linear-scaling wall time per force evaluation \
         (order 350, r_loc 6.0 Å, kT 0.2 eV, this host)",
        &[
            "N",
            "dense/s",
            "O(N)/s",
            "dense/O(N)",
            "M mul-adds/atom",
            "|ΔE|/atom/meV",
        ],
    );
    let mut ops_per_atom = Vec::new();
    let mut err216_mev = f64::NAN;
    for reps in 2..=max_reps {
        let mut s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
        {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            s.perturb(&mut rng, 0.02);
        }
        let n = s.n_atoms();
        let t0 = Instant::now();
        let reference = dense_c.compute(&s).expect("dense");
        let t_dense = t0.elapsed().as_secs_f64();
        let engine = LinearScalingTb::new(&model)
            .with_kt(kt_c)
            .with_order(order_c)
            .with_r_loc(r_loc_c);
        let t0 = Instant::now();
        let eval = engine.evaluate(&s).expect("O(N)");
        let t_on = t0.elapsed().as_secs_f64();
        let report = engine.last_report().expect("report");
        let err_mev = (eval.energy - reference.energy).abs() / n as f64 * 1e3;
        if n == 216 {
            err216_mev = err_mev;
        }
        ops_per_atom.push(report.total_matvec_ops as f64 / n as f64);
        f5c.row(vec![
            n.to_string(),
            fmt_s(t_dense),
            fmt_s(t_on),
            fmt_f(t_dense / t_on, 2),
            fmt_f(report.total_matvec_ops as f64 / n as f64 / 1e6, 2),
            fmt_f(err_mev, 2),
        ]);
    }
    let mut report = Report::new("linear_scaling");
    report
        .table(f5a)
        .table(f5b)
        .table(f5c)
        .note("Shape check: F5a error falls spectrally with order; F5b error falls")
        .note("with radius; F5c multiply-adds/atom flat while the dense/O(N) ratio grows")
        .note("with N — the crossover the 1994 linear-scaling papers reported at a few")
        .note("hundred atoms.");
    report.emit(&args);

    if args.check {
        let (first, last) = (ops_per_atom[0], ops_per_atom[ops_per_atom.len() - 1]);
        let ratio = first.max(last) / first.min(last);
        check_gate(
            ratio <= 1.25,
            &format!(
                "multiply-adds per atom flat from N=64 to N={}: {:.3e} vs {:.3e} ({ratio:.3}x, ceiling 1.25x)",
                8 * max_reps.pow(3),
                first,
                last
            ),
        );
        check_gate(
            err216_mev <= 20.0,
            &format!("O(N) vs dense on Si-216 at order 350 / r_loc 6.0: {err216_mev:.2} meV/atom (ceiling 20)"),
        );
        let dev = [4.0, 6.0, f64::INFINITY]
            .into_iter()
            .map(|r_loc| blocked_vs_scalar(&s64, &model, r_loc, 60))
            .fold(0.0, f64::max);
        check_gate(
            dev <= 1e-12,
            &format!(
                "block recurrence vs scalar reference on Si-64 regions: {dev:.2e} (ceiling 1e-12)"
            ),
        );
    }
}

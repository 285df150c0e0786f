//! The O(N) Chebyshev engine against exact diagonalization (F5) and all
//! engines on the era's carbon workloads (F6).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::structure::{bulk_diamond, fullerene_c60, nanotube};
use tbmd::{
    carbon_xwch, silicon_gsp, Budget, DistributedTb, ForceProvider, LinearScalingTb,
    OccupationScheme, Species, Structure, TbCalculator, Vec3, Workspace,
};

use crate::report::{best_of, fmt_e, fmt_f, Report, Table};

fn perturbed_si(reps: usize, seed: u64, amplitude: f64) -> Structure {
    let mut s = bulk_diamond(Species::Silicon, reps, reps, reps);
    s.perturb(&mut StdRng::seed_from_u64(seed), amplitude);
    s
}

fn max_force_dev(a: &[Vec3], b: &[Vec3]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).max_abs())
        .fold(0.0, f64::max)
}

/// F5: error against order and radius, then cold wall time, region bytes,
/// multiply-adds per atom and error against N for Si cells up to `size`³
/// (default 4, at least 3) at the `si216-linscale-nve` settings; the dense
/// reference runs up to 4³ (N = 512).
pub fn linear_scaling(size: Option<usize>) -> Report {
    let max_reps = size.unwrap_or(4).max(3);
    let kt = 0.3;
    let model = silicon_gsp();
    let dense = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt });

    let s8 = perturbed_si(1, 3, 0.05);
    let ref8 = dense.compute(&s8).expect("dense");
    let mut f5a = Table::new(
        "F5a: Chebyshev-order convergence (Si-8, untruncated, kT = 0.3 eV)",
        &[
            "order",
            "order run",
            "window width/eV",
            "|ΔE|/atom/eV",
            "max |ΔF|/eV/Å",
        ],
    );
    for order in [50usize, 100, 200, 400] {
        let engine = LinearScalingTb::new(&model).with_kt(kt).with_order(order);
        let eval = engine.evaluate(&s8).expect("O(N)");
        let window = engine.last_report().expect("report").window;
        f5a.row(vec![
            order.to_string(),
            window.order.to_string(),
            fmt_f(2.0 * window.scale, 2),
            fmt_e((eval.energy - ref8.energy).abs() / 8.0),
            fmt_e(max_force_dev(&eval.forces, &ref8.forces)),
        ]);
    }

    let s64 = perturbed_si(2, 5, 0.05);
    let ref64 = dense.compute(&s64).expect("dense");
    let mut f5b = Table::new(
        "F5b: localization-radius convergence (Si-64, order ≤ 250)",
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
            fmt_e((eval.energy - ref64.energy).abs() / 64.0),
            fmt_e(max_force_dev(&eval.forces, &ref64.forces)),
        ]);
    }

    let (kt_c, order_c, r_loc_c) = (0.2, 350usize, 6.0);
    let dense_c = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: kt_c });
    let mut f5c = Table::new(
        "F5c: dense vs linear-scaling wall time per force evaluation, cold and hot \
         (order ≤ 350, r_loc 6.0 Å, kT 0.2 eV, this host; dense up to N = 512)",
        &[
            "N",
            "order run",
            "dense/s",
            "O(N)/s",
            "hot O(N)/s",
            "dense/O(N)",
            "O(N) ms/atom",
            "region KB/atom",
            "M mul-adds/atom",
            "|ΔE|/atom/meV",
        ],
    );
    for reps in 2..=max_reps {
        let s = perturbed_si(reps, 7, 0.02);
        let n = s.n_atoms() as f64;
        let dense = (reps <= 4).then(|| best_of(1, || dense_c.compute(&s).expect("dense")));
        // Each evaluation by a fresh engine: cold, region candidates included.
        let engine = || {
            LinearScalingTb::new(&model)
                .with_kt(kt_c)
                .with_order(order_c)
                .with_r_loc(r_loc_c)
        };
        let cold = || {
            let engine = engine();
            let eval = engine.evaluate(&s).expect("O(N)");
            (eval, engine.last_report().expect("report"))
        };
        let (t_on, (eval, report)) = best_of(5, cold);
        // The same structure again by one engine and workspace: hot, the
        // kept neighbour list and region candidates and one pass each.
        let (warm, mut ws) = (engine(), Workspace::new());
        warm.evaluate_with(&s, &mut ws).expect("O(N)");
        let (t_hot, _) = best_of(5, || warm.evaluate_with(&s, &mut ws).expect("O(N)"));
        let dash = || "—".to_string();
        f5c.row(vec![
            s.n_atoms().to_string(),
            report.window.order.to_string(),
            dense.as_ref().map_or_else(dash, |(t, _)| fmt_f(*t, 3)),
            fmt_f(t_on, 3),
            fmt_f(t_hot, 3),
            dense
                .as_ref()
                .map_or_else(dash, |(t, _)| fmt_f(t / t_on, 2)),
            fmt_f(t_on / n * 1e3, 3),
            fmt_f(report.region_bytes as f64 / n / 1024.0, 2),
            fmt_f(report.total_matvec_ops as f64 / n / 1e6, 2),
            dense.as_ref().map_or_else(dash, |(_, r)| {
                fmt_f((eval.energy - r.energy).abs() / n * 1e3, 2)
            }),
        ]);
    }
    let mut report = Report::default();
    report.table(f5a).table(f5b).table(f5c).note(
        "Errors are against the dense Mermin energy (band + repulsion − T_e S), the quantity \
         the O(N) engine reports. At N = 64 the 6 Å region wraps onto itself in the 10.86 Å cell. \
         `order` is a ceiling: the engine runs ⌈9.3·scale/(π·kT)⌉ steps on its Lanczos window \
         (`order run`; `window width` = 2·scale) when that is fewer, and raising it past that \
         changes nothing. F5c times the best of five cold O(N) evaluations (a fresh engine \
         runs two passes: the moments alone, then ρ at μ's grid point) and of five hot ones \
         (the same structure again through one workspace: one pass); `M mul-adds/atom` counts the cold ones and \
         `region KB/atom` the regions' index views (they hold no copy of H).",
    );
    report
}

/// `f` under a lease of `width` threads from a budget of 2.
fn leased<T>(width: usize, f: impl FnOnce() -> T) -> T {
    Budget::new(2)
        .lease(width)
        .expect("a new budget is free")
        .scoped(f)
}

/// F6: one cold force evaluation of C₆₀ and a (10,0) tube by every engine,
/// the dense one under leases of width 1 and 2.
pub fn applications(_: Option<usize>) -> Report {
    let model = carbon_xwch();
    let systems = [
        ("C60 fullerene", fullerene_c60(1.44)),
        ("(10,0) tube ×2 (80 C)", nanotube(10, 0, 2, 1.42)),
    ];
    let mut table = Table::new(
        "F6: wall time per force evaluation by engine, carbon workloads (this host)",
        &[
            "system",
            "N",
            "dense w1/s",
            "dense w2/s",
            "dist(P=4)/s",
            "O(N)/s",
            "max dense |ΔE|/eV",
            "O(N) |ΔE|/atom",
        ],
    );
    for (label, s) in &systems {
        let energy =
            |engine: &dyn ForceProvider| best_of(1, || engine.evaluate(s).expect("energy"));
        let dense = TbCalculator::new(&model);
        let (t_w1, w1) = leased(1, || energy(&dense));
        let (t_w2, w2) = leased(2, || energy(&dense));
        let (t_dist, dist) = energy(&DistributedTb::new(&model, 4));
        let (t_on, on) = energy(&LinearScalingTb::new(&model).with_kt(0.3).with_order(300));
        // The O(N) energy is the Mermin free energy at its kT: compare with
        // the dense one at the same smearing.
        let (_, smeared) = energy(&TbCalculator::with_occupation(
            &model,
            OccupationScheme::Fermi { kt: 0.3 },
        ));
        let (w1, w2, dist) = (w1.energy, w2.energy, dist.energy);
        table.row(vec![
            label.to_string(),
            s.n_atoms().to_string(),
            fmt_f(t_w1, 3),
            fmt_f(t_w2, 3),
            fmt_f(t_dist, 3),
            fmt_f(t_on, 3),
            fmt_e((w2 - w1).abs().max((dist - w1).abs())),
            fmt_e((on.energy - smeared.energy).abs() / s.n_atoms() as f64),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report
}

//! **Experiment F6** — the engines on the era's marquee carbon workloads:
//! C₆₀ and a (10,0) nanotube segment.
//!
//! Per-step cost by engine (serial / shared-memory / distributed / O(N)),
//! with the engines' energies cross-checked. Carbon clusters and tubes are
//! near-metallic, so the O(N) column needs a high expansion order — the
//! method's documented weakness outside gapped systems.
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_applications`

use std::time::Instant;
use tbmd::{
    carbon_xwch, shared_memory_tb, DistributedTb, ForceProvider, LinearScalingTb, TbCalculator,
};
use tbmd_bench::{fmt_e, fmt_s, BenchArgs, Report, ReportTable};

fn main() {
    let args = BenchArgs::parse();
    let model = carbon_xwch();
    let systems: Vec<(&str, tbmd::Structure)> = vec![
        ("C60 fullerene", tbmd_structure::fullerene_c60(1.44)),
        (
            "(10,0) tube x2 (80 C)",
            tbmd_structure::nanotube(10, 0, 2, 1.42),
        ),
    ];

    let mut table = ReportTable::new(
        "F6: per-force-evaluation wall time by engine, carbon applications (this host)",
        &[
            "system",
            "N",
            "serial/s",
            "shared/s",
            "dist(P=4)/s",
            "O(N)/s",
            "max dense |ΔE|/eV",
            "O(N) |ΔE|/atom",
        ],
    );
    for (label, s) in &systems {
        let serial = TbCalculator::new(&model);
        let t0 = Instant::now();
        let ref_eval = serial.evaluate(s).expect("serial");
        let t_serial = t0.elapsed().as_secs_f64();

        let shared = shared_memory_tb(&model);
        let t0 = Instant::now();
        let sh_eval = shared.evaluate(s).expect("shared");
        let t_shared = t0.elapsed().as_secs_f64();

        let dist = DistributedTb::new(&model, 4);
        let t0 = Instant::now();
        let d_eval = dist.evaluate(s).expect("distributed");
        let t_dist = t0.elapsed().as_secs_f64();

        let on = LinearScalingTb::new(&model).with_kt(0.3).with_order(300);
        let t0 = Instant::now();
        let on_eval = on.evaluate(s).expect("O(N)");
        let t_on = t0.elapsed().as_secs_f64();
        // The O(N) energy omits the entropy term; compare band+rep.
        let serial_smeared =
            TbCalculator::with_occupation(&model, tbmd::OccupationScheme::Fermi { kt: 0.3 });
        let r = serial_smeared.compute(s).expect("dense smeared");
        let e_band_rep = r.band_energy + r.repulsive_energy;

        table.row(vec![
            label.to_string(),
            s.n_atoms().to_string(),
            fmt_s(t_serial),
            fmt_s(t_shared),
            fmt_s(t_dist),
            fmt_s(t_on),
            fmt_e(
                (sh_eval.energy - ref_eval.energy)
                    .abs()
                    .max((d_eval.energy - ref_eval.energy).abs()),
            ),
            fmt_e((on_eval.energy - e_band_rep).abs() / s.n_atoms() as f64),
        ]);
    }
    let mut report = Report::new("applications");
    report
        .table(table)
        .note("Shape check: dense engines agree to round-off; the O(N) per-atom")
        .note("error is larger here than for gapped Si (near-metallic π system) —")
        .note("the documented domain boundary of Fermi-operator truncation.");
    report.emit(&args);
}

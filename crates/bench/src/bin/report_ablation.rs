//! **Ablation study** — the design choices DESIGN.md calls out, each toggled
//! in isolation:
//!
//! * (a) occupation scheme: zero-temperature filling vs Fermi smearing —
//!   smearing costs a tiny Mermin free-energy offset but keeps forces
//!   continuous through level crossings (the reason it is the MD default);
//! * (b) neighbour-list strategy: brute-force O(N²) vs linked-cell O(N).
//!
//! Run: `cargo run --release -p tbmd-bench --bin report_ablation`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tbmd::{
    maxwell_boltzmann, silicon_gsp, MdState, OccupationScheme, Species, TbCalculator,
    VelocityVerlet,
};
use tbmd_bench::{fmt_e, fmt_ms, fmt_s, BenchArgs, Report, ReportTable};
use tbmd_model::TbModel;
use tbmd_structure::NeighborList;

fn main() {
    let args = BenchArgs::parse();
    let model = silicon_gsp();
    let mut report = Report::new("ablation");

    // (a) occupation-scheme ablation: NVE drift at high temperature, where
    // level crossings occur.
    let mut occ_table = ReportTable::new(
        "Ablation (a): occupation scheme vs NVE drift, Si-8 at 2000 K, 40 fs",
        &["occupations", "peak |ΔE|/eV", "relative"],
    );
    for (label, occ) in [
        ("zero-temperature", OccupationScheme::ZeroTemperature),
        ("Fermi kT=0.05 eV", OccupationScheme::Fermi { kt: 0.05 }),
        ("Fermi kT=0.10 eV", OccupationScheme::Fermi { kt: 0.1 }),
        ("Fermi kT=0.30 eV", OccupationScheme::Fermi { kt: 0.3 }),
    ] {
        let calc = TbCalculator::with_occupation(&model, occ);
        let s = tbmd::structure::bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let v = maxwell_boltzmann(&s, 2000.0, &mut rng);
        let mut state = MdState::new(s, v, &calc).expect("init");
        let vv = VelocityVerlet::new(1.0);
        let e0 = state.total_energy();
        let mut peak: f64 = 0.0;
        for _ in 0..40 {
            vv.step(&mut state, &calc).expect("step");
            peak = peak.max((state.total_energy() - e0).abs());
        }
        occ_table.row(vec![label.to_string(), fmt_e(peak), fmt_e(peak / e0.abs())]);
    }
    report.table(occ_table);
    report.note("Reading (a): smearing does not degrade (and near crossings improves)");
    report.note("conservation; it is the default for force continuity.");

    // (b) neighbour-list strategy timing.
    let mut nl_table = ReportTable::new(
        "Ablation (b): neighbour-list strategy (identical entry sets asserted)",
        &["N", "brute O(N²)/ms", "linked O(N)/ms", "speedup"],
    );
    for reps in [3usize, 4, 5] {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
        let cutoff = model.cutoff();
        let t0 = Instant::now();
        let brute = NeighborList::build_brute_force(&s, cutoff);
        let t_brute = t0.elapsed();
        let t0 = Instant::now();
        let linked = NeighborList::build_linked_cell(&s, cutoff);
        let t_linked = t0.elapsed();
        assert_eq!(brute.n_entries(), linked.n_entries());
        nl_table.row(vec![
            s.n_atoms().to_string(),
            fmt_ms(t_brute),
            fmt_ms(t_linked),
            fmt_s(t_brute.as_secs_f64() / t_linked.as_secs_f64()),
        ]);
    }
    report.table(nl_table);
    report.emit(&args);
}

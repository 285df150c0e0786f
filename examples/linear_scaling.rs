//! O(N) versus O(N³): the Chebyshev Fermi-operator engine against exact
//! diagonalization across system sizes — the 1994 linear-scaling frontier.
//!
//! For each Si supercell size the example measures wall-clock per force
//! evaluation for the dense serial engine and the localized O(N) engine
//! (order 350, r_loc 6.0 Å, kT 0.2 eV — the benchmark's settings), along
//! with the O(N) energy error per atom against the dense Mermin energy. The
//! crossover where the linear method wins sits just above 64 atoms on a
//! 2-core host; on the era hardware it sat at a few hundred atoms.
//!
//! Run with: `cargo run --release --example linear_scaling [-- max_reps]`

use std::time::Instant;
use tbmd::{silicon_gsp, ForceProvider, LinearScalingTb, OccupationScheme, Species, TbCalculator};

fn main() {
    let max_reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let kt = 0.2;
    let model = silicon_gsp();
    let dense = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt });

    println!("engine comparison on Si diamond supercells (kT = {kt} eV):\n");
    println!("    N    dense t/s    O(N) t/s    |ΔE|/atom/eV   mul-adds/atom");
    for reps in 2..=max_reps {
        let s = tbmd::structure::bulk_diamond(Species::Silicon, reps, reps, reps);
        let n = s.n_atoms();

        let t0 = Instant::now();
        let dense_result = dense.compute(&s).expect("dense evaluation");
        let t_dense = t0.elapsed().as_secs_f64();

        let engine = LinearScalingTb::new(&model)
            .with_kt(kt)
            .with_order(350)
            .with_r_loc(6.0);
        let t0 = Instant::now();
        let on_result = engine.evaluate(&s).expect("O(N) evaluation");
        let t_on = t0.elapsed().as_secs_f64();
        let report = engine.last_report().expect("report");

        println!(
            "  {:4}   {:9.3}   {:9.3}    {:12.4}   {:9.0}",
            n,
            t_dense,
            t_on,
            (on_result.energy - dense_result.energy).abs() / n as f64,
            report.total_matvec_ops as f64 / n as f64,
        );
    }
    println!("\nReading the table:");
    println!("  · dense time grows ~N³ (diagonalization), O(N) time ~N at fixed radius;");
    println!("  · mul-adds/atom (block recurrence, moment + density pass) is flat for the");
    println!("    O(N) engine — the linear-scaling signature;");
    println!("  · the energy error is the density-matrix truncation error (gapped Si");
    println!("    converges exponentially in the localization radius).");
}

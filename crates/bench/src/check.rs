//! `tbmd-report check`: the gates CI holds that no test can, because they
//! compare wall times. Every value gate lives in `cargo test`.

use crate::pipeline::gemm_times;
use crate::service::{observer_overhead, snapshot_cost};

/// Observed / unobserved wall-time ceiling of a Si-8 session. Shared CI
/// runners are noisy; on a quiet host the ratio reads within 2 % of 1.
const OBSERVER_RATIO_MAX: f64 = 1.05;

/// Run every gate, print one verdict line each, and return whether all
/// passed.
pub fn run() -> bool {
    let (naive, tiled) = gemm_times(128);
    let snapshot = snapshot_cost(2);
    let (off, on, _) = observer_overhead();
    let gates = [
        (
            naive / tiled >= 0.9,
            format!(
                "tiled GEMM at n = 128 runs {:.2}× the naive loop (floor 0.9×)",
                naive / tiled
            ),
        ),
        (
            snapshot.overhead_pct() < 5.0,
            format!(
                "a snapshot per 100 steps of Si-{} costs {:.4} % of the steps (ceiling 5 %)",
                snapshot.n_atoms,
                snapshot.overhead_pct()
            ),
        ),
        (
            on / off <= OBSERVER_RATIO_MAX,
            format!(
                "an observed Si-8 session takes {:.4}× an unobserved one (ceiling {OBSERVER_RATIO_MAX})",
                on / off
            ),
        ),
    ];
    for (pass, detail) in &gates {
        println!("{} {detail}", if *pass { "PASS" } else { "FAIL" });
    }
    gates.iter().all(|(pass, _)| *pass)
}

//! `tbmd-report check`: the gates CI holds that no test can, because they
//! compare wall times. Every value gate lives in `cargo test`.

use crate::pipeline::{block_steps, gemm_times};
use crate::service::{observer_overhead, snapshot_cost, OBSERVER_PAIRS};

/// Ceiling on the median of per-pair observed / unobserved wall-time
/// ratios of a Si-8 session ([`observer_overhead`]). Shared CI runners are
/// noisy; on a quiet host the ratio reads within 2 % of 1.
const OBSERVER_RATIO_MAX: f64 = 1.05;

/// Ceiling on the one-pass block Chebyshev step over the plain one, timed
/// on K1b's region inside one interleaved loop: it guards the ρ tails, the
/// buffered bond rows and the centre's diagonal read that ride on every
/// step. On the 2-vCPU AVX-512 host 20 runs of `check` read it at
/// 1.096–1.128× pinned to one CPU (`taskset -c 0`) and 1.091–1.130×
/// unpinned; the same seven ρ sets added inside the kernel's block loop, one
/// step at a time, took 1.45× the plain step on the same region.
const TAIL_RATIO_MAX: f64 = 1.35;

/// Median over `reps` interleaved repetitions of the one-pass step's time
/// over the plain step's in the same repetition.
fn tail_ratio(reps: usize) -> f64 {
    let (_, _, [plain, one_pass]) = block_steps(reps, 300);
    let mut ratios: Vec<f64> = one_pass.iter().zip(&plain).map(|(t, p)| t / p).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[reps / 2]
}

/// Run every gate, print one verdict line each, and return whether all
/// passed.
pub fn run() -> bool {
    let (naive, tiled) = gemm_times(128);
    let snapshot = snapshot_cost(2);
    let ([.., observer], _) = observer_overhead(OBSERVER_PAIRS);
    let one_pass = tail_ratio(61);
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
            observer <= OBSERVER_RATIO_MAX,
            format!(
                "an observed Si-8 session takes {observer:.4}× an unobserved one (median of \
                 {OBSERVER_PAIRS} pairs, ceiling {OBSERVER_RATIO_MAX})"
            ),
        ),
        (
            one_pass <= TAIL_RATIO_MAX,
            format!(
                "the one-pass block step takes {one_pass:.3}× the plain step (ceiling \
                 {TAIL_RATIO_MAX})"
            ),
        ),
    ];
    for (pass, detail) in &gates {
        println!("{} {detail}", if *pass { "PASS" } else { "FAIL" });
    }
    gates.iter().all(|(pass, _)| *pass)
}

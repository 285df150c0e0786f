//! `tbmd-report check`: the gates CI holds that no test can, because they
//! compare wall times. Every value gate lives in `cargo test`.

use crate::pipeline::{block_steps, gemm_times};
use crate::service::{observer_overhead, snapshot_cost, OBSERVER_PAIRS};

/// Ceiling on the median of per-pair observed / unobserved wall-time
/// ratios of a Si-8 session ([`observer_overhead`]). Shared CI runners are
/// noisy; on a quiet host the ratio reads within 2 % of 1.
const OBSERVER_RATIO_MAX: f64 = 1.05;

/// Ceiling on a tailed block Chebyshev step over the plain one, timed on
/// K1b's region inside one interleaved loop. On the 2-vCPU AVX-512 host 20
/// runs of `check`, pinned to one CPU and not, read the moment tail at
/// 1.10–1.28× and the density tail (on the bond rows) at 0.98–1.08×; a
/// rewrite of the row loop whose moment copy LLVM compiled to 32
/// `vfmadd231pd` + 16 `vmovddup` per block read ≈ 1.5× in K1b.
const TAIL_RATIO_MAX: f64 = 1.35;

/// Median over `reps` interleaved repetitions of each tailed block step's
/// time over the plain step's in the same repetition.
fn tail_ratios(reps: usize) -> [f64; 2] {
    let (_, _, [plain, moment, density]) = block_steps(reps, 300);
    [moment, density].map(|tail| {
        let mut ratios: Vec<f64> = tail.iter().zip(&plain).map(|(t, p)| t / p).collect();
        ratios.sort_by(f64::total_cmp);
        ratios[reps / 2]
    })
}

/// Run every gate, print one verdict line each, and return whether all
/// passed.
pub fn run() -> bool {
    let (naive, tiled) = gemm_times(128);
    let snapshot = snapshot_cost(2);
    let ([.., observer], _) = observer_overhead(OBSERVER_PAIRS);
    let [moment, density] = tail_ratios(61);
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
            moment <= TAIL_RATIO_MAX && density <= TAIL_RATIO_MAX,
            format!(
                "the block step's moment tail takes {moment:.3}× the plain step, its ρ tail \
                 {density:.3}× (ceiling {TAIL_RATIO_MAX})"
            ),
        ),
    ];
    for (pass, detail) in &gates {
        println!("{} {detail}", if *pass { "PASS" } else { "FAIL" });
    }
    gates.iter().all(|(pass, _)| *pass)
}

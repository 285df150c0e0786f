//! Inside the dense step: where a force evaluation spends its time (T1),
//! the two eigensolvers (T4b) and the kernels under them (K1).

use std::time::Duration;

use tbmd::linalg::blocked::{build_t_factors, rank2k_lower};
use tbmd::linalg::kernels::{axpy, dot, rank1_tile, symv_lower};
use tbmd::linalg::{
    apply_q_blocked, eig_residual, eigh_into, eigh_partial_into, orthogonality_defect, team, tqli,
    tqlrat, tridiagonalize_blocked_into, Eigh, EighWorkspace, LowerTriangle, Matrix, TRIDIAG_BLOCK,
};
use tbmd::linscale::chebyshev::{spectral_window, Expansion, Window};
use tbmd::linscale::{BlockRecurrence, LinearScalingTb, LocalRegion, SparseH};
use tbmd::model::{
    bond_block_elements, bond_density, build_hamiltonian, DenseCache, OrbitalIndex, PhaseTimings,
    RhoBlocks, TbModel,
};
use tbmd::structure::{bulk_diamond, displacement_disorder, NeighborList};
use tbmd::trace::{Counter, ScopedSink};
use tbmd::{silicon_gsp, DistributedTb, ForceProvider, Species, TbCalculator, Workspace};

use crate::report::{best_of, fmt_e, fmt_f, fmt_ms, random_matrix, Report, Table};

/// T1: per-phase time of one warm force evaluation of Si diamond cells up
/// to `size`³ (default 3), serial, distributed and O(N).
pub fn phase_breakdown(size: Option<usize>) -> Report {
    let max_reps = size.unwrap_or(3);
    let model = silicon_gsp();
    let calc = TbCalculator::new(&model);
    // Observe the whole report so the kernel-layer counters (kernel_flops,
    // chebyshev_matvecs) land in the tables below.
    let scope = ScopedSink::new("phase_breakdown");
    let _observing = scope.enter();

    let mut t1 = Table::new(
        "T1: per-phase time per force evaluation, Si diamond cells (serial, warm workspace, this host)",
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
    let mut t1d = Table::new(
        "T1d: dense workspace buffers after those evaluations, MB (serial engine, whole team)",
        &[
            "N",
            "k",
            "H",
            "strip bands",
            "eigensolver",
            "bonds",
            "ρ blocks",
            "total",
        ],
    );
    for reps in 1..=max_reps {
        let s = bulk_diamond(Species::Silicon, reps, reps, reps);
        // Warm once, then average steps through the same workspace — the
        // steady state an MD loop sees.
        let mut ws = Workspace::new();
        calc.evaluate_with(&s, &mut ws).expect("evaluation");
        let n_samples: u32 = if s.n_atoms() <= 64 { 3 } else { 1 };
        let mut acc = PhaseTimings::default();
        let before = scope.snapshot();
        for _ in 0..n_samples {
            acc.accumulate(&calc.evaluate_with(&s, &mut ws).expect("evaluation").timings);
        }
        let kernel_flops = scope
            .snapshot()
            .since(&before)
            .counter(Counter::KernelFlops);
        let t = |d: Duration| fmt_ms(d / n_samples);
        t1.row(vec![
            s.n_atoms().to_string(),
            s.n_orbitals().to_string(),
            t(acc.neighbors),
            t(acc.hamiltonian),
            t(acc.diagonalize),
            t(acc.density),
            t(acc.forces),
            t(acc.total()),
            format!("{}%", fmt_f(100.0 * share(acc.diagonalize, acc.total()), 1)),
            fmt_f(kernel_flops as f64 / 1e9 / acc.total().as_secs_f64(), 2),
            format!("{}r/{}f", acc.nl_rebuilds, acc.nl_refreshes),
        ]);
        if reps >= 2 {
            let b = ws.bytes();
            let mb = |bytes: usize| fmt_f(bytes as f64 / (1024.0 * 1024.0), 2);
            let (DenseCache::Sliced { occupied: k } | DenseCache::Full { occupied: k }) =
                ws.dense_cache
            else {
                unreachable!("a dense evaluation leaves its window")
            };
            t1d.row(vec![
                s.n_atoms().to_string(),
                k.to_string(),
                mb(b.h),
                mb(b.strips),
                mb(b.eigensolver),
                mb(b.bonds),
                mb(b.rho_blocks),
                mb(b.total()),
            ]);
        }
    }

    let mut t1b = Table::new(
        "T1b: per-phase time, distributed engine (rank 0 wall clock, all ranks time-sharing this host)",
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
        let s = bulk_diamond(Species::Silicon, reps, reps, reps);
        for p in [2usize, 4] {
            let mut ws = Workspace::new();
            let dist = DistributedTb::new(&model, p);
            dist.evaluate_with(&s, &mut ws).expect("warm-up evaluation");
            let t = dist.evaluate_with(&s, &mut ws).expect("evaluation").timings;
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
                format!("{}%", fmt_f(100.0 * share(t.diagonalize, t.total()), 1)),
            ]);
        }
    }

    let mut t1c = Table::new(
        "T1c: linear-scaling engine (Si-64, warm, order 350, untruncated)",
        &["eval/ms", "matvecs", "GFLOP/s", "region KB/atom"],
    );
    let s = bulk_diamond(Species::Silicon, 2, 2, 2);
    let engine = LinearScalingTb::new(&model);
    let mut ws = Workspace::new();
    engine
        .evaluate_with(&s, &mut ws)
        .expect("warm-up evaluation");
    let before = scope.snapshot();
    let (wall, _) = best_of(1, || engine.evaluate_with(&s, &mut ws).expect("evaluation"));
    let delta = scope.snapshot().since(&before);
    let region_bytes = engine.last_report().expect("report").region_bytes;
    let region_kb_per_atom = region_bytes as f64 / s.n_atoms() as f64 / 1024.0;
    t1c.row(vec![
        fmt_f(wall * 1e3, 3),
        delta.counter(Counter::ChebyshevMatvecs).to_string(),
        fmt_f(delta.counter(Counter::KernelFlops) as f64 / wall / 1e9, 2),
        fmt_f(region_kb_per_atom, 2),
    ]);

    let mut report = Report::default();
    report
        .table(t1)
        .table(t1d)
        .table(t1b)
        .table(t1c)
        .note("`nl` counts neighbour-list rebuilds / refreshes over the measured samples (static atoms: all refreshes).")
        .note("T1d: no buffer holds the n × k eigenvector block: `strip bands` is one L2-sized staging band per thread, which each strip of ≤ 96 eigenvectors passes through from inverse iteration to ρ (the unperturbed crystal's degenerate clusters widen some strips) and which the reduction's panels borrow before that. `eigensolver` is the rest: T factors, tridiagonal factor and each thread's inverse-iteration buffers.");
    report
}

fn share(part: Duration, whole: Duration) -> f64 {
    part.as_secs_f64() / whole.as_secs_f64()
}

/// Si diamond of `reps` cells along each axis and its tight-binding
/// Hamiltonian.
fn si_hamiltonian(reps: [usize; 3]) -> Matrix {
    let s = bulk_diamond(Species::Silicon, reps[0], reps[1], reps[2]);
    let model = silicon_gsp();
    let nl = NeighborList::build(&s, model.cutoff());
    build_hamiltonian(&s, &nl, &model, &OrbitalIndex::new(&s))
}

/// T4b: the one-stage QL solve against the two-stage partial solve on
/// random symmetric matrices up to order `size` (default 256) and on three
/// real Hamiltonians, timed warm: one untimed call, then the best of 7 on a
/// reused workspace.
pub fn eigensolvers(size: Option<usize>) -> Report {
    let max_n = size.unwrap_or(256);
    let mut t4b = Table::new(
        "T4b: one-stage QL vs two-stage partial solve (warm, min of 7 calls)",
        &[
            "matrix",
            "QL/ms",
            "partial/ms",
            "k",
            "QL resid",
            "QL orth",
            "part resid",
            "part orth",
            "max |Δλ|",
        ],
    );
    // 32–96 (around the crossover), then doubling from 128.
    let doubling = std::iter::successors(Some(128usize), |n| Some(2 * n));
    let mut matrices: Vec<(String, Matrix)> = [32usize, 48, 64, 96]
        .into_iter()
        .chain(doubling)
        .take_while(|&n| n <= max_n)
        .map(|n| {
            let mut a = random_matrix(n, n, n as u64);
            a.symmetrize();
            (format!("random {n}"), a)
        })
        .collect();
    matrices.push(("Si-8 H (32)".into(), si_hamiltonian([1; 3])));
    matrices.push(("Si-16 H (64)".into(), si_hamiltonian([2, 1, 1])));
    matrices.push(("Si-64 H (256)".into(), si_hamiltonian([2; 3])));

    for (label, a) in &matrices {
        let n = a.rows();
        let mut ws = EighWorkspace::default();
        let mut ql = Eigh {
            values: Vec::new(),
            vectors: a.clone(),
        };
        let mut full = || {
            ql.vectors.as_mut_slice().copy_from_slice(a.as_slice());
            eigh_into(&mut ql.vectors, &mut ql.values, &mut ws).expect("QL");
        };
        full();
        let (t_ql, _) = best_of(7, full);

        // Half filling: the occupied window of a TBMD step.
        let k = (n / 2).max(1);
        let mut part_a = a.clone();
        let (mut values, mut vectors) = (Vec::new(), Matrix::default());
        let mut partial = || {
            part_a.as_mut_slice().copy_from_slice(a.as_slice());
            eigh_partial_into(&mut part_a, k, &mut values, &mut vectors, &mut ws)
                .expect("partial solve");
        };
        partial();
        let (t_part, _) = best_of(7, partial);
        let part = Eigh {
            values: values[..k].to_vec(),
            vectors,
        };
        let dev = (ql.values.iter().zip(&values))
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        t4b.row(vec![
            label.clone(),
            fmt_f(t_ql * 1e3, 3),
            fmt_f(t_part * 1e3, 3),
            k.to_string(),
            fmt_e(eig_residual(a, &ql)),
            fmt_e(orthogonality_defect(&ql.vectors)),
            fmt_e(eig_residual(a, &part)),
            fmt_e(orthogonality_defect(&part.vectors)),
            fmt_e(dev),
        ]);
    }
    let mut report = Report::default();
    report.table(t4b).note(
        "The one-stage solve computes every eigenvector, the partial path only the lowest k; \
         `TWO_STAGE_MIN_DIM` is where their times cross on the Si Hamiltonians.",
    );
    report
}

/// Naive i-k-j GEMM: the summation order of the tiled kernel, a multiply
/// then an add per term where the tile fuses the two.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        (0..k).fold(0.0, |acc, p| acc + a[(i, p)] * b[(p, j)])
    })
}

/// Naive lower-triangle SYRK (W·Wᵀ) with the same ascending-k order.
fn naive_syrk(w: &Matrix) -> Matrix {
    let (m, k) = (w.rows(), w.cols());
    let mut out = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..=i {
            let acc = (0..k).fold(0.0, |acc, p| acc + w[(i, p)] * w[(j, p)]);
            out[(i, j)] = acc;
            out[(j, i)] = acc;
        }
    }
    out
}

/// The lower-triangle symmetric matvec one row at a time — the reference
/// [`symv_lower`] replaced.
fn symv_by_rows(a: &Matrix, v: &[f64], p: &mut [f64]) {
    p.fill(0.0);
    for (r, row) in a.rows_iter().enumerate() {
        p[r] += dot(&row[..=r], &v[..=r]);
        axpy(&mut p[..r], v[r], &row[..r]);
    }
}

/// Best-of wall times of the naive and the tiled GEMM at order `n`, in
/// seconds — the K1a row and the `check` gate.
pub fn gemm_times(n: usize) -> (f64, f64) {
    let a = random_matrix(n, n, n as u64);
    let b = random_matrix(n, n, n as u64 + 1);
    let reps = (256 / n).max(2);
    let (t_naive, _) = best_of(reps, || naive_matmul(&a, &b));
    let (t_tiled, _) = best_of(reps, || a.matmul(&b));
    (t_naive, t_tiled)
}

/// The host's multiply-then-add peak for one thread, as `16 × 4` independent
/// `x = x·m + c` chains (a multiply, then an add) over plain arrays: no load
/// or store in the loop. Its disassembly was checked in the `tbmd-report`
/// binary built at 512 bits: eight `vmulpd zmm` and eight `vaddpd zmm` per
/// iteration, four iterations unrolled, nothing scalar. Returns GF/s, a
/// multiply and an add counting one flop each.
#[inline(never)]
fn mul_add_peak(iters: usize) -> f64 {
    peak(iters, |x, m, c| x * m + c)
}

/// The host's fused multiply-add peak for one thread: the chains of
/// [`mul_add_peak`] as `x = fma(x, m, c)`, the operation every term of the
/// dense kernels and the block Chebyshev step is. In the binary built at 512 bits its loop is eight
/// `vfmadd213pd zmm` per iteration, five iterations unrolled, and nothing
/// else; where the target has no `fma` feature it is a libm call. GF/s, a
/// fused multiply-add counting two.
#[inline(never)]
fn fma_peak(iters: usize) -> f64 {
    peak(iters, f64::mul_add)
}

/// `iters` rounds of `op` on `16 × 4` independent chains: GF/s.
#[inline(always)]
fn peak(iters: usize, op: impl Fn(f64, f64, f64) -> f64) -> f64 {
    let (m, c) = std::hint::black_box((0.5f64, 1.0f64));
    let mut x: [[f64; 4]; 16] =
        std::array::from_fn(|i| std::array::from_fn(|l| (4 * i + l) as f64));
    let start = std::time::Instant::now();
    for _ in 0..iters {
        for row in x.iter_mut() {
            for v in row.iter_mut() {
                *v = op(*v, m, c);
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(x);
    (iters * 64 * 2) as f64 / seconds / 1e9
}

/// [`rank1_tile`] on four rows of 64 columns and 48 terms whose right
/// factors (24 KB) stay in L1, every row on a cache line of its own: GF/s.
fn tile_in_l1() -> f64 {
    const COLS: usize = 64;
    const NQ: usize = 48;
    #[repr(align(64))]
    struct Rows<const R: usize>([[f64; COLS]; R]);
    let calls = 4000;
    let b = Rows::<NQ>(std::array::from_fn(|q| {
        std::array::from_fn(|c| ((q * COLS + c) as f64 * 0.37).sin())
    }));
    let coef: [[f64; 4]; NQ] = std::array::from_fn(|q| [1e-3 * q as f64; 4]);
    let mut out = Rows::<4>([[0.5; COLS]; 4]);
    let (seconds, _) = best_of(5, || {
        for _ in 0..calls {
            let rows = out.0.each_mut().map(|row| &mut row[..]);
            rank1_tile::<4>(rows, NQ, |q| coef[q], |q| &b.0[q]);
            std::hint::black_box(&mut out);
        }
    });
    (calls * NQ * 4 * COLS * 2) as f64 / seconds / 1e9
}

/// K1d: the GEMM-shaped half of the two-stage solver at `n`, on the whole
/// team (`threads` = 2 on the reference host) or on one thread pinned inline,
/// on the packed `H` the engines reduce ([`LowerTriangle`]):
/// the rank-2k sweeps of a whole reduction (random panels), the compact-WY
/// T factors, and the back-transform of `0.7 n` vectors (T factors + strip
/// sweeps), the sweeps alone as the difference. `(stage, seconds, flops)`
/// rows; the Gram matrix counts as the full square the tiles form.
fn gemm_half(n: usize) -> Vec<(&'static str, f64, usize)> {
    let k = 7 * n / 10;
    let a0 = random_matrix(n, n, 80);
    let mut a = LowerTriangle::from_lower(&a0);
    let vpan = random_matrix(TRIDIAG_BLOCK, n, 81);
    let wpan = random_matrix(TRIDIAG_BLOCK, n, 82);
    let panels: Vec<(usize, usize)> = (0..n - 2)
        .step_by(TRIDIAG_BLOCK)
        .map(|j0| (j0, TRIDIAG_BLOCK.min(n - 2 - j0)))
        .collect();
    let mut sweep = LowerTriangle::from_lower(&a0);
    let (t_rank2k, _) = best_of(3, || {
        for &(j0, jb) in &panels {
            rank2k_lower(&mut sweep, j0 + jb, jb, &vpan, &wpan);
        }
    });
    let rank2k_flops: usize = panels
        .iter()
        .map(|&(j0, jb)| 2 * jb * (n - j0 - jb) * (n - j0 - jb + 1))
        .sum();
    let mut ws = EighWorkspace::default();
    tridiagonalize_blocked_into(&mut a, &mut ws);
    let (t_factors, _) = best_of(5, || build_t_factors(&a, &mut ws));
    let gram_flops: usize = panels
        .iter()
        .map(|&(j0, jb)| 2 * jb * jb * (n - j0 - 1))
        .sum();
    let z0 = random_matrix(n, k, 83);
    let (t_back, _) = best_of(3, || {
        let mut z = z0.clone();
        apply_q_blocked(&a, &mut ws, &mut z);
    });
    let sweep_flops: usize = panels
        .iter()
        .map(|&(j0, jb)| 4 * jb * (n - j0 - 1) * k)
        .sum();
    vec![
        ("rank-2k sweeps of a reduction", t_rank2k, rank2k_flops),
        ("compact-WY T factors", t_factors, gram_flops),
        (
            "back-transform (T factors + sweeps)",
            t_back,
            gram_flops + sweep_flops,
        ),
        (
            "compact-WY sweeps (back-transform − T)",
            t_back - t_factors,
            sweep_flops,
        ),
    ]
}

/// K1e: the eigenvalue stage alone, [`tqli`] (implicit QL: a square root
/// and two divisions on each rotation's dependent chain) against the
/// root-free [`tqlrat`], on the tridiagonal factor of Si-64 (256 orbitals)
/// and Si-216 (864) with 0.1 Å of displacement disorder: the two solvers
/// alternate on fresh copies of the factor, `reps` times, best of each.
fn eigenvalue_stage(reps: usize) -> Table {
    let mut k1e = Table::new(
        "K1e: the dense eigenvalue stage on a perturbed Si factor, tqli vs the root-free tqlrat \
         (alternating, best of 9)",
        &[
            "factor",
            "n",
            "tqli/ms",
            "tqlrat/ms",
            "speedup",
            "max |Δλ| / ‖T‖",
        ],
    );
    let model = silicon_gsp();
    for cells in [2, 3] {
        let mut s = bulk_diamond(Species::Silicon, cells, cells, cells);
        displacement_disorder(&mut s, 0.1, 59);
        let nl = NeighborList::build(&s, model.cutoff());
        let mut h = build_hamiltonian(&s, &nl, &model, &OrbitalIndex::new(&s));
        let mut ws = EighWorkspace::default();
        tridiagonalize_blocked_into(&mut h, &mut ws);
        let (d, e) = ws.tridiagonal_factor();
        let n = d.len();
        let (mut dc, mut ec) = (d.to_vec(), e.to_vec());
        let mut timed = |solve: &dyn Fn(&mut [f64], &mut [f64])| {
            dc.copy_from_slice(d);
            ec.copy_from_slice(e);
            let start = std::time::Instant::now();
            solve(&mut dc, &mut ec);
            let seconds = start.elapsed().as_secs_f64();
            dc.sort_by(f64::total_cmp);
            (seconds, dc.clone())
        };
        let ql =
            |d: &mut [f64], e: &mut [f64]| tqli(d, e, &mut Matrix::zeros(0, d.len())).expect("QL");
        let rational = |d: &mut [f64], e: &mut [f64]| tqlrat(d, e).expect("rational QL");
        let (mut t_ql, mut t_rat) = (f64::INFINITY, f64::INFINITY);
        let (mut v_ql, mut v_rat) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            let (t, v) = timed(&ql);
            (t_ql, v_ql) = (t_ql.min(t), v);
            let (t, v) = timed(&rational);
            (t_rat, v_rat) = (t_rat.min(t), v);
        }
        let norm = (0..n)
            .map(|i| e[i].abs() + d[i].abs() + e.get(i + 1).map_or(0.0, |x| x.abs()))
            .fold(0.0, f64::max);
        let gap = v_ql
            .iter()
            .zip(&v_rat)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        k1e.row(vec![
            format!("Si-{}", s.n_atoms()),
            n.to_string(),
            fmt_f(t_ql * 1e3, 3),
            fmt_f(t_rat * 1e3, 3),
            fmt_f(t_ql / t_rat, 2),
            fmt_e(gap / norm),
        ]);
    }
    k1e
}

/// The two block steps [`block_steps`] times, as K1b labels them.
const BLOCK_STEPS: [&str; 2] = ["plain", "one pass (ρ sets on the bond rows + diagonal)"];

/// The block Chebyshev step on the benchmark's region — Si-216 at r_loc
/// 6.0 Å (≈ 47 atoms), on the Gershgorin window — bare and as the engine's
/// one pass runs it: the centre's diagonal read into the moments and every
/// ρ set of an expansion added on the centre's bond rows. Returns the
/// region's orbitals and stored entries and, per step of [`BLOCK_STEPS`],
/// the ns per step of `reps` passes of `steps` steps each. Each repetition
/// runs both once, in turn, so a swing of the host's speed lands
/// on every row alike rather than on one.
pub fn block_steps(reps: usize, steps: usize) -> (usize, usize, [Vec<f64>; 2]) {
    let s = bulk_diamond(Species::Silicon, 3, 3, 3);
    let model = silicon_gsp();
    let index = OrbitalIndex::new(&s);
    let nl = NeighborList::build(&s, model.cutoff());
    let h = SparseH::build(&s, &nl, &model, &index);
    let (e_min, e_max) = h.gershgorin_bounds();
    let (shift, scale) = spectral_window(e_min, e_max);
    let region = LocalRegion::build(&s, &index, &h, 0, 6.0);
    let row0 = region.local_index(index.offset(0)).expect("centre");
    let mut bond_slots: Vec<usize> = (nl.neighbors(0).iter().map(|nb| nb.j).chain([0]))
        .map(|j| region.local_index(index.offset(j)).expect("bonded") / 4)
        .collect();
    bond_slots.sort_unstable();
    bond_slots.dedup();
    let recurrence = || BlockRecurrence::new(&region, row0, 4, shift, scale);
    let window = Window {
        shift,
        scale,
        order: steps + 1,
    };
    let expansion = Expansion::new(window, shift, 0.2);
    let passes: [&dyn Fn() -> f64; 2] = [
        &|| {
            let mut rec = recurrence();
            (0..steps).for_each(|_| rec.advance());
            rec.current()[row0][0]
        },
        &|| {
            let mut moments = vec![0.0; steps + 1];
            let rho = recurrence().pass(&mut moments, Some((&expansion, &bond_slots)));
            rho.map_or(0.0, |rho| rho[0][0]) + moments[steps]
        },
    ];
    let mut ns = [vec![0.0; reps], vec![0.0; reps]];
    for rep in 0..reps {
        for (row, pass) in ns.iter_mut().zip(&passes) {
            row[rep] = best_of(1, pass).0 / steps as f64 * 1e9;
        }
    }
    (region.len(), region.nnz(), ns)
}

/// K1: the tiled kernels against the textbook loops up to order `size`
/// (default 256), the block Chebyshev step on a real region, and the two
/// eigenvectors → ρ stages of the dense step.
pub fn kernels(size: Option<usize>) -> Report {
    let max_n = size.unwrap_or(256).max(64);
    let mut k1a = Table::new(
        "K1a: tiled vs naive dense kernels (f64; the tiled SYMV on the packed lower triangle)",
        &["kernel", "n", "naive GFLOP/s", "tiled GFLOP/s", "speedup"],
    );
    let mut row = |kernel: &str, n: usize, flops: f64, naive: f64, tiled: f64| {
        k1a.row(vec![
            kernel.into(),
            n.to_string(),
            fmt_f(flops / naive / 1e9, 2),
            fmt_f(flops / tiled / 1e9, 2),
            fmt_f(naive / tiled, 2),
        ]);
    };
    let mut gemm_gflops = 0.0;
    let mut n = 64usize;
    while n <= max_n {
        let reps = (256 / n).max(2);
        let flops = 2.0 * (n as f64).powi(3);
        let (t_naive, t_tiled) = gemm_times(n);
        gemm_gflops = flops / t_tiled / 1e9;
        row("GEMM", n, flops, t_naive, t_tiled);

        let w = random_matrix(n, n / 2, n as u64 + 2);
        let (t_naive, _) = best_of(reps, || naive_syrk(&w));
        let (t_tiled, _) = best_of(reps, || w.syrk());
        row("SYRK", n, (n * (n + 1) * (n / 2)) as f64, t_naive, t_tiled);

        let mut sym = random_matrix(n, n, n as u64 + 3);
        sym.symmetrize();
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut p = vec![0.0; n];
        let (t_naive, _) = best_of(50 * reps, || symv_by_rows(&sym, &v, &mut p));
        let packed = LowerTriangle::from_lower(&sym);
        let (t_tiled, _) = best_of(50 * reps, || symv_lower(&packed, 0, &v, &mut p));
        // 4 flops per element of the lower triangle.
        row("SYMV", n, (2 * n * (n + 1)) as f64, t_naive, t_tiled);
        n *= 2;
    }

    let peak = (0..5).map(|_| mul_add_peak(2_000_000)).fold(0.0, f64::max);
    let fma = (0..5).map(|_| fma_peak(2_000_000)).fold(0.0, f64::max);
    let (region_orbitals, region_nnz, mut ns_per_step) = block_steps(9, 2000);
    let mut k1b = Table::new(
        "K1b: four-column block Chebyshev step, Si-216 region at r_loc 6.0 Å \
         (Gershgorin window; ρ sets on the centre's bond rows), median of 9 interleaved \
         repetitions",
        &[
            "step",
            "orbitals",
            "stored nnz",
            "ns/step",
            "min–max ns/step",
            "GFLOP/s",
            "of FMA peak",
        ],
    );
    let step_flops = 2.0 * 4.0 * region_nnz as f64;
    for (name, ns) in BLOCK_STEPS.iter().zip(&mut ns_per_step) {
        ns.sort_by(f64::total_cmp);
        let gflops = step_flops / ns[4];
        k1b.row(vec![
            name.to_string(),
            region_orbitals.to_string(),
            region_nnz.to_string(),
            fmt_f(ns[4], 1),
            format!("{}–{}", fmt_f(ns[0], 0), fmt_f(ns[8], 0)),
            fmt_f(gflops, 2),
            fmt_f(gflops / fma, 2),
        ]);
    }

    // Eigenvectors → ρ at n = max_n, 70 % of the states kept: the
    // back-transform on a random reduction, across the team and on one
    // thread pinned inline (as a message-passing rank runs it), then the
    // bond-block density on the largest diamond crystal with at most n
    // orbitals whose 2^e cells split over the axes (the e doublings dealt to
    // them in turn).
    let (n, k) = (max_n, 7 * max_n / 10);
    let mut packed = random_matrix(n, n, 77);
    packed.symmetrize();
    let mut ws = EighWorkspace::default();
    tridiagonalize_blocked_into(&mut packed, &mut ws);
    let z0 = random_matrix(n, k, 78);
    let mut back_transform = || {
        best_of(5, || {
            let mut z = z0.clone();
            apply_q_blocked(&packed, &mut ws, &mut z);
        })
        .0
    };
    let t_back = back_transform();
    let t_back_pinned = std::thread::scope(|scope| {
        let pinned = scope.spawn(|| {
            team::pin_inline();
            back_transform()
        });
        pinned.join().expect("pinned back-transform")
    });
    // Panel [j0, j0+jb) works on rows j0+1..n: 4 flops per row, reflector
    // and column.
    let back_flops: usize = (0..n - 2)
        .step_by(TRIDIAG_BLOCK)
        .map(|j0| 4 * TRIDIAG_BLOCK.min(n - 2 - j0) * (n - j0 - 1) * k)
        .sum();
    let doublings = (n / 32).ilog2() as usize;
    let reps: [usize; 3] = std::array::from_fn(|a| 1 << ((doublings + 2 - a) / 3));
    let crystal = bulk_diamond(Species::Silicon, reps[0], reps[1], reps[2]);
    let index = OrbitalIndex::new(&crystal);
    let (n_bond, k_bond) = (index.total(), 7 * index.total() / 10);
    let vectors = random_matrix(n_bond, k_bond, 79);
    let nl = NeighborList::build(&crystal, silicon_gsp().cutoff() + 0.5);
    let mut rho = RhoBlocks::default();
    let (t_bond, _) = best_of(5, || {
        bond_density(&nl, &index, &vectors, &vec![1.0; k_bond], &mut rho)
    });
    let bond_flops = 2 * bond_block_elements(&nl, &index) * k_bond;
    let mb = |doubles: usize| fmt_f(doubles as f64 * 8.0 / 1e6, 3);
    let mut k1c = Table::new(
        "K1c: eigenvectors → ρ stages (the back-transform across the host's threads and on one pinned thread)",
        &[
            "stage",
            "n",
            "k",
            "ms",
            "GFLOP/s",
            "of tiled GEMM",
            "ρ held, MB",
            "n×n ρ + n×k W, MB",
        ],
    );
    for (stage, n, k, seconds, flops, held) in [
        ("compact-WY back-transform", n, k, t_back, back_flops, None),
        (
            "compact-WY back-transform, one thread",
            n,
            k,
            t_back_pinned,
            back_flops,
            None,
        ),
        (
            "bond-block density",
            n_bond,
            k_bond,
            t_bond,
            bond_flops,
            Some(rho.as_slice().len()),
        ),
    ] {
        let gflops = flops as f64 / seconds / 1e9;
        let dash = || "—".to_string();
        k1c.row(vec![
            stage.into(),
            n.to_string(),
            k.to_string(),
            fmt_f(seconds * 1e3, 3),
            fmt_f(gflops, 2),
            fmt_f(gflops / gemm_gflops, 2),
            held.map_or_else(dash, mb),
            held.map_or_else(dash, |_| mb(n * n + n * k)),
        ]);
    }

    let tile = tile_in_l1();
    let mut k1d = Table::new(
        "K1d: the solver's GEMM-shaped half (rank-1 tiles) against the host's fused multiply-add peak",
        &["stage", "n", "threads", "ms", "GFLOP/s", "of peak"],
    );
    let dash = || "—".to_string();
    k1d.row(vec![
        "multiply-then-add peak (registers)".into(),
        dash(),
        "1".into(),
        dash(),
        fmt_f(peak, 2),
        fmt_f(peak / fma, 2),
    ]);
    k1d.row(vec![
        "fused multiply-add peak (registers)".into(),
        dash(),
        "1".into(),
        dash(),
        fmt_f(fma, 2),
        "1.00".into(),
    ]);
    k1d.row(vec![
        "rank1_tile 4×16, in L1".into(),
        dash(),
        "1".into(),
        dash(),
        fmt_f(tile, 2),
        fmt_f(tile / fma, 2),
    ]);
    for n in [640, 864] {
        for pinned in [true, false] {
            let rows = if pinned {
                std::thread::scope(|scope| {
                    scope
                        .spawn(|| {
                            team::pin_inline();
                            gemm_half(n)
                        })
                        .join()
                        .expect("pinned stages")
                })
            } else {
                gemm_half(n)
            };
            let threads = if pinned { 1 } else { team::size() };
            for (stage, seconds, flops) in rows {
                let gflops = flops as f64 / seconds / 1e9;
                k1d.row(vec![
                    stage.into(),
                    n.to_string(),
                    threads.to_string(),
                    fmt_f(seconds * 1e3, 2),
                    fmt_f(gflops, 2),
                    fmt_f(gflops / (fma * threads as f64), 2),
                ]);
            }
        }
    }

    let mut report = Report::default();
    report
        .table(k1a)
        .table(k1b)
        .table(k1c)
        .table(k1d)
        .table(eigenvalue_stage(9))
        .note(format!(
            "`of tiled GEMM` is the rate over tiled GEMM's at n = {max_n}: {} GFLOP/s. \
         K1b's `of FMA peak` is the rate over one thread's fused multiply-add peak \
         (K1d): {} GFLOP/s. K1d's `of peak` is the rate over `threads` × that \
         fused peak, the operation every tile term is; its `threads` = 1 rows run on \
         a thread pinned inline. K1e's ‖T‖ is the factor's largest row sum.",
            fmt_f(gemm_gflops, 2),
            fmt_f(fma, 2)
        ));
    report
}

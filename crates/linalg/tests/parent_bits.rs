//! Bits pinned before the inverse-iteration stage moved to lane-batched
//! factor/solve sweeps and the shared-operand dots to `chunks_exact`: the
//! eigenvector columns, the blocked reduction and its back-transform must
//! reproduce, bit for bit, what the one-vector-at-a-time kernels computed.
//!
//! Each constant is an FNV-1a hash over the `to_bits()` of every output,
//! recorded by running this file against the code before the rewrite. The
//! `perturbed Si-64` pins of the same stage live in
//! `crates/model/tests/parent_bits.rs`, beside the Hamiltonian builder.

use tbmd_linalg::{
    apply_q_blocked, cluster_tolerance, eigh, reduced_eigenvalues_into, reduced_eigenvectors_into,
    snap_range_to_clusters, stream_reduced_eigenvectors, tridiagonal_eigenvectors_into,
    tridiagonalize_blocked_into, Budget, EighWorkspace, Matrix,
};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(mut self, x: f64) -> Fnv {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn extend<'a>(self, xs: impl IntoIterator<Item = &'a f64>) -> Fnv {
        xs.into_iter().fold(self, |h, &x| h.add(x))
    }
}

/// Uniform deviates in `[-0.5, 0.5)` from a 64-bit LCG.
fn deviates(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }
}

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut next = deviates(seed);
    let mut a = Matrix::from_fn(n, n, |_, _| next());
    a.symmetrize();
    a
}

/// `f` under a compute lease of `width` threads, from a budget of its own.
fn at_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
    Budget::new(width)
        .lease(width)
        .expect("a new budget is free")
        .scoped(f)
}

/// Hash of the eigenvector columns of the tridiagonal factor of `ws` for
/// `values[..k]`: the full window at lease widths 1 and 2 (they must agree).
/// Then three cluster-snapped offset shards of the back-transformed window,
/// streamed from the reduction `packed`, must agree with the full window
/// column for column.
fn eigenvector_hash(packed: &Matrix, ws: &mut EighWorkspace, values: &[f64], k: usize) -> u64 {
    let (d, e) = ws.tridiagonal_factor();
    let full = |width| {
        at_width(width, || {
            let mut z = Matrix::default();
            tridiagonal_eigenvectors_into(d, e, &values[..k], &mut z, &mut Default::default());
            z
        })
    };
    let z = full(1);
    assert!(full(2) == z, "width 2 differs from width 1");
    let ctol = cluster_tolerance(d, e);
    let snap = |raw: usize| snap_range_to_clusters(&values[..k], ctol, raw..k).start;
    let bounds = [0, snap(k / 3), snap(2 * k / 3 + 1), k];
    let mut window = Matrix::default();
    reduced_eigenvectors_into(packed, &values[..k], &mut window, ws);
    for shard in bounds.windows(2) {
        let (lo, hi) = (shard[0], shard[1]);
        let mut part = Matrix::zeros(z.rows(), hi - lo);
        stream_reduced_eigenvectors(packed, &values[lo..hi], lo, ws, |strip| {
            for i in 0..part.rows() {
                part.row_mut(i)[strip.cols.clone()].copy_from_slice(strip.row(i));
            }
        });
        for i in 0..part.rows() {
            assert!(
                part.row(i) == &window.row(i)[lo..hi],
                "shard {lo}..{hi} row {i}"
            );
        }
    }
    Fnv::new().extend(z.as_slice()).0
}

/// Reduce `a`, take its spectrum and hash `k` eigenvectors of the factor.
fn reduced_hash(a: &Matrix, k: usize) -> u64 {
    let (mut packed, mut ws, mut values) = (a.clone(), EighWorkspace::default(), Vec::new());
    tridiagonalize_blocked_into(&mut packed, &mut ws);
    reduced_eigenvalues_into(&mut ws, &mut values).unwrap();
    eigenvector_hash(&packed, &mut ws, &values, k)
}

/// `Q diag(target) Qᵀ` for a random orthogonal `Q`.
fn with_spectrum(target: &[f64], seed: u64) -> Matrix {
    let q = eigh(random_symmetric(target.len(), seed)).unwrap().vectors;
    q.matmul(&Matrix::from_diagonal(target))
        .matmul(&q.transpose())
}

#[test]
fn inverse_iteration_reproduces_the_parent_bits_on_a_synthetic_spectrum() {
    // Runs of 1..=17 singletons — every length mod 8, so the lane batches
    // end on every tail — each followed by a cluster of 2–4 members, exactly
    // degenerate or split by 1e-9; k = 197 is not a multiple of 8 and cuts
    // the window short of the last clusters.
    let mut target = Vec::new();
    let mut level = 0.0;
    for run in 1..=17usize {
        for _ in 0..run {
            level += 0.37;
            target.push(level);
        }
        level += 0.37;
        let split = if run % 2 == 0 { 0.0 } else { 1e-9 };
        for m in 0..2 + run % 3 {
            target.push(level + split * m as f64);
        }
    }
    assert_eq!(target.len(), 205);
    let got = reduced_hash(&with_spectrum(&target, 36), 197);
    assert_eq!(got, 0x2b47252e94bc3399, "bits moved: {got:#018x}");
}

#[test]
fn inverse_iteration_reproduces_the_parent_bits_on_a_random_matrix() {
    // A spectrum with no clusters at all, n and k both off the lane count.
    let got = reduced_hash(&random_symmetric(150, 2026), 131);
    assert_eq!(got, 0xc523816cfe829e57, "bits moved: {got:#018x}");
}

#[test]
fn blocked_reduction_reproduces_the_parent_bits() {
    // n = 523 cuts the panel matvec into bands and runs every panel
    // correction through `dot2`. The reflectors are hashed where they are
    // stored (below the subdiagonal); τ enters through the back-transform
    // of a 523 × 13 block.
    let n = 523;
    let mut packed = random_symmetric(n, 823);
    let mut ws = EighWorkspace::default();
    tridiagonalize_blocked_into(&mut packed, &mut ws);
    let (d, e) = ws.tridiagonal_factor();
    let mut h = Fnv::new().extend(d).extend(e);
    for r in 2..n {
        h = h.extend(&packed.row(r)[..r - 1]);
    }
    let mut next = deviates(13);
    let mut z = Matrix::from_fn(n, 13, |_, _| next());
    apply_q_blocked(&packed, &mut ws, &mut z);
    let got = h.extend(z.as_slice()).0;
    assert_eq!(got, 0xd68ac340c1f0e11e, "bits moved: {got:#018x}");
}

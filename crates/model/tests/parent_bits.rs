//! Bits pinned to the code each rewrite replaced: the row-walking one-stage
//! solve and the one-shape radial evaluation must reproduce, bit for bit,
//! what the column-walking solve and the per-hopping radial functions
//! computed; the lane-batched inverse iteration and the 4×4 bond-block
//! density kernel what one vector and one `dot4` row at a time computed;
//! the blocked reduction of the anneal's tube what the column-at-a-time
//! panel computed.
//!
//! Each constant is an FNV-1a hash over the `to_bits()` of every output,
//! recorded by running this file against the parent commit. Every hash but
//! the Hamiltonian builder's was re-recorded once, when every dense kernel
//! moved to one fused multiply-add per term, the spectrum to the root-free
//! rational QL and the Fermi level to a Newton iteration. `mul_add` is the
//! same value with or without an FMA instruction, but the model hashes go
//! through `powf`/`exp` from the host's libm, so like every other bitwise
//! pin in the repository they belong to the host's libm.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tbmd_linalg::{
    apply_q_blocked, cluster_tolerance, eigh_into, eigh_partial_into, reduced_eigenvalues_into,
    reduced_eigenvectors_into, snap_range_to_clusters, stream_reduced_eigenvectors, team,
    tridiagonal_eigenvectors_into, tridiagonalize_blocked_into, Budget, EighWorkspace, Matrix,
};
use tbmd_model::{
    build_hamiltonian, carbon_xwch, density_matrix, silicon_gsp, DenseCache, OrbitalIndex,
    PhaseTimings, TbCalculator, TbModel, Workspace,
};
use tbmd_structure::{bulk_diamond, nanotube, NeighborList, Species, Structure};

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

/// Hash of `eigh_into`'s values, then its vectors row by row.
fn eigh_hash(a: &Matrix) -> u64 {
    let (mut vectors, mut values) = (a.clone(), Vec::new());
    eigh_into(&mut vectors, &mut values, &mut EighWorkspace::default()).unwrap();
    Fnv::new().extend(&values).extend(vectors.as_slice()).0
}

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let mut state = seed;
    let mut a = Matrix::from_fn(n, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    });
    a.symmetrize();
    a
}

/// Two random symmetric 12 × 12 blocks on the diagonal of a 24 × 24.
fn two_blocks() -> Matrix {
    let (a, b) = (random_symmetric(12, 12), random_symmetric(12, 24));
    Matrix::from_fn(24, 24, |i, j| match (i < 12, j < 12) {
        (true, true) => a[(i, j)],
        (false, false) => b[(i - 12, j - 12)],
        _ => 0.0,
    })
}

/// A silicon diamond supercell, perturbed by 0.1 Å.
fn perturbed_silicon(reps: usize, seed: u64) -> Structure {
    let mut s = bulk_diamond(Species::Silicon, reps, reps, reps);
    s.perturb(&mut StdRng::seed_from_u64(seed), 0.1);
    s
}

/// `H` of a perturbed silicon diamond supercell.
fn silicon_h(reps: usize, seed: u64) -> Matrix {
    let model = silicon_gsp();
    let s = perturbed_silicon(reps, seed);
    let nl = NeighborList::build(&s, model.cutoff());
    build_hamiltonian(&s, &nl, &model, &OrbitalIndex::new(&s))
}

#[test]
fn eigh_into_reproduces_the_parent_bits() {
    let cases = [
        (
            "random 32",
            random_symmetric(32, 2026),
            0x8598e966b1050636u64,
        ),
        // Two uncoupled blocks: row 12 is zero left of the diagonal, so its
        // reduction step takes the `scale == 0` branch and its accumulation
        // step is skipped.
        ("two blocks", two_blocks(), 0x2dd3022c7add43da),
        ("Si-8 H", silicon_h(1, 8), 0x6cba9f99663d41bc),
        ("Si-64 H", silicon_h(2, 64), 0xea2a85934052c5a8),
    ];
    let moved: Vec<String> = cases
        .iter()
        .map(|(what, a, want)| (what, a.rows(), eigh_hash(a), want))
        .filter(|(.., got, want)| got != *want)
        .map(|(what, n, got, _)| format!("{what} (n = {n}): {got:#018x}"))
        .collect();
    assert!(moved.is_empty(), "bits moved: {moved:?}");
}

#[test]
fn cluster_rayleigh_ritz_reproduces_the_parent_bits() {
    // Per unit interval an exact triple, a 1e-9-split companion and a
    // singleton: every cluster of the two-stage eigenvector stage goes
    // through the small dense solve of its Rayleigh–Ritz rotation.
    let n = 40;
    let target: Vec<f64> = (0..n)
        .map(|i| (i / 5) as f64 + [0.0, 0.0, 0.0, 1e-9, 0.4][i % 5])
        .collect();
    let (mut q, mut values) = (random_symmetric(n, 4242), Vec::new());
    eigh_into(&mut q, &mut values, &mut EighWorkspace::default()).unwrap();
    let mut a = q
        .matmul(&Matrix::from_diagonal(&target))
        .matmul(&q.transpose());
    let mut vectors = Matrix::default();
    let mut ws = EighWorkspace::default();
    eigh_partial_into(&mut a, 32, &mut values, &mut vectors, &mut ws).unwrap();
    let got = Fnv::new().extend(&values).extend(vectors.as_slice()).0;
    assert_eq!(got, 0xefcaa8484fc7242f, "bits moved: {got:#018x}");
}

/// Hash of `hoppings`, `hoppings_deriv` and `repulsion` on 4 000 distances
/// from 0.8 Å to 0.2 Å past the cutoff: the bare power law, the tail window
/// and the zeros beyond it.
fn radial_hash(model: &dyn TbModel) -> u64 {
    let (lo, hi) = (0.8, model.cutoff() + 0.2);
    (0..4000)
        .fold(Fnv::new(), |h, i| {
            let r = lo + (hi - lo) * i as f64 / 3999.0;
            let (phi, dphi) = model.repulsion(r);
            h.extend(&model.hoppings(r))
                .extend(&model.hoppings_deriv(r))
                .add(phi)
                .add(dphi)
        })
        .0
}

#[test]
fn radial_functions_reproduce_the_parent_bits() {
    // Through `dyn` and `black_box`, as the engines call them: nothing about
    // the parameters is known at compile time.
    let si = black_box(silicon_gsp());
    let c = black_box(carbon_xwch());
    let moved: Vec<String> = [
        (&si as &dyn TbModel, 0x9b4cdf59fb06964fu64),
        (&c, 0xd1ef1e62f47537f6),
    ]
    .into_iter()
    .map(|(model, want)| (model.name().to_string(), radial_hash(model), want))
    .filter(|(_, got, want)| got != want)
    .map(|(name, got, _)| format!("{name}: {got:#018x}"))
    .collect();
    assert!(moved.is_empty(), "bits moved: {moved:?}");
}

/// `f` under a compute lease of `width` threads, from a budget of its own.
fn at_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
    Budget::new(width)
        .lease(width)
        .expect("a new budget is free")
        .scoped(f)
}

#[test]
fn inverse_iteration_reproduces_the_parent_bits_on_si64() {
    // The factor of the perturbed Si-64 `H` (n = 256) and k = 133 states,
    // not a multiple of the lane count: the full window at lease widths 1
    // and 2, then three cluster-snapped offset shards, streamed through the
    // back-transform, that must agree with the back-transformed window
    // column for column.
    let k = 133;
    let (mut packed, mut ws, mut values) = (silicon_h(2, 64), EighWorkspace::default(), Vec::new());
    tridiagonalize_blocked_into(&mut packed, &mut ws);
    reduced_eigenvalues_into(&mut ws, &mut values).unwrap();
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
    let bounds = [0, snap(40), snap(97), k];
    let mut window = Matrix::default();
    reduced_eigenvectors_into(&packed, &values[..k], &mut window, &mut ws);
    for shard in bounds.windows(2) {
        let (lo, hi) = (shard[0], shard[1]);
        let mut part = Matrix::zeros(z.rows(), hi - lo);
        stream_reduced_eigenvectors(&packed, &values[lo..hi], lo, &mut ws, |strip| {
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
    let got = Fnv::new().extend(z.as_slice()).0;
    assert_eq!(got, 0xeee2b2dc00baae5a, "bits moved: {got:#018x}");
}

/// Hash of `reduced_eigenvectors_into`'s `k` columns for `h` (inverse
/// iteration, then the back-transform) under a lease of `width` threads,
/// and the widest cluster of near-equal eigenvalues among them.
fn reduced_vectors_hash(h: &Matrix, k: usize, width: usize) -> (u64, usize) {
    at_width(width, || {
        let (mut packed, mut ws, mut values) = (h.clone(), EighWorkspace::default(), Vec::new());
        tridiagonalize_blocked_into(&mut packed, &mut ws);
        reduced_eigenvalues_into(&mut ws, &mut values).unwrap();
        let (d, e) = ws.tridiagonal_factor();
        let ctol = cluster_tolerance(d, e);
        let mut widest = 0;
        let mut start = 0;
        while start < k {
            let end = snap_range_to_clusters(&values[..k], ctol, start + 1..k).start;
            widest = widest.max(end - start);
            start = end;
        }
        let mut z = Matrix::default();
        reduced_eigenvectors_into(&packed, &values[..k], &mut z, &mut ws);
        (Fnv::new().extend(z.as_slice()).0, widest)
    })
}

#[test]
fn reduced_eigenvectors_reproduce_the_parent_bits_on_si64() {
    // The eigenvector stage of the dense engines end to end, on perturbed
    // Si-64 (k = 133) at lease widths 1 and 2, and on the unperturbed
    // crystal (k = 136), whose degenerate clusters are wider than a narrow
    // strip of the inverse iteration.
    let si = silicon_gsp();
    let crystal = bulk_diamond(Species::Silicon, 2, 2, 2);
    let nl = NeighborList::build(&crystal, si.cutoff());
    let pristine = build_hamiltonian(&crystal, &nl, &si, &OrbitalIndex::new(&crystal));
    let perturbed = silicon_h(2, 64);
    let (one, _) = reduced_vectors_hash(&perturbed, 133, 1);
    let (two, _) = reduced_vectors_hash(&perturbed, 133, 2);
    let (wide, widest) = reduced_vectors_hash(&pristine, 136, 2);
    assert!(
        widest > 8,
        "the crystal's widest cluster has {widest} members"
    );
    let got = [one, two, wide].map(|g| format!("{g:#018x}"));
    let want = [
        "0xb1aa3a0960f31c4c",
        "0xb1aa3a0960f31c4c",
        "0x4b66c073db523d7b",
    ];
    assert_eq!(got, want, "bits moved");
}

/// The occupied eigenvectors of the last dense evaluation in `ws` and their
/// count: all `n` columns of `ws.h` after a one-stage solve, or the `k` the
/// two-stage solve streamed into ρ, recomputed from the step's own
/// reflectors and factor.
fn occupied_vectors(ws: &mut Workspace) -> (Matrix, usize) {
    match ws.dense_cache {
        DenseCache::Sliced { occupied } => {
            let mut z = Matrix::default();
            reduced_eigenvectors_into(&ws.h_lower, &ws.values[..occupied], &mut z, &mut ws.eigh);
            (z, occupied)
        }
        DenseCache::Full { .. } => (ws.h.clone(), ws.h.cols()),
        DenseCache::None => panic!("no dense solve in the workspace"),
    }
}

/// Hash of the dense pipeline's bond-block `ρ` on `s`, in its `n × n` dense
/// view (blocks, their transposes, zero elsewhere: the layout the pin was
/// recorded in), then of the SYRK reference density built from the same
/// eigenvectors.
fn density_hash(model: &dyn TbModel, s: &Structure) -> u64 {
    let mut ws = Workspace::new();
    let (index, occ) = TbCalculator::new(model)
        .density_with(s, &mut ws, &mut PhaseTimings::default())
        .unwrap();
    let (vectors, k) = occupied_vectors(&mut ws);
    let reference = density_matrix(&vectors, &occ.f[..k]);
    Fnv::new()
        .extend(ws.rho_blocks().to_dense(&index).as_slice())
        .extend(reference.as_slice())
        .0
}

#[test]
fn bond_density_reproduces_the_parent_bits() {
    // Both through the two-stage solve (n = 256 and 160): perturbed Si-64
    // and the (10,0) tube of one cell, the carbon cell the anneal runs four
    // of. The Si-64 hash was re-recorded when the neighbour list stopped
    // carrying skin entries: it is the parent's dense view with the blocks
    // of pairs beyond the cutoff zeroed, so no ρ value moved. It was
    // re-recorded again when the two-stage solve began adding ρ up strip by
    // strip: its 133-state window spans two strips, the tube's one.
    let si = black_box(silicon_gsp());
    let c = black_box(carbon_xwch());
    let mut tube = nanotube(10, 0, 1, 1.42);
    tube.perturb(&mut StdRng::seed_from_u64(160), 0.02);
    let moved: Vec<String> = [
        (
            "Si-64",
            &si as &dyn TbModel,
            perturbed_silicon(2, 64),
            0x95c3100697000802u64,
        ),
        ("(10,0)x1", &c, tube, 0x5ec23c39d4b59874),
    ]
    .into_iter()
    .map(|(what, model, s, want)| (what, density_hash(model, &s), want))
    .filter(|(_, got, want)| got != want)
    .map(|(what, got, _)| format!("{what}: {got:#018x}"))
    .collect();
    assert!(moved.is_empty(), "bits moved: {moved:?}");
}

/// Hash of the blocked reduction of `a`: (d, e), the reflectors where they
/// are stored (below the subdiagonal), then — for τ — the back-transform of
/// an `n × 13` block.
fn reduction_hash(a: &Matrix) -> u64 {
    let n = a.rows();
    let (mut packed, mut ws) = (a.clone(), EighWorkspace::default());
    tridiagonalize_blocked_into(&mut packed, &mut ws);
    let (d, e) = ws.tridiagonal_factor();
    let mut h = Fnv::new().extend(d).extend(e);
    for r in 2..n {
        h = h.extend(&packed.row(r)[..r - 1]);
    }
    let mut z = Matrix::from_fn(n, 13, |i, j| ((i * 13 + j) as f64 * 0.37).sin());
    apply_q_blocked(&packed, &mut ws, &mut z);
    h.extend(z.as_slice()).0
}

#[test]
fn tube_reduction_reproduces_the_parent_bits() {
    // `H` of the anneal's (10,0)×4 tube at its 0.02 Å, seed-42 start
    // (n = 640): the panel matvec of the first panels is cut into row bands
    // and every later panel applies up to 31 pending corrections. Under
    // width-1 and width-2 leases and on a thread pinned inline, as a
    // message-passing rank is. Re-recorded when the linked-cell builder
    // took the image sum's displacement expression (caller coordinates,
    // not wrapped ones; six of the tube's atoms lie below z = 0): the value
    // is what the parent's reduction computes from the parent's image-sum
    // list.
    let model = black_box(carbon_xwch());
    let mut tube = nanotube(10, 0, 4, 1.42);
    tube.perturb(&mut StdRng::seed_from_u64(42), 0.02);
    let nl = NeighborList::build(&tube, model.cutoff());
    let h = build_hamiltonian(&tube, &nl, &model, &OrbitalIndex::new(&tube));
    assert_eq!(h.rows(), 640);
    let rank = {
        let h = h.clone();
        std::thread::spawn(move || {
            team::pin_inline();
            reduction_hash(&h)
        })
        .join()
        .expect("pinned reduction")
    };
    let got = [
        at_width(1, || reduction_hash(&h)),
        at_width(2, || reduction_hash(&h)),
        rank,
    ];
    let want = 0xb7d8e66312833e6au64;
    assert!(
        got.iter().all(|&g| g == want),
        "bits moved: {:?}",
        got.map(|g| format!("{g:#018x}"))
    );
}

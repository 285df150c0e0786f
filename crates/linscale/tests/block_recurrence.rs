//! The block Chebyshev recurrence, the one pass's moments and ρ sets, and
//! the node-sum μ search against slow scalar references that live only
//! here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd_linalg::kernels::Row4;
use tbmd_linscale::chebyshev::{
    entropy_coefficients, grid_point, spectral_window, window, Expansion, Window, GRID_BITS, SETS,
};
use tbmd_linscale::{
    fermi_coefficients, solve_mu, BlockRecurrence, LinearScalingTb, LocalRegion, SparseH,
};
use tbmd_md::{maxwell_boltzmann, MdState, VelocityVerlet};
use tbmd_model::{
    build_hamiltonian, carbon_xwch, silicon_gsp, sk_block, ForceEvaluation, ForceProvider,
    GspTbModel, Hoppings, OrbitalIndex, TbModel, Workspace,
};
use tbmd_structure::{bulk_diamond, nanotube, NeighborList, Species, Structure};

/// The restriction of `h` to a region's orbitals, dense.
fn dense_restriction(h: &SparseH, orbitals: &[usize]) -> Vec<Vec<f64>> {
    let row = |&g: &usize| orbitals.iter().map(|&c| h.get(g, c)).collect();
    orbitals.iter().map(row).collect()
}

/// Scalar per-column reference: `T_k(H̃) e_j` for `k < order`, one column
/// at a time, `H̃ = (a − shift)/scale`.
fn scalar_columns(
    a: &[Vec<f64>],
    j: usize,
    (shift, scale): (f64, f64),
    order: usize,
) -> Vec<Vec<f64>> {
    let n = a.len();
    let apply = |x: &[f64]| -> Vec<f64> {
        let dot = |l: usize| a[l].iter().zip(x).map(|(v, y)| v * y).sum::<f64>();
        (0..n).map(|l| (dot(l) - shift * x[l]) / scale).collect()
    };
    let mut t = vec![(0..n).map(|l| f64::from(l == j)).collect::<Vec<_>>()];
    t.push(apply(&t[0]));
    for k in 2..order {
        let ht = apply(&t[k - 1]);
        t.push((0..n).map(|l| 2.0 * ht[l] - t[k - 2][l]).collect());
    }
    t
}

/// Silicon hoppings for every species, so a hydrogen (one orbital) can sit
/// in a silicon cell: a synthetic operator with a padded atom.
struct AnySpecies(GspTbModel);

impl TbModel for AnySpecies {
    fn name(&self) -> &str {
        "any-species"
    }
    fn supports(&self, _: Species) -> bool {
        true
    }
    fn cutoff(&self) -> f64 {
        self.0.cutoff()
    }
    fn on_site(&self, _: Species) -> [f64; 4] {
        self.0.on_site(Species::Silicon)
    }
    fn hoppings(&self, r: f64) -> Hoppings {
        self.0.hoppings(r)
    }
    fn hoppings_deriv(&self, r: f64) -> Hoppings {
        self.0.hoppings_deriv(r)
    }
    fn repulsion(&self, r: f64) -> (f64, f64) {
        self.0.repulsion(r)
    }
    fn embedding(&self, x: f64) -> (f64, f64) {
        self.0.embedding(x)
    }
}

/// Silicon hoppings stretched to reach past the edge of a 1×1×1 cell
/// (5.43 Å), so every atom couples to its own periodic images: a synthetic
/// operator whose diagonal is not the on-site energies.
struct LongReach(GspTbModel);

impl LongReach {
    const CUTOFF: f64 = 5.6;
    /// Distance 5.6 Å is read off the silicon curves at 3.36 Å.
    const SQUEEZE: f64 = 0.6;
}

impl TbModel for LongReach {
    fn name(&self) -> &str {
        "long-reach"
    }
    fn supports(&self, sp: Species) -> bool {
        self.0.supports(sp)
    }
    fn cutoff(&self) -> f64 {
        Self::CUTOFF
    }
    fn on_site(&self, sp: Species) -> [f64; 4] {
        self.0.on_site(sp)
    }
    fn hoppings(&self, r: f64) -> Hoppings {
        self.0.hoppings(Self::SQUEEZE * r)
    }
    fn hoppings_deriv(&self, r: f64) -> Hoppings {
        self.0
            .hoppings_deriv(Self::SQUEEZE * r)
            .map(|d| Self::SQUEEZE * d)
    }
    fn repulsion(&self, r: f64) -> (f64, f64) {
        self.0.repulsion(r)
    }
    fn embedding(&self, x: f64) -> (f64, f64) {
        self.0.embedding(x)
    }
}

fn perturbed(reps: usize, seed: u64) -> Structure {
    let mut s = bulk_diamond(Species::Silicon, reps, reps, reps);
    s.perturb(&mut StdRng::seed_from_u64(seed), 0.05);
    s
}

/// The dense Hamiltonian as rows: [`build_hamiltonian`] where every atom
/// has four orbitals, otherwise the same assembly written out with each
/// atom's own orbital count (`build_hamiltonian` lays out four per atom) —
/// on-site energies first, then each neighbour image's Slater–Koster block
/// in list order.
fn dense_hamiltonian(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    index: &OrbitalIndex,
) -> Vec<Vec<f64>> {
    let n = index.total();
    if n == 4 * s.n_atoms() {
        let h = build_hamiltonian(s, nl, model, index);
        return h.rows_iter().map(<[f64]>::to_vec).collect();
    }
    let mut h = vec![vec![0.0; n]; n];
    for i in 0..s.n_atoms() {
        let (oi, ni) = (index.offset(i), index.n_orbitals(i));
        let e = model.on_site(s.species(i));
        for k in 0..ni {
            h[oi + k][oi + k] = e[k];
        }
        for nb in nl.neighbors(i) {
            let v = model.hoppings(nb.dist);
            if v.iter().all(|&x| x == 0.0) {
                continue;
            }
            let b = sk_block(nb.disp.to_array(), v);
            let oj = index.offset(nb.j);
            for mu in 0..ni {
                for nu in 0..index.n_orbitals(nb.j) {
                    h[oi + mu][oj + nu] += b[mu][nu];
                }
            }
        }
    }
    h
}

/// `SparseH` holds exactly the dense Hamiltonian, and its Gershgorin bounds
/// are the scalar ones over the dense rows, bit for bit: on perturbed Si-64,
/// on an Si-8 cell whose atoms couple to their own images, on the carbon
/// (10,0) tube and on a cell with a one-orbital (padded) atom.
#[test]
fn block_layout_holds_the_dense_hamiltonian_exactly() {
    let (si, carbon) = (silicon_gsp(), carbon_xwch());
    let (long_reach, any) = (LongReach(silicon_gsp()), AnySpecies(silicon_gsp()));
    let mut tube = nanotube(10, 0, 2, 1.42);
    tube.perturb(&mut StdRng::seed_from_u64(5), 0.05);
    let mut hydrogen = perturbed(1, 4);
    hydrogen.substitute(3, Species::Hydrogen);
    let cases: [(&str, Structure, &dyn TbModel); 4] = [
        ("Si-64", perturbed(2, 11), &si),
        ("Si-8 with self-images", perturbed(1, 6), &long_reach),
        ("(10,0) tube", tube, &carbon),
        ("padded hydrogen", hydrogen, &any),
    ];
    for (name, s, model) in cases {
        let nl = NeighborList::build(&s, model.cutoff());
        let index = OrbitalIndex::new(&s);
        let h = SparseH::build(&s, &nl, model, &index);
        let dense = dense_hamiltonian(&s, &nl, model, &index);
        assert_eq!(h.n(), dense.len(), "{name}");
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, row) in dense.iter().enumerate() {
            let mut radius = 0.0;
            for (j, &x) in row.iter().enumerate() {
                assert_eq!(h.get(i, j), x, "{name}: entry ({i},{j})");
                if j != i {
                    radius += x.abs();
                }
            }
            lo = lo.min(row[i] - radius);
            hi = hi.max(row[i] + radius);
        }
        let (g_lo, g_hi) = h.gershgorin_bounds();
        assert_eq!(
            (g_lo.to_bits(), g_hi.to_bits()),
            (lo.to_bits(), hi.to_bits()),
            "{name}: ({g_lo}, {g_hi}) vs ({lo}, {hi})"
        );
    }
}

struct Setup {
    s: Structure,
    index: OrbitalIndex,
    h: SparseH,
    window: (f64, f64),
}

fn setup(s: Structure, model: &dyn TbModel) -> Setup {
    let nl = NeighborList::build(&s, model.cutoff());
    let index = OrbitalIndex::new(&s);
    let h = SparseH::build(&s, &nl, model, &index);
    let (e_min, e_max) = h.gershgorin_bounds();
    Setup {
        s,
        index,
        h,
        window: spectral_window(e_min, e_max),
    }
}

/// Largest deviation of the blocked iterates of `atom` from the scalar
/// reference over `order` terms, padded rows and columns checked to be exactly
/// zero.
fn blocked_vs_scalar(su: &Setup, atom: usize, r_loc: f64, order: usize) -> f64 {
    let region = LocalRegion::build(&su.s, &su.index, &su.h, atom, r_loc);
    let row0 = region.local_index(su.index.offset(atom)).unwrap();
    let n_orb = su.s.species(atom).n_orbitals();
    let rows: Vec<usize> = region
        .orbitals()
        .iter()
        .map(|&g| region.local_index(g).unwrap())
        .collect();
    let dense = dense_restriction(&su.h, &region.orbitals());
    let reference: Vec<_> = (0..n_orb)
        .map(|nu| {
            let j = region
                .orbitals()
                .binary_search(&(su.index.offset(atom) + nu))
                .unwrap();
            scalar_columns(&dense, j, su.window, order)
        })
        .collect();
    let mut rec = BlockRecurrence::new(&region, row0, n_orb, su.window.0, su.window.1);
    let mut worst = 0.0f64;
    for k in 0..order {
        if k > 0 {
            rec.advance();
        }
        let t = rec.current();
        for (nu, column) in reference.iter().enumerate() {
            for (l, &row) in rows.iter().enumerate() {
                worst = worst.max((t[row][nu] - column[k][l]).abs());
            }
        }
        for (r, row) in t.iter().enumerate() {
            let live = if rows.contains(&r) { n_orb } else { 0 };
            assert!(
                row[live..].iter().all(|&x| x == 0.0),
                "padding of row {r} must stay zero (k = {k})"
            );
        }
    }
    worst
}

#[test]
fn blocked_recurrence_matches_scalar_reference() {
    let model = silicon_gsp();
    let su = setup(perturbed(2, 11), &model);
    for r_loc in [4.0, 6.0, f64::INFINITY] {
        for atom in [0, 37] {
            let dev = blocked_vs_scalar(&su, atom, r_loc, 60);
            assert!(dev < 1e-12, "r_loc {r_loc}, atom {atom}: {dev:e}");
        }
    }
}

#[test]
fn padded_one_orbital_atom_matches_scalar_reference() {
    let model = AnySpecies(silicon_gsp());
    let mut s = perturbed(1, 4);
    s.substitute(3, Species::Hydrogen);
    let su = setup(s, &model);
    assert_eq!(su.h.n(), 7 * 4 + 1);
    let region = LocalRegion::build(&su.s, &su.index, &su.h, 3, f64::INFINITY);
    assert_eq!((region.len(), region.padded_len()), (29, 32));
    // The hydrogen as centre (three padded columns) and inside a silicon
    // atom's region (three padded rows).
    for atom in [3, 0, 7] {
        let dev = blocked_vs_scalar(&su, atom, f64::INFINITY, 60);
        assert!(dev < 1e-12, "atom {atom}: {dev:e}");
    }
}

#[test]
fn atom_coupled_to_its_own_image_steps_like_the_full_matvec() {
    let model = LongReach(silicon_gsp());
    let su = setup(perturbed(1, 6), &model);
    let (atom, n) = (2, su.h.n());
    let o = su.index.offset(atom);
    // The images' ssσ sits on the diagonal of H, which the region holds
    // apart from its blocks. (The images come in ± pairs and mirror pairs of
    // an orthorhombic cell, so their s–p and p–p′ terms cancel: what the
    // atom's own block gains is diagonal.)
    let e_s = model.on_site(Species::Silicon)[0];
    assert!((su.h.get(o, o) - e_s).abs() > 1e-3, "no self-image term");
    let region = LocalRegion::build(&su.s, &su.index, &su.h, atom, f64::INFINITY);
    assert_eq!((region.len(), region.padded_len()), (n, n));

    let x: Vec<Row4> = (0..n)
        .map(|i| std::array::from_fn(|c| ((4 * i + c) as f64 * 0.37).sin()))
        .collect();
    let out = region.apply(&x);
    let dense = dense_restriction(&su.h, &region.orbitals());
    let mut trace = 0.0;
    for c in 0..4 {
        let hx: Vec<f64> = dense
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, xr)| a * xr[c]).sum())
            .collect();
        for (i, (got, want)) in out.iter().zip(&hx).enumerate() {
            assert!((got[c] - want).abs() < 1e-12, "({i},{c})");
        }
        trace += hx[o + c];
    }
    let row0 = region.local_index(o).unwrap();
    assert!((region.block_row_trace(row0, &x) - trace).abs() < 1e-12);

    let dev = blocked_vs_scalar(&su, atom, f64::INFINITY, 60);
    assert!(dev < 1e-12, "recurrence: {dev:e}");
}

/// The centre's diagonal the one pass reads, `Σ_ν T_k(H̃)_νν` for `k <
/// order`, against the scalar columns, at even and odd order; with an
/// expansion riding along or without.
#[test]
fn the_pass_diagonal_matches_the_scalar_columns() {
    let model = silicon_gsp();
    let su = setup(perturbed(2, 23), &model);
    let atom = 5;
    let region = LocalRegion::build(&su.s, &su.index, &su.h, atom, 6.0);
    let row0 = region.local_index(su.index.offset(atom)).unwrap();
    let dense = dense_restriction(&su.h, &region.orbitals());
    let every: Vec<usize> = (0..region.padded_len() / 4).collect();
    for order in [60usize, 61] {
        let mut direct = vec![0.0; order];
        for nu in 0..4 {
            let j = region
                .orbitals()
                .binary_search(&(su.index.offset(atom) + nu))
                .unwrap();
            let t = scalar_columns(&dense, j, su.window, order);
            for (m, tk) in direct.iter_mut().zip(&t) {
                *m += tk[j];
            }
        }
        let window = Window {
            shift: su.window.0,
            scale: su.window.1,
            order,
        };
        let e = Expansion::new(window, 0.3, 0.2);
        for expansion in [None, Some((&e, &every[..]))] {
            let mut moments = vec![0.0; order];
            BlockRecurrence::new(&region, row0, 4, su.window.0, su.window.1)
                .pass(&mut moments, expansion);
            for (k, (a, b)) in moments.iter().zip(&direct).enumerate() {
                assert!((a - b).abs() < 1e-10, "order {order}, M_{k}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn node_sums_match_coefficient_sums() {
    // Global moments of an untruncated Si-8 cell, read by the one pass.
    let model = silicon_gsp();
    let su = setup(perturbed(1, 9), &model);
    let (order, kt) = (120usize, 0.25);
    let mut moments = vec![0.0; order];
    for atom in 0..su.s.n_atoms() {
        let region = LocalRegion::build(&su.s, &su.index, &su.h, atom, f64::INFINITY);
        let row0 = region.local_index(su.index.offset(atom)).unwrap();
        BlockRecurrence::new(&region, row0, 4, su.window.0, su.window.1).pass(&mut moments, None);
    }
    let n_electrons = su.s.n_electrons() as f64;
    let fermi = solve_mu(&moments, su.window.0, su.window.1, kt, n_electrons);

    let (e_min, e_max) = su.h.gershgorin_bounds();
    let series = |c: &[f64]| -> f64 {
        2.0 * (0.5 * c[0] * moments[0] + (1..order).map(|k| c[k] * moments[k]).sum::<f64>())
    };
    let count_at = |mu: f64| series(&fermi_coefficients(e_min, e_max, mu, kt, order).2);
    assert!((fermi.electron_count - count_at(fermi.mu)).abs() < 1e-10);
    assert!((fermi.electron_count - n_electrons).abs() < 1e-9);
    let entropy = kt * series(&entropy_coefficients(e_min, e_max, fermi.mu, kt, order).2);
    assert!((fermi.entropy_term - entropy).abs() < 1e-10);
    assert!(fermi.entropy_term < 0.0);

    let (mut lo, mut hi) = (e_min - 10.0 * kt, e_max + 10.0 * kt);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if count_at(mid) < n_electrons {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    assert!(
        (fermi.mu - 0.5 * (lo + hi)).abs() < 1e-10,
        "μ {} vs {}",
        fermi.mu,
        0.5 * (lo + hi)
    );
}

/// An expansion's weights are the Fermi series' coefficients (`c₀`, then
/// `2c_k`) and their μ-derivatives over `s!`: against central differences
/// of [`fermi_coefficients`] at `g ± h`, to their `O(h²)` error.
#[test]
fn expansion_weights_are_the_mu_derivatives_of_the_fermi_coefficients() {
    let (e_min, e_max, kt, order, g) = (-15.0, 8.0, 0.2, 150, 0.13);
    let (shift, scale) = spectral_window(e_min, e_max);
    let e = Expansion::new(
        Window {
            shift,
            scale,
            order,
        },
        g,
        kt,
    );
    assert_eq!(e.weights.len(), order);
    let c = |mu: f64| fermi_coefficients(e_min, e_max, mu, kt, order).2;
    let h = 1e-3;
    let (lo, mid, hi) = (c(g - h), c(g), c(g + h));
    let derivatives = |k: usize| {
        let factor = if k == 0 { 1.0 } else { 2.0 };
        [
            mid[k],
            (hi[k] - lo[k]) / (2.0 * h),
            (hi[k] - 2.0 * mid[k] + lo[k]) / (2.0 * h * h),
        ]
        .map(|d| factor * d)
    };
    // The series itself is bit for bit the coefficients' (c₀, then 2c_k);
    // the first two derivatives agree with the differences to 1.2e-7 and
    // 1.6e-7 of their size (the differences' O(h²) error).
    for (k, got) in e.weights.iter().enumerate() {
        let want = derivatives(k);
        assert_eq!(got[0].to_bits(), want[0].to_bits(), "k {k}");
        for s in 1..3 {
            let err = (got[s] - want[s]).abs() / (1.0 + want[s].abs());
            assert!(err <= 1e-6, "k {k}, s {s}: {} vs {}", got[s], want[s]);
        }
    }
}

/// On perturbed Si-64: the ρ columns a pass about `g` corrects to
/// `g + Δ`, `|Δ| = δ/2` (the farthest μ gets from its grid point), against
/// a pass run directly at `g + Δ`, on the bond rows of three atoms.
#[test]
fn rho_corrected_from_a_grid_point_matches_a_pass_at_mu() {
    let model = silicon_gsp();
    let s = perturbed(2, 31);
    let nl = NeighborList::build(&s, model.cutoff());
    let index = OrbitalIndex::new(&s);
    let h = SparseH::build(&s, &nl, &model, &index);
    let kt = 0.2;
    let w = window(&h, kt, 350);
    let g = grid_point(0.1, kt);
    let delta = kt / f64::from(1u32 << GRID_BITS);
    let mut worst = 0.0f64;
    for atom in [0, 21, 42] {
        let region = LocalRegion::build(&s, &index, &h, atom, 6.0);
        let row0 = region.local_index(index.offset(atom)).unwrap();
        let mut kept: Vec<usize> = (nl.neighbors(atom).iter().map(|nb| nb.j).chain([atom]))
            .map(|j| region.local_index(index.offset(j)).unwrap() / 4)
            .collect();
        kept.sort_unstable();
        kept.dedup();
        let pass = |e: &Expansion| {
            let mut moments = vec![0.0; w.order];
            let rec = BlockRecurrence::new(&region, row0, 4, w.shift, w.scale);
            rec.pass(&mut moments, Some((e, &kept))).unwrap()
        };
        let sets = pass(&Expansion::new(w, g, kt));
        let m = sets.len() / SETS;
        for d in [-0.5 * delta, 0.5 * delta] {
            let direct = pass(&Expansion::new(w, g + d, kt));
            for (b, direct) in direct[..m].iter().enumerate() {
                for c in 0..4 {
                    let series = (0..SETS)
                        .rev()
                        .fold(0.0, |acc, s| acc * d + sets[s * m + b][c]);
                    worst = worst.max((series - direct[c]).abs());
                }
            }
        }
    }
    assert!(worst <= RHO_BOUND, "ρ off by {worst:.3e}");
}

/// What [`rho_corrected_from_a_grid_point_matches_a_pass_at_mu`] allows.
/// The entries read 2.3e-10 at the grid spacing and correction order of
/// `chebyshev` (kT/2, sixth order). Over 200-step Si-216 NVE runs at 300 K
/// and 1500 K the forces of the corrected ρ stayed within 5.3e-9 eV/Å of a
/// pass run directly at μ.
const RHO_BOUND: f64 = 1e-9;

/// One engine evaluating the same structure twice: the second evaluation
/// starts at the first's grid point and runs one pass, the cold one at most
/// two, and both give the same bits.
#[test]
fn a_hot_evaluation_runs_one_pass_and_a_cold_one_at_most_two() {
    let model = silicon_gsp();
    let s = perturbed(2, 17);
    let engine = LinearScalingTb::new(&model).with_r_loc(6.0);
    let cold = engine.evaluate(&s).unwrap();
    let first = engine.last_report().unwrap();
    let hot = engine.evaluate(&s).unwrap();
    let second = engine.last_report().unwrap();
    assert!((1..=2).contains(&first.passes), "{} passes", first.passes);
    assert_eq!(second.passes, 1);
    assert_eq!(
        second.total_matvec_ops * first.passes as u64,
        first.total_matvec_ops
    );
    assert_eq!(cold.energy.to_bits(), hot.energy.to_bits());
    for (a, b) in cold.forces.iter().zip(&hot.forces) {
        assert_eq!(
            a.to_array().map(f64::to_bits),
            b.to_array().map(f64::to_bits)
        );
    }
}

/// The benchmark's O(N) settings (order 350, r_loc 6.0 Å, kT 0.2 eV) on
/// Si-64: the conserved quantity must stay inside the per-atom limit the
/// `si216-linscale-nve` workload gates on.
#[test]
fn nve_drift_within_benchmark_limit() {
    let model = silicon_gsp();
    let engine = LinearScalingTb::new(&model).with_r_loc(6.0);
    assert_eq!((engine.order, engine.kt), (350, 0.2));
    let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
    let mut rng = StdRng::seed_from_u64(42);
    s.perturb(&mut rng, 0.02);
    let v = maxwell_boltzmann(&s, 300.0, &mut rng);
    let mut state = MdState::new(s, v, &engine).unwrap();
    let e0 = state.total_energy();
    let vv = VelocityVerlet::new(1.0);
    let mut drift = 0.0f64;
    for _ in 0..20 {
        vv.step(&mut state, &engine).unwrap();
        drift = drift.max((state.total_energy() - e0).abs());
    }
    let per_atom = drift / 64.0;
    assert!(per_atom <= 1.8e-2, "drift {per_atom:e} eV/atom");
}

/// A 200-step O(N) Si-64 NVE run from 3000 K through one workspace and one
/// engine, whose region candidates are kept across steps and rebuilt as atoms
/// move: every step's energy and forces are bit for bit those of a cold
/// evaluation by a fresh engine, while the regions' membership changes.
#[test]
fn a_hot_run_keeps_the_cold_evaluation_bits_at_every_step() {
    let model = silicon_gsp();
    let engine = |order| {
        LinearScalingTb::new(&model)
            .with_r_loc(6.0)
            .with_order(order)
    };
    let run = engine(16);
    let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
    let mut rng = StdRng::seed_from_u64(3000);
    s.perturb(&mut rng, 0.02);
    let v = maxwell_boltzmann(&s, 3000.0, &mut rng);
    let mut ws = Workspace::new();
    let mut state = MdState::new_with(s, v, &run, &mut ws).unwrap();
    let vv = VelocityVerlet::new(1.0);
    let bits = |e: &ForceEvaluation| {
        let forces = e.forces.iter().flat_map(|f| f.to_array());
        std::iter::once(e.energy)
            .chain(forces)
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    let mut sizes = std::collections::BTreeSet::new();
    for step in 0..200 {
        vv.step_with(&mut state, &run, &mut ws).unwrap();
        let cold = engine(16).evaluate(&state.structure).unwrap();
        let mut warm = cold.clone();
        warm.energy = state.potential_energy;
        warm.forces.clone_from(&state.forces);
        assert_eq!(bits(&warm), bits(&cold), "step {step}");
        sizes.insert(run.last_report().unwrap().total_region_orbitals);
    }
    assert!(sizes.len() > 1, "membership never changed: {sizes:?}");
}

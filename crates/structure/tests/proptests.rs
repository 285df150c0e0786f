//! Property-based tests for cells, builders and neighbor lists.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd_linalg::Vec3;
use tbmd_structure::{
    bulk_diamond, nanotube, nanotube_geometry, Cell, NeighborList, Species, Structure,
};

/// Every entry of `nl` — atom, image, displacement and distance bits — in
/// list order.
fn entry_bits(nl: &NeighborList) -> Vec<(usize, usize, [i32; 3], [u64; 4])> {
    (0..nl.n_atoms())
        .flat_map(|i| {
            nl.neighbors(i).iter().map(move |nb| {
                let d = nb.disp;
                (
                    i,
                    nb.j,
                    nb.shift,
                    [d.x, d.y, d.z, nb.dist].map(f64::to_bits),
                )
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimum_image_never_longer_than_direct(
        ax in -20.0f64..20.0, ay in -20.0f64..20.0, az in -20.0f64..20.0,
        bx in -20.0f64..20.0, by in -20.0f64..20.0, bz in -20.0f64..20.0,
        lx in 2.0f64..15.0, ly in 2.0f64..15.0, lz in 2.0f64..15.0,
    ) {
        let cell = Cell::orthorhombic(lx, ly, lz);
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        let dmin = cell.distance(a, b);
        prop_assert!(dmin <= (b - a).norm() + 1e-12);
        // Minimum-image displacement components are bounded by L/2.
        let d = cell.displacement(a, b);
        prop_assert!(d.x.abs() <= lx / 2.0 + 1e-9);
        prop_assert!(d.y.abs() <= ly / 2.0 + 1e-9);
        prop_assert!(d.z.abs() <= lz / 2.0 + 1e-9);
    }

    #[test]
    fn wrap_translation_invariance(
        x in -50.0f64..50.0, y in -50.0f64..50.0, z in -50.0f64..50.0,
        l in 1.0f64..20.0, k in -5i32..5
    ) {
        let cell = Cell::cubic(l);
        let r = Vec3::new(x, y, z);
        let shifted = r + Vec3::splat(k as f64 * l);
        let w1 = cell.wrap(r);
        let w2 = cell.wrap(shifted);
        prop_assert!((w1 - w2).norm() < 1e-9 * (1.0 + k.abs() as f64));
    }

    #[test]
    fn neighbor_list_consistent_with_brute(cutoff in 1.5f64..3.6) {
        // Si-64 (L = 10.86 Å): linked cells apply up to L/3.
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let brute = NeighborList::build_brute_force(&s, cutoff);
        prop_assert_eq!(entry_bits(&brute), entry_bits(&NeighborList::build_linked_cell(&s, cutoff)));
        prop_assert_eq!(entry_bits(&brute), entry_bits(&NeighborList::build(&s, cutoff)));
    }

    #[test]
    fn neighbor_counts_uniform_in_perfect_crystal(reps in 1usize..3, cutoff in 2.4f64..4.0) {
        let s = bulk_diamond(Species::Silicon, reps + 1, reps + 1, reps + 1);
        let nl = NeighborList::build(&s, cutoff);
        let c0 = nl.neighbors(0).len();
        for i in 1..s.n_atoms() {
            prop_assert_eq!(nl.neighbors(i).len(), c0, "atom {} differs", i);
        }
    }

    #[test]
    fn nanotube_atom_count_formula(n in 3u32..10, m_frac in 0u32..11, cells in 1usize..3) {
        let m = m_frac % (n + 1); // 0..=n
        let geom = nanotube_geometry(n, m, 1.42);
        let tube = nanotube(n, m, cells, 1.42);
        prop_assert_eq!(tube.n_atoms(), geom.atoms_per_cell * cells);
        // All on the cylinder of the right radius.
        for &p in tube.positions() {
            let r = (p.x * p.x + p.y * p.y).sqrt();
            prop_assert!((r - geom.radius).abs() < 1e-8);
        }
    }

    #[test]
    fn nanotube_always_three_coordinated(n in 4u32..9, m_sel in 0u32..3) {
        let m = match m_sel { 0 => 0, 1 => n, _ => n / 2 };
        let tube = nanotube(n, m, 2, 1.42);
        for i in 0..tube.n_atoms() {
            prop_assert_eq!(tube.coordination(i, 1.6), 3, "atom {} in ({},{})", i, n, m);
        }
    }

    #[test]
    fn com_translation_covariance(dx in -5.0f64..5.0, dy in -5.0f64..5.0, dz in -5.0f64..5.0) {
        let mut s = Structure::homogeneous(
            Species::Carbon,
            vec![Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0), Vec3::new(-1.0, 0.5, 0.2)],
            Cell::cluster(),
        );
        let c0 = s.center_of_mass();
        let t = Vec3::new(dx, dy, dz);
        for r in s.positions_mut() {
            *r += t;
        }
        let c1 = s.center_of_mass();
        prop_assert!((c1 - (c0 + t)).norm() < 1e-10);
    }
}

proptest! {
    // An Si-216 image sum per case.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn builders_agree_bitwise_outside_the_primary_cell(
        seed in 0u64..1000,
        tx in 2.0f64..20.0, ty in -20.0f64..-2.0, tz in -20.0f64..20.0,
        cutoff in 2.0f64..5.4,
    ) {
        // Perturbed Si-216 (L = 16.29 Å) moved by up to more than a cell
        // edge: atoms sit on both sides of [0, L) (x past L, y below 0), so
        // the image offsets fold into every recorded shift.
        let mut s = bulk_diamond(Species::Silicon, 3, 3, 3);
        s.perturb(&mut StdRng::seed_from_u64(seed), 0.3);
        for r in s.positions_mut() {
            *r += Vec3::new(tx, ty, tz);
        }
        let edge = s.cell().lengths.x;
        prop_assert!(s.positions().iter().any(|r| r.x >= edge));
        prop_assert!(s.positions().iter().any(|r| r.y < 0.0));
        let brute = NeighborList::build_brute_force(&s, cutoff);
        prop_assert_eq!(entry_bits(&brute), entry_bits(&NeighborList::build_linked_cell(&s, cutoff)));
        prop_assert!(brute.n_entries() > 0);
    }
}

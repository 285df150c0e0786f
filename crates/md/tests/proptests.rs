//! Property-based tests of the MD layer: statistical mechanics of the
//! velocity sampler, integrator symmetry properties, and observable
//! invariants — all independent of any particular potential.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd_linalg::Vec3;
use tbmd_md::{
    dof_with_com_removed, instantaneous_temperature, kinetic_energy, maxwell_boltzmann,
    remove_com_velocity, rescale_to_temperature, RdfAccumulator, RunningStats,
};
use tbmd_structure::{bulk_diamond, Species};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn maxwell_boltzmann_exact_temperature_and_momentum(t in 1.0f64..4000.0, seed in 0u64..500) {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let v = maxwell_boltzmann(&s, t, &mut rng);
        let masses = s.masses();
        let dof = dof_with_com_removed(s.n_atoms());
        let t_meas = instantaneous_temperature(&masses, &v, dof);
        prop_assert!((t_meas - t).abs() < 1e-8 * t.max(1.0));
        let p: Vec3 = masses.iter().zip(&v).map(|(&m, &vi)| vi * m).sum();
        prop_assert!(p.max_abs() < 1e-9 * t.sqrt());
    }

    #[test]
    fn rescale_hits_any_target(t0 in 10.0f64..3000.0, t1 in 10.0f64..3000.0, seed in 0u64..100) {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = maxwell_boltzmann(&s, t0, &mut rng);
        let masses = s.masses();
        let dof = dof_with_com_removed(s.n_atoms());
        rescale_to_temperature(&masses, &mut v, dof, t1);
        prop_assert!((instantaneous_temperature(&masses, &v, dof) - t1).abs() < 1e-8 * t1);
    }

    #[test]
    fn com_removal_idempotent(seed in 0u64..100, t in 50.0f64..2000.0) {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = maxwell_boltzmann(&s, t, &mut rng);
        let masses = s.masses();
        let before = v.clone();
        remove_com_velocity(&masses, &mut v);
        for (a, b) in v.iter().zip(&before) {
            prop_assert!((*a - *b).norm() < 1e-12, "already-clean velocities changed");
        }
    }

    #[test]
    fn kinetic_energy_additive_and_scaling(seed in 0u64..100, lambda in 0.1f64..3.0) {
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let v = maxwell_boltzmann(&s, 500.0, &mut rng);
        let masses = s.masses();
        let e = kinetic_energy(&masses, &v);
        let scaled: Vec<Vec3> = v.iter().map(|&x| x * lambda).collect();
        prop_assert!((kinetic_energy(&masses, &scaled) - lambda * lambda * e).abs() < 1e-10 * e);
        // Additivity over atom subsets.
        let e01 = kinetic_energy(&masses[..2], &v[..2]);
        let e_rest = kinetic_energy(&masses[2..], &v[2..]);
        prop_assert!((e01 + e_rest - e).abs() < 1e-12 * (1.0 + e));
    }

    #[test]
    fn running_stats_match_direct_formulas(xs in prop::collection::vec(-100.0f64..100.0, 1..60)) {
        let mut st = RunningStats::new();
        for &x in &xs {
            st.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((st.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert!((st.variance() - var).abs() < 1e-8 * (1.0 + var));
        prop_assert_eq!(st.count(), xs.len() as u64);
        prop_assert!(st.min() <= mean + 1e-12 && st.max() >= mean - 1e-12);
    }

    #[test]
    fn rdf_histogram_counts_total_pairs(cutoff in 3.0f64..5.0) {
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rdf = RdfAccumulator::new(cutoff, 64);
        rdf.accumulate(&s);
        // Total normalized pair weight: Σ_bins g·shell equals pairs/atom.
        let pairs_within = s
            .pairs_within(cutoff)
            .into_iter()
            .filter(|&(_, _, d)| d < cutoff)
            .count() as f64;
        let dr = rdf.dr();
        let rho = s.n_atoms() as f64 / s.cell().volume().unwrap();
        let integral: f64 = rdf
            .finish()
            .iter()
            .map(|&(r, g)| g * 4.0 * std::f64::consts::PI * r * r * dr * rho)
            .sum();
        // integral ≈ 2·pairs/N (both directions, per atom).
        let expect = 2.0 * pairs_within / s.n_atoms() as f64;
        prop_assert!(
            (integral - expect).abs() < 0.15 * expect.max(1.0),
            "integral {} vs expected {}",
            integral,
            expect
        );
    }
}

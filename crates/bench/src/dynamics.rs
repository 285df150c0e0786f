//! The MD layer: NVE conservation (F3), Nosé–Hoover NVT (T3), melting (F4)
//! and the ablations of two design choices (A1).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::md::{RdfAccumulator, RunningStats};
use tbmd::model::{KeptCandidates, TbModel, DEFAULT_SKIN};
use tbmd::structure::{bulk_diamond, fullerene_c60};
use tbmd::{
    carbon_xwch, maxwell_boltzmann, silicon_gsp, MdState, NeighborList, NoseHoover,
    OccupationScheme, Species, Structure, TbCalculator, TemperatureRamp, VelocityVerlet,
};

use crate::report::{fmt_e, fmt_f, Report, Table};

fn si8() -> Structure {
    bulk_diamond(Species::Silicon, 1, 1, 1)
}

/// Velocity-Verlet NVE of Si-8 from `temperature` (velocities seeded with
/// `seed`): `on_step` sees ΔE = E − E₀ after every one of `steps` steps.
fn nve(
    calc: &TbCalculator,
    temperature: f64,
    dt: f64,
    seed: u64,
    steps: usize,
    mut on_step: impl FnMut(usize, f64),
) -> f64 {
    let s = si8();
    let v = maxwell_boltzmann(&s, temperature, &mut StdRng::seed_from_u64(seed));
    let mut state = MdState::new(s, v, calc).expect("initial evaluation");
    let vv = VelocityVerlet::new(dt);
    let e0 = state.total_energy();
    for step in 0..steps {
        vv.step(&mut state, calc).expect("MD step");
        on_step(step, state.total_energy() - e0);
    }
    e0
}

/// F3: peak |ΔE| and secular drift of `size` (default 60) NVE steps of
/// Si-8 at four timesteps and two temperatures.
pub fn energy_conservation(size: Option<usize>) -> Report {
    let steps = size.unwrap_or(60);
    let model = silicon_gsp();
    let calc = TbCalculator::new(&model);
    let mut table = Table::new(
        "F3: NVE energy conservation, Si-8, velocity Verlet",
        &[
            "T/K",
            "dt/fs",
            "span/fs",
            "peak |ΔE|/eV",
            "secular drift/eV",
        ],
    );
    for temperature in [300.0, 1500.0] {
        for dt in [0.25, 0.5, 1.0, 2.0] {
            let mut peak = 0.0f64;
            // Mean ΔE of the second half of the run minus that of the first.
            let mut drift = 0.0;
            nve(&calc, temperature, dt, 12, steps, |step, de| {
                peak = peak.max(de.abs());
                drift += if step < steps / 2 { -de } else { de };
            });
            table.row(vec![
                format!("{temperature:.0}"),
                format!("{dt:.2}"),
                format!("{:.1}", dt * steps as f64),
                fmt_e(peak),
                fmt_e((drift / (steps / 2) as f64).abs()),
            ]);
        }
    }
    let mut report = Report::default();
    report.table(table);
    report
}

/// T3: `size` (default 80) Nosé–Hoover steps (1 fs, τ = 25 fs) of Si-8 and
/// C₆₀ at two targets each, lattice start at twice the target.
pub fn nvt(size: Option<usize>) -> Report {
    let steps = size.unwrap_or(80);
    let (si, c) = (silicon_gsp(), carbon_xwch());
    let cases: [(&str, &dyn TbModel, Structure, f64); 4] = [
        ("Si-8", &si, si8(), 300.0),
        ("Si-8", &si, si8(), 1500.0),
        ("C60", &c, fullerene_c60(1.44), 1000.0),
        ("C60", &c, fullerene_c60(1.44), 3000.0),
    ];
    let mut table = Table::new(
        format!("T3: Nosé–Hoover NVT ({steps} steps of 1 fs, τ = 25 fs, T averaged over the second half)"),
        &[
            "system",
            "target T/K",
            "mean T/K",
            "σ(T)/K",
            "peak |ΔH'|/eV",
            "relative",
        ],
    );
    for (label, model, structure, target) in cases {
        let calc = TbCalculator::new(model);
        // Lattice start: equipartition turns half the initial kinetic
        // energy into phonon potential energy.
        let v = maxwell_boltzmann(&structure, 2.0 * target, &mut StdRng::seed_from_u64(5));
        let mut state = MdState::new(structure, v, &calc).expect("initial evaluation");
        let mut nh = NoseHoover::with_period(1.0, target, state.n_dof(), 25.0);
        let h0 = nh.conserved_quantity(&state);
        let mut t_stats = RunningStats::new();
        let mut peak_dh = 0.0f64;
        for step in 0..steps {
            nh.step(&mut state, &calc).expect("MD step");
            if step >= steps / 2 {
                t_stats.push(state.temperature());
            }
            peak_dh = peak_dh.max((nh.conserved_quantity(&state) - h0).abs());
        }
        table.row(vec![
            label.to_string(),
            format!("{target:.0}"),
            fmt_f(t_stats.mean(), 1),
            fmt_f(t_stats.std_dev(), 1),
            fmt_e(peak_dh),
            fmt_e(peak_dh / h0.abs()),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report
}

/// F4: g(r) of Si-64 at 300 K, then after a 0.5 K/fs Nosé–Hoover ramp to
/// 3000 K and a hold of `size` (default 120) steps.
pub fn melting(size: Option<usize>) -> Report {
    let hold_steps = size.unwrap_or(120);
    let t_hot = 3000.0;
    let model = silicon_gsp();
    let calc = TbCalculator::new(&model);
    let structure = bulk_diamond(Species::Silicon, 2, 2, 2);
    let v = maxwell_boltzmann(&structure, 300.0, &mut StdRng::seed_from_u64(7));
    let mut state = MdState::new(structure, v, &calc).expect("initial evaluation");
    let mut nh = NoseHoover::with_period(1.0, 300.0, state.n_dof(), 50.0);

    let mut cold = RdfAccumulator::new(5.4, 108);
    for _ in 0..25 {
        nh.step(&mut state, &calc).expect("MD step");
        cold.accumulate(&state.structure);
    }
    let ramp = TemperatureRamp {
        rate_k_per_fs: 0.5,
        target_k: t_hot,
    };
    while ramp.advance(&mut nh) {
        nh.step(&mut state, &calc).expect("MD step");
    }
    let mut hot = RdfAccumulator::new(5.4, 108);
    for step in 0..hold_steps {
        nh.step(&mut state, &calc).expect("MD step");
        if step >= hold_steps / 3 {
            hot.accumulate(&state.structure);
        }
    }

    let mut table = Table::new(
        format!("F4: Si-64 g(r), 300 K vs {t_hot:.0} K (ramp 0.5 K/fs, hold {hold_steps} steps)"),
        &["r/Å", "g(r) cold", "g(r) hot"],
    );
    let (g_cold, g_hot) = (cold.finish(), hot.finish());
    for ((r, gc), (_, gh)) in g_cold.iter().zip(&g_hot).step_by(6) {
        table.row(vec![fmt_f(*r, 2), fmt_f(*gc, 2), fmt_f(*gh, 2)]);
    }
    let shell = |g: &[(f64, f64)]| {
        (g.iter())
            .filter(|(r, _)| (r - 3.84).abs() < 0.25)
            .map(|&(_, g)| g)
            .fold(0.0, f64::max)
    };
    let first_peak = |rdf: &RdfAccumulator| rdf.first_peak().map_or(0.0, |p| p.0);
    let mut report = Report::default();
    report.table(table).note(format!(
        "Second shell g(3.84 Å): {:.2} (cold) → {:.2} (hot); first peak at {:.2} → {:.2} Å.",
        shell(&g_cold),
        shell(&g_hot),
        first_peak(&cold),
        first_peak(&hot),
    ));
    report
}

/// A1: (a) the occupation scheme against NVE conservation through level
/// crossings, (b) the one neighbour search against the image sum it is
/// checked against, at the radii the engines search.
pub fn ablation(_: Option<usize>) -> Report {
    let model = silicon_gsp();
    let mut occupations = Table::new(
        "A1a: occupation scheme vs NVE energy conservation, Si-8 at 2000 K, 40 fs",
        &["occupations", "peak |ΔE|/eV", "relative"],
    );
    for (label, occ) in [
        ("zero-temperature", OccupationScheme::ZeroTemperature),
        ("Fermi kT=0.05 eV", OccupationScheme::Fermi { kt: 0.05 }),
        ("Fermi kT=0.10 eV", OccupationScheme::Fermi { kt: 0.1 }),
        ("Fermi kT=0.30 eV", OccupationScheme::Fermi { kt: 0.3 }),
    ] {
        let calc = TbCalculator::with_occupation(&model, occ);
        let mut peak = 0.0f64;
        let e0 = nve(&calc, 2000.0, 1.0, 3, 40, |_, de| peak = peak.max(de.abs()));
        occupations.row(vec![label.to_string(), fmt_e(peak), fmt_e(peak / e0.abs())]);
    }

    // The radii the engines search at: the kept neighbour list's (cutoff +
    // skin) and the O(N) region candidates' (r_loc + skin).
    let r_loc = 6.0;
    let mut lists = Table::new(
        "A1b: neighbour search, image sum vs `NeighborList::build` (medians of interleaved runs)",
        &[
            "N",
            "radius/Å",
            "image sum/ms",
            "build/ms",
            "ratio",
            "candidates/ms",
        ],
    );
    for (reps, regions) in [(1, false), (2, false), (3, true), (4, true)] {
        let s = bulk_diamond(Species::Silicon, reps, reps, reps);
        let radius = if regions { r_loc } else { model.cutoff() } + DEFAULT_SKIN;
        let runs: [&dyn Fn(); 3] = [
            &|| drop(NeighborList::build_brute_force(&s, radius)),
            &|| drop(NeighborList::build(&s, radius)),
            &|| KeptCandidates::default().update(&s, r_loc),
        ];
        let mut ms = [(); 3].map(|_| Vec::new());
        for _ in 0..if regions { 21 } else { 101 } {
            for (run, ms) in runs.iter().zip(&mut ms).take(2 + regions as usize) {
                let t0 = Instant::now();
                run();
                ms.push(1e3 * t0.elapsed().as_secs_f64());
            }
        }
        let [brute, build, update] = ms.map(|mut t| {
            t.sort_by(f64::total_cmp);
            t.get(t.len() / 2).copied()
        });
        let ratio = build.zip(brute).map(|(a, b)| a / b);
        let cells = [brute, build, ratio, update].map(|t| t.map_or("—".into(), |t| fmt_f(t, 3)));
        let mut row = vec![s.n_atoms().to_string(), fmt_f(radius, 1)];
        row.extend(cells);
        lists.row(row);
    }
    let mut report = Report::default();
    report.table(occupations).table(lists);
    report
}

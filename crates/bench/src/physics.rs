//! The models against what they were fit to (T5), their bands (F7), and
//! the flagship 1990s TBMD application, the silicon vacancy (D1).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::linalg::eigvalsh;
use tbmd::md::relax;
use tbmd::model::{
    band_energies, band_gap, band_structure, build_hamiltonian, density_of_states, k_path,
    OrbitalIndex, TbModel,
};
use tbmd::structure::{bulk_diamond, bulk_diamond_with_bond, dimer, fullerene_c60, graphene_sheet};
use tbmd::{
    carbon_xwch, silicon_gsp, ForceProvider, NeighborList, OccupationScheme, RelaxOptions, Species,
    Structure, TbCalculator, Vec3,
};

use crate::report::{fmt_f, Report, Table};

/// Bond length and energy per atom at the minimum of E(bond), from a
/// parabola through the three lowest of 11 samples on
/// `center ± half_width`.
fn eos_minimum(
    model: &dyn TbModel,
    build: impl Fn(f64) -> Structure,
    center: f64,
    half_width: f64,
) -> (f64, f64) {
    let calc = TbCalculator::with_occupation(model, OccupationScheme::Fermi { kt: 0.05 });
    let n_pts = 11;
    let bonds: Vec<f64> = (0..n_pts)
        .map(|i| center - half_width + 2.0 * half_width * i as f64 / (n_pts - 1) as f64)
        .collect();
    let energies: Vec<f64> = bonds
        .iter()
        .map(|&b| {
            let s = build(b);
            calc.energy_only(&s).expect("energy") / s.n_atoms() as f64
        })
        .collect();
    let k = (0..n_pts)
        .min_by(|&a, &b| energies[a].total_cmp(&energies[b]))
        .expect("samples")
        .clamp(1, n_pts - 2);
    let (x0, x1, x2) = (bonds[k - 1], bonds[k], bonds[k + 1]);
    let (y0, y1, y2) = (energies[k - 1], energies[k], energies[k + 1]);
    let denom = (x0 - x1) * (x0 - x2) * (x1 - x2);
    let a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom;
    let b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom;
    let x_min = -b / (2.0 * a);
    (x_min, y1 - a * (x1 - x_min).powi(2))
}

/// A phase of T5a: name, model, structure at a bond length, scan centre and
/// half-width, reference bond (`*`: outside the fit).
type Phase<'a> = (
    &'a str,
    &'a dyn TbModel,
    &'a dyn Fn(f64) -> Structure,
    f64,
    f64,
    &'a str,
);

/// T5: equilibrium geometries of four phases, the carbon phase ordering and
/// a C₆₀ relaxation.
pub fn model_validation(_: Option<usize>) -> Report {
    let (si, c) = (silicon_gsp(), carbon_xwch());
    let mut t5a = Table::new(
        "T5a: equilibrium geometries (eV, Å); * molecular reference outside the bulk fit",
        &[
            "phase",
            "bond (model)",
            "bond (ref)",
            "dev %",
            "E/atom at min",
        ],
    );
    let phases: [Phase; 4] = [
        (
            "Si diamond",
            &si,
            &|b| bulk_diamond_with_bond(Species::Silicon, b, 2, 2, 2),
            2.35,
            0.12,
            "2.351",
        ),
        (
            "C diamond",
            &c,
            &|b| bulk_diamond_with_bond(Species::Carbon, b, 2, 2, 2),
            1.54,
            0.08,
            "1.544",
        ),
        (
            "graphene",
            &c,
            &|b| graphene_sheet(b, 2, 2),
            1.42,
            0.08,
            "1.420",
        ),
        (
            "Si dimer (bulk-fit model)",
            &si,
            &|b| dimer(Species::Silicon, b),
            2.4,
            0.3,
            "2.246*",
        ),
    ];
    for (phase, model, build, center, half_width, reference) in phases {
        let (bond, e) = eos_minimum(model, build, center, half_width);
        let r: f64 = reference
            .trim_end_matches('*')
            .parse()
            .expect("reference bond");
        t5a.row(vec![
            phase.into(),
            fmt_f(bond, 3),
            reference.into(),
            fmt_f(100.0 * (bond - r) / r, 1),
            fmt_f(e, 3),
        ]);
    }

    let calc = TbCalculator::with_occupation(&c, OccupationScheme::Fermi { kt: 0.05 });
    let per_atom = |s: Structure| calc.energy_only(&s).expect("energy") / s.n_atoms() as f64;
    let e_graphene = per_atom(graphene_sheet(1.42, 2, 2));
    let e_diamond = per_atom(bulk_diamond(Species::Carbon, 2, 2, 2));

    // A rattled C₆₀ must relax back to a fully 3-coordinated cage.
    let mut c60 = fullerene_c60(1.44);
    c60.perturb(&mut StdRng::seed_from_u64(1), 0.1);
    let opts = RelaxOptions {
        force_tolerance: 5e-3,
        max_iterations: 300,
        ..Default::default()
    };
    let result = relax(&mut c60, &TbCalculator::new(&c), &opts).expect("relaxation");
    let three_fold = (0..60).filter(|&i| c60.coordination(i, 1.65) == 3).count();

    let mut t5b = Table::new(
        "T5b: phase ordering and relaxation",
        &["quantity", "model", "expected"],
    );
    t5b.row(vec![
        "graphene − diamond (C), eV/atom".into(),
        fmt_f(e_graphene - e_diamond, 3),
        "≈ −0.02…0".into(),
    ])
    .row(vec![
        "C60 CG relax: 3-fold atoms".into(),
        format!(
            "{three_fold}/60 (converged = {}, {} iterations)",
            result.converged, result.iterations
        ),
        "60/60".into(),
    ]);
    let mut report = Report::default();
    report.table(t5a).table(t5b);
    report
}

/// F7: Si bands along L–Γ–X, the graphene π gap at three k-points, and the
/// Si-64 density of states.
pub fn bands(_: Option<usize>) -> Report {
    let si = silicon_gsp();
    let s = bulk_diamond(Species::Silicon, 1, 1, 1);
    let g = 2.0 * std::f64::consts::PI / s.cell().lengths.x;
    let (gamma, x, l) = (
        Vec3::ZERO,
        Vec3::new(g / 2.0, 0.0, 0.0),
        Vec3::new(g / 4.0, g / 4.0, g / 4.0),
    );
    let path = k_path(&[l, gamma, x], 8);
    let bands = band_structure(&s, &si, &path).expect("bands");
    let n_filled = s.n_electrons() / 2;
    let mut f7a = Table::new(
        "F7a: Si bands along L–Γ–X (k in units of 2π/a)",
        &["k", "bottom/eV", "VBM/eV", "CBM/eV", "top/eV"],
    );
    for (i, (k, b)) in path.iter().zip(&bands).enumerate() {
        if i % 4 == 0 || i + 1 == path.len() {
            f7a.row(vec![
                format!("({:.2},{:.2},{:.2})", k.x / g, k.y / g, k.z / g),
                fmt_f(b[0], 2),
                fmt_f(b[n_filled - 1], 2),
                fmt_f(b[n_filled], 2),
                fmt_f(b[b.len() - 1], 2),
            ]);
        }
    }
    let gap = band_gap(&bands, s.n_electrons()).expect("gap");

    let c = carbon_xwch();
    let acc = 1.42;
    let sheet = graphene_sheet(acc, 1, 1);
    let k_dirac = Vec3::new(
        2.0 * std::f64::consts::PI / (3.0 * acc),
        2.0 * std::f64::consts::PI / (3.0 * 3.0f64.sqrt() * acc),
        0.0,
    );
    let mut f7b = Table::new("F7b: graphene π gap vs k", &["k-point", "|gap|/eV"]);
    for (label, k) in [
        ("Γ", Vec3::ZERO),
        ("K (Dirac)", k_dirac),
        ("K/2", k_dirac * 0.5),
    ] {
        let b = band_energies(&sheet, &c, k).expect("bands");
        let gap = band_gap(&[b], sheet.n_electrons()).expect("gap");
        f7b.row(vec![label.to_string(), fmt_f(gap.abs(), 3)]);
    }

    let s64 = bulk_diamond(Species::Silicon, 2, 2, 2);
    let nl = NeighborList::build(&s64, si.cutoff());
    let h = build_hamiltonian(&s64, &nl, &si, &OrbitalIndex::new(&s64));
    let eig = eigvalsh(h).expect("eigenvalues");
    let mut f7c = Table::new(
        "F7c: Si-64 electronic DOS (Gaussian σ = 0.4 eV)",
        &["E/eV", "DOS"],
    );
    for (e, d) in density_of_states(&eig, 0.4, 36).iter().step_by(2) {
        f7c.row(vec![fmt_f(*e, 2), fmt_f(*d, 2)]);
    }
    let mut report = Report::default();
    report
        .table(f7a)
        .note(format!(
            "Fundamental gap on this path: {gap:.2} eV (experiment: 1.17 eV)."
        ))
        .table(f7b)
        .table(f7c);
    report
}

/// D1: vacancy formation energy in Si-64, unrelaxed and after a CG
/// relaxation, `E_f = E(N−1, defective) − (N−1)/N · E(N, perfect)`.
pub fn vacancy(_: Option<usize>) -> Report {
    let model = silicon_gsp();
    let calc = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
    let perfect = bulk_diamond(Species::Silicon, 2, 2, 2);
    let n = perfect.n_atoms();
    let e_perfect = calc.energy_only(&perfect).expect("perfect-crystal energy");
    let reference = (n - 1) as f64 / n as f64 * e_perfect;
    let mut defective = perfect.clone();
    defective.remove_atom(0);
    let e_unrelaxed = calc.energy_only(&defective).expect("unrelaxed energy");
    let opts = RelaxOptions {
        force_tolerance: 1e-2,
        max_iterations: 300,
        ..Default::default()
    };
    let result = relax(&mut defective, &calc, &opts).expect("relaxation");
    let three_fold = (0..defective.n_atoms())
        .filter(|&i| defective.coordination(i, 2.6) == 3)
        .count();
    let mut table = Table::new(
        "D1: Si vacancy in a 64-atom cell (Fermi kT = 0.1 eV)",
        &[
            "E_f unrelaxed/eV",
            "E_f relaxed/eV",
            "relaxation/eV",
            "CG iterations",
            "3-fold atoms",
        ],
    );
    table.row(vec![
        fmt_f(e_unrelaxed - reference, 3),
        fmt_f(result.energy - reference, 3),
        fmt_f(e_unrelaxed - result.energy, 3),
        format!("{} (converged = {})", result.iterations, result.converged),
        three_fold.to_string(),
    ]);
    let mut report = Report::default();
    report.table(table);
    report
}

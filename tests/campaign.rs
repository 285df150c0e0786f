//! Campaign harness contract (ISSUE 10).
//!
//! Three guarantees of `tbmd-campaign`:
//!
//! 1. **Cell = session.** Every cell of an expanded matrix reproduces,
//!    bit for bit, the standalone [`tbmd::Session`] built from the same
//!    config and initial state — the campaign layer adds bookkeeping
//!    (step-latency percentiles among it), never physics.
//! 2. **Kill + resume = uninterrupted.** A campaign stopped mid-run and
//!    re-invoked against the same directory reuses every completed cell's
//!    fingerprinted result file and produces the same report as a single
//!    uninterrupted run.
//! 3. **Formation energy.** The report's vacancy formation energy equals
//!    the directly computed `E_vac − (N_vac / N_ref) · E_ref` from two
//!    hand-built relaxations.

use std::path::PathBuf;
use tbmd_campaign::{run_campaign, CampaignSpec, CellPlan, RunOptions};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tbmd_campaign_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 1 structure × 2 perturbations × 2 protocols × 2 engines = 8 cells.
const MATRIX_SPEC: &str = r#"{
    "name": "matrix",
    "seed": 11,
    "structures": [{"label": "si1", "system": "si", "reps": 1}],
    "perturbations": [
        {"label": "pristine", "kind": "pristine"},
        {"label": "vac0", "kind": "vacancy", "site": 0}
    ],
    "protocols": [
        {"label": "nve", "kind": "nve", "temperature_k": 300, "steps": 4},
        {"label": "nvt", "kind": "nvt", "temperature_k": 300, "steps": 4, "tau_fs": 40}
    ],
    "engines": ["serial", "shared"]
}"#;

/// Run one cell as a bare standalone session — the reference the campaign
/// row must match bitwise.
fn standalone_endpoint(cell: &CellPlan) -> u64 {
    let protocol = cell.protocol.segments()[0];
    let config = tbmd::SimulationConfig {
        system: cell.system,
        engine: cell.engine,
        protocol,
        electronic_kt: cell.electronic_kt,
        perturb: 0.0,
        seed: cell.seed,
        record_stride: 0,
    };
    let mut session = tbmd::SessionBuilder::new(config)
        .initial_state(tbmd::InitialState::from_structure(
            cell.build_initial().unwrap(),
        ))
        .build()
        .expect("build");
    let summary = session.run().expect("run");
    tbmd_campaign::endpoint_fingerprint(&summary)
}

#[test]
fn matrix_cells_match_standalone_sessions_bitwise() {
    let spec = CampaignSpec::from_json(MATRIX_SPEC).expect("parse");
    let cells = spec.expand();
    assert_eq!(cells.len(), 8, "2×2×2 matrix");
    let report = run_campaign(&spec, &RunOptions::default()).expect("campaign");
    assert!(report.complete);
    assert_eq!(report.rows.len(), 8);
    for cell in &cells {
        let row = report.row(&cell.name).expect("row for every cell");
        assert_eq!(
            row.endpoint,
            standalone_endpoint(cell),
            "{}: campaign endpoint diverged from the standalone session",
            cell.name
        );
        assert_eq!(row.seed, cell.seed);
        assert!(row.steps > 0 && row.converged);
        // Every cell times its own steps: one latency sample per MD step.
        assert_eq!(row.step_samples, row.steps as u64, "{}", cell.name);
        assert!(
            row.step_p95_ns.is_some_and(|p| p.is_finite() && p > 0.0),
            "{}: no step-latency percentile",
            cell.name
        );
    }
    // Pristine and vacancy cells must NOT coincide (the perturbation and
    // the per-cell seed both bite).
    let pristine = report.row("si1/pristine/nve/serial").unwrap();
    let vacancy = report.row("si1/vac0/nve/serial").unwrap();
    assert_ne!(pristine.endpoint, vacancy.endpoint);
    assert_eq!(pristine.n_atoms, 8);
    assert_eq!(vacancy.n_atoms, 7);
}

#[test]
fn killed_campaign_resumes_skipping_completed_cells() {
    let spec = CampaignSpec::from_json(MATRIX_SPEC).expect("parse");
    let dir = scratch_dir("resume");

    // Uninterrupted reference, no result directory involved.
    let reference = run_campaign(&spec, &RunOptions::default()).expect("reference");

    // Kill after 3 cells.
    let killed = run_campaign(
        &spec,
        &RunOptions {
            dir: Some(dir.clone()),
            stop_after: Some(3),
            ..RunOptions::default()
        },
    )
    .expect("partial run");
    assert!(!killed.complete);
    assert_eq!(killed.rows.len(), 3);
    assert_eq!(killed.executed, 3);

    // Resume: the 3 completed cells come from their result files.
    let resumed = run_campaign(
        &spec,
        &RunOptions {
            dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect("resumed run");
    assert!(resumed.complete);
    assert_eq!(resumed.rows.len(), 8);
    assert_eq!(resumed.reused, 3, "completed cells must not re-run");
    assert_eq!(resumed.executed, 5);

    // The stitched report equals the uninterrupted one on every
    // deterministic observable (wall-clock latency excluded by design).
    for (a, b) in reference.rows.iter().zip(&resumed.rows) {
        assert_eq!(
            a.deterministic_key(),
            b.deterministic_key(),
            "{}: kill+resume diverged from the uninterrupted campaign",
            a.name
        );
        assert_eq!(
            a.formation_ev.map(f64::to_bits),
            b.formation_ev.map(f64::to_bits)
        );
    }

    // A third invocation reuses everything.
    let cached = run_campaign(
        &spec,
        &RunOptions {
            dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect("cached run");
    assert_eq!(cached.reused, 8);
    assert_eq!(cached.executed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mixed segment counts: the 1-segment NVE cells retire from the
/// multiplexer before the 2-segment quenches, so rows come back in
/// completion order, not matrix order.
const MIXED_SPEC: &str = r#"{
    "name": "mux-resume",
    "seed": 5,
    "structures": [{"label": "si1", "system": "si", "reps": 1}],
    "perturbations": [
        {"label": "pristine", "kind": "pristine"},
        {"label": "vac0", "kind": "vacancy", "site": 0}
    ],
    "protocols": [
        {"label": "nve", "kind": "nve", "temperature_k": 300, "steps": 4},
        {"label": "q", "kind": "quench", "from_k": 600, "to_k": 200,
         "segments": 2, "rate_k_per_fs": 20, "hold_steps": 2}
    ],
    "engines": ["serial"]
}"#;

#[test]
fn multiplexed_result_files_pair_rows_with_their_cells() {
    let spec = CampaignSpec::from_json(MIXED_SPEC).expect("parse");
    let dir = scratch_dir("mux_resume");
    let reference = run_campaign(&spec, &RunOptions::default()).expect("inline reference");

    let mux = run_campaign(
        &spec,
        &RunOptions {
            dir: Some(dir.clone()),
            multiplex: true,
            ..RunOptions::default()
        },
    )
    .expect("multiplexed run");
    assert!(mux.complete);
    assert_eq!(mux.executed, 4);

    // Each result file must hold the row of the cell it is named for. A
    // misfiled bijection would survive a *full* resume (rows carry their
    // own index and the report re-sorts), so check the files directly:
    // the stored fingerprint — the fingerprint of the cell the file is
    // named for — must be the fingerprint of the cell the embedded row
    // claims to be.
    let cells = spec.expand();
    let mut files = 0;
    for entry in std::fs::read_dir(dir.join("cells")).expect("cells dir") {
        let path = entry.expect("entry").path();
        let text = std::fs::read_to_string(&path).expect("read result file");
        let v = tbmd::trace::JsonValue::parse(&text).expect("result json");
        let row = tbmd_campaign::CellRow::from_json(&v).expect("row");
        let stored = v
            .get("cell_fingerprint")
            .and_then(|f| f.as_str())
            .and_then(|f| u64::from_str_radix(f, 16).ok())
            .expect("stored fingerprint");
        let cell = cells
            .iter()
            .find(|c| c.name == row.name)
            .expect("cell for stored row");
        assert_eq!(row.index, cell.index);
        assert_eq!(
            stored,
            cell.fingerprint(),
            "{}: file holds the row of a different cell ({})",
            path.display(),
            row.name
        );
        files += 1;
    }
    assert_eq!(files, 4, "one result file per cell");

    // And a resume reuses every file, reproducing the inline reference.
    let resumed = run_campaign(
        &spec,
        &RunOptions {
            dir: Some(dir.clone()),
            ..RunOptions::default()
        },
    )
    .expect("resume from multiplexed result files");
    assert_eq!(resumed.reused, 4, "every multiplexed cell must be reusable");
    assert_eq!(resumed.executed, 0);
    for (a, b) in reference.rows.iter().zip(&resumed.rows) {
        assert_eq!(
            a.deterministic_key(),
            b.deterministic_key(),
            "{}: row resumed from a multiplexed result file diverged",
            a.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const VACANCY_SPEC: &str = r#"{
    "name": "vacancy-formation",
    "seed": 7,
    "structures": [{"label": "si1", "system": "si", "reps": 1}],
    "perturbations": [
        {"label": "pristine", "kind": "pristine"},
        {"label": "vac0", "kind": "vacancy", "site": 0}
    ],
    "protocols": [
        {"label": "relax", "kind": "relax", "force_tolerance": 1e-3, "max_iterations": 200}
    ],
    "engines": ["serial"]
}"#;

#[test]
fn vacancy_formation_energy_matches_direct_reference() {
    let spec = CampaignSpec::from_json(VACANCY_SPEC).expect("parse");
    let report = run_campaign(&spec, &RunOptions::default()).expect("campaign");
    let cells = spec.expand();

    // Direct reference: relax both cells by hand through the same session
    // machinery and compute E_f = E_vac − (N_vac / N_ref) · E_ref.
    let relax_energy = |cell: &CellPlan| -> (usize, f64) {
        let config = tbmd::SimulationConfig {
            system: cell.system,
            engine: cell.engine,
            protocol: tbmd::Protocol::Relax {
                force_tolerance: 1e-3,
                max_iterations: 200,
            },
            electronic_kt: cell.electronic_kt,
            perturb: 0.0,
            seed: cell.seed,
            record_stride: 0,
        };
        let mut session = tbmd::SessionBuilder::new(config)
            .initial_state(tbmd::InitialState::from_structure(
                cell.build_initial().unwrap(),
            ))
            .build()
            .expect("build");
        let summary = session.run().expect("relax");
        assert!(summary.converged, "{} failed to relax", cell.name);
        (
            summary.final_structure.n_atoms(),
            summary.final_potential_energy,
        )
    };
    let (n_ref, e_ref) = relax_energy(cells.iter().find(|c| c.is_pristine()).unwrap());
    let (n_vac, e_vac) = relax_energy(cells.iter().find(|c| !c.is_pristine()).unwrap());
    let direct = e_vac - (n_vac as f64 / n_ref as f64) * e_ref;

    let row = report.row("si1/vac0/relax/serial").expect("vacancy row");
    let formation = row.formation_ev.expect("formation energy filled");
    assert!(
        (formation - direct).abs() < 1e-10,
        "campaign formation energy {formation} != direct reference {direct}"
    );
    // Si vacancy formation energy should be positive and of eV order.
    assert!(
        formation > 0.0 && formation < 20.0,
        "implausible formation energy {formation}"
    );
}

/// One grammar for `system` / `reps` / `seed` on both front ends: a serve
/// job line and a campaign spec spelling the same values build the same
/// `SystemSpec` and the same (root) seed, and the serve parser rejects the
/// lossy seeds the campaign parser rejects instead of running another seed.
#[test]
fn serve_lines_and_campaign_specs_share_the_system_and_seed_grammar() {
    let serve = |system: &str, reps: usize, seed: &str| {
        let line = format!(r#"{{"job":"j","system":"{system}","reps":{reps},"seed":{seed}}}"#);
        match tbmd_serve::parse_request(&line) {
            Ok(tbmd_serve::Request::Job(spec)) => Ok(spec.config),
            Ok(other) => panic!("{line}: parsed as {other:?}"),
            Err(e) => Err(e),
        }
    };
    let campaign = |system: &str, reps: usize, seed: &str| {
        CampaignSpec::from_json(&format!(
            r#"{{"seed": {seed},
                "structures": [{{"system": "{system}", "reps": {reps}}}],
                "protocols": [{{"kind": "nve"}}]}}"#
        ))
    };
    for (system, reps, seed, expect) in [
        ("si", 2, "7", 7u64),
        ("silicon", 1, "9007199254740992", 1 << 53),
        ("c", 3, r#""18446744073709551615""#, u64::MAX),
        ("graphene", 2, r#""0xffffffffffffffff""#, u64::MAX),
        ("c60", 0, "0", 0),
    ] {
        let config = serve(system, reps, seed).expect("serve line");
        let spec = campaign(system, reps, seed).expect("campaign spec");
        assert_eq!(config.seed, expect, "{system} {seed}");
        assert_eq!(spec.seed, config.seed, "{system} {seed}");
        assert_eq!(spec.structures[0].system, config.system, "{system} x{reps}");
    }
    for lossy in [
        "-1",
        "1.5",
        "1e300",
        "9007199254740994",
        r#""seven""#,
        "true",
    ] {
        assert!(
            serve("si", 1, lossy).is_err(),
            "serve accepted seed {lossy}"
        );
        assert!(
            campaign("si", 1, lossy).is_err(),
            "campaign accepted seed {lossy}"
        );
    }
    assert!(serve("germanium", 1, "1").is_err());
    assert!(campaign("germanium", 1, "1").is_err());
    // Absent: both front ends fall back to the same default.
    let Ok(tbmd_serve::Request::Job(bare)) = tbmd_serve::parse_request(r#"{"job":"j"}"#) else {
        panic!("bare job line");
    };
    let bare_spec = CampaignSpec::from_json(
        r#"{"structures": [{"system": "si"}], "protocols": [{"kind": "nve"}]}"#,
    )
    .expect("bare spec");
    assert_eq!(bare.config.seed, bare_spec.seed);
}

/// A vacancy at a site the structure does not have fails its own cell, by
/// name, without losing the cell that finished before it: that cell's result
/// file is on disk, and a re-run without the bad perturbation reuses it.
#[test]
fn a_bad_cell_keeps_the_finished_ones() {
    let spec_with = |perturbations: &str| {
        CampaignSpec::from_json(&format!(
            r#"{{"name": "bad-cell", "seed": 3,
                "structures": [{{"label": "si1", "system": "si", "reps": 1}}],
                "perturbations": [{perturbations}],
                "protocols": [{{"label": "nve", "kind": "nve", "steps": 2}}]}}"#
        ))
        .expect("parse")
    };
    let pristine = r#"{"label": "pristine", "kind": "pristine"}"#;
    let dir = scratch_dir("bad_cell");
    let opts = RunOptions {
        dir: Some(dir.clone()),
        ..RunOptions::default()
    };

    let bad = spec_with(&format!(
        r#"{pristine}, {{"label": "vac99", "kind": "vacancy", "site": 99}}"#
    ));
    let err = run_campaign(&bad, &opts).expect_err("site 99 of an 8-atom cell");
    assert!(err.contains("si1/vac99/nve/serial"), "{err}");
    let files: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .expect("cells dir")
        .map(|entry| entry.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let text = std::fs::read_to_string(&files[0]).expect("result file");
    let row = tbmd_campaign::CellRow::from_json(&tbmd::trace::JsonValue::parse(&text).unwrap())
        .expect("row");
    assert_eq!(row.name, "si1/pristine/nve/serial");

    let good = run_campaign(&spec_with(pristine), &opts).expect("pristine only");
    assert_eq!((good.reused, good.executed), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Vacancy cells (seven atoms, 28 orbitals: below the two-stage floor) that
/// ask for two threads each lease one under a two-thread budget, inline and
/// multiplexed alike, so the multiplexer runs two of them per sweep; every
/// row is still bitwise the inline run's, quench chains included. The
/// budget is process-wide: the other tests of this binary may see their
/// leases granted later meanwhile, never different bits.
#[test]
fn narrow_cells_share_sweeps_and_match_the_inline_run_bitwise() {
    let spec = CampaignSpec::from_json(
        r#"{
        "name": "vacancy-width",
        "seed": 13,
        "structures": [{"label": "si1", "system": "si", "reps": 1}],
        "perturbations": [
            {"label": "vac0", "kind": "vacancy", "site": 0},
            {"label": "vac3", "kind": "vacancy", "site": 3}
        ],
        "protocols": [
            {"label": "nve", "kind": "nve", "temperature_k": 300, "steps": 6},
            {"label": "quench", "kind": "quench", "from_k": 600, "to_k": 300,
             "segments": 2, "rate_k_per_fs": 25, "hold_steps": 2}
        ],
        "engines": ["serial", "shared"]
    }"#,
    )
    .expect("parse");
    tbmd::configure_budget(2);
    let run = |multiplex| {
        let opts = RunOptions {
            threads_per_cell: 2,
            multiplex,
            quantum: 3,
            ..RunOptions::default()
        };
        run_campaign(&spec, &opts).expect("campaign")
    };
    let (inline, multiplexed) = (run(false), run(true));
    tbmd::configure_budget(0);
    assert_eq!(inline.rows.len(), 8);
    assert_eq!(multiplexed.rows.len(), 8);
    for row in &inline.rows {
        assert_eq!(row.n_atoms, 7, "{}", row.name);
        let other = multiplexed.row(&row.name).expect("multiplexed row");
        assert_eq!(
            row.deterministic_key(),
            other.deterministic_key(),
            "{}: the multiplexed cell diverged from the inline one",
            row.name
        );
    }
}

//! Campaign harness contract (ISSUE 10).
//!
//! Three guarantees of `tbmd-campaign`:
//!
//! 1. **Cell = session.** Every cell of an expanded matrix reproduces,
//!    bit for bit, the standalone [`tbmd::Session`] built from the same
//!    config and initial state — the campaign layer adds bookkeeping
//!    (step-latency percentiles among it), never physics.
//! 2. **Kill + resume = uninterrupted.** A campaign killed mid-run leaves
//!    the result files of the cells it finished; re-invoked against the same
//!    directory, it reuses every one of those fingerprinted files and
//!    produces the same report as a single uninterrupted run.
//! 3. **Formation energy.** The report's vacancy formation energy equals
//!    the directly computed `E_vac − (N_vac / N_ref) · E_ref` from two
//!    hand-built relaxations.

use std::path::PathBuf;
use tbmd_campaign::{run_campaign, CampaignSpec, CellPlan};

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
    let protocol = cell.segments[0];
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
    let report = run_campaign(&spec, None).expect("campaign");
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
    let reference = run_campaign(&spec, None).expect("reference");

    // A kill after three cells leaves exactly their result files: each cell
    // publishes its own the moment it finishes. Run the matrix, then take
    // away the files of the five cells the kill would have cut short.
    let full = run_campaign(&spec, Some(&dir)).expect("first run");
    assert_eq!(full.executed, 8);
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .expect("cells dir")
        .map(|entry| entry.expect("entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 8, "one result file per cell");
    for file in &files[3..] {
        std::fs::remove_file(file).expect("remove result file");
    }

    // Resume: the 3 completed cells come from their result files.
    let resumed = run_campaign(&spec, Some(&dir)).expect("resumed run");
    assert_eq!(resumed.rows.len(), 8);
    assert_eq!(
        (resumed.reused, resumed.executed),
        (3, 5),
        "completed cells must not re-run"
    );

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
    let cached = run_campaign(&spec, Some(&dir)).expect("cached run");
    assert_eq!((cached.reused, cached.executed), (8, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a over a row's `deterministic_key` — endpoint, energies, drift,
/// mean temperature, RDF peak, steps and atom count in one number.
fn key_hash(row: &tbmd_campaign::CellRow) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in row.deterministic_key().as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Assert that `row`'s [`key_hash`] is the one pinned for its cell. The pins
/// were taken from the campaign runner's earlier inline path (cells one
/// after another, each under one lease): the bits every schedule must
/// reproduce. Like every bitwise pin here, they hold for this build host's
/// CPU feature set.
fn assert_pinned(pins: &[(&str, u64)], row: &tbmd_campaign::CellRow) {
    match pins.iter().find(|(cell, _)| *cell == row.name) {
        Some(&(_, bits)) => assert_eq!(key_hash(row), bits, "{}: row moved", row.name),
        None => panic!("no pinned row for {}", row.name),
    }
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

/// [`MIXED_SPEC`]'s rows, pinned (see [`assert_pinned`]).
const MIXED_ROWS: [(&str, u64); 4] = [
    ("si1/pristine/nve/serial", 0x6531_e89c_3a6b_d9bf),
    ("si1/pristine/q/serial", 0xd066_86fd_7198_6ab3),
    ("si1/vac0/nve/serial", 0x7eea_11fb_8245_3f3c),
    ("si1/vac0/q/serial", 0xd70b_930b_9e02_7809),
];

/// Every result file holds the row of the cell it is named for, each row is
/// the pinned one, and a resume reuses them all.
#[test]
fn multiplexed_result_files_pair_rows_with_their_cells() {
    let spec = CampaignSpec::from_json(MIXED_SPEC).expect("parse");
    let dir = scratch_dir("mux_resume");
    let mux = run_campaign(&spec, Some(&dir)).expect("multiplexed run");
    assert_eq!(mux.executed, 4);
    for row in &mux.rows {
        assert_pinned(&MIXED_ROWS, row);
    }

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

    // And a resume reuses every file, reproducing the run that wrote them.
    let resumed = run_campaign(&spec, Some(&dir)).expect("resume from multiplexed result files");
    assert_eq!(resumed.reused, 4, "every multiplexed cell must be reusable");
    assert_eq!(resumed.executed, 0);
    for (a, b) in mux.rows.iter().zip(&resumed.rows) {
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
    let report = run_campaign(&spec, None).expect("campaign");
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

    let bad = spec_with(&format!(
        r#"{pristine}, {{"label": "vac99", "kind": "vacancy", "site": 99}}"#
    ));
    let err = run_campaign(&bad, Some(&dir)).expect_err("site 99 of an 8-atom cell");
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

    let good = run_campaign(&spec_with(pristine), Some(&dir)).expect("pristine only");
    assert_eq!((good.reused, good.executed), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Vacancy cells (seven atoms, 28 orbitals: below the two-stage floor) may
/// lease the whole team but each leases one thread, so the campaign's
/// budget — one thread per hardware thread — runs as many of them per sweep
/// as the host has threads. Every row is still the pinned one, quench
/// chains included.
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
    let report = run_campaign(&spec, None).expect("campaign");
    assert_eq!(report.rows.len(), 8);
    for row in &report.rows {
        assert_eq!(row.n_atoms, 7, "{}", row.name);
        assert_pinned(&NARROW_ROWS, row);
    }
}

/// The vacancy-width rows, pinned (see [`assert_pinned`]).
const NARROW_ROWS: [(&str, u64); 8] = [
    ("si1/vac0/nve/serial", 0x0798_10fe_3218_20ec),
    ("si1/vac0/nve/shared", 0x13a0_bae5_f887_b04c),
    ("si1/vac0/quench/serial", 0x21f9_a695_309e_66f0),
    ("si1/vac0/quench/shared", 0x40bb_161e_1c8d_eea1),
    ("si1/vac3/nve/serial", 0x26d3_6db6_8135_6ca1),
    ("si1/vac3/nve/shared", 0x4d6f_c02a_5bdc_725f),
    ("si1/vac3/quench/serial", 0x590b_ff00_a458_ec97),
    ("si1/vac3/quench/shared", 0xd792_d4d9_342c_02aa),
];

/// A cell that fails at run time (its time step blows the positions up)
/// fails by name and alone: every cell beside it runs to completion and
/// publishes its result file. A re-run with the step mended reuses them all
/// and runs only the cells that failed. (Dropping the failing protocol
/// instead would renumber the cells after it, and a cell's seed derives from
/// its index.)
#[test]
fn a_failing_cell_keeps_the_cells_beside_it() {
    let spec_with = |dt_fs: f64| {
        CampaignSpec::from_json(&format!(
            r#"{{"name": "failing-cell", "seed": 9,
                "structures": [{{"label": "si1", "system": "si", "reps": 1}}],
                "perturbations": [
                    {{"label": "pristine", "kind": "pristine"}},
                    {{"label": "vac0", "kind": "vacancy", "site": 0}}
                ],
                "protocols": [
                    {{"label": "boom", "kind": "nve", "steps": 4, "dt_fs": {dt_fs:e}}},
                    {{"label": "nve", "kind": "nve", "steps": 3}}
                ],
                "engines": ["serial", "shared"]}}"#
        ))
        .expect("parse")
    };
    let dir = scratch_dir("failing_cell");

    let err =
        run_campaign(&spec_with(1e200), Some(&dir)).expect_err("a 1e200 fs step cannot finish");
    assert!(err.contains("si1/pristine/boom/serial"), "{err}");
    let mut stored: Vec<String> = std::fs::read_dir(dir.join("cells"))
        .expect("cells dir")
        .map(|entry| {
            let text = std::fs::read_to_string(entry.expect("entry").path()).expect("read");
            let v = tbmd::trace::JsonValue::parse(&text).expect("result json");
            tbmd_campaign::CellRow::from_json(&v).expect("row").name
        })
        .collect();
    stored.sort();
    let beside: Vec<String> = ["pristine", "vac0"]
        .iter()
        .flat_map(|p| ["serial", "shared"].map(|e| format!("si1/{p}/nve/{e}")))
        .collect();
    assert_eq!(
        stored, beside,
        "every cell beside the failing ones published"
    );

    let mended = run_campaign(&spec_with(1.0), Some(&dir)).expect("the step mended");
    assert_eq!((mended.reused, mended.executed), (4, 4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Labels may repeat across a matrix: two protocols both labelled `a` make
/// two cells of one name, which still run as two cells, each row carrying
/// its own index and its own protocol's steps, and a re-run over their
/// shared result file reproduces both.
#[test]
fn repeated_labels_run_as_distinct_cells() {
    let spec = CampaignSpec::from_json(
        r#"{"name": "repeated", "seed": 4,
            "structures": [{"label": "si1", "system": "si", "reps": 1}],
            "protocols": [
                {"label": "a", "kind": "nve", "steps": 2},
                {"label": "a", "kind": "nve", "steps": 3}
            ]}"#,
    )
    .expect("parse");
    let dir = scratch_dir("repeated_labels");
    let first = run_campaign(&spec, Some(&dir)).expect("repeated labels");
    let shape: Vec<(usize, usize)> = first.rows.iter().map(|r| (r.index, r.steps)).collect();
    assert_eq!(shape, [(0, 2), (1, 3)]);
    assert!(first.rows.iter().all(|r| r.name == "si1/pristine/a/serial"));

    let again = run_campaign(&spec, Some(&dir)).expect("re-run");
    assert_eq!(again.reused + again.executed, 2);
    for (a, b) in first.rows.iter().zip(&again.rows) {
        assert_eq!(a.deterministic_key(), b.deterministic_key());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

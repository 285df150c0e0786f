//! Observability must be free when it is off and faithful when it is on
//! (ISSUE 4).
//!
//! The trace hooks' contract: with nobody listening every hook is one
//! relaxed atomic load — an instrumented MD trajectory is bitwise identical
//! to an uninstrumented one and performs no extra allocations. With a
//! listener the same trajectory still produces bitwise-identical physics
//! while the counters fill in. The tests listen through a [`ScopedSink`]
//! entered on their own thread — there is no process-wide sink — so they
//! cannot race each other at any `--test-threads`. The JSONL recorder
//! parses line by line, and the drift watchdog trips when an artificially
//! large timestep destroys energy conservation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tbmd::trace::{Counter, Hist, JsonValue, Phase};
use tbmd::{
    run_manifest, Protocol, RecorderConfig, RunRecorder, ScopedSink, SessionBuilder,
    SimulationConfig, SystemSpec,
};
use tbmd_md::{maxwell_boltzmann, MdState, VelocityVerlet};
use tbmd_model::{silicon_gsp, OccupationScheme, TbCalculator, Workspace};
use tbmd_structure::{bulk_diamond, Species, Structure};

/// 2×2×2 Si diamond, as in `workspace_equivalence`: small enough for a
/// 50-step run in test time.
fn si64() -> Structure {
    bulk_diamond(Species::Silicon, 2, 2, 2)
}

fn velocities(s: &Structure, seed: u64) -> Vec<tbmd_linalg::Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    maxwell_boltzmann(s, 300.0, &mut rng)
}

/// Bit-exact fingerprint of a 50-step NVE trajectory: the per-step potential
/// energies and the final positions, as raw f64 bits. Also returns the
/// workspace allocation-event count after a 5-step warm-in, so the caller
/// can assert the remaining 45 steps allocated nothing.
fn trajectory_bits(steps: usize) -> (Vec<u64>, Vec<u64>, bool) {
    let model = silicon_gsp();
    let calc = TbCalculator::with_occupation(&model, OccupationScheme::Fermi { kt: 0.1 });
    let vv = VelocityVerlet::new(1.0);
    let mut ws = Workspace::new();
    let mut state = MdState::new_with(si64(), velocities(&si64(), 31), &calc, &mut ws).unwrap();

    let mut energies = Vec::with_capacity(steps);
    let mut allocated_after_warm_in = false;
    let mut after_warm_in = 0;
    for step in 0..steps {
        vv.step_with(&mut state, &calc, &mut ws).unwrap();
        energies.push(state.potential_energy.to_bits());
        if step == 4 {
            after_warm_in = ws.large_alloc_events();
        } else if step > 4 && ws.large_alloc_events() != after_warm_in {
            allocated_after_warm_in = true;
        }
    }
    let positions = state
        .structure
        .positions()
        .iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect();
    (energies, positions, allocated_after_warm_in)
}

/// The tentpole acceptance test: a 50-step MD run nobody on this thread
/// listens to is bitwise identical to the same run observed through an
/// entered scope, and allocates nothing after warm-in.
#[test]
fn disabled_sink_md_is_bitwise_identical_and_allocation_free() {
    let scope = ScopedSink::new("overhead");
    let (e_off, x_off, allocated_off) = trajectory_bits(50);
    assert!(
        !allocated_off,
        "unobserved run grew workspace buffers after warm-in"
    );
    // Created but not yet entered: the run above must not have reached it.
    assert_eq!(scope.snapshot(), Default::default());
    assert_eq!(scope.histograms().total_count(), 0);

    let (e_on, x_on, _) = {
        let _guard = scope.enter();
        trajectory_bits(50)
    };
    let (delta, hists) = (scope.snapshot(), scope.histograms());

    assert_eq!(e_off, e_on, "per-step energies differ with tracing on");
    assert_eq!(x_off, x_on, "final positions differ with tracing on");
    // The scope observed exactly the run it did not perturb: one
    // neighbour-list update and one eigensolve per force evaluation
    // (50 steps + the initial one).
    assert_eq!(
        delta.counter(Counter::NlRebuilds) + delta.counter(Counter::NlRefreshes),
        51,
        "neighbour-list activity"
    );
    // Each phase span also fed its latency histogram: one sample per phase
    // per force evaluation, with ordered reconstructed quantiles.
    for hist in [
        Hist::Neighbors,
        Hist::Hamiltonian,
        Hist::Diagonalize,
        Hist::Density,
        Hist::Forces,
    ] {
        assert_eq!(hists.hist(hist).count(), 51, "{hist:?}");
    }
    let diag = hists.hist(Hist::Diagonalize);
    let [p50, p90, p99] = diag.quantiles_ns().expect("non-empty diagonalize hist");
    assert!(
        0.0 < p50 && p50 <= p90 && p90 <= p99,
        "quantiles out of order: {p50} {p90} {p99}"
    );
    assert!(
        diag.mean_ns().unwrap() * diag.count() as f64
            <= delta.phase_ns(Phase::Diagonalize) as f64 * 1.01,
        "histogram mass exceeds the phase timer it mirrors"
    );
}

/// A scope that records a timeline captures the same MD run as nested
/// intervals, and the Chrome `trace_event` export parses back through the
/// in-tree JSON parser. The capture is this scope's alone, so the counts are
/// exact: one `forces` and one `diagonalize` span per step plus the initial
/// evaluation.
#[test]
fn timeline_capture_exports_nested_chrome_trace() {
    let scope = ScopedSink::with_timeline("overhead-test");
    {
        let _guard = scope.enter();
        let _ = trajectory_bits(5);
    }
    let chrome = scope.export_chrome().to_compact();
    assert_eq!(scope.dropped_events(), 0);
    assert_eq!(
        scope.histograms().hist(Hist::Forces).count(),
        6,
        "scoped sink missed the run's force spans"
    );

    let parsed = JsonValue::parse(&chrome).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    let named = |phase: &str| {
        events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(phase))
            .count()
    };
    assert_eq!(named("forces"), 6);
    assert_eq!(named("diagonalize"), 6);
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|p| p.as_str()), Some("X"));
        let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = ev.get("dur").and_then(|v| v.as_f64()).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0, "negative interval in export");
    }
}

/// The recorder emits parseable JSONL (manifest first, then step records,
/// then a summary), and the microcanonical drift watchdog trips when a
/// 12 fs timestep wrecks conservation (Si-8 at 300 K holds ~0.02 eV drift
/// up to 8 fs; at 12 fs Verlet is unstable and the energy explodes).
#[test]
fn recorder_jsonl_parses_and_drift_watchdog_trips() {
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 40);
    config.protocol = Protocol::Nve {
        temperature_k: 300.0,
        steps: 40,
        dt_fs: 12.0,
    };
    let manifest = run_manifest(&config);
    assert_eq!(manifest.n_atoms, 8);
    let mut recorder = RunRecorder::in_memory(&manifest).with_drift_budget(0.05);
    SessionBuilder::new(config)
        .record(
            &mut recorder,
            RecorderConfig {
                health_stride: 10,
                ..RecorderConfig::standard()
            },
        )
        .build()
        .expect("build")
        .run()
        .expect("recorded run");
    let summary = recorder.finish().expect("summary");

    assert_eq!(summary.steps, 40);
    assert!(
        !summary.watchdog.ok,
        "12 fs NVE should trip the drift watchdog"
    );
    assert!(summary.watchdog.tripped_at.is_some());
    assert!(summary.warns >= 1, "tripping must emit a warn line");

    let mut kinds = Vec::new();
    for line in &summary.lines {
        let v = JsonValue::parse(line).expect("every JSONL line parses");
        let kind = v.get("type").and_then(|t| t.as_str()).expect("type field");
        if kind == "step" {
            for key in [
                "step",
                "conserved_ev",
                "drift_ev",
                "temperature_k",
                "comm_bytes",
            ] {
                assert!(v.get(key).is_some(), "step record missing `{key}`");
            }
            let phases = v.get("phase_ns").expect("phase_ns object");
            assert!(
                phases.get("communication").is_some(),
                "step record missing the communication phase"
            );
        }
        kinds.push(kind.to_string());
    }
    assert_eq!(kinds.first().map(String::as_str), Some("manifest"));
    assert_eq!(kinds.last().map(String::as_str), Some("summary"));
    // The summary's counters are this session's own totals (its scope's),
    // whatever else ran in the process: one neighbour-list update per force
    // evaluation of the run (40 steps + the initial one; the health probe
    // reads the solve's cached eigenpairs).
    let totals = JsonValue::parse(summary.lines.last().expect("summary line")).unwrap();
    let counter = |name: &str| totals.get("counters").unwrap().get(name).unwrap().as_f64();
    assert_eq!(
        counter("nl_rebuilds").unwrap() + counter("nl_refreshes").unwrap(),
        41.0
    );
    assert!(kinds.iter().filter(|k| *k == "step").count() == 40);
    assert!(kinds.iter().any(|k| k == "warn"));
    assert!(
        kinds.iter().any(|k| k == "eig_health"),
        "health probe at stride 10 never fired"
    );
}

//! Session multiplexing equivalence (ISSUE 8).
//!
//! Interleaving many [`tbmd::Session`]s in one process is only useful if it
//! is *invisible* to the physics: each tenant's trajectory must be bitwise
//! the one a standalone session of the same config produces, the
//! shared engines must not leak worker threads, and per-session accounting
//! (allocation growth events) must not bleed between tenants. The second
//! half of the file property-tests the in-memory [`tbmd::SnapshotBackend`]
//! against the same corruption/truncation cases the on-disk TBCK format is
//! pinned by.

use proptest::prelude::*;
use tbmd::trace::JsonValue;
use tbmd::{
    run_manifest, CheckpointStore, EngineKind, MemoryBackend, RecorderConfig, RunRecorder,
    ScopedSink, SessionBuilder, SessionStatus, SimulationConfig, SimulationSummary, Snapshot,
    SnapshotBackend, StatsSnapshot, SystemSpec, ThermostatSnapshot, Vec3,
};

fn bits(v: &[Vec3]) -> Vec<u64> {
    v.iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

/// The same config as a session of its own, driven to completion.
fn standalone(config: &SimulationConfig, what: &str) -> SimulationSummary {
    SessionBuilder::new(*config)
        .build()
        .expect(what)
        .run()
        .expect(what)
}

fn assert_endpoints_bitwise(a: &SimulationSummary, b: &SimulationSummary) {
    assert_eq!(
        a.final_total_energy.to_bits(),
        b.final_total_energy.to_bits(),
        "total energy differs"
    );
    assert_eq!(
        bits(a.final_structure.positions()),
        bits(b.final_structure.positions()),
        "positions differ"
    );
    assert_eq!(
        bits(&a.final_velocities),
        bits(&b.final_velocities),
        "velocities differ"
    );
    assert_eq!(a.conserved_drift.to_bits(), b.conserved_drift.to_bits());
}

/// Two sessions of different systems, sizes and seeds, advanced strictly
/// interleaved (1 step each, alternating), must land bitwise on the
/// endpoints of their standalone serial runs.
#[test]
fn interleaved_sessions_bitwise_match_standalone_runs() {
    let mut ca = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 12);
    ca.seed = 7;
    let mut cb = SimulationConfig::nve(SystemSpec::Graphene { nx: 1, ny: 1 }, 600.0, 17);
    cb.seed = 1234;
    let ra = standalone(&ca, "standalone a");
    let rb = standalone(&cb, "standalone b");

    let mut sa = SessionBuilder::new(ca).build().expect("session a");
    let mut sb = SessionBuilder::new(cb).build().expect("session b");
    loop {
        let a = sa.step().expect("a step");
        let b = sb.step().expect("b step");
        if a == SessionStatus::Done && b == SessionStatus::Done {
            break;
        }
    }
    let (qa, qb) = (
        sa.take_summary().expect("summary a"),
        sb.take_summary().expect("summary b"),
    );
    assert_eq!(qa.steps, 12);
    assert_eq!(qb.steps, 17);
    assert_endpoints_bitwise(&qa, &ra);
    assert_endpoints_bitwise(&qb, &rb);
}

/// A distributed session multiplexed against a serial one: the trajectory
/// stays bitwise the standalone one. Every launch joins its rank threads
/// before it returns, so multiplexing cannot strand them.
#[test]
fn multiplexed_distributed_session_leaks_no_workers() {
    let mut cd = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 6);
    cd.engine = EngineKind::Distributed { ranks: 2 };
    cd.seed = 21;
    let mut cs = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 450.0, 9);
    cs.seed = 22;
    let rd = standalone(&cd, "standalone distributed");
    let rs = standalone(&cs, "standalone serial");
    {
        let mut sd = SessionBuilder::new(cd)
            .build()
            .expect("distributed session");
        let mut ss = SessionBuilder::new(cs).build().expect("serial session");
        loop {
            let a = sd.step().expect("distributed step");
            let b = ss.step().expect("serial step");
            if a == SessionStatus::Done && b == SessionStatus::Done {
                break;
            }
        }
        assert_endpoints_bitwise(&sd.take_summary().unwrap(), &rd);
        assert_endpoints_bitwise(&ss.take_summary().unwrap(), &rs);
        assert!(sd.evaluations() > 0);
    }
}

/// The `comm_bytes` of every step line in a recorder's stream.
fn comm_bytes(recorder: &RunRecorder) -> Vec<u64> {
    recorder
        .lines()
        .iter()
        .map(|line| JsonValue::parse(line).expect("JSONL line parses"))
        .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("step"))
        .map(|v| {
            v.get("comm_bytes")
                .and_then(|b| b.as_f64())
                .expect("comm_bytes") as u64
        })
        .collect()
}

/// A recorded step line holds its own session's counters: with a serial and
/// a distributed tenant stepped alternately — each under its own telemetry
/// scope, as `tbmd-serve` runs them — the serial tenant's lines carry no
/// wire bytes and the distributed tenant's equal its standalone stream.
#[test]
fn recorded_step_counters_are_per_session() {
    let mut cs = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 4);
    cs.seed = 51;
    let mut cd = cs;
    cd.engine = EngineKind::Distributed { ranks: 2 };
    let recorded = |config: SimulationConfig, scope: Option<&str>| {
        let recorder = RunRecorder::in_memory(&run_manifest(&config));
        let mut builder =
            SessionBuilder::new(config).record_owned(recorder, RecorderConfig::standard());
        if let Some(label) = scope {
            builder = builder.telemetry(ScopedSink::new(label));
        }
        builder.build().expect("recorded session")
    };

    // Standalone: no scope attached, so the session makes its own.
    let mut alone = recorded(cd, None);
    alone.run().expect("standalone distributed");
    let alone = comm_bytes(&alone.take_recorder().expect("owned recorder"));
    assert_eq!(alone.len(), 4);
    assert!(alone.iter().all(|&b| b > 0), "no wire bytes in {alone:?}");

    let mut ss = recorded(cs, Some("serial"));
    let mut sd = recorded(cd, Some("distributed"));
    loop {
        let a = ss.step().expect("serial step");
        let b = sd.step().expect("distributed step");
        if a == SessionStatus::Done && b == SessionStatus::Done {
            break;
        }
    }
    let serial = comm_bytes(&ss.take_recorder().expect("owned recorder"));
    let distributed = comm_bytes(&sd.take_recorder().expect("owned recorder"));
    assert_eq!(serial, vec![0; 4], "the serial tenant sends nothing");
    assert_eq!(distributed, alone, "same job, same bytes, alone or not");
}

/// Rank views belong to whoever launched the ranks: two `distributed:2`
/// sessions stepped alternately, each under its own scope, each get their
/// own `rank0` / `rank1` holding exactly their own traffic, and a launch
/// nobody observes creates no rank view anywhere.
#[test]
fn rank_views_belong_to_the_session_that_launched_them() {
    use tbmd::trace::Counter;
    let distributed = |steps: usize| {
        let mut c = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, steps);
        c.seed = 61;
        c.engine = EngineKind::Distributed { ranks: 2 };
        c
    };
    let (short, long) = (ScopedSink::new("short"), ScopedSink::new("long"));
    let bystander = ScopedSink::new("bystander");
    let mut ss = SessionBuilder::new(distributed(2))
        .telemetry(short.clone())
        .build()
        .expect("short session");
    let mut sl = SessionBuilder::new(distributed(5))
        .telemetry(long.clone())
        .build()
        .expect("long session");
    let mut unobserved = SessionBuilder::new(distributed(2))
        .build()
        .expect("unobserved session");
    loop {
        let a = ss.step().expect("short step");
        let b = sl.step().expect("long step");
        let c = unobserved.step().expect("unobserved step");
        if [a, b, c] == [SessionStatus::Done; 3] {
            break;
        }
    }
    let wire = |scope: &ScopedSink| scope.snapshot().counter(Counter::WireBytes);
    for scope in [&short, &long] {
        let ranks = scope.ranks();
        let labels: Vec<&str> = ranks.iter().map(ScopedSink::label).collect();
        assert_eq!(labels, ["rank0", "rank1"], "{}", scope.label());
        assert!(ranks.iter().all(|r| wire(r) > 0), "{}", scope.label());
        assert_eq!(
            ranks.iter().map(wire).sum::<u64>(),
            wire(scope),
            "{}: rank shares do not add up to the session's total",
            scope.label()
        );
    }
    assert!(wire(&long) > wire(&short), "five steps move more than two");
    assert!(bystander.ranks().is_empty());
    assert_eq!(bystander.snapshot(), Default::default());
}

/// Allocation-growth accounting is per session: a session's count is the
/// same whether it runs alone or interleaved with a bigger tenant.
#[test]
fn per_session_alloc_counters_are_independent() {
    let mut ca = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 5);
    ca.seed = 31;
    let mut cb = SimulationConfig::nve(SystemSpec::Graphene { nx: 2, ny: 1 }, 300.0, 5);
    cb.seed = 32;

    let solo = {
        let mut s = SessionBuilder::new(ca).build().expect("solo");
        s.run().expect("solo run");
        s.large_alloc_events()
    };
    let (multi_a, multi_b) = {
        let mut sa = SessionBuilder::new(ca).build().expect("a");
        let mut sb = SessionBuilder::new(cb).build().expect("b");
        loop {
            let a = sa.step().expect("a step");
            let b = sb.step().expect("b step");
            if a == SessionStatus::Done && b == SessionStatus::Done {
                break;
            }
        }
        (sa.large_alloc_events(), sb.large_alloc_events())
    };
    // The first evaluation grows the workspace from empty, so the count is
    // nonzero — and identical to the solo run: nothing from tenant B's
    // (different-sized) workspaces bled into A's counter.
    assert!(solo > 0, "expected workspace growth events");
    assert_eq!(
        multi_a, solo,
        "tenant A's alloc count changed under multiplexing"
    );
    assert!(multi_b > 0);
}

/// A session checkpointing into a shared in-memory store, killed mid-run
/// and resumed by a second session over the same store, lands bitwise on
/// the uninterrupted endpoint — the fs-backed kill/resume guarantee, now
/// backend-agnostic.
#[test]
fn in_memory_checkpointed_session_resumes_bitwise() {
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 12);
    config.seed = 41;
    let reference = standalone(&config, "uninterrupted");

    let store = CheckpointStore::in_memory(3);
    {
        let mut first = SessionBuilder::new(config)
            .checkpoint_store(store.clone(), 2)
            .build()
            .expect("first session");
        // Kill after 7 steps: the newest usable snapshot is at step 6.
        for _ in 0..7 {
            assert_eq!(first.step().expect("partial run"), SessionStatus::Running);
        }
    }
    let resumed = SessionBuilder::new(config)
        .checkpoint_store(store, 2)
        .resume()
        .build()
        .expect("resume session")
        .run()
        .expect("resumed run");
    assert_endpoints_bitwise(&resumed, &reference);
}

// ---------------------------------------------------------------------------
// In-memory SnapshotBackend round-trips under the TBCK corruption cases.
// ---------------------------------------------------------------------------

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        (1usize..6, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (-1e9..1e9, -1e9..1e9, -1e9..1e9, -1e9..1e9),
        (0u64..1_000_000, -1e9..1e9, 0.0..1e9),
        0u64..2,
    )
        .prop_map(
            |(
                (n_atoms, step, seed, rng_state),
                (time_fs, potential, conserved, drift),
                (sn, mean, m2),
                with_thermo,
            )| {
                let n = 3 * n_atoms;
                Snapshot {
                    step,
                    time_fs,
                    seed,
                    config_fingerprint: seed.rotate_left(17) ^ 0xA5A5,
                    rng_state,
                    potential_energy: potential,
                    conserved_ref: conserved,
                    drift,
                    recorded_steps: step / 2,
                    positions: (0..n).map(|i| time_fs + i as f64).collect(),
                    velocities: (0..n).map(|i| drift * i as f64).collect(),
                    forces: (0..n).map(|i| conserved - i as f64).collect(),
                    temp_stats: StatsSnapshot {
                        n: sn,
                        mean,
                        m2,
                        min: mean - 1.0,
                        max: mean + 1.0,
                    },
                    thermostat: (with_thermo == 1).then_some(ThermostatSnapshot {
                        xi: mean,
                        eta: m2,
                        target_k: 300.0,
                        q: 1.0,
                    }),
                    ramp: None,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// put → get through the in-memory backend is byte-identical, and the
    /// recovered snapshot re-encodes to the stored bytes.
    #[test]
    fn memory_backend_roundtrips_snapshots(snap in arb_snapshot()) {
        let backend = MemoryBackend::new();
        let bytes = snap.encode();
        backend.put("ckpt_0000000001.tbck", &bytes).expect("put");
        let back = backend.get("ckpt_0000000001.tbck").expect("get");
        prop_assert_eq!(&back, &bytes);
        let decoded = Snapshot::decode(&back).expect("decode");
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// A single flipped bit in a stored blob is rejected by the decoder —
    /// the memory backend must not mask TBCK's integrity checking.
    #[test]
    fn memory_backend_surfaces_bit_flips(
        snap in arb_snapshot(),
        pos_seed in 0u64..u64::MAX,
        bit in 0usize..8,
    ) {
        let mut bytes = snap.encode();
        let idx = (pos_seed as usize) % bytes.len();
        bytes[idx] ^= 1 << bit;
        let backend = MemoryBackend::new();
        backend.put("corrupt.tbck", &bytes).expect("put");
        prop_assert!(Snapshot::decode(&backend.get("corrupt.tbck").unwrap()).is_err());
    }

    /// Truncated blobs (torn writes have no fs analogue in memory, but a
    /// partial buffer can still arrive) never decode and never panic.
    #[test]
    fn memory_backend_surfaces_truncation(snap in arb_snapshot(), keep in 0usize..64) {
        let bytes = snap.encode();
        let cut = keep % bytes.len().max(1);
        let backend = MemoryBackend::new();
        backend.put("torn.tbck", &bytes[..cut]).expect("put");
        let back = backend.get("torn.tbck").expect("get");
        prop_assert_eq!(back.len(), cut);
        prop_assert!(Snapshot::decode(&back).is_err());
    }
}

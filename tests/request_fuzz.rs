//! Request fuzzing: whatever a client sends, `tbmd_serve::parse_request`
//! and `CampaignSpec::from_json` answer `Ok` or `Err`. They never panic, and
//! never overflow the stack of the thread that parses (the daemon parses
//! every request line on a default-stack client thread, and a stack
//! overflow aborts the whole process, every tenant included).

use proptest::prelude::*;
use tbmd::{EngineKind, Protocol, SessionBuilder, SimulationConfig, SystemSpec, TbError};
use tbmd_campaign::CampaignSpec;
use tbmd_serve::{parse_request, JobSpec, Multiplexer, Request, TenantReport};

/// A job line that sets every field `parse_request` reads.
const JOB_LINE: &str = r#"{"job":"a","system":"si","reps":1,"engine":"distributed","ranks":2,"protocol":"nvt","temperature_k":300,"steps":12,"dt_fs":1,"tau_fs":40,"electronic_kt":0.1,"perturb":0.05,"seed":"0x2a","quantum":4,"threads":1,"health_stride":5,"checkpoint_interval":3,"retain":2}"#;

/// The campaign spec experiment S4 of `tbmd-report` runs: 1 structure ×
/// 2 perturbations × 2 protocols × 2 engines.
const CAMPAIGN_SPEC: &str = r#"{
    "name": "bench-matrix",
    "seed": 29,
    "structures": [{"label": "si1", "system": "si", "reps": 1}],
    "perturbations": [
        {"label": "pristine", "kind": "pristine"},
        {"label": "vac0", "kind": "vacancy", "site": 0}
    ],
    "protocols": [
        {"label": "nve", "kind": "nve", "temperature_k": 300, "steps": 6},
        {"label": "quench", "kind": "quench", "from_k": 600, "to_k": 300,
         "segments": 2, "rate_k_per_fs": 25, "hold_steps": 2}
    ],
    "engines": ["serial", "shared"]
}"#;

/// Both parsers on one input; a panic fails the test with the input shown.
fn parse_both(text: &str) -> (bool, bool) {
    let outcome = std::panic::catch_unwind(|| {
        (
            parse_request(text).is_ok(),
            CampaignSpec::from_json(text).is_ok(),
        )
    });
    let shown: String = text.chars().take(200).collect();
    outcome.unwrap_or_else(|_| panic!("a parser panicked on {shown:?} ({} bytes)", text.len()))
}

/// Both parsers on a fresh default-stack thread, as the daemon's client
/// threads run them: a stack overflow there aborts this test binary.
fn parse_both_on_a_client_thread(text: String) -> (bool, bool) {
    std::thread::spawn(move || parse_both(&text))
        .join()
        .expect("parser thread")
}

/// A truncated line is what a client that dies mid-write leaves behind.
/// Every strict prefix of a JSON object is unterminated, so every one is an
/// error; the whole documents parse.
#[test]
fn every_prefix_is_an_error() {
    assert!(parse_request(JOB_LINE).is_ok());
    assert!(CampaignSpec::from_json(CAMPAIGN_SPEC).is_ok());
    for doc in [JOB_LINE, CAMPAIGN_SPEC] {
        for (cut, _) in doc.char_indices() {
            assert_eq!(parse_both(&doc[..cut]), (false, false), "prefix {cut}");
        }
    }
}

/// Job lines that ask for more than a front end builds: 8·10⁹ atoms, a
/// repeat count that saturates to `usize::MAX`, and 100 000 ranks (a thread
/// each, every evaluation) for eight atoms.
const OVERSIZED_JOBS: [&str; 3] = [
    r#"{"job":"x","reps":1000}"#,
    r#"{"job":"x","reps":1e300}"#,
    r#"{"job":"x","engine":"distributed","ranks":100000}"#,
];

/// The same three as campaign specs.
const OVERSIZED_CAMPAIGNS: [&str; 3] = [
    r#"{"structures":[{"system":"si","reps":1000}],"protocols":[{"kind":"nve"}]}"#,
    r#"{"structures":[{"system":"si","reps":1e300}],"protocols":[{"kind":"nve"}]}"#,
    r#"{"structures":[{"system":"si"}],"protocols":[{"kind":"nve"}],"engines":["distributed:100000"]}"#,
];

/// Each is refused while it is parsed, with an error that names the limit.
#[test]
fn oversized_requests_are_errors_naming_the_limit() {
    for line in OVERSIZED_JOBS {
        let err = parse_request(line).expect_err(line);
        assert!(err.contains("limit"), "{line}: {err}");
        assert_eq!(parse_both(line), (false, false), "{line}");
    }
    for spec in OVERSIZED_CAMPAIGNS {
        let err = CampaignSpec::from_json(spec).expect_err(spec);
        assert!(err.contains("limit"), "{spec}: {err}");
    }
    // The limits themselves are reachable.
    assert!(parse_request(r#"{"job":"x","reps":8}"#).is_ok());
    assert!(parse_request(r#"{"job":"x","engine":"distributed","ranks":8}"#).is_ok());
}

/// Protocol values an MD kernel asserts on, each with the field its error
/// must name: a zero thermostat period, a zero and a negative timestep, a
/// negative temperature.
const BAD_PROTOCOL_JOBS: [(&str, &str); 4] = [
    (r#"{"job":"x","protocol":"nvt","tau_fs":0}"#, "tau_fs"),
    (r#"{"job":"x","dt_fs":0}"#, "dt_fs"),
    (r#"{"job":"x","dt_fs":-1}"#, "dt_fs"),
    (
        r#"{"job":"x","protocol":"nvt","temperature_k":-5}"#,
        "temperature_k",
    ),
];

/// Each is refused while it is parsed; so is the campaign form of the
/// first, and a config built in code is refused by the session builder
/// before anything runs.
#[test]
fn protocol_values_the_kernels_assert_on_are_errors_naming_the_field() {
    for (line, field) in BAD_PROTOCOL_JOBS {
        let err = parse_request(line).expect_err(line);
        assert!(err.contains(field), "{line}: {err}");
    }
    let spec = r#"{"structures":[{"system":"si"}],"protocols":[{"kind":"nvt","tau_fs":0}]}"#;
    let err = CampaignSpec::from_json(spec).expect_err(spec);
    assert!(err.contains("tau_fs"), "{err}");
    let mut config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 4);
    config.protocol = Protocol::Nvt {
        temperature_k: 300.0,
        steps: 4,
        dt_fs: 1.0,
        tau_fs: 0.0,
    };
    let Err(TbError::Config(err)) = SessionBuilder::new(config).build() else {
        panic!("the session builder accepted tau_fs = 0");
    };
    assert!(err.contains("tau_fs"), "{err}");
}

/// Smearings and displacement amplitudes no run may start on, each with the
/// field its error must name: an infinite smearing (which used to retire Ok
/// with null energies), a negative one (which used to run zero-temperature
/// filling), and the same two displacements.
const BAD_CONFIG_JOBS: [(&str, &str); 4] = [
    (r#"{"job":"x","electronic_kt":1e400}"#, "electronic_kt"),
    (r#"{"job":"x","electronic_kt":-0.1}"#, "electronic_kt"),
    (r#"{"job":"x","perturb":1e400}"#, "perturb"),
    (r#"{"job":"x","perturb":-0.05}"#, "perturb"),
];

/// Each is refused while it is parsed; so is a campaign smearing, and a
/// config built in code is refused by the session builder, NaN included.
#[test]
fn smearing_and_displacement_values_are_errors_naming_the_field() {
    for (line, field) in BAD_CONFIG_JOBS {
        let err = parse_request(line).expect_err(line);
        assert!(err.contains(field), "{line}: {err}");
    }
    for kt in ["1e400", "-0.1"] {
        let spec = format!(
            r#"{{"electronic_kt":{kt},"structures":[{{"system":"si"}}],"protocols":[{{"kind":"nve"}}]}}"#
        );
        let err = CampaignSpec::from_json(&spec).expect_err(&spec);
        assert!(err.contains("electronic_kt"), "{spec}: {err}");
    }
    let config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 4);
    let cases = [
        (
            "electronic_kt",
            SimulationConfig {
                electronic_kt: f64::NAN,
                ..config
            },
        ),
        (
            "electronic_kt",
            SimulationConfig {
                electronic_kt: -0.1,
                ..config
            },
        ),
        (
            "perturb",
            SimulationConfig {
                perturb: f64::INFINITY,
                ..config
            },
        ),
    ];
    for (field, bad) in cases {
        let Err(TbError::Config(err)) = SessionBuilder::new(bad).build() else {
            panic!("the session builder accepted {field} of {bad:?}");
        };
        assert!(err.contains(field), "{err}");
    }
}

/// Count fields a front end used to truncate or saturate: 2.7 steps ran 2,
/// 1.9 repeats built Si-8, 2.5 threads leased 2, and 10³⁰ steps became
/// `usize::MAX`. Each with the field its error must name.
const LOSSY_COUNT_JOBS: [(&str, &str); 6] = [
    (r#"{"job":"x","steps":2.7}"#, "steps"),
    (r#"{"job":"x","reps":1.9}"#, "reps"),
    (r#"{"job":"x","threads":2.5}"#, "threads"),
    (r#"{"job":"x","steps":1e30}"#, "steps"),
    (r#"{"job":"x","quantum":-1}"#, "quantum"),
    (r#"{"job":"x","engine":"distributed","ranks":"2"}"#, "ranks"),
];

/// The campaign forms: a fractional repeat count, step count and vacancy
/// site, a negative hold, and a saturating segment count.
const LOSSY_COUNT_CAMPAIGNS: [(&str, &str); 5] = [
    (
        r#"{"structures":[{"system":"si","reps":1.9}],"protocols":[{"kind":"nve"}]}"#,
        "reps",
    ),
    (
        r#"{"structures":[{"system":"si"}],"protocols":[{"kind":"nve","steps":2.7}]}"#,
        "steps",
    ),
    (
        r#"{"structures":[{"system":"si"}],"perturbations":[{"kind":"vacancy","site":0.5}],"protocols":[{"kind":"nve"}]}"#,
        "site",
    ),
    (
        r#"{"structures":[{"system":"si"}],"protocols":[{"kind":"quench","hold_steps":-2}]}"#,
        "hold_steps",
    ),
    (
        r#"{"structures":[{"system":"si"}],"protocols":[{"kind":"quench","segments":1e30}]}"#,
        "segments",
    ),
];

/// Every one is refused while it is parsed, naming the field; the whole
/// job line and campaign spec above still parse, and so do counts written
/// as integral floats.
#[test]
fn lossy_counts_are_errors_naming_the_field() {
    for (line, field) in LOSSY_COUNT_JOBS {
        let err = parse_request(line).expect_err(line);
        assert!(err.contains(field), "{line}: {err}");
    }
    for (spec, field) in LOSSY_COUNT_CAMPAIGNS {
        let err = CampaignSpec::from_json(spec).expect_err(spec);
        assert!(err.contains(field), "{spec}: {err}");
    }
    assert!(parse_request(JOB_LINE).is_ok());
    assert!(CampaignSpec::from_json(CAMPAIGN_SPEC).is_ok());
    let Ok(Request::Job(spec)) = parse_request(r#"{"job":"x","steps":3.0,"threads":2e0}"#) else {
        panic!("integral floats are counts");
    };
    assert!(matches!(
        spec.config.protocol,
        Protocol::Nve { steps: 3, .. }
    ));
    assert_eq!(spec.threads, 2);
}

/// A spec built in code skips the parser; the multiplexer refuses it as it
/// admits it, and the tenants around it run to the same bits as without it.
#[test]
fn a_multiplexer_refuses_oversized_tenants_and_serves_the_rest_bitwise() {
    let job = |name: &str, system, engine| {
        let mut config = SimulationConfig::nve(system, 300.0, 4);
        config.engine = engine;
        config.seed = 36;
        JobSpec::new(name, config)
    };
    let si8 = SystemSpec::SiliconDiamond { reps: 1 };
    let run = |hostile: bool| {
        let mut mux = Multiplexer::new();
        mux.submit(job("a", si8, EngineKind::Serial), std::io::sink());
        if hostile {
            let huge = SystemSpec::SiliconDiamond { reps: 1000 };
            mux.submit(job("huge", huge, EngineKind::Serial), std::io::sink());
            let ranks = EngineKind::Distributed { ranks: 100_000 };
            mux.submit(job("ranks", si8, ranks), std::io::sink());
        }
        mux.submit(job("b", si8, EngineKind::Serial), std::io::sink());
        mux.drain()
    };
    let endpoint = |r: &TenantReport| {
        let summary = r.outcome.as_ref().expect("a served tenant");
        let positions = summary.final_structure.positions().iter();
        let velocities = summary.final_velocities.iter();
        let vectors = positions.chain(velocities).flat_map(|v| v.to_array());
        let mut bits: Vec<u64> = vectors.map(f64::to_bits).collect();
        bits.push(summary.final_total_energy.to_bits());
        (r.name.clone(), bits)
    };
    // Reports come in completion order; tenants are known by name.
    let by_name = |mut v: Vec<(String, Vec<u64>)>| {
        v.sort();
        v
    };
    let calm = by_name(run(false).iter().map(endpoint).collect());
    let reports = run(true);
    let (refused, served): (Vec<&TenantReport>, Vec<&TenantReport>) = reports
        .iter()
        .partition(|r| r.name == "huge" || r.name == "ranks");
    assert_eq!(refused.len(), 2);
    for r in refused {
        let err = r.outcome.as_ref().expect_err("refused");
        assert!(err.contains("limit"), "{}: {err}", r.name);
        assert_eq!(r.steps, 0);
    }
    let served = by_name(served.into_iter().map(endpoint).collect());
    assert!(served == calm, "the other tenants moved");
}

/// `depth` openers, `[` or `{"a":` as `seed` picks, around a `1`, with the
/// innermost `closed` of them closed again (so some inputs are well-formed
/// and only too deep), behind `lead`: a position where a client's value
/// goes.
fn nested(depth: usize, seed: u64, closed: usize, lead: &str) -> String {
    let mut state = seed | 1;
    let mut opens = Vec::with_capacity(depth);
    let mut text = String::from(lead);
    for _ in 0..depth {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let array = state >> 63 == 0;
        text.push_str(if array { "[" } else { "{\"a\":" });
        opens.push(array);
    }
    text.push('1');
    for &array in opens.iter().rev().take(closed) {
        text.push(if array { ']' } else { '}' });
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn deep_nesting_is_an_error_on_a_client_thread(
        depth in 0usize..=100_000,
        seed in 0u64..1_000_000,
        closed_frac in 0.0f64..=1.0,
        lead in 0usize..3,
    ) {
        let lead = ["", "{\"job\":\"x\",\"system\":", "{\"structures\":"][lead];
        let closed = (depth as f64 * closed_frac) as usize;
        let text = nested(depth, seed, closed, lead);
        let answers = parse_both_on_a_client_thread(text);
        if depth > 128 {
            prop_assert_eq!(answers, (false, false), "depth {}", depth);
        }
    }
}

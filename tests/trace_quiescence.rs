//! A finished run leaves nobody listening.
//!
//! `tbmd_trace::active()` is the one process-wide word of the trace layer
//! (entered scopes over all threads), so this assertion needs a process in
//! which nothing else can hold a scope: the file is its own integration
//! binary and holds exactly one test.

use tbmd::{
    run_manifest, RecorderConfig, RunRecorder, SessionBuilder, SimulationConfig, SystemSpec,
};

/// A recorded session observes itself through a scope of its own while it
/// steps; once it has run and been dropped every hook in the process is
/// back on the one-load fast path.
#[test]
fn a_recorded_session_leaves_no_listener_behind() {
    assert!(!tbmd::trace::active(), "fresh process");
    let config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 3);
    let recorder = RunRecorder::in_memory(&run_manifest(&config));
    let mut session = SessionBuilder::new(config)
        .record_owned(recorder, RecorderConfig::standard())
        .build()
        .expect("recorded session");
    session.run().expect("recorded run");
    assert!(
        session.telemetry().is_some(),
        "a recorded session has a scope"
    );
    let recorded = session
        .take_recorder()
        .expect("owned recorder")
        .finish()
        .expect("summary");
    assert_eq!(recorded.steps, 3);
    assert!(
        recorded.watchdog.ok,
        "a healthy run keeps the watchdog green"
    );
    drop(session);
    assert!(
        !tbmd::trace::active(),
        "somebody is still listening after every session is gone"
    );
}

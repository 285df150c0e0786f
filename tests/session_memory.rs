//! Peak resident memory of dense sessions built one after another in one
//! process, as the benchmark's set-up, `tbmd-serve` and `tbmd-campaign` do.
//!
//! A dropped session must leave nothing behind that the next one cannot
//! reuse. glibc raises its mmap and trim thresholds once it has freed a
//! large mmapped block, so the first session's buffers are mmapped and a
//! later session's come from the heap; a buffer that a later session
//! regrows (the `n × k` eigenvector block when the occupied window widens
//! by one state) then leaves its old block resident. The eigenvector block
//! is sized once per system for exactly that reason.
//!
//! One test in a binary of its own: `VmHWM` is the process's high-water
//! mark, so no other test may run beside it.
#![cfg(target_os = "linux")]

use tbmd::{Budget, EngineKind, Protocol, Session, SessionBuilder, SimulationConfig, SystemSpec};

/// The process's peak resident set so far, in kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// A Si-216 serial NVE session (the `si216-serial-nve` system) under a
/// width-1 lease, stepped `steps` times.
fn stepped_si216(seed: u64, steps: usize) -> Session<'static> {
    let config = SimulationConfig {
        system: SystemSpec::SiliconDiamond { reps: 3 },
        engine: EngineKind::Serial,
        protocol: Protocol::Nve {
            temperature_k: 300.0,
            steps: 20,
            dt_fs: 1.0,
        },
        electronic_kt: 0.1,
        perturb: 0.02,
        seed,
        record_stride: 0,
    };
    let lease = Budget::new(1).lease(1).expect("a new budget is free");
    let mut session = SessionBuilder::new(config).lease(lease).build().unwrap();
    for _ in 0..steps {
        session.step().unwrap();
    }
    session
}

#[test]
fn sessions_built_after_dropped_ones_peak_no_higher_than_the_first() {
    let baseline = vm_hwm_kb();
    drop(stepped_si216(42, 2));
    let first = vm_hwm_kb() - baseline;
    for seed in [43, 44] {
        drop(stepped_si216(seed, 2));
    }
    let last = stepped_si216(45, 10);
    let rise = vm_hwm_kb() - baseline;
    drop(last);
    assert!(
        rise as f64 <= 1.1 * first as f64,
        "peak rose {rise} kB over the baseline, the first session alone {first} kB"
    );
}

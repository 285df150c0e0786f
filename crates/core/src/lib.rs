//! # tbmd — parallel tight-binding molecular dynamics
//!
//! The public facade of the workspace: re-exports the structure builders,
//! tight-binding models, MD integrators, parallel engines and the O(N)
//! engine, and adds the high-level [`SimulationConfig`] → [`SessionBuilder`]
//! → [`Session`] run layer plus the [`Engine`]/[`EngineKind`] selection layer.
//!
//! ## Quick start
//!
//! ```
//! use tbmd::{SessionBuilder, SimulationConfig, SystemSpec};
//!
//! let config = SimulationConfig::nve(SystemSpec::SiliconDiamond { reps: 1 }, 300.0, 5);
//! let summary = SessionBuilder::new(config).build().unwrap().run().unwrap();
//! assert!(summary.conserved_drift < 0.05); // NVE energy conservation
//! ```

pub mod engine;
pub mod session;
pub mod simulation;
pub mod system;

pub use engine::{Engine, EngineKind};
pub use session::{InitialState, Session, SessionBuilder, SessionStatus};
pub use simulation::{
    run_manifest, CheckpointConfig, Protocol, RecorderConfig, RecoveryReport, ReshardPolicy,
    ResilienceOptions, SimulationConfig, SimulationSummary,
};
pub use system::{SystemSpec, MAX_ATOMS};

// Re-export the component crates under stable names.
pub use tbmd_linalg as linalg;
pub use tbmd_linscale as linscale;
pub use tbmd_md as md;
pub use tbmd_model as model;
pub use tbmd_parallel as parallel;
pub use tbmd_structure as structure;
pub use tbmd_trace as trace;

// The most common types at the top level.
pub use tbmd_ckpt::{
    CheckpointStore, CkptError, FsBackend, MemoryBackend, RampSnapshot, Snapshot, SnapshotBackend,
    StatsSnapshot, ThermostatSnapshot, WriteReceipt,
};
pub use tbmd_linalg::budget::{configure_budget, try_lease, Budget, ComputeLease};
pub use tbmd_linalg::{Matrix, Vec3};
pub use tbmd_linscale::{DistributedLinearScalingTb, LinearScalingTb};
pub use tbmd_md::{
    maxwell_boltzmann, normal_modes, relax, MdState, NormalModes, NoseHoover, RelaxOptions,
    TemperatureRamp, Trajectory, VelocityVerlet,
};
pub use tbmd_model::{
    band_structure, carbon_xwch, pressure, silicon_gsp, stress_tensor, ForceProvider,
    OccupationScheme, TbCalculator, TbError, TbModel, Workspace,
};
pub use tbmd_parallel::{
    default_recv_timeout, DistributedTb, FaultKind, FaultPlan, MachineProfile, RankControl,
};
pub use tbmd_structure::{Cell, NeighborList, Species, Structure};
pub use tbmd_trace::{Hist, HistogramSet, RunManifest, RunRecorder, ScopedSink, WatchdogStatus};

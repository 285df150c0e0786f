//! # tbmd-md
//!
//! The molecular-dynamics layer: Maxwell–Boltzmann initialization,
//! velocity-Verlet NVE integration, Nosé–Hoover NVT dynamics with the
//! extended-system conserved quantity, temperature ramps,
//! conjugate-gradient structural relaxation, normal modes, and observables
//! (running statistics, the RDF) with in-memory trajectory capture.
//!
//! Everything is generic over [`tbmd_model::ForceProvider`], so the same
//! integrators drive the serial calculator, the parallel engines and the
//! O(N) engine.

pub mod nose_hoover;
pub mod observables;
pub mod phonons;
pub mod relax;
pub mod state;
pub mod trajectory;
pub mod velocities;
pub mod verlet;

pub use nose_hoover::{NoseHoover, TemperatureRamp};
pub use observables::{RdfAccumulator, RunningStats};
pub use phonons::{normal_modes, vibrational_dos, NormalModes};
pub use relax::{max_force_component, relax, RelaxOptions, RelaxResult};
pub use state::MdState;
pub use trajectory::{Frame, Trajectory};
pub use velocities::{
    derive_seed, dof_with_com_removed, instantaneous_temperature, kinetic_energy,
    maxwell_boltzmann, maxwell_boltzmann_seeded, remove_com_velocity, rescale_to_temperature,
    splitmix64,
};
pub use verlet::VelocityVerlet;

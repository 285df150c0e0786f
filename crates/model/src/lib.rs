//! # tbmd-model
//!
//! The tight-binding physics engine: Slater–Koster `sp³` matrix elements
//! with analytic gradients, the Goodwin–Skinner–Pettifor/Kwon silicon and
//! Xu–Wang–Chan–Ho carbon parametrizations, Γ-point Hamiltonian assembly,
//! electronic occupations (0 K and Fermi smearing), the evaluation stages
//! every engine shares ([`stages`]), and the dense calculator that strings
//! them into total energies and Hellmann–Feynman forces with per-phase
//! timings.

pub mod bands;
pub mod calculator;
pub mod carbon;
pub mod collectives;
pub mod hamiltonian;
pub mod health;
pub mod model;
pub mod occupations;
pub mod provider;
pub mod scaling;
pub mod silicon;
pub mod slater_koster;
pub mod stages;
pub mod stress;
pub mod units;
pub mod workspace;

pub use bands::{
    band_energies, band_gap, band_structure, bloch_hamiltonian, density_of_states,
    hermitian_eigenvalues, k_path,
};
pub use calculator::{
    density_matrix, density_matrix_into, electronic_forces, repulsive_energy_forces, DenseSolver,
    PhaseTimings, TbCalculator, TbError, TbResult, TWO_STAGE_MIN_DIM,
};
pub use carbon::carbon_xwch;
pub use collectives::{partition_range, Collectives, Solo};
pub use hamiltonian::{
    assemble_hamiltonian_into, build_hamiltonian, build_hamiltonian_into, OrbitalIndex,
};
pub use health::{cached_eigensolver_health, eigensolver_health};
pub use model::{BondTerms, EmbeddingPolynomial, GspTbModel, TbModel};
pub use occupations::{
    occupations, occupied_count, OccupationScheme, Occupations, OCCUPATION_DROP_TOL,
};
pub use provider::{ForceEvaluation, ForceProvider};
pub use scaling::{CutoffTail, GspScaling, RadialFunction, RadialShape};
pub use silicon::silicon_gsp;
pub use slater_koster::{sk_block, sk_block_gradient, sk_transpose, Hoppings, SkBlock};
pub use stages::{
    bond_block_elements, bond_contraction, bond_density, bond_force, bond_forces, entropy_term,
    epilogue, for_each_bond_block, prologue, spectrum, validate, BondTable, RhoBlocks,
};
pub use stress::{pressure, stress_from_density, stress_tensor, StressTensor, EV_PER_A3_TO_GPA};
pub use units::{ACCEL_CONV, KB_EV};
pub use workspace::{
    DenseCache, KeptCandidates, KeptSkin, NeighborOutcome, NeighborStats, NeighborWorkspace,
    Workspace, WorkspaceBytes, DEFAULT_SKIN,
};

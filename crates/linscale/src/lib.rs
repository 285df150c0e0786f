//! # tbmd-linscale
//!
//! Linear-scaling O(N) tight binding: Hamiltonians built as 4×4 atom
//! blocks, Chebyshev expansion of the Fermi operator, localization-region
//! truncation of the density matrix (regions are index views into the one
//! block Hamiltonian, gathered per pass; one four-column block recurrence),
//! and the [`LinearScalingTb`] engine implementing
//! [`tbmd_model::ForceProvider`] — the Goedecker–Colombo (1994) class of
//! method that let TBMD escape O(N³) diagonalization.

pub mod chebyshev;
pub mod distributed;
pub mod engine;
pub mod sparse;

pub use chebyshev::{
    chebyshev_coefficients, chebyshev_eval, fermi_coefficients, fermi_function, solve_mu,
    BlockRecurrence,
};
pub use distributed::{DistributedLinScaleReport, DistributedLinearScalingTb};
pub use engine::{LinScaleReport, LinearScalingTb};
pub use sparse::{LocalRegion, SparseH};

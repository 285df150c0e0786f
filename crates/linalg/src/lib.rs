//! # tbmd-linalg
//!
//! Dense real linear algebra for the `tbmd` tight-binding molecular dynamics
//! workspace, written from scratch (no BLAS/LAPACK bindings — the 1994-era
//! machines this project models shipped vendor EISPACK/BLAS; we supply the
//! equivalent kernels in pure Rust).
//!
//! Contents:
//! * [`Vec3`] — 3-component vectors for positions/velocities/forces.
//! * [`Matrix`] — dense row-major matrices with cache-blocked products,
//!   serial or fanned out over the thread team.
//! * [`team`] — the process's persistent thread team: the one way any crate
//!   of the workspace fans a loop out, as wide as the entered
//!   [`ComputeLease`].
//! * [`eigh()`]/[`eigvalsh`] — one-stage Householder + implicit-QL symmetric
//!   eigensolver: the small-matrix path and the reference the two-stage
//!   solver is tested against.
//! * [`tridiagonalize_blocked_into`] → [`reduced_eigenvalues_into`] →
//!   [`stream_reduced_eigenvectors`] — the two-stage solver (blocked
//!   reduction, QL spectrum of the tridiagonal factor, inverse iteration +
//!   blocked back-transform for a window of states, strip by strip into a
//!   consumer): the per-timestep O(n³) kernel of tight-binding MD, on every
//!   dense engine. A distributed rank takes the whole spectrum from its
//!   replicated factor and streams a cluster-snapped shard of it
//!   ([`snap_range_to_clusters`]); [`reduced_eigenvectors_into`] collects
//!   a window into an `n × k` block for the references and tests.

pub mod blocked;
pub mod budget;
pub mod eigh;
pub mod inverse_iteration;
pub mod kernels;
pub mod matrix;
pub mod team;
pub mod vec3;

pub use blocked::{
    apply_q_blocked, eigh_partial_into, reduced_eigenvalues_into, reduced_eigenvectors_into,
    stream_reduced_eigenvectors, tridiagonalize_blocked_into, TRIDIAG_BLOCK,
};
pub use budget::{configure_budget, effective_width, try_lease, Budget, ComputeLease};
pub use eigh::{
    eig_residual, eigh, eigh_into, eigvalsh, orthogonality_defect, tqli, tqlrat, tridiagonalize,
    tridiagonalize_into, EigError, Eigh, EighWorkspace,
};
pub use inverse_iteration::{
    cluster_tolerance, snap_range_to_clusters, tridiagonal_eigenvectors_into, Strip,
};
pub use kernels::KERNEL_MIN_DIM;
pub use matrix::Matrix;
pub use vec3::Vec3;

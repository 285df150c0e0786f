//! # tbmd-parallel
//!
//! The message-passing layer of the reproduction: a virtual
//! distributed-memory machine ([`vmp`]) with counted message traffic, era
//! machine cost models ([`cost_model`]), the rank-control and launch layer
//! every replicated-data engine shares ([`ranks`]), and the message-passing
//! TBMD engine [`DistributedTb`]: the dense calculator's own evaluation body
//! on every rank, bit for bit the calculator on one rank and pinned to it by
//! the test-suite on more. Shared-memory parallelism is not here: the dense
//! calculator (`tbmd_model::TbCalculator`) fans its own stages out over the
//! thread team, as wide as the compute lease.

pub mod cost_model;
pub mod distributed;
pub mod ranks;
pub mod vmp;

pub use cost_model::{
    estimate_cost, scaling, sliced_wire_bytes, CostEstimate, MachineProfile, Scaling,
};
pub use distributed::{DistributedReport, DistributedTb};
pub use ranks::{Launch, RankControl, Replica};
pub use vmp::{
    default_recv_timeout, partition_range, vmp_run, FaultKind, FaultPlan, Rank, RankFault,
    RankStats, VmpError, VmpStats,
};

use tbmd_linalg::{Matrix, Vec3};
use tbmd_model::{bond_forces, BondTable, OrbitalIndex, RhoBlocks, Solo, TbModel};
use tbmd_structure::{NeighborList, Structure};

/// The dense pipeline's force stage ([`bond_forces`]) on a bond table and
/// a bond-block store of `rho` of its own, under the name and signature the
/// standalone benchmark package calls it by. Returns the repulsive energy
/// and the forces.
pub fn par_forces(
    s: &Structure,
    nl: &NeighborList,
    model: &dyn TbModel,
    index: &OrbitalIndex,
    rho: &Matrix,
) -> (f64, Vec<Vec3>) {
    assert_eq!(
        s.n_atoms(),
        nl.n_atoms(),
        "list built for another structure"
    );
    let mut bonds = BondTable::default();
    bonds.fill(model, nl);
    let (rho, solo) = (RhoBlocks::from_dense(nl, index, rho), Solo::start());
    let (forces, rep) = bond_forces(&solo, nl, &bonds, 0..nl.n_atoms(), |i, j| rho.block(i, j));
    (rep, forces)
}

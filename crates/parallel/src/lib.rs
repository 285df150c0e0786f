//! # tbmd-parallel
//!
//! The parallel-systems layer of the reproduction: a virtual
//! distributed-memory machine ([`vmp`]) with counted message traffic, era
//! machine cost models ([`cost_model`]), the rank-control and launch layer
//! every replicated-data engine shares ([`ranks`]), and two parallel TBMD
//! engines — the message-passing [`DistributedTb`] and the shared-memory
//! fan-out stages of the dense calculator ([`shared_memory_tb`]) — both
//! numerically pinned to the serial reference calculator by the test-suite.

pub mod cost_model;
pub mod distributed;
pub mod ranks;
pub mod shared;
pub mod vmp;

pub use cost_model::{
    estimate_cost, scaling, sliced_wire_bytes, CostEstimate, MachineProfile, Scaling,
};
pub use distributed::{DistributedReport, DistributedTb};
pub use ranks::{gather_forces, Launch, PhaseClock, RankControl, Replica};
pub use shared::{par_build_hamiltonian_into, par_forces, shared_memory_tb, FAN_OUT};
// The process compute budget lives in `tbmd-linalg` (the lowest layer every
// fan-out site can see); re-export it here so callers thinking in terms of
// parallel execution find it next to the engines it throttles.
pub use tbmd_linalg::budget::{
    budget_total, configure_budget, effective_width, high_water, leased_threads, reset_high_water,
    try_lease, ComputeLease,
};
pub use vmp::{
    default_recv_timeout, partition_range, vmp_run, FaultKind, FaultPlan, Rank, RankFault,
    RankStats, VmpError, VmpStats,
};

//! # tbmd-parallel
//!
//! The message-passing layer of the reproduction: a virtual
//! distributed-memory machine ([`vmp`]) with counted message traffic, era
//! machine cost models ([`cost_model`]), the rank-control and launch layer
//! every replicated-data engine shares ([`ranks`]), and the message-passing
//! TBMD engine [`DistributedTb`], numerically pinned to the dense calculator
//! by the test-suite. Shared-memory parallelism is not here: the dense
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
pub use ranks::{gather_forces, Launch, PhaseClock, RankControl, Replica};
/// The dense pipeline's force stage under the name the benchmark package
/// calls it by.
pub use tbmd_model::dense_forces as par_forces;
pub use vmp::{
    default_recv_timeout, partition_range, vmp_run, FaultKind, FaultPlan, Rank, RankFault,
    RankStats, VmpError, VmpStats,
};

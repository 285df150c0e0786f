//! Era machine cost models.
//!
//! An SC'94 scalability analysis prices an algorithm as
//!
//! ```text
//! T(P) = T_comp(P) + T_comm(P)
//! T_comp = max_rank(flops) / rate        (critical-path compute)
//! T_comm = Σ msgs·latency + Σ bytes/bandwidth   (on the critical rank)
//! ```
//!
//! The profiles below carry published order-of-magnitude characteristics of
//! the machines TBMD papers of 1993–95 ran on. They are intentionally
//! round numbers — the *shape* of the scaling curves (where communication
//! overtakes computation, how efficiency decays with P) is what the
//! reproduction checks, not third-digit agreement with a retired machine.

use crate::vmp::{partition_range, Rank, VmpStats};

/// A distributed-memory machine profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Display name.
    pub name: String,
    /// Per-message latency in microseconds.
    pub latency_us: f64,
    /// Point-to-point bandwidth in MB/s.
    pub bandwidth_mb_s: f64,
    /// Sustained per-node floating-point rate in Mflop/s.
    pub mflops_per_node: f64,
}

impl MachineProfile {
    /// Intel Touchstone Delta (1991): i860 nodes, mesh network.
    pub fn intel_delta() -> Self {
        MachineProfile {
            name: "Intel Delta".into(),
            latency_us: 75.0,
            bandwidth_mb_s: 10.0,
            mflops_per_node: 10.0,
        }
    }

    /// Intel Paragon XP/S (1993): i860XP nodes, much faster mesh.
    pub fn intel_paragon() -> Self {
        MachineProfile {
            name: "Intel Paragon".into(),
            latency_us: 40.0,
            bandwidth_mb_s: 70.0,
            mflops_per_node: 15.0,
        }
    }

    /// Thinking Machines CM-5 (1992): SPARC + vector units, fat tree.
    pub fn cm5() -> Self {
        MachineProfile {
            name: "TMC CM-5".into(),
            latency_us: 86.0,
            bandwidth_mb_s: 8.0,
            mflops_per_node: 16.0,
        }
    }

    /// All bundled profiles.
    pub fn all() -> Vec<MachineProfile> {
        vec![Self::intel_delta(), Self::intel_paragon(), Self::cm5()]
    }

    /// Estimated communication time in seconds for a message/byte volume on
    /// the critical rank.
    pub fn comm_time_s(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.latency_us * 1e-6 + bytes as f64 / (self.bandwidth_mb_s * 1e6)
    }

    /// Estimated compute time in seconds for a flop count on one node.
    pub fn comp_time_s(&self, flops: u64) -> f64 {
        flops as f64 / (self.mflops_per_node * 1e6)
    }
}

/// A priced execution: compute + communication estimate for one machine.
#[derive(Debug, Clone)]
pub struct CostEstimate {
    /// Machine the estimate is for.
    pub machine: String,
    /// Critical-path compute seconds.
    pub comp_s: f64,
    /// Critical-path communication seconds.
    pub comm_s: f64,
}

impl CostEstimate {
    /// Total estimated seconds.
    pub fn total_s(&self) -> f64 {
        self.comp_s + self.comm_s
    }

    /// Fraction of the time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total_s();
        if t > 0.0 {
            self.comm_s / t
        } else {
            0.0
        }
    }
}

/// Price a measured Vmp run on a machine profile. Uses the busiest rank for
/// compute and the busiest rank's traffic for communication (a slightly
/// pessimistic but standard critical-path model).
///
/// Message-count terms reflect the tree collectives in [`crate::vmp`]: both
/// sides of `allreduce_sum` (binomial reduce + binomial broadcast) and
/// `broadcast` itself are ⌈log₂ P⌉-round trees, so the critical rank of a
/// collective sends at most ⌈log₂ P⌉ messages — the latency term of the
/// model scales as `log P` per collective, not `P`, matching what the
/// measured `max_messages` counter reports.
pub fn estimate_cost(profile: &MachineProfile, stats: &VmpStats) -> CostEstimate {
    CostEstimate {
        machine: profile.name.clone(),
        comp_s: profile.comp_time_s(stats.max_flops()),
        comm_s: profile.comm_time_s(stats.max_messages(), stats.max_bytes()),
    }
}

/// Wire bytes (summed over ranks) of one evaluation of the two-stage sliced
/// engine ([`crate::DistributedTb`]) on `p` ranks, for `n_atoms` atoms and
/// `rho_doubles` values in the packed bond blocks of ρ: positions
/// broadcast, ρ allreduce, force allgather, repulsive-energy allreduce,
/// each at its collective's own count — the ρ term is the only one above
/// O(N). The spectrum moves no bytes: every rank computes all of it from its
/// replicated tridiagonal factor.
pub fn sliced_wire_bytes(n_atoms: usize, rho_doubles: usize, p: usize) -> u64 {
    let my_atoms = partition_range(n_atoms, p, 0).len();
    Rank::broadcast_bytes(3 * n_atoms, p)
        + Rank::allreduce_bytes(rho_doubles, p)
        + Rank::allgather_bytes(3 * n_atoms, 3 * my_atoms, p)
        + Rank::allreduce_bytes(1, p)
}

/// Speedup and efficiency of a P-rank estimate against a 1-rank baseline.
#[derive(Debug, Clone, Copy)]
pub struct Scaling {
    pub speedup: f64,
    pub efficiency: f64,
}

/// Compute modelled speedup/efficiency from two cost estimates.
pub fn scaling(serial: &CostEstimate, parallel: &CostEstimate, n_ranks: usize) -> Scaling {
    let speedup = serial.total_s() / parallel.total_s();
    Scaling {
        speedup,
        efficiency: speedup / n_ranks as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmp::{RankStats, VmpStats};

    fn stats(flops: &[u64], msgs: &[u64], bytes: &[u64]) -> VmpStats {
        VmpStats {
            ranks: flops
                .iter()
                .zip(msgs)
                .zip(bytes)
                .map(|((&f, &m), &b)| RankStats {
                    messages_sent: m,
                    bytes_sent: b,
                    flops: f,
                })
                .collect(),
        }
    }

    #[test]
    fn comm_time_components() {
        let m = MachineProfile::intel_paragon();
        // 100 messages, 7 MB: latency part 100·40 µs = 4 ms; bandwidth part
        // 7e6/70e6 = 100 ms.
        let t = m.comm_time_s(100, 7_000_000);
        assert!((t - (0.004 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn comp_time() {
        let m = MachineProfile::intel_delta();
        assert!((m.comp_time_s(10_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_uses_critical_rank() {
        let m = MachineProfile::cm5();
        let st = stats(&[100, 900, 200], &[5, 1, 2], &[10, 80, 20]);
        let est = estimate_cost(&m, &st);
        assert!((est.comp_s - m.comp_time_s(900)).abs() < 1e-15);
        assert!((est.comm_s - m.comm_time_s(5, 80)).abs() < 1e-15);
        assert!(est.comm_fraction() > 0.0 && est.comm_fraction() < 1.0);
    }

    #[test]
    fn perfect_scaling_efficiency_one() {
        let serial = CostEstimate {
            machine: "x".into(),
            comp_s: 8.0,
            comm_s: 0.0,
        };
        let parallel = CostEstimate {
            machine: "x".into(),
            comp_s: 1.0,
            comm_s: 0.0,
        };
        let s = scaling(&serial, &parallel, 8);
        assert!((s.speedup - 8.0).abs() < 1e-12);
        assert!((s.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn communication_erodes_efficiency() {
        let serial = CostEstimate {
            machine: "x".into(),
            comp_s: 8.0,
            comm_s: 0.0,
        };
        let parallel = CostEstimate {
            machine: "x".into(),
            comp_s: 1.0,
            comm_s: 1.0,
        };
        let s = scaling(&serial, &parallel, 8);
        assert!(s.speedup < 8.0);
        assert!(s.efficiency < 1.0);
    }

    #[test]
    fn delta_slower_than_paragon_on_bandwidth() {
        let st = stats(&[0], &[10], &[1_000_000]);
        let d = estimate_cost(&MachineProfile::intel_delta(), &st);
        let p = estimate_cost(&MachineProfile::intel_paragon(), &st);
        assert!(d.comm_s > p.comm_s);
    }

    #[test]
    fn profiles_enumerate() {
        assert_eq!(MachineProfile::all().len(), 3);
    }
}

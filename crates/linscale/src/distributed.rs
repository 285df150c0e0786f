//! Distributed linear-scaling TBMD: the O(N) evaluation body
//! ([`LinearScalingTb`]'s, the one the serial engine runs on one rank) on
//! the virtual message-passing machine.
//!
//! This is the 1994 end-game: O(N) work *and* near-perfect spatial
//! decomposition. Atoms are partitioned over ranks; each rank expands the
//! density-matrix columns of its own atoms on their localization regions
//! (built locally from the replicated geometry — no halo exchange needed
//! because the region Hamiltonian only requires positions). Communication is
//! one positions broadcast (tag 300), an `order`-length moment allreduce per
//! pass for the chemical potential (301), one energy allreduce (302) and the
//! force allgather (303) — all independent of the O(N³) wall that throttled
//! the dense engine's scaled speedup (experiments F1 vs F8).

use crate::chebyshev::Window;
use crate::engine::LinearScalingTb;
use std::sync::{Mutex, PoisonError};
use tbmd_model::{validate, DenseCache, ForceEvaluation, ForceProvider, TbError, Workspace};
use tbmd_parallel::{RankControl, Replica, VmpStats};
use tbmd_structure::Structure;

/// Report of the most recent distributed O(N) evaluation.
#[derive(Debug, Clone)]
pub struct DistributedLinScaleReport {
    /// Traffic/flop statistics of the virtual machine.
    pub stats: VmpStats,
    /// Chemical potential found.
    pub mu: f64,
    /// Ranks used.
    pub n_ranks: usize,
    /// The window and the Chebyshev order the evaluation ran.
    pub window: Window,
}

/// Message-passing O(N) TBMD engine: a [`LinearScalingTb`] — its model,
/// `kt`, `order` and `r_loc` — with its atoms sharded over ranks.
pub struct DistributedLinearScalingTb<'m> {
    engine: LinearScalingTb<'m>,
    /// Rank count, fault plans, shrink/respawn;
    /// the per-atom `partition_range` decomposition follows the active
    /// rank count each evaluation.
    pub ranks: RankControl,
    last_report: Mutex<Option<DistributedLinScaleReport>>,
    /// One slot per rank, persisted across steps: the geometry replica and
    /// the workspace the rank's body runs in.
    slots: Mutex<Vec<(Replica, Workspace)>>,
}

impl<'m> DistributedLinearScalingTb<'m> {
    /// Distribute `engine` over `n_ranks` ranks.
    pub fn new(engine: LinearScalingTb<'m>, n_ranks: usize) -> Self {
        DistributedLinearScalingTb {
            engine,
            ranks: RankControl::new(n_ranks),
            last_report: Mutex::new(None),
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Traffic report of the most recent evaluation.
    pub fn last_report(&self) -> Option<DistributedLinScaleReport> {
        self.last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl ForceProvider for DistributedLinearScalingTb<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.evaluate_with(s, &mut Workspace::new())
    }

    /// The O(N) body on every rank, each in its own slot's workspace, after
    /// the positions broadcast (tag 300).
    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        validate(self.engine.model, s)?;
        // Per-rank workspaces hold the solve state; the caller's workspace
        // only carries growth accounting, never dense eigenpairs.
        ws.dense_cache = DenseCache::None;
        let last_mu = self.last_report().map(|r| r.mu);
        // The failure-detection window scales on the orbital count like the
        // dense engine's; for the O(N) engine this overestimates
        // the skew (conservative = slower detection of real faults, never
        // false positives), and it is capped either way.
        let launch = self.ranks.launch(
            &self.slots,
            300,
            s,
            4 * s.n_atoms(),
            ws,
            |rank, local, ws| self.engine.evaluate_on(rank, local, ws, last_mu),
        )?;
        *self
            .last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(DistributedLinScaleReport {
            stats: launch.stats,
            mu: launch.result.mu,
            n_ranks: launch.n_ranks,
            window: launch.result.window,
        });
        Ok(launch.eval)
    }

    fn provider_name(&self) -> &str {
        "distributed-linear-scaling-tb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tbmd_model::{silicon_gsp, TbModel};
    use tbmd_structure::{bulk_diamond, Species};

    /// The engine the tests distribute: kT 0.3 eV.
    fn engine(model: &dyn TbModel, order: usize, r_loc: f64) -> LinearScalingTb<'_> {
        LinearScalingTb::new(model)
            .with_kt(0.3)
            .with_order(order)
            .with_r_loc(r_loc)
    }

    #[test]
    fn matches_shared_memory_engine() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rng = StdRng::seed_from_u64(8);
        s.perturb(&mut rng, 0.04);
        for p in [1usize, 3] {
            let dist = DistributedLinearScalingTb::new(engine(&model, 120, 5.0), p);
            let shared = engine(&model, 120, 5.0);
            let a = shared.evaluate(&s).unwrap();
            let b = dist.evaluate(&s).unwrap();
            // One rank runs the serial body: the same bits. Three sum the
            // moments in another order.
            let close = |x: f64, y: f64| match p {
                1 => x.to_bits() == y.to_bits(),
                _ => (x - y).abs() < 1e-12,
            };
            assert!(
                close(a.energy, b.energy),
                "p={p}: {} vs {}",
                a.energy,
                b.energy
            );
            for (fa, fb) in a.forces.iter().zip(&b.forces) {
                assert!((0..3).all(|k| close(fa[k], fb[k])), "p={p}");
            }
        }
    }

    #[test]
    fn communication_independent_of_cube_of_n() {
        // The O(N) engine's traffic grows ~linearly with N (force gather),
        // nothing like the dense engine's O(N²) density allreduce.
        let model = silicon_gsp();
        let traffic = |reps: usize| -> u64 {
            let s = bulk_diamond(Species::Silicon, reps, reps, reps);
            let dist = DistributedLinearScalingTb::new(engine(&model, 60, 4.0), 4);
            dist.evaluate(&s).unwrap();
            dist.last_report().unwrap().stats.total_bytes()
        };
        let b1 = traffic(1);
        let b2 = traffic(2);
        // 8× atoms: traffic must grow far less than 64× (O(N²)) — allow ~12×.
        assert!(
            (b2 as f64) < 12.0 * b1 as f64,
            "traffic grew superlinearly: {b1} -> {b2}"
        );
    }

    #[test]
    fn flops_balance() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let dist = DistributedLinearScalingTb::new(engine(&model, 60, 4.0), 4);
        dist.evaluate(&s).unwrap();
        let flops: Vec<u64> = dist
            .last_report()
            .unwrap()
            .stats
            .ranks
            .iter()
            .map(|r| r.flops)
            .collect();
        let max = *flops.iter().max().unwrap() as f64;
        let min = *flops.iter().min().unwrap() as f64;
        assert!(min > 0.0);
        assert!(max / min < 1.5, "imbalance {flops:?}");
    }

    #[test]
    fn shrink_resharding_matches_shared_memory() {
        // Atoms re-partition over the survivors after a shrink; physics
        // must still match the shared-memory reference to round-off.
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rng = StdRng::seed_from_u64(12);
        s.perturb(&mut rng, 0.03);
        let dist = DistributedLinearScalingTb::new(engine(&model, 120, 5.0), 3);
        let reference = engine(&model, 120, 5.0).evaluate(&s).unwrap();
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.ranks.shrink_ranks(1), 2);
        let shrunk = dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().n_ranks, 2);
        assert!((shrunk.energy - reference.energy).abs() < 1e-12);
        for (fa, fb) in reference.forces.iter().zip(&shrunk.forces) {
            assert!((*fa - *fb).max_abs() < 1e-12);
        }
        assert_eq!(dist.ranks.respawn_full_ranks(), 3);
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().n_ranks, 3);
    }

    #[test]
    fn single_rank_silent() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let dist = DistributedLinearScalingTb::new(engine(&model, 60, f64::INFINITY), 1);
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().stats.total_messages(), 0);
    }
}

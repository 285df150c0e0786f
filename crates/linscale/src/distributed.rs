//! Distributed linear-scaling TBMD: the Chebyshev Fermi-operator engine on
//! the virtual message-passing machine.
//!
//! This is the 1994 end-game: O(N) work *and* near-perfect spatial
//! decomposition. Atoms are partitioned over ranks; each rank expands the
//! density-matrix columns of its own atoms on their localization regions
//! (built locally from the replicated geometry — no halo exchange needed
//! because the region Hamiltonian only requires positions). Communication is
//! one positions broadcast, an `order`-length moment allreduce for the
//! chemical potential, scalar energy allreduces, and the force allgather —
//! all independent of the O(N³) wall that throttled the dense engine's
//! scaled speedup (experiments F1 vs F8).

use crate::chebyshev::{solve_mu, spectral_window};
use crate::engine::{atom_force, embedding, validate, AtomRegion, LinearScalingTb};
use crate::sparse::SparseH;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tbmd_linalg::Vec3;
use tbmd_model::{
    ForceEvaluation, ForceProvider, NeighborWorkspace, OrbitalIndex, PhaseTimings, TbError,
    TbModel, Workspace,
};
use tbmd_parallel::{
    partition_range, vmp_run_opts, FaultPlan, RankWorkspacePool, RecvTimeoutPolicy, VmpFault,
    VmpOptions, VmpStats,
};
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
}

/// Per-rank persistent buffers of the O(N) engine: the replicated geometry,
/// the amortized neighbour list, and the moment/force accumulators.
#[derive(Default)]
struct LinScaleRankSlot {
    local: Option<Structure>,
    neighbors: NeighborWorkspace,
    /// Chebyshev moments μ_m = Σ_owned ⟨g|T_m|g⟩ before the allreduce.
    moments: Vec<f64>,
    /// This rank's force block.
    forces_block: Vec<f64>,
    /// Buffer-growth events (slot creation covers the warmup burst).
    grown: usize,
}

/// Message-passing O(N) TBMD engine.
pub struct DistributedLinearScalingTb<'m> {
    model: &'m dyn TbModel,
    /// Ranks of the virtual machine.
    pub n_ranks: usize,
    /// Electronic temperature (eV).
    pub kt: f64,
    /// Chebyshev order.
    pub order: usize,
    /// Localization radius (Å).
    pub r_loc: f64,
    last_report: Mutex<Option<DistributedLinScaleReport>>,
    /// Per-rank workspace slots, persisted across steps.
    pool: Mutex<RankWorkspacePool<LinScaleRankSlot>>,
    /// Armed fault-injection plan; fires once at its target evaluation.
    fault_plan: Mutex<Option<FaultPlan>>,
    /// Evaluations performed by this engine instance (plans are 1-based).
    evals: AtomicU64,
    /// Failure-detection window policy (default: size-scaled `Auto`).
    recv_timeout: Mutex<RecvTimeoutPolicy>,
    /// Currently active rank count (shrinks on re-shard, restored by
    /// [`DistributedLinearScalingTb::respawn_full_ranks`]); the per-atom
    /// `partition_range` decomposition follows it each evaluation.
    active: AtomicUsize,
}

impl<'m> DistributedLinearScalingTb<'m> {
    /// Engine with the same defaults as the shared-memory
    /// [`LinearScalingTb`].
    pub fn new(model: &'m dyn TbModel, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        DistributedLinearScalingTb {
            model,
            n_ranks,
            kt: 0.2,
            order: 350,
            r_loc: f64::INFINITY,
            last_report: Mutex::new(None),
            pool: Mutex::new(RankWorkspacePool::new()),
            fault_plan: Mutex::new(None),
            evals: AtomicU64::new(0),
            recv_timeout: Mutex::new(RecvTimeoutPolicy::Auto),
            active: AtomicUsize::new(n_ranks),
        }
    }

    /// Fix the failure-detection window (replacing the size-scaled `Auto`
    /// default): a real stalled or dead rank is presumed dead after
    /// `window` of collective silence.
    pub fn with_recv_timeout(self, window: Duration) -> Self {
        self.set_recv_timeout(RecvTimeoutPolicy::Fixed(window));
        self
    }

    /// Set the failure-detection policy (shared-ref form).
    pub fn set_recv_timeout(&self, policy: RecvTimeoutPolicy) {
        *self.recv_timeout.lock() = policy;
    }

    /// Current failure-detection policy.
    pub fn recv_timeout_policy(&self) -> RecvTimeoutPolicy {
        *self.recv_timeout.lock()
    }

    /// Ranks the next evaluation will launch (≤ `n_ranks` after a shrink).
    pub fn active_ranks(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Shrink-to-fit re-sharding: drop `n_failed` ranks (never below 1);
    /// the next evaluation re-partitions the atoms over the survivors.
    pub fn shrink_ranks(&self, n_failed: usize) -> usize {
        let cur = self.active.load(Ordering::SeqCst);
        let new = cur.saturating_sub(n_failed).max(1);
        self.active.store(new, Ordering::SeqCst);
        new
    }

    /// Restore the full configured rank count and return it.
    pub fn respawn_full_ranks(&self) -> usize {
        self.active.store(self.n_ranks, Ordering::SeqCst);
        self.n_ranks
    }

    /// Engine evaluations performed so far (fault plans are 1-based).
    pub fn evaluations(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Set the localization radius (Å).
    pub fn with_r_loc(mut self, r_loc: f64) -> Self {
        assert!(r_loc > 0.0);
        self.r_loc = r_loc;
        self
    }

    /// Set the Chebyshev order.
    pub fn with_order(mut self, order: usize) -> Self {
        assert!(order >= 8);
        self.order = order;
        self
    }

    /// Set the electronic temperature (eV).
    pub fn with_kt(mut self, kt: f64) -> Self {
        assert!(kt > 0.0);
        self.kt = kt;
        self
    }

    /// Traffic report of the most recent evaluation.
    pub fn last_report(&self) -> Option<DistributedLinScaleReport> {
        self.last_report.lock().clone()
    }

    /// Arm a fault-injection plan: the chosen rank is killed or stalled at
    /// the plan's (1-based) evaluation and the failure surfaces as
    /// [`TbError::RankFailure`] instead of a hang. Fires exactly once.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        assert!(plan.rank < self.n_ranks, "fault rank out of range");
        *self.fault_plan.lock() = Some(plan);
    }

    /// Builder form of [`set_fault_plan`](Self::set_fault_plan).
    pub fn with_fault_plan(self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Count this evaluation and take the armed fault if it is due (fires
    /// on `at_evaluation` or the first evaluation after it). Taking the
    /// plan before the launch keeps plans one-shot across resilient
    /// rewinds; a due plan targeting a rank the engine has shrunk away is
    /// consumed without firing.
    fn take_due_fault(&self, active: usize) -> Option<VmpFault> {
        let eval_no = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        let mut armed = self.fault_plan.lock();
        match *armed {
            Some(plan) if eval_no >= plan.at_evaluation => {
                armed.take();
                if plan.rank >= active {
                    return None;
                }
                Some(VmpFault {
                    rank: plan.rank,
                    kind: plan.kind,
                })
            }
            _ => None,
        }
    }

    /// The matching shared-memory engine (for equivalence tests).
    pub fn shared_memory_equivalent(&self) -> LinearScalingTb<'m> {
        LinearScalingTb::new(self.model)
            .with_kt(self.kt)
            .with_order(self.order)
            .with_r_loc(self.r_loc)
    }
}

impl ForceProvider for DistributedLinearScalingTb<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        self.evaluate_with(s, &mut Workspace::new())
    }

    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        validate(self.model, s)?;
        // Per-rank workspaces hold the solve state; the caller's workspace
        // only carries growth accounting, never dense eigenpairs.
        ws.dense_cache = tbmd_model::DenseCache::None;
        let model = self.model;
        let n_atoms = s.n_atoms();
        let (kt, order, r_loc, p) = (self.kt, self.order, self.r_loc, self.active_ranks());

        let fault = self.take_due_fault(p);
        let opts = VmpOptions {
            // The Auto window scales on the orbital count like the dense
            // engine's; for the O(N) engine this overestimates the skew
            // (conservative = slower detection of real faults, never false
            // positives), and it is capped either way.
            recv_timeout: self
                .recv_timeout_policy()
                .resolve(4 * n_atoms, p, fault.is_some()),
            fault,
        };

        let mut pool = self.pool.lock();
        pool.ensure(p);
        let alloc_before = pool.created() + pool.total(|sl| sl.grown);
        let pool_ref = &*pool;

        let run = vmp_run_opts(p, opts, |mut rank| {
            let me = rank.id();
            let mut timings = PhaseTimings::default();
            let mut mark = Instant::now();
            // Collective windows inside each phase are carved out into the
            // dedicated communication bucket (satellite 1).
            let mut comm_in_phase = Duration::ZERO;
            // ---- Positions broadcast (geometry replication).
            let mut pos_flat: Vec<f64> = if me == 0 {
                s.positions().iter().flat_map(|r| r.to_array()).collect()
            } else {
                vec![]
            };
            let c0 = Instant::now();
            rank.broadcast(0, 300, &mut pos_flat);
            comm_in_phase += c0.elapsed();
            let mut slot_guard = pool_ref.slot(me).lock();
            let slot = &mut *slot_guard;
            let stale = slot.local.as_ref().is_none_or(|l| {
                l.n_atoms() != n_atoms
                    || l.cell() != s.cell()
                    || (0..n_atoms).any(|i| l.species(i) != s.species(i))
            });
            if stale {
                slot.local = Some(s.clone());
            }
            let local = slot.local.as_mut().expect("slot.local just ensured");
            for (r, c) in local
                .positions_mut()
                .iter_mut()
                .zip(pos_flat.chunks_exact(3))
            {
                *r = Vec3::new(c[0], c[1], c[2]);
            }
            let outcome = slot.neighbors.update(local, model.cutoff());
            timings.note_neighbors(outcome);
            let local = slot.local.as_ref().expect("slot.local just ensured");
            let nl = slot.neighbors.list();
            rank.count_flops(10 * nl.n_entries() as u64);
            timings.neighbors = mark.elapsed() - comm_in_phase;
            timings.communication += comm_in_phase;
            comm_in_phase = Duration::ZERO;
            mark = Instant::now();
            let index = OrbitalIndex::new(local);
            let h = SparseH::build(local, nl, model, &index);
            let (e_min, e_max) = h.gershgorin_bounds();
            let my_atoms = partition_range(n_atoms, rank.size(), me);
            timings.hamiltonian = mark.elapsed();
            mark = Instant::now();

            // Spectrum mapping shared by all ranks.
            let (shift, scale) = spectral_window(e_min, e_max);

            // ---- Moment pass over my atoms.
            let regions: Vec<AtomRegion> = my_atoms
                .clone()
                .map(|a| AtomRegion::build(local, &index, &h, a, r_loc))
                .collect();
            slot.moments.clear();
            slot.moments.resize(order, 0.0);
            for region in &regions {
                region.add_moments(shift, scale, &mut slot.moments);
                rank.count_flops(2 * region.step_ops(order / 2));
            }
            let c0 = Instant::now();
            rank.allreduce_sum(301, &mut slot.moments);
            comm_in_phase += c0.elapsed();

            // ---- μ bisection on the replicated global moments (identical
            // on every rank, so no further communication).
            let fermi = solve_mu(&slot.moments, shift, scale, kt, local.n_electrons() as f64);
            timings.diagonalize = mark.elapsed() - comm_in_phase;
            timings.communication += comm_in_phase;
            comm_in_phase = Duration::ZERO;
            mark = Instant::now();

            // ---- Density + forces for my atoms.
            let fx = embedding(model, nl, n_atoms);
            let mut band_partial = 0.0;
            let mut rep_partial = 0.0;
            slot.forces_block.clear();
            for (region, a) in regions.iter().zip(my_atoms.clone()) {
                let density = region.density(nl, &index, &fermi.coeffs, shift, scale);
                rank.count_flops(2 * region.step_ops(order.saturating_sub(1)));
                band_partial += density.band;
                rep_partial += fx[a].0;
                let fi = atom_force(model, nl, a, &density, &fx);
                rank.count_flops(400 * nl.neighbors(a).len() as u64);
                slot.forces_block.extend_from_slice(&fi.to_array());
            }
            // order/2 moment steps + order − 1 density steps, one matvec
            // per owned orbital column each.
            let my_orbitals: usize = my_atoms
                .clone()
                .map(|a| local.species(a).n_orbitals())
                .sum();
            tbmd_trace::add(
                tbmd_trace::Counter::ChebyshevMatvecs,
                (my_orbitals * (order / 2 + order.saturating_sub(1))) as u64,
            );
            let mut energy_parts = vec![band_partial, rep_partial];
            let c0 = Instant::now();
            rank.allreduce_sum(302, &mut energy_parts);
            let all_forces = rank.allgather(303, &slot.forces_block);
            comm_in_phase += c0.elapsed();
            timings.forces = mark.elapsed() - comm_in_phase;
            timings.communication += comm_in_phase;

            if me == 0 {
                let mut forces: Vec<Vec3> = Vec::with_capacity(n_atoms);
                for part in &all_forces {
                    for c in part.chunks_exact(3) {
                        forces.push(Vec3::new(c[0], c[1], c[2]));
                    }
                }
                Some((
                    energy_parts[0] + energy_parts[1] + fermi.entropy_term,
                    forces,
                    fermi.mu,
                    timings,
                ))
            } else {
                None
            }
        });

        let (mut results, stats) = run.map_err(|e| TbError::RankFailure {
            failed_ranks: e.failed_ranks(),
            detail: e.to_string(),
        })?;

        let alloc_after = pool.created() + pool.total(|sl| sl.grown);
        ws.grown += alloc_after - alloc_before;
        tbmd_trace::add(
            tbmd_trace::Counter::AllocGrowth,
            (alloc_after - alloc_before) as u64,
        );

        let (energy, forces, mu, timings) = results.remove(0).expect("rank 0 result");
        // The rank-0 view is the canonical per-phase wall clock (per-rank
        // spans would sum time-shared threads); feed it to the registry once.
        timings.export_to_trace();
        *self.last_report.lock() = Some(DistributedLinScaleReport {
            stats,
            mu,
            n_ranks: p,
        });
        Ok(ForceEvaluation {
            energy,
            forces,
            timings,
        })
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
    use tbmd_model::silicon_gsp;
    use tbmd_structure::{bulk_diamond, Species};

    #[test]
    fn matches_shared_memory_engine() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let mut rng = StdRng::seed_from_u64(8);
        s.perturb(&mut rng, 0.04);
        for p in [1usize, 3] {
            let dist = DistributedLinearScalingTb::new(&model, p)
                .with_kt(0.3)
                .with_order(120)
                .with_r_loc(5.0);
            let shared = dist.shared_memory_equivalent();
            let a = shared.evaluate(&s).unwrap();
            let b = dist.evaluate(&s).unwrap();
            assert!(
                (a.energy - b.energy).abs() < 1e-12,
                "p={p}: {} vs {}",
                a.energy,
                b.energy
            );
            for (fa, fb) in a.forces.iter().zip(&b.forces) {
                assert!((*fa - *fb).max_abs() < 1e-12, "p={p}");
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
            let dist = DistributedLinearScalingTb::new(&model, 4)
                .with_kt(0.3)
                .with_order(60)
                .with_r_loc(4.0);
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
        let dist = DistributedLinearScalingTb::new(&model, 4)
            .with_kt(0.3)
            .with_order(60)
            .with_r_loc(4.0);
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
        let dist = DistributedLinearScalingTb::new(&model, 3)
            .with_kt(0.3)
            .with_order(120)
            .with_r_loc(5.0);
        let reference = dist.shared_memory_equivalent().evaluate(&s).unwrap();
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.shrink_ranks(1), 2);
        let shrunk = dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().n_ranks, 2);
        assert!((shrunk.energy - reference.energy).abs() < 1e-12);
        for (fa, fb) in reference.forces.iter().zip(&shrunk.forces) {
            assert!((*fa - *fb).max_abs() < 1e-12);
        }
        assert_eq!(dist.respawn_full_ranks(), 3);
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().n_ranks, 3);
    }

    #[test]
    fn single_rank_silent() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let dist = DistributedLinearScalingTb::new(&model, 1)
            .with_kt(0.3)
            .with_order(60);
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().stats.total_messages(), 0);
    }
}

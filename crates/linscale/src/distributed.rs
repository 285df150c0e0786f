//! Distributed linear-scaling TBMD: the Chebyshev Fermi-operator engine on
//! the virtual message-passing machine.
//!
//! This is the 1994 end-game: O(N) work *and* near-perfect spatial
//! decomposition. Atoms are partitioned over ranks; each rank expands the
//! density-matrix columns of its own atoms on their localization regions
//! (built locally from the replicated geometry — no halo exchange needed
//! because the region Hamiltonian only requires positions). Communication is
//! one positions broadcast, an `order`-length moment allreduce per pass for
//! the chemical potential, scalar energy allreduces, and the force allgather —
//! all independent of the O(N³) wall that throttled the dense engine's
//! scaled speedup (experiments F1 vs F8).

use crate::chebyshev::{grid_point, settle, Expansion, Window};
use crate::engine::{AtomPass, AtomRegion, LinearScalingTb};
use crate::sparse::SparseH;
use std::sync::{Mutex, PoisonError};
use tbmd_model::{
    bond_force, validate, BondTable, ForceEvaluation, ForceProvider, KeptCandidates, OrbitalIndex,
    PhaseTimings, TbError, Workspace,
};
use tbmd_parallel::{gather_forces, partition_range, PhaseClock, RankControl, Replica, VmpStats};
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

/// Per-rank persistent buffers of the O(N) engine: the replicated geometry
/// with its amortized neighbour list, and the force accumulator (slot
/// creation covers the warmup allocation burst).
#[derive(Default)]
struct LinScaleRankSlot {
    replica: Replica,
    /// The radial terms of the replica's list and every atom's embedding.
    bonds: BondTable,
    /// Region candidates of the replica.
    regions: KeptCandidates,
    /// This rank's force block.
    forces_block: Vec<f64>,
}

impl AsMut<Replica> for LinScaleRankSlot {
    fn as_mut(&mut self) -> &mut Replica {
        &mut self.replica
    }
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
    /// One workspace slot per rank, persisted across steps.
    slots: Mutex<Vec<LinScaleRankSlot>>,
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

    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        let LinearScalingTb {
            model,
            kt,
            order,
            r_loc,
            window,
            ..
        } = self.engine;
        validate(model, s)?;
        // Per-rank workspaces hold the solve state; the caller's workspace
        // only carries growth accounting, never dense eigenpairs.
        ws.dense_cache = tbmd_model::DenseCache::None;
        let n_atoms = s.n_atoms();
        // The last evaluation's grid point, the same on every rank.
        let hint = self.last_report().map(|r| grid_point(r.mu, kt));

        // The failure-detection window scales on the orbital count like the
        // dense engine's; for the O(N) engine this overestimates
        // the skew (conservative = slower detection of real faults, never
        // false positives), and it is capped either way.
        let launch = self.ranks.launch(
            &self.slots,
            |_| 0,
            4 * n_atoms,
            ws,
            |rank, slot: &mut LinScaleRankSlot| {
                let mut timings = PhaseTimings::default();
                let mut clock = PhaseClock::start();
                // ---- Positions broadcast (geometry replication).
                slot.replica
                    .refresh(rank, 300, s, model.cutoff(), &mut clock, &mut timings);
                let (local, nl) = slot.replica.geometry();
                timings.neighbors = clock.lap(&mut timings);

                let index = OrbitalIndex::new(local);
                slot.bonds.fill(model, nl);
                let h = SparseH::assemble(local, nl, model, &slot.bonds, &index);
                let first = window(&h, kt, order);
                let my_atoms = partition_range(n_atoms, rank.size(), rank.id());
                timings.hamiltonian = clock.lap(&mut timings);

                // ---- One pass over my atoms, settled after the moment
                // allreduce (every rank sees the same global moments and
                // decides alike), then ρ corrected to μ and my forces.
                slot.regions.update(local, r_loc);
                let regions: Vec<AtomRegion> = my_atoms
                    .clone()
                    .map(|a| AtomRegion::new(local, &h, &slot.regions, a, r_loc))
                    .collect();
                let n_electrons = local.n_electrons() as f64;
                let (mut next, mut passes) = ((first, hint), 0);
                let (win, g, fermi, mut atoms) = loop {
                    let lap = clock.lap(&mut timings);
                    timings.diagonalize += lap;
                    let (w, g) = next;
                    let e = g.map(|g| Expansion::new(w, g, kt));
                    let mut moments = vec![0.0; w.order];
                    let atoms: Vec<AtomPass> = regions
                        .iter()
                        .map(|region| {
                            let atom = region.pass(nl, w, e.as_ref(), &mut moments);
                            rank.count_flops(2 * region.step_ops(w.order - 1));
                            atom
                        })
                        .collect();
                    passes += 1;
                    let lap = clock.lap(&mut timings);
                    timings.density += lap;
                    clock.blocked(|| rank.allreduce_sum(301, &mut moments));
                    match settle(w, g, &moments, &h, order, kt, n_electrons) {
                        Ok(fermi) => break (w, g.expect("settled at a grid point"), fermi, atoms),
                        Err(rerun) => next = rerun,
                    }
                };
                let band_partial: f64 = atoms.iter_mut().map(|a| a.at(fermi.mu - g)).sum();
                let lap = clock.lap(&mut timings);
                timings.diagonalize += lap;

                let mut rep_partial = 0.0;
                slot.forces_block.clear();
                for (atom, a) in atoms.iter().zip(my_atoms.clone()) {
                    rep_partial += slot.bonds.embedding(a).0;
                    let fi = bond_force(nl, &slot.bonds, a, |j| atom.block(j));
                    rank.count_flops(400 * nl.neighbors(a).len() as u64);
                    slot.forces_block.extend_from_slice(&fi.to_array());
                }
                // `passes` passes of order − 1 steps, one matvec per owned
                // orbital column each.
                let my_orbitals: usize = my_atoms.map(|a| local.species(a).n_orbitals()).sum();
                tbmd_trace::add(
                    tbmd_trace::Counter::ChebyshevMatvecs,
                    (my_orbitals * passes * (win.order - 1)) as u64,
                );
                let mut energy_parts = vec![band_partial, rep_partial];
                clock.blocked(|| rank.allreduce_sum(302, &mut energy_parts));
                let forces = gather_forces(rank, 303, &slot.forces_block, &mut clock);
                timings.forces = clock.lap(&mut timings);

                let energy = energy_parts[0] + energy_parts[1] + fermi.entropy_term;
                Ok(forces.map(|forces| ((energy, forces, fermi.mu, win), timings)))
            },
        )?;

        let (energy, forces, mu, win) = launch.result;
        *self
            .last_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(DistributedLinScaleReport {
            stats: launch.stats,
            mu,
            n_ranks: launch.n_ranks,
            window: win,
        });
        Ok(ForceEvaluation {
            energy,
            forces,
            timings: launch.timings,
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

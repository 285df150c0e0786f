//! The distributed-memory TBMD engine: the dense evaluation body
//! ([`TbCalculator::compute_on`], the one the serial calculator runs on one
//! rank) run by `P` ranks of the virtual message-passing machine, each in
//! its own slot's workspace.
//!
//! Decomposition (the replicated-data strategy of the early parallel TBMD
//! codes, with a rank-sharded two-stage eigensolver; message tags in
//! parentheses):
//!
//! 1. **positions broadcast** (100) — rank 0 broadcasts the 3N coordinates
//!    into every rank's replica, which updates its own neighbour list;
//! 2. **H build** — every rank fills its own bond table and assembles the
//!    full Hamiltonian from it (0 extra wire bytes; broadcasting a rank-0
//!    reduction would move `(n² + 3n)·8` bytes instead, see DESIGN.md);
//! 3. **diagonalize** — every rank takes the whole spectrum from its replica
//!    (0 wire bytes) and inverse-iterates only its `partition_range` window
//!    of the occupied states, snapped to degenerate-cluster boundaries so
//!    the Gram–Schmidt/Rayleigh–Ritz work of a cluster stays on one rank;
//! 4. **density matrix** (102) — the window's strips stream into ρ on the
//!    bond blocks of the replicated list, then a sum-allreduce of the store
//!    replicates it: O(N·neighbours) wire bytes, where the full matrix the
//!    era papers fought is O(N²);
//! 5. **forces** (103, 104) — each rank's block of atoms, an allgather of
//!    the forces and an allreduce of the repulsive energy.
//!
//! On one rank the collectives move nothing and the body is bit for bit the
//! serial engine's. Wall-clock speedups are not the point on a 2-vCPU host
//! whose ranks time-share its cores (see DESIGN.md): the engine's value is
//! numerical equivalence to the serial reference (pinned by tests) plus
//! *measured* message/byte/flop counts that the era cost model converts
//! into Delta/Paragon/CM-5 scaling estimates.

use crate::ranks::{lock, RankControl, Replica};
use crate::vmp::VmpStats;
use std::sync::Mutex;
use tbmd_model::{
    validate, DenseCache, ForceEvaluation, ForceProvider, OccupationScheme, OrbitalIndex,
    TbCalculator, TbError, TbModel, Workspace, WorkspaceBytes,
};
use tbmd_structure::Structure;

/// Report of the most recent distributed evaluation.
#[derive(Debug, Clone)]
pub struct DistributedReport {
    /// Per-rank traffic and flop counters.
    pub stats: VmpStats,
    /// Number of ranks.
    pub n_ranks: usize,
}

/// Message-passing TBMD engine over the virtual machine.
pub struct DistributedTb<'m> {
    model: &'m dyn TbModel,
    /// Occupation scheme (default 0.1 eV Fermi smearing).
    pub occupation: OccupationScheme,
    /// Rank count, fault plans, shrink/respawn.
    pub ranks: RankControl,
    last_report: Mutex<Option<DistributedReport>>,
    /// One slot per rank, persisted across steps: the geometry replica and
    /// the workspace the rank's body runs in.
    slots: Mutex<Vec<(Replica, Workspace)>>,
}

impl<'m> DistributedTb<'m> {
    /// Engine on `n_ranks` virtual ranks.
    pub fn new(model: &'m dyn TbModel, n_ranks: usize) -> Self {
        DistributedTb {
            model,
            occupation: OccupationScheme::Fermi { kt: 0.1 },
            ranks: RankControl::new(n_ranks),
            last_report: Mutex::new(None),
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Select the occupation scheme.
    pub fn with_occupation(mut self, occupation: OccupationScheme) -> Self {
        self.occupation = occupation;
        self
    }

    /// Traffic/flop report of the most recent [`ForceProvider::evaluate`].
    pub fn last_report(&self) -> Option<DistributedReport> {
        lock(&self.last_report).clone()
    }

    /// The bytes each rank's workspace holds, by buffer.
    pub fn rank_bytes(&self) -> Vec<WorkspaceBytes> {
        lock(&self.slots).iter().map(|(_, ws)| ws.bytes()).collect()
    }
}

impl ForceProvider for DistributedTb<'_> {
    fn evaluate(&self, s: &Structure) -> Result<ForceEvaluation, TbError> {
        // The per-rank slots persist in the engine either way; the throwaway
        // workspace only drops the growth accounting.
        self.evaluate_with(s, &mut Workspace::new())
    }

    /// The dense body ([`TbCalculator::compute_on`]) on every rank, each
    /// in its own slot's workspace, after the positions broadcast (tag
    /// 100).
    fn evaluate_with(&self, s: &Structure, ws: &mut Workspace) -> Result<ForceEvaluation, TbError> {
        validate(self.model, s)?;
        // The solve happens in per-rank workspaces; the caller's workspace
        // never receives dense eigenpairs.
        ws.dense_cache = DenseCache::None;
        let calc = TbCalculator::with_occupation(self.model, self.occupation);
        let n_orb = OrbitalIndex::new(s).total();
        let launch = self
            .ranks
            .launch(&self.slots, 100, s, n_orb, ws, |rank, local, ws| {
                Ok(calc.compute_on(rank, local, ws)?.map(|r| (r.into(), ())))
            })?;
        *lock(&self.last_report) = Some(DistributedReport {
            stats: launch.stats,
            n_ranks: launch.n_ranks,
        });
        Ok(launch.eval)
    }

    /// Eigenvalues-only energy on the calling thread — a line-search trial
    /// needs no ranks, eigenvectors or ρ allreduce.
    fn energy_only(&self, s: &Structure) -> Result<f64, TbError> {
        TbCalculator::with_occupation(self.model, self.occupation).energy(s)
    }

    fn provider_name(&self) -> &str {
        "distributed-tb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};
    use tbmd_model::{bond_block_elements, carbon_xwch, silicon_gsp, TbCalculator};
    use tbmd_structure::{bulk_diamond, fullerene_c60, Species};

    fn assert_matches_serial(s: &Structure, model: &dyn TbModel, p: usize) {
        let serial = TbCalculator::new(model);
        let dist = DistributedTb::new(model, p);
        let a = serial.evaluate(s).unwrap();
        let b = dist.evaluate(s).unwrap();
        assert!(
            (a.energy - b.energy).abs() < 1e-10,
            "p={p}: energy {} vs {}",
            a.energy,
            b.energy
        );
        assert_eq!(a.forces.len(), b.forces.len());
        for (i, (fa, fb)) in a.forces.iter().zip(&b.forces).enumerate() {
            assert!(
                (*fa - *fb).max_abs() < 1e-10,
                "p={p}: force mismatch atom {i}: {fa:?} vs {fb:?}"
            );
        }
        let report = dist.last_report().unwrap();
        assert_eq!(report.n_ranks, p);
        if p == 1 {
            assert_eq!(report.stats.total_messages(), 0);
        } else {
            assert!(report.stats.total_messages() > 0);
        }
    }

    #[test]
    fn matches_serial_silicon_various_ranks() {
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(31);
        s.perturb(&mut rng, 0.08);
        for p in [1usize, 2, 4] {
            assert_matches_serial(&s, &model, p);
        }
    }

    #[test]
    fn matches_serial_carbon_cluster() {
        let model = carbon_xwch();
        let mut s = fullerene_c60(1.44);
        let mut rng = StdRng::seed_from_u64(37);
        s.perturb(&mut rng, 0.03);
        assert_matches_serial(&s, &model, 3);
    }

    /// Silicon with NaN on-site energies: a finite geometry whose `H` the
    /// QL iteration cannot converge on.
    struct NanOnSite(tbmd_model::GspTbModel);

    impl TbModel for NanOnSite {
        fn name(&self) -> &str {
            "nan-on-site"
        }
        fn supports(&self, sp: Species) -> bool {
            self.0.supports(sp)
        }
        fn cutoff(&self) -> f64 {
            self.0.cutoff()
        }
        fn on_site(&self, _: Species) -> [f64; 4] {
            [f64::NAN; 4]
        }
        fn hoppings(&self, r: f64) -> tbmd_model::Hoppings {
            self.0.hoppings(r)
        }
        fn hoppings_deriv(&self, r: f64) -> tbmd_model::Hoppings {
            self.0.hoppings_deriv(r)
        }
        fn repulsion(&self, r: f64) -> (f64, f64) {
            self.0.repulsion(r)
        }
        fn embedding(&self, x: f64) -> (f64, f64) {
            self.0.embedding(x)
        }
    }

    #[test]
    fn an_eigensolver_failure_on_the_ranks_is_an_error_not_a_panic() {
        // Every rank meets the failure on the same factor, so it comes back
        // as the serial engine's error, evaluation after evaluation.
        let model = NanOnSite(silicon_gsp());
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let serial = TbCalculator::new(&model).evaluate(&s).unwrap_err();
        assert!(matches!(serial, TbError::Eigensolver(_)), "{serial:?}");
        for p in [1usize, 2, 3] {
            let dist = DistributedTb::new(&model, p);
            let err = dist.evaluate(&s).unwrap_err();
            assert!(matches!(err, TbError::Eigensolver(_)), "p={p}: {err:?}");
            assert!(matches!(dist.evaluate(&s), Err(TbError::Eigensolver(_))));
        }
    }

    #[test]
    fn a_rank_slot_keeps_rho_on_the_bond_blocks_alone() {
        // A rank's ρ is the allreduce payload itself, one double per
        // bond-block element; beside `H` its only dense buffer is the one
        // staging band its shard streams through, a strip at a time.
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 2, 2, 2);
        s.perturb(&mut StdRng::seed_from_u64(64), 0.05);
        let dist = DistributedTb::new(&model, 2);
        dist.evaluate(&s).unwrap();
        let index = OrbitalIndex::new(&s);
        let n = index.total();
        let slots = lock(&dist.slots);
        for (_, ws) in slots.iter() {
            let nl = ws.neighbors.list();
            assert_eq!(
                ws.rho_blocks().as_slice().len(),
                bond_block_elements(nl, &index)
            );
            assert_eq!(ws.eigh.strip_bytes(), 8 * (96 * n + 7));
        }
    }

    #[test]
    fn traffic_grows_with_ranks() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let dist2 = DistributedTb::new(&model, 2);
        let dist4 = DistributedTb::new(&model, 4);
        dist2.evaluate(&s).unwrap();
        dist4.evaluate(&s).unwrap();
        let r2 = dist2.last_report().unwrap();
        let r4 = dist4.last_report().unwrap();
        assert!(
            r4.stats.total_messages() > r2.stats.total_messages(),
            "messages: {} vs {}",
            r4.stats.total_messages(),
            r2.stats.total_messages()
        );
    }

    #[test]
    fn compute_load_balances() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let dist = DistributedTb::new(&model, 4);
        dist.evaluate(&s).unwrap();
        let report = dist.last_report().unwrap();
        let flops: Vec<u64> = report.stats.ranks.iter().map(|r| r.flops).collect();
        let max = *flops.iter().max().unwrap() as f64;
        let min = *flops.iter().min().unwrap() as f64;
        assert!(min > 0.0, "an idle rank: {flops:?}");
        assert!(max / min < 3.0, "imbalance: {flops:?}");
    }

    #[test]
    fn drives_md_step() {
        // The distributed engine must be usable as a ForceProvider by MD.
        let model = silicon_gsp();
        let dist = DistributedTb::new(&model, 2);
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let eval = dist.evaluate(&s).unwrap();
        assert_eq!(eval.forces.len(), 8);
        // Perfect crystal: near-zero forces.
        for f in &eval.forces {
            assert!(f.max_abs() < 1e-6);
        }
    }

    #[test]
    fn warm_evaluations_allocate_once() {
        // Per-rank pool: after the first evaluation, repeated evaluate_with
        // calls grow no slot buffer.
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(43);
        s.perturb(&mut rng, 0.02);
        let dist = DistributedTb::new(&model, 3);
        let mut ws = Workspace::new();
        dist.evaluate_with(&s, &mut ws).unwrap();
        let warm = ws.large_alloc_events();
        assert!(warm > 0, "warmup must register slot creation");
        for _ in 0..3 {
            dist.evaluate_with(&s, &mut ws).unwrap();
        }
        assert_eq!(ws.large_alloc_events(), warm, "warm steps must not grow");
    }

    #[test]
    fn timings_populated_on_sliced_path() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 2, 2, 2);
        let dist = DistributedTb::new(&model, 2);
        let eval = dist.evaluate(&s).unwrap();
        assert!(eval.timings.total() > std::time::Duration::ZERO);
        assert!(eval.timings.diagonalize > std::time::Duration::ZERO);
    }

    #[test]
    fn injected_kill_surfaces_rank_failure_then_recovers() {
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let dist = DistributedTb::new(&model, 3);
        dist.ranks.arm(crate::vmp::FaultPlan {
            rank: 1,
            at_evaluation: 2,
            kind: crate::vmp::FaultKind::Kill,
        });
        // Evaluation 1 is clean; evaluation 2 trips the armed plan and must
        // return a typed error instead of hanging; evaluation 3 (plan
        // consumed, pool re-ensured) succeeds and still matches the serial
        // reference.
        let clean = dist.evaluate(&s).unwrap();
        let err = dist.evaluate(&s).unwrap_err();
        match &err {
            TbError::RankFailure {
                detail,
                failed_ranks,
            } => {
                assert!(detail.contains("rank 1"), "{detail}");
                assert_eq!(failed_ranks, &vec![1], "{detail}");
            }
            other => panic!("expected RankFailure, got {other:?}"),
        }
        let recovered = dist.evaluate(&s).unwrap();
        assert!((clean.energy - recovered.energy).abs() < 1e-9);
    }

    #[test]
    fn shrink_resharding_matches_serial() {
        // After a shrink the survivors recompute every slice boundary via
        // partition_range over the new rank count; the physics must still
        // match the serial reference (the binomial allreduce grouping
        // changes, so agreement is to solver tolerance, not bitwise).
        let model = silicon_gsp();
        let mut s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let mut rng = StdRng::seed_from_u64(7);
        s.perturb(&mut rng, 0.05);
        let serial = TbCalculator::new(&model);
        let reference = serial.evaluate(&s).unwrap();
        let dist = DistributedTb::new(&model, 3);
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.ranks.shrink_ranks(1), 2);
        let shrunk = dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().n_ranks, 2);
        assert!((shrunk.energy - reference.energy).abs() < 1e-8);
        for (fa, fb) in reference.forces.iter().zip(&shrunk.forces) {
            assert!((*fa - *fb).max_abs() < 1e-6);
        }
        // Respawn restores the configured width.
        assert_eq!(dist.ranks.respawn_full_ranks(), 3);
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().n_ranks, 3);
        // Never shrinks below one rank.
        assert_eq!(dist.ranks.shrink_ranks(99), 1);
        dist.evaluate(&s).unwrap();
        assert_eq!(dist.last_report().unwrap().n_ranks, 1);
    }

    /// Si-64 at three positions of atom 0 along the line to a third-shell
    /// neighbour (4.50 Å, outside the 4.3 Å candidate radius): `[0]` the
    /// crystal, `[1]` 0.30 Å along — past skin/2, so a rank that sees it
    /// rebuilds, with the neighbour (now at 4.20 Å) among the candidates —
    /// and `[2]` 0.10 Å along, within skin/2 of both, so candidates built at
    /// `[0]` and at `[1]` are both kept and differ in that pair.
    fn skin_crossing_positions(model: &dyn TbModel) -> [Structure; 3] {
        let base = bulk_diamond(Species::Silicon, 2, 2, 2);
        let radius = model.cutoff() + tbmd_model::DEFAULT_SKIN;
        let to_third_shell = (1..base.n_atoms())
            .map(|j| base.cell().displacement(base.position(0), base.position(j)))
            .find(|d| d.norm() > radius + 0.15 && d.norm() < radius + 0.25)
            .expect("third shell just outside the list radius");
        [0.0, 0.30, 0.10].map(|along| {
            let mut s = base.clone();
            s.positions_mut()[0] += to_third_shell * (along / to_third_shell.norm());
            s
        })
    }

    #[test]
    fn replicas_stay_identical_across_a_rank_failure_and_a_respawn() {
        // The packed ρ allreduce walks each rank's own list, so the lists
        // must be the same list. A killed rank never sees the positions its
        // survivors rebuilt at; a shrunk-away rank sleeps through rebuilds.
        let model = silicon_gsp();
        let [p0, p1, p2] = skin_crossing_positions(&model);
        let reference = TbCalculator::new(&model).evaluate(&p2).unwrap();
        let assert_matches_reference = |dist: &DistributedTb| {
            let eval = dist.evaluate(&p2).unwrap();
            assert!((eval.energy - reference.energy).abs() < 1e-8);
            for (fa, fb) in reference.forces.iter().zip(&eval.forces) {
                assert!((*fa - *fb).max_abs() < 1e-6);
            }
        };

        let dist = DistributedTb::new(&model, 2);
        dist.ranks.arm(crate::vmp::FaultPlan {
            rank: 1,
            at_evaluation: 2,
            kind: crate::vmp::FaultKind::Kill,
        });
        dist.evaluate(&p0).unwrap();
        dist.evaluate(&p1).unwrap_err();
        assert_matches_reference(&dist);

        let dist = DistributedTb::new(&model, 2);
        dist.evaluate(&p0).unwrap();
        dist.ranks.shrink_ranks(1);
        dist.evaluate(&p1).unwrap();
        dist.ranks.respawn_full_ranks();
        assert_matches_reference(&dist);
    }

    #[test]
    fn due_fault_for_removed_rank_is_dropped_not_refired() {
        // A plan targeting rank 2 armed before the engine shrank to 2 ranks
        // must be consumed without firing (and without panicking on the
        // out-of-range rank id).
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let dist = DistributedTb::new(&model, 3);
        dist.ranks.arm(crate::vmp::FaultPlan {
            rank: 2,
            at_evaluation: 1,
            kind: crate::vmp::FaultKind::Kill,
        });
        dist.ranks.shrink_ranks(1);
        dist.evaluate(&s).expect("dropped plan must not fire");
        // The slot is empty now: later evaluations stay clean too.
        dist.evaluate(&s).expect("plan must stay consumed");
    }

    #[test]
    fn stall_detected_through_engine_window_not_forever() {
        // Every launch has a window: with a fault armed it is the 500 ms
        // DEFAULT_FAULT_RECV_TIMEOUT, so a long freeze must surface as a
        // typed RankFailure in ~the window, not the stall duration (the
        // cancellation token reclaims the frozen rank).
        let model = silicon_gsp();
        let s = bulk_diamond(Species::Silicon, 1, 1, 1);
        let dist = DistributedTb::new(&model, 3);
        dist.ranks.arm(crate::vmp::FaultPlan {
            rank: 1,
            at_evaluation: 1,
            kind: crate::vmp::FaultKind::Stall { ms: 30_000 },
        });
        let started = Instant::now();
        let err = dist.evaluate(&s).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stall held the evaluation for {:?}",
            started.elapsed()
        );
        match &err {
            TbError::RankFailure { failed_ranks, .. } => assert_eq!(failed_ranks, &vec![1]),
            other => panic!("expected RankFailure, got {other:?}"),
        }
    }
}

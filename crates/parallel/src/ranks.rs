//! What every replicated-data engine on the virtual machine needs besides
//! its solve: the rank-control block (fault plans, shrink/respawn), the
//! launch bookkeeping around a virtual-machine run (failure-detection
//! window, per-rank slots), the per-rank geometry replica, the phase clock
//! that carves collective waits out of compute phases, and the force
//! gather. [`crate::DistributedTb`] and `tbmd-linscale`'s distributed O(N)
//! engine are both written on top of these.

use crate::vmp::{
    default_recv_timeout, vmp_run_opts, FaultPlan, Rank, VmpFault, VmpOptions, VmpStats,
    DEFAULT_FAULT_RECV_TIMEOUT,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tbmd_linalg::Vec3;
use tbmd_model::{epilogue, NeighborWorkspace, PhaseTimings, TbError, Workspace};
use tbmd_structure::{NeighborList, Structure};
use tbmd_trace::Phase;

/// Lock `m`, poisoned or not: whatever a panicking holder left behind is
/// reset or rewritten before it is read again.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Rank-control block of a distributed engine: how many ranks the next
/// evaluation launches and which fault (if any) it injects. Everything is
/// settable through `&self`, so a driver can steer an engine it has already
/// handed to an integrator.
#[derive(Debug)]
pub struct RankControl {
    /// Configured rank count ([`RankControl::respawn_full_ranks`] restores it).
    n_ranks: usize,
    /// Armed fault-injection plan; fires once at its target evaluation.
    fault_plan: Mutex<Option<FaultPlan>>,
    /// Evaluations launched so far (plans are 1-based against this).
    evals: AtomicU64,
    /// Currently active rank count: starts at `n_ranks`, shrinks when a
    /// resilient driver re-shards over the survivors after a rank failure.
    /// Engines compute every `partition_range` slice boundary from the
    /// launch's rank count, so a shrunken engine redistributes the dead
    /// rank's shards automatically.
    active: AtomicUsize,
    /// Set by whatever can leave the slots' [`Replica`]s updated apart: a
    /// failed launch (a killed rank never saw the positions its survivors
    /// updated at) and a change of the active set (a rank outside it sleeps
    /// through rebuilds). The next launch starts every replica over. The
    /// lists that meet in one launch are the same list anyway (each is a
    /// fresh build at the broadcast positions, whatever the replica kept —
    /// engines exchange data laid out by it); the reset is fault recovery.
    replicas_apart: AtomicBool,
}

impl RankControl {
    /// Control block for an engine on `n_ranks` virtual ranks.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        RankControl {
            n_ranks,
            fault_plan: Mutex::new(None),
            evals: AtomicU64::new(0),
            active: AtomicUsize::new(n_ranks),
            replicas_apart: AtomicBool::new(false),
        }
    }

    /// Arm a fault-injection plan: the chosen rank is killed or stalled at
    /// the plan's (1-based) evaluation and the failure surfaces as
    /// [`TbError::RankFailure`] instead of a hang. At most one plan is
    /// armed; it fires exactly once.
    pub fn arm(&self, plan: FaultPlan) {
        assert!(plan.rank < self.n_ranks, "fault rank out of range");
        *lock(&self.fault_plan) = Some(plan);
    }

    /// Ranks the next evaluation will launch (≤ `n_ranks` after a shrink).
    pub fn active_ranks(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Shrink-to-fit re-sharding: drop `n_failed` ranks from the active set
    /// (never below 1) and return the new count.
    pub fn shrink_ranks(&self, n_failed: usize) -> usize {
        let new = self.active_ranks().saturating_sub(n_failed).max(1);
        self.active.store(new, Ordering::SeqCst);
        self.replicas_apart.store(true, Ordering::SeqCst);
        new
    }

    /// Re-spawn policy: restore the full configured rank count (virtual
    /// ranks are plain threads, so "respawning" is free) and return it.
    pub fn respawn_full_ranks(&self) -> usize {
        self.active.store(self.n_ranks, Ordering::SeqCst);
        self.replicas_apart.store(true, Ordering::SeqCst);
        self.n_ranks
    }

    /// Evaluations launched so far (fault plans are 1-based against this).
    pub fn evaluations(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Count this evaluation and take the armed fault if its target
    /// evaluation is due (fires on `at_evaluation` or the first evaluation
    /// after it, so a plan armed "in the past" still fires). Taking the
    /// plan out of the slot *before* the launch is what makes plans
    /// one-shot across resilient rewinds: the retry after a recovery finds
    /// the slot empty. A due plan whose target rank no longer exists (the
    /// engine shrank below it) is consumed without firing.
    fn take_due_fault(&self, active: usize) -> Option<VmpFault> {
        let eval_no = self.evals.fetch_add(1, Ordering::Relaxed) + 1;
        let mut armed = lock(&self.fault_plan);
        let plan = armed.take_if(|plan| eval_no >= plan.at_evaluation)?;
        (plan.rank < active).then_some(VmpFault {
            rank: plan.rank,
            kind: plan.kind,
        })
    }

    /// Launch one evaluation over the active ranks: take the due fault,
    /// choose the failure-detection window — [`DEFAULT_FAULT_RECV_TIMEOUT`]
    /// when a fault fires, else [`default_recv_timeout`] for an
    /// `n_orb`-dimensional problem — hand rank `i` `&mut slots[i]` (grown to
    /// the active count; replicas reset first if an earlier failure or
    /// re-shard may have left them apart) and map a failed launch to
    /// [`TbError::RankFailure`]. Rank 0 returns the assembled result and its
    /// per-phase clocks — the canonical wall-clock view (per-rank spans
    /// would add up time-shared threads), fed to the trace registry here,
    /// once — or the error it met computing them, which is returned as is
    /// (a rank that fails must do so together with rank 0, before the next
    /// collective, or its peers wait out the window). Slot growth (new slots plus `grown` per slot) lands in
    /// `ws.grown`, so the O(1)-allocation guarantee stays observable through
    /// the uniform `Workspace::large_alloc_events`.
    pub fn launch<S, T>(
        &self,
        slots: &Mutex<Vec<S>>,
        grown: fn(&S) -> usize,
        n_orb: usize,
        ws: &mut Workspace,
        f: impl Fn(&mut Rank, &mut S) -> Result<Option<(T, PhaseTimings)>, TbError> + Sync,
    ) -> Result<Launch<T>, TbError>
    where
        S: Default + Send + AsMut<Replica>,
        T: Send,
    {
        let n_ranks = self.active_ranks();
        let fault = self.take_due_fault(n_ranks);
        let opts = VmpOptions {
            recv_timeout: match fault {
                Some(_) => DEFAULT_FAULT_RECV_TIMEOUT,
                None => default_recv_timeout(n_orb, n_ranks),
            },
            fault,
        };
        let mut slots = lock(slots);
        let allocated = |slots: &[S]| slots.len() + slots.iter().map(grown).sum::<usize>();
        let alloc_before = allocated(&slots);
        if slots.len() < n_ranks {
            slots.resize_with(n_ranks, S::default);
        }
        if self.replicas_apart.swap(false, Ordering::SeqCst) {
            for slot in slots.iter_mut() {
                *slot.as_mut() = Replica::default();
            }
        }
        let run = vmp_run_opts(&mut slots[..n_ranks], opts, |mut rank, slot| {
            f(&mut rank, slot)
        });
        let (mut results, stats) = run.map_err(|e| {
            self.replicas_apart.store(true, Ordering::SeqCst);
            TbError::RankFailure {
                failed_ranks: e.failed_ranks(),
                detail: e.to_string(),
            }
        })?;
        let grew = allocated(&slots) - alloc_before;
        ws.grown += grew;
        let (result, timings) = results
            .swap_remove(0)?
            .expect("rank 0 returns the assembled result");
        epilogue(grew, &timings, &Phase::ALL);
        Ok(Launch {
            result,
            timings,
            stats,
            n_ranks,
        })
    }
}

/// Outcome of a successful [`RankControl::launch`].
pub struct Launch<T> {
    /// Rank 0's assembled result.
    pub result: T,
    /// Rank 0's per-phase clocks.
    pub timings: PhaseTimings,
    /// Traffic and flop counters of the launch.
    pub stats: VmpStats,
    /// Ranks the launch ran on.
    pub n_ranks: usize,
}

/// Per-phase clock of one rank: compute time between laps, with the time
/// blocked in collectives carved out into `timings.communication`.
pub struct PhaseClock {
    mark: Instant,
    blocked: Duration,
}

impl PhaseClock {
    /// Start clocking the first phase.
    pub fn start() -> Self {
        PhaseClock {
            mark: Instant::now(),
            blocked: Duration::ZERO,
        }
    }

    /// Run a collective, booking its wall time as communication.
    pub fn blocked<T>(&mut self, collective: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = collective();
        self.blocked += t0.elapsed();
        out
    }

    /// Close the current phase: its collective waits go to
    /// `timings.communication`, the remaining compute time is returned.
    pub fn lap(&mut self, timings: &mut PhaseTimings) -> Duration {
        let compute = self.mark.elapsed() - self.blocked;
        timings.communication += self.blocked;
        self.blocked = Duration::ZERO;
        self.mark = Instant::now();
        compute
    }
}

/// One rank's replica of the geometry: the structure (topology re-cloned
/// only when the caller's structure changes shape) and its amortized
/// neighbour list.
#[derive(Default)]
pub struct Replica {
    local: Option<Structure>,
    neighbors: NeighborWorkspace,
}

impl Replica {
    /// Phase 1 of every replicated-data engine: rank 0 broadcasts the 3N
    /// coordinates under `tag`, every rank overwrites its replica's
    /// positions and brings its neighbour list up to date.
    pub fn refresh(
        &mut self,
        rank: &mut Rank,
        tag: u64,
        s: &Structure,
        cutoff: f64,
        clock: &mut PhaseClock,
        timings: &mut PhaseTimings,
    ) {
        let mut pos_flat: Vec<f64> = if rank.id() == 0 {
            s.positions().iter().flat_map(|r| r.to_array()).collect()
        } else {
            vec![]
        };
        clock.blocked(|| rank.broadcast(0, tag, &mut pos_flat));
        let n_atoms = s.n_atoms();
        let stale = self.local.as_ref().is_none_or(|l| {
            l.n_atoms() != n_atoms
                || l.cell() != s.cell()
                || (0..n_atoms).any(|i| l.species(i) != s.species(i))
        });
        if stale {
            self.local = Some(s.clone());
        }
        let local = self.local.as_mut().expect("replica just ensured");
        for (r, c) in local
            .positions_mut()
            .iter_mut()
            .zip(pos_flat.chunks_exact(3))
        {
            *r = Vec3::new(c[0], c[1], c[2]);
        }
        let outcome = self.neighbors.update(local, cutoff);
        timings.note_neighbors(outcome);
        rank.count_flops(10 * self.neighbors.list().n_entries() as u64);
    }

    /// The replicated structure and its neighbour list.
    ///
    /// # Panics
    /// Panics before the first [`Replica::refresh`].
    pub fn geometry(&self) -> (&Structure, &NeighborList) {
        (
            self.local.as_ref().expect("Replica::refresh not called"),
            self.neighbors.list(),
        )
    }
}

/// Last phase of every replicated-data engine: allgather the per-rank force
/// blocks (3 components per owned atom, in atom order) under `tag`; rank 0
/// assembles the full force vector.
pub fn gather_forces(
    rank: &mut Rank,
    tag: u64,
    block: &[f64],
    clock: &mut PhaseClock,
) -> Option<Vec<Vec3>> {
    let parts = clock.blocked(|| rank.allgather(tag, block));
    (rank.id() == 0).then(|| {
        parts
            .iter()
            .flat_map(|part| part.chunks_exact(3))
            .map(|c| Vec3::new(c[0], c[1], c[2]))
            .collect()
    })
}

//! Per-rank workspace pools for the message-passing engines.
//!
//! The distributed engines run their ranks as closures over
//! [`crate::vmp::vmp_run`]; each rank needs its own persistent buffers
//! (Hamiltonian slab, eigensolver scratch, ρ accumulator, force block) to
//! get the same O(1)-allocations-after-warmup guarantee the serial engines
//! take from `tbmd_model::Workspace`. A [`RankWorkspacePool`] owns one slot
//! per rank id, persisted across MD steps inside the engine (behind the
//! engine's existing `Mutex`), and hands each Vmp closure exclusive access
//! to its slot through an inner per-slot lock — the closure is `Fn` + `Sync`
//! across ranks, but each rank only ever touches its own slot.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, poisoned or not. A rank killed by an injected fault unwinds
/// while it holds its pool slot; the slot is reset or rewritten before it
/// is read again, so the data behind a poisoned lock is still good.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pool of per-rank workspace slots, indexed by rank id.
///
/// `S` is the engine-specific slot type (dense or linear-scaling buffers).
/// Slots are created on demand by [`RankWorkspacePool::ensure`] and then
/// live for the pool's lifetime, so every evaluation after the first reuses
/// warm buffers.
#[derive(Debug, Default)]
pub struct RankWorkspacePool<S> {
    slots: Vec<Mutex<S>>,
    /// Slot-creation events (each is one warmup allocation burst).
    created: usize,
}

impl<S: Default> RankWorkspacePool<S> {
    /// Empty pool.
    pub fn new() -> Self {
        RankWorkspacePool {
            slots: Vec::new(),
            created: 0,
        }
    }

    /// Grow the pool to at least `n` slots (never shrinks).
    pub fn ensure(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(Mutex::new(S::default()));
            self.created += 1;
        }
    }

    /// Number of slots currently in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no slots yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slot-creation events so far (monotonic; constant once every rank
    /// count seen has been warmed up).
    pub fn created(&self) -> usize {
        self.created
    }

    /// Rank `r`'s slot. The caller (the rank's Vmp closure) locks it for
    /// the duration of the evaluation; distinct ranks lock distinct slots,
    /// so there is never contention in steady state.
    ///
    /// # Panics
    /// Panics if `r >= self.len()` — call [`RankWorkspacePool::ensure`]
    /// first.
    pub fn slot(&self, r: usize) -> &Mutex<S> {
        &self.slots[r]
    }

    /// Visit every slot mutably (e.g. to reset state no rank may keep after
    /// a failed launch). Locks each slot briefly; call outside the Vmp run.
    pub fn for_each(&self, f: impl Fn(&mut S)) {
        self.slots.iter().for_each(|m| f(&mut lock(m)));
    }

    /// Fold a metric over all slots (e.g. summing per-slot buffer-growth
    /// counters after a run). Locks each slot briefly; call outside the
    /// Vmp run.
    pub fn total<F: Fn(&S) -> usize>(&self, f: F) -> usize {
        self.slots.iter().map(|m| f(&lock(m))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Slot {
        hits: usize,
    }

    #[test]
    fn ensure_grows_monotonically() {
        let mut pool: RankWorkspacePool<Slot> = RankWorkspacePool::new();
        assert!(pool.is_empty());
        pool.ensure(3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.created(), 3);
        pool.ensure(2);
        assert_eq!(pool.len(), 3, "never shrinks");
        assert_eq!(pool.created(), 3);
        pool.ensure(5);
        assert_eq!(pool.created(), 5);
    }

    #[test]
    fn slots_persist_state_across_uses() {
        let mut pool: RankWorkspacePool<Slot> = RankWorkspacePool::new();
        pool.ensure(2);
        lock(pool.slot(0)).hits += 1;
        lock(pool.slot(0)).hits += 1;
        lock(pool.slot(1)).hits += 1;
        assert_eq!(pool.total(|s| s.hits), 3);
        assert_eq!(lock(pool.slot(0)).hits, 2);
    }

    #[test]
    fn slots_usable_from_parallel_ranks() {
        let mut pool: RankWorkspacePool<Slot> = RankWorkspacePool::new();
        pool.ensure(4);
        let pool_ref = &pool;
        crate::vmp::vmp_run(4, |rank| {
            lock(pool_ref.slot(rank.id())).hits += 1;
        });
        assert_eq!(pool_ref.total(|s| s.hits), 4);
    }
}

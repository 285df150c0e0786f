//! Process-global compute budget with per-session leases.
//!
//! Every fan-out in the workspace is a hand-off to the one thread team of
//! the process ([`crate::team`]). That is fine for a single simulation, but
//! when several sessions share a process somebody has to say how much of
//! the team each may take. The budget makes that an explicit, accountable
//! lease:
//!
//! * [`configure_budget`] sets the process-wide thread allowance once
//!   (0 = unlimited, the single-run default — nothing changes for
//!   existing callers).
//! * A session calls [`try_lease`] for the width it wants and holds the
//!   returned [`ComputeLease`] for its lifetime; the grant is clamped to
//!   what is left, and `None` means "budget exhausted, wait your turn"
//!   (the serve admission queue's signal).
//! * [`ComputeLease::scoped`] pins the lease's width into a thread-local
//!   for the duration of a step, and that width *is* the team width:
//!   every fan-out site asks [`crate::team::width`] how many threads to
//!   take. A width-1 lease therefore runs the step on the calling thread —
//!   bitwise identical to the wide run, because what a task computes never
//!   depends on which thread runs it.
//!
//! The budget lives in `tbmd-linalg` beside the team (the `tbmd` facade
//! re-exports [`configure_budget`], [`try_lease`] and [`ComputeLease`]):
//! `tbmd-model` fans out too, so this is the lowest layer every consumer
//! can see.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Total thread allowance for the process. 0 = unlimited (default).
static TOTAL: AtomicUsize = AtomicUsize::new(0);
/// Threads currently out on leases.
static LEASED: AtomicUsize = AtomicUsize::new(0);
/// Highest `LEASED` ever observed since the last [`reset_high_water`].
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Width the current scope may fan out to. 0 = unconstrained.
    static EFFECTIVE_WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Set the process-wide thread allowance. 0 restores the unlimited
/// single-run default. Takes effect for leases granted after the call;
/// outstanding leases keep their grants.
pub fn configure_budget(total_threads: usize) {
    TOTAL.store(total_threads, Ordering::SeqCst);
}

/// The configured allowance (0 = unlimited).
pub fn budget_total() -> usize {
    TOTAL.load(Ordering::SeqCst)
}

/// Threads currently held by live leases.
pub fn leased_threads() -> usize {
    LEASED.load(Ordering::SeqCst)
}

/// The peak concurrent lease total since the last [`reset_high_water`] —
/// what the serve bench asserts never exceeds [`budget_total`].
pub fn high_water() -> usize {
    HIGH_WATER.load(Ordering::SeqCst)
}

/// Reset the high-water mark (the serve bench calls this between runs).
pub fn reset_high_water() {
    let now = LEASED.load(Ordering::SeqCst);
    HIGH_WATER.store(now, Ordering::SeqCst);
    tbmd_trace::set_gauge(tbmd_trace::Gauge::LeaseHighWater, now as f64);
}

/// A granted slice of the process compute budget. Dropping it returns the
/// threads to the pool.
#[derive(Debug)]
pub struct ComputeLease {
    threads: usize,
    /// Whether the grant was debited from a finite budget (and so must be
    /// credited back on drop).
    tracked: bool,
}

impl ComputeLease {
    /// A lease of `threads` that was never debited from the budget — pins a
    /// width in unit tests without touching the process-global counters.
    #[cfg(test)]
    pub(crate) fn untracked(threads: usize) -> Self {
        ComputeLease {
            threads,
            tracked: false,
        }
    }

    /// The width this lease allows: 0 = unconstrained (the whole team),
    /// 1 = serial, n ≥ 2 = fan-outs take n threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with this lease's width pinned as the calling thread's
    /// effective fan-out limit; the previous limit is restored afterwards,
    /// also when `f` unwinds (scopes nest — an inner lease temporarily
    /// shadows an outer one).
    pub fn scoped<T>(&self, f: impl FnOnce() -> T) -> T {
        let _restore = RestoreWidth(EFFECTIVE_WIDTH.replace(self.threads));
        f()
    }
}

/// Puts back the width a [`ComputeLease::scoped`] call found, on return and
/// on unwind alike: a caught panic must not leave a reused thread (a team
/// worker, the serve scheduler) pinned to the panicked caller's width.
struct RestoreWidth(usize);

impl Drop for RestoreWidth {
    fn drop(&mut self) {
        EFFECTIVE_WIDTH.set(self.0);
    }
}

impl Drop for ComputeLease {
    fn drop(&mut self) {
        if self.tracked {
            LEASED.fetch_sub(self.threads, Ordering::SeqCst);
        }
    }
}

/// Request up to `want` threads from the budget.
///
/// * Unlimited budget (total = 0): always grants an untracked,
///   unconstrained lease — the single-run fast path costs two atomic
///   loads and changes nothing.
/// * Finite budget: grants `min(want, remaining)` (at least 1), or
///   `None` if nothing remains — callers must back off and retry (the
///   serve scheduler parks the tenant in its admission queue).
pub fn try_lease(want: usize) -> Option<ComputeLease> {
    let total = TOTAL.load(Ordering::SeqCst);
    if total == 0 {
        return Some(ComputeLease {
            threads: 0,
            tracked: false,
        });
    }
    let want = want.max(1);
    loop {
        let leased = LEASED.load(Ordering::SeqCst);
        if leased >= total {
            return None;
        }
        let grant = want.min(total - leased);
        if LEASED
            .compare_exchange(leased, leased + grant, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let peak = HIGH_WATER.fetch_max(leased + grant, Ordering::SeqCst);
            tbmd_trace::set_gauge(
                tbmd_trace::Gauge::LeaseHighWater,
                peak.max(leased + grant) as f64,
            );
            return Some(ComputeLease {
                threads: grant,
                tracked: true,
            });
        }
    }
}

/// The calling thread's effective fan-out width (0 = unconstrained).
pub fn effective_width() -> usize {
    EFFECTIVE_WIDTH.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The budget is process-global state; tests touching it serialize
    /// here so `cargo test`'s parallel harness can't interleave them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unlimited_budget_grants_unconstrained_untracked_leases() {
        let _g = lock();
        configure_budget(0);
        let lease = try_lease(8).expect("unlimited grant");
        assert_eq!(lease.threads(), 0);
        assert_eq!(leased_threads(), 0, "untracked lease must not debit");
        lease.scoped(|| assert_eq!(effective_width(), 0));
    }

    #[test]
    fn finite_budget_clamps_exhausts_and_refunds() {
        let _g = lock();
        configure_budget(4);
        reset_high_water();
        let a = try_lease(3).expect("first grant");
        assert_eq!(a.threads(), 3);
        // Only 1 left: the want is clamped, not refused.
        let b = try_lease(4).expect("clamped grant");
        assert_eq!(b.threads(), 1);
        assert_eq!(leased_threads(), 4);
        assert_eq!(high_water(), 4);
        // Exhausted: the next tenant must wait.
        assert!(try_lease(1).is_none());
        drop(b);
        assert_eq!(leased_threads(), 3);
        let c = try_lease(1).expect("refunded grant");
        assert_eq!(c.threads(), 1);
        drop(c);
        drop(a);
        assert_eq!(leased_threads(), 0);
        assert_eq!(high_water(), 4, "high water survives refunds");
        configure_budget(0);
    }

    #[test]
    fn width_one_lease_pins_serial_and_scopes_nest() {
        let _g = lock();
        configure_budget(2);
        let outer = try_lease(2).expect("outer");
        let serial = ComputeLease::untracked(1);
        outer.scoped(|| {
            assert_eq!(effective_width(), 2);
            assert_eq!(crate::team::width(), 2, "the lease width is the team width");
            serial.scoped(|| {
                assert_eq!(effective_width(), 1);
                assert_eq!(crate::team::width(), 1, "width-1 lease must force serial");
            });
            // Inner scope restored the outer width on exit.
            assert_eq!(effective_width(), 2);
        });
        assert_eq!(effective_width(), 0);
        drop(outer);
        configure_budget(0);
    }

    #[test]
    fn a_panic_inside_a_scope_restores_the_width_it_found() {
        let (outer, inner) = (ComputeLease::untracked(3), ComputeLease::untracked(1));
        let panics = |lease: &ComputeLease| {
            std::panic::catch_unwind(|| lease.scoped(|| panic!("tenant gave up"))).is_err()
        };
        assert!(panics(&inner));
        assert_eq!(effective_width(), 0, "unwound out of a single scope");
        outer.scoped(|| {
            assert!(panics(&inner));
            assert_eq!(effective_width(), 3, "unwound out of a nested scope");
        });
        assert_eq!(effective_width(), 0);
    }
}

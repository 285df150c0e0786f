//! Compute budgets with per-session leases.
//!
//! Every fan-out in the workspace is a hand-off to the one thread team of
//! the process ([`crate::team`]). That is fine for a single simulation, but
//! when several sessions share a process somebody has to say how much of
//! the team each may take. A [`Budget`] makes that an explicit, accountable
//! lease:
//!
//! * Whoever schedules sessions owns a [`Budget::new`] handle (0 threads =
//!   unlimited) — each serve multiplexer, each campaign — and two handles
//!   share nothing.
//! * A session asks [`Budget::lease`] for the width it wants and holds the
//!   returned [`ComputeLease`] for its lifetime; the grant is clamped to
//!   what is left, `None` means "budget exhausted, wait your turn" (the
//!   serve admission queue's signal), and the lease refunds its budget on
//!   drop.
//! * [`ComputeLease::scoped`] pins the lease's width into a thread-local
//!   for the duration of a step, and that width *is* the team width:
//!   every fan-out site asks [`crate::team::width`] how many threads to
//!   take. A width-1 lease therefore runs the step on the calling thread —
//!   bitwise identical to the wide run, because what a task computes never
//!   depends on which thread runs it.
//!
//! [`configure_budget`] and [`try_lease`] drive the process-default handle
//! ([`Budget::process_default`]) for the standalone benchmark package. The
//! budget lives in `tbmd-linalg` beside the team: `tbmd-model` fans out
//! too, so this is the lowest layer every consumer can see.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Width the current scope may fan out to. 0 = unconstrained.
    static EFFECTIVE_WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// The counters behind one [`Budget`] handle and its leases.
#[derive(Debug, Default)]
struct Ledger {
    /// The thread allowance. 0 = unlimited.
    total: AtomicUsize,
    /// Threads currently out on leases.
    leased: AtomicUsize,
    /// The highest `leased` ever reached.
    high_water: AtomicUsize,
}

/// A thread allowance and the leases drawn on it. Cloning the handle shares
/// the allowance; [`Budget::new`] makes an independent one.
#[derive(Debug, Clone)]
pub struct Budget(Arc<Ledger>);

impl Budget {
    /// A budget of `total` threads (0 = unlimited), none of them leased.
    pub fn new(total: usize) -> Budget {
        let ledger = Ledger::default();
        ledger.total.store(total, Ordering::SeqCst);
        Budget(Arc::new(ledger))
    }

    /// The handle [`configure_budget`] caps and [`try_lease`] leases from:
    /// unlimited until configured.
    pub fn process_default() -> Budget {
        static DEFAULT: OnceLock<Budget> = OnceLock::new();
        DEFAULT.get_or_init(|| Budget::new(0)).clone()
    }

    /// The allowance (0 = unlimited).
    pub fn total(&self) -> usize {
        self.0.total.load(Ordering::SeqCst)
    }

    /// Threads held by live leases of this budget.
    pub fn leased(&self) -> usize {
        self.0.leased.load(Ordering::SeqCst)
    }

    /// The peak concurrent lease total of this budget — what the serve
    /// bench asserts never exceeds [`Budget::total`].
    pub fn high_water(&self) -> usize {
        self.0.high_water.load(Ordering::SeqCst)
    }

    /// Request up to `want` threads.
    ///
    /// * Unlimited budget (total = 0): always grants an untracked,
    ///   unconstrained lease — the single-run fast path changes nothing.
    /// * Finite budget: grants `min(want, remaining)` (at least 1), or
    ///   `None` if nothing remains — callers must back off and retry (the
    ///   serve scheduler parks the tenant in its admission queue).
    pub fn lease(&self, want: usize) -> Option<ComputeLease> {
        let ledger = &self.0;
        let total = ledger.total.load(Ordering::SeqCst);
        if total == 0 {
            return Some(ComputeLease {
                threads: 0,
                ledger: None,
            });
        }
        let grant = |leased: usize| want.max(1).min(total - leased);
        let leased = (ledger.leased)
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |leased| {
                (leased < total).then(|| leased + grant(leased))
            })
            .ok()?;
        let now = leased + grant(leased);
        let peak = ledger.high_water.fetch_max(now, Ordering::SeqCst).max(now);
        tbmd_trace::set_gauge(tbmd_trace::Gauge::LeaseHighWater, peak as f64);
        Some(ComputeLease {
            threads: grant(leased),
            ledger: Some(Arc::clone(ledger)),
        })
    }
}

/// Cap the process-default budget ([`Budget::process_default`]) at
/// `total_threads`; 0 restores unlimited. Takes effect for leases granted
/// after the call; outstanding leases keep their grants.
pub fn configure_budget(total_threads: usize) {
    let ledger = &Budget::process_default().0;
    ledger.total.store(total_threads, Ordering::SeqCst);
}

/// [`Budget::lease`] on the process-default budget.
pub fn try_lease(want: usize) -> Option<ComputeLease> {
    Budget::process_default().lease(want)
}

/// A granted slice of a [`Budget`]. Dropping it returns the threads to the
/// budget it came from.
#[derive(Debug)]
pub struct ComputeLease {
    threads: usize,
    /// The finite budget the grant was debited from, to credit back on drop.
    ledger: Option<Arc<Ledger>>,
}

impl ComputeLease {
    /// A lease of `threads` that was never debited from a budget — pins a
    /// width in unit tests.
    #[cfg(test)]
    pub(crate) fn untracked(threads: usize) -> Self {
        ComputeLease {
            threads,
            ledger: None,
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
        if let Some(ledger) = &self.ledger {
            ledger.leased.fetch_sub(self.threads, Ordering::SeqCst);
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

    #[test]
    fn unlimited_budget_grants_unconstrained_untracked_leases() {
        let budget = Budget::new(0);
        let lease = budget.lease(8).expect("unlimited grant");
        assert_eq!(lease.threads(), 0);
        assert_eq!(budget.leased(), 0, "untracked lease must not debit");
        lease.scoped(|| assert_eq!(effective_width(), 0));
    }

    #[test]
    fn finite_budget_clamps_exhausts_and_refunds() {
        let budget = Budget::new(4);
        let a = budget.lease(3).expect("first grant");
        assert_eq!(a.threads(), 3);
        // Only 1 left: the want is clamped, not refused.
        let b = budget.lease(4).expect("clamped grant");
        assert_eq!(b.threads(), 1);
        assert_eq!(budget.leased(), 4);
        assert_eq!(budget.high_water(), 4);
        // Exhausted: the next tenant must wait — on this budget only.
        assert!(budget.lease(1).is_none());
        assert_eq!(Budget::new(4).lease(4).map(|l| l.threads()), Some(4));
        drop(b);
        assert_eq!(budget.leased(), 3);
        let c = budget.lease(1).expect("refunded grant");
        assert_eq!(c.threads(), 1);
        drop(c);
        drop(a);
        assert_eq!(budget.leased(), 0);
        assert_eq!(budget.high_water(), 4, "high water survives refunds");
    }

    #[test]
    fn the_process_default_is_capped_by_configure_budget() {
        configure_budget(1);
        let lease = try_lease(2).expect("one thread left");
        assert_eq!(lease.threads(), 1);
        assert_eq!(Budget::process_default().leased(), 1);
        drop(lease);
        configure_budget(0);
        assert_eq!(try_lease(2).map(|l| l.threads()), Some(0));
    }

    #[test]
    fn width_one_lease_pins_serial_and_scopes_nest() {
        let outer = Budget::new(2).lease(2).expect("outer");
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

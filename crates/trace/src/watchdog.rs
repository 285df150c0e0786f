//! Physics watchdogs: pure state machines (no I/O) that the [`RunRecorder`]
//! consults. The microcanonical drift monitor follows the paper's own
//! quality bar — a good TBMD integration conserves `E_cons` to a few meV
//! over thousands of steps — so the budget is expressed per 1000 steps.
//!
//! [`RunRecorder`]: crate::RunRecorder

use crate::json::JsonValue;

/// Conserved-quantity drift monitor. Feed it `E_cons` every step (total
/// energy for NVE, the Nosé–Hoover conserved quantity for NVT); it trips
/// when `|E_cons(t) − E_cons(0)|` exceeds the pro-rated budget.
#[derive(Debug, Clone)]
pub struct DriftWatchdog {
    /// Allowed |ΔE_cons| per 1000 steps (eV).
    budget_ev_per_1k: f64,
    reference: Option<f64>,
    worst: f64,
    tripped_at: Option<usize>,
}

/// Emitted once, the first time the budget is exceeded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogTrip {
    pub step: usize,
    pub drift_ev: f64,
    pub allowed_ev: f64,
}

impl DriftWatchdog {
    /// Default budget: 50 meV per 1000 steps — an order of magnitude looser
    /// than a healthy 1 fs Verlet run, tight enough to catch a broken
    /// integrator or timestep within tens of steps.
    pub const DEFAULT_BUDGET_EV_PER_1K: f64 = 0.05;

    pub fn new(budget_ev_per_1k: f64) -> DriftWatchdog {
        DriftWatchdog {
            budget_ev_per_1k,
            reference: None,
            worst: 0.0,
            tripped_at: None,
        }
    }

    /// Drift allowance at `step`: one full budget inside the first 1000
    /// steps, pro-rated linearly beyond.
    pub fn allowed_at(&self, step: usize) -> f64 {
        self.budget_ev_per_1k * (step as f64 / 1000.0).max(1.0)
    }

    /// Record `E_cons` at `step`. The first call pins the reference.
    /// Returns `Some` exactly once: on the step the budget is first
    /// exceeded.
    pub fn observe(&mut self, step: usize, conserved_ev: f64) -> Option<WatchdogTrip> {
        let reference = match self.reference {
            Some(r) => r,
            None => {
                self.reference = Some(conserved_ev);
                return None;
            }
        };
        let drift = (conserved_ev - reference).abs();
        self.worst = self.worst.max(drift);
        let allowed = self.allowed_at(step);
        if drift > allowed && self.tripped_at.is_none() {
            self.tripped_at = Some(step);
            return Some(WatchdogTrip {
                step,
                drift_ev: drift,
                allowed_ev: allowed,
            });
        }
        None
    }

    /// Worst |ΔE_cons| seen so far (eV).
    pub fn worst_drift(&self) -> f64 {
        self.worst
    }

    pub fn status(&self) -> WatchdogStatus {
        WatchdogStatus {
            ok: self.tripped_at.is_none(),
            worst_drift_ev: self.worst,
            budget_ev_per_1k: self.budget_ev_per_1k,
            tripped_at: self.tripped_at,
        }
    }
}

impl Default for DriftWatchdog {
    fn default() -> Self {
        DriftWatchdog::new(DriftWatchdog::DEFAULT_BUDGET_EV_PER_1K)
    }
}

/// Final verdict of a drift watchdog, serializable into run summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogStatus {
    pub ok: bool,
    pub worst_drift_ev: f64,
    pub budget_ev_per_1k: f64,
    pub tripped_at: Option<usize>,
}

impl WatchdogStatus {
    pub fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::object();
        v.set("ok", self.ok)
            .set("worst_drift_ev", self.worst_drift_ev)
            .set("budget_ev_per_1k", self.budget_ev_per_1k)
            .set(
                "tripped_at",
                match self.tripped_at {
                    Some(step) => JsonValue::from(step),
                    None => JsonValue::Null,
                },
            );
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_run_never_trips() {
        let mut wd = DriftWatchdog::new(0.05);
        for step in 0..2000 {
            // 2 meV of bounded oscillation: well inside budget.
            let e = -310.0 + 0.002 * (step as f64 * 0.1).sin();
            assert!(wd.observe(step, e).is_none());
        }
        let status = wd.status();
        assert!(status.ok);
        assert!(status.worst_drift_ev < 0.05);
    }

    #[test]
    fn trips_once_on_runaway_drift() {
        let mut wd = DriftWatchdog::new(0.05);
        assert!(wd.observe(0, -310.0).is_none());
        let trip = wd.observe(5, -309.0).expect("1 eV drift must trip");
        assert_eq!(trip.step, 5);
        assert!(trip.drift_ev > trip.allowed_ev);
        // Already tripped: stays silent but keeps tracking the worst drift.
        assert!(wd.observe(6, -307.0).is_none());
        let status = wd.status();
        assert!(!status.ok);
        assert_eq!(status.tripped_at, Some(5));
        assert_eq!(status.worst_drift_ev, 3.0);
    }

    #[test]
    fn allowance_prorates_past_1000_steps() {
        let wd = DriftWatchdog::new(0.05);
        assert_eq!(wd.allowed_at(10), 0.05);
        assert_eq!(wd.allowed_at(1000), 0.05);
        assert_eq!(wd.allowed_at(4000), 0.2);
    }
}

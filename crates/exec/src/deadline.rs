//! Prediction-derived layer deadlines and the fail-slow recovery policy.
//!
//! The paper's premise is that `T(M, q, mp)` predicts task time well; a
//! [`DeadlinePolicy`] turns those predictions into actionable liveness
//! bounds: layer `l` of a run is *over deadline* once its wall clock
//! exceeds `budget[l] × slack` (floored at
//! [`min_deadline`](DeadlinePolicy::min_deadline)).  The slack factor
//! absorbs model error — feed it from the observed reconciliation error
//! with [`with_reconciliation`](DeadlinePolicy::with_reconciliation) so a
//! badly calibrated model widens its own deadlines instead of flagging
//! healthy layers.
//!
//! On a missed deadline the monitor classifies each laggard by heartbeat
//! age: a rank still stamping is a **straggler** and is raced by a
//! speculative duplicate of its group slice (first finisher wins, the
//! loser is cancelled through the existing communicator-poison path; at
//! most [`MAX_HEDGES`] hedges per attempt); a rank silent for longer than
//! [`dead_after`](DeadlinePolicy::dead_after) is **dead** and is demoted to
//! lost, reusing shrink-and-continue replanning.  Independently,
//! [`global_timeout`](DeadlinePolicy::global_timeout) is the hard
//! wedge-breaker: if a whole attempt overruns it, every rank still running
//! is demoted and the run surfaces
//! [`ExecError::WatchdogTimeout`](crate::ExecError::WatchdogTimeout).

use pt_obs::Reconciliation;
use std::time::Duration;

/// Cap on hedges spawned per run attempt.
pub const MAX_HEDGES: u32 = 4;

/// Fail-slow detection and recovery policy for one run
/// (carried in [`RunOptions::deadline`](crate::RunOptions)).
#[derive(Debug, Clone)]
pub struct DeadlinePolicy {
    /// Predicted wall-clock budget per layer.  Empty disables per-layer
    /// deadlines (the global watchdog, if set, still applies).
    pub layer_budgets: Vec<Duration>,
    /// Multiplier on each budget (model-error headroom, ≥ 1).
    pub slack: f64,
    /// Floor of every effective deadline — keeps µs-scale predictions
    /// from producing deadlines shorter than scheduling jitter.
    pub min_deadline: Duration,
    /// Heartbeat age beyond which a laggard counts as dead, not straggling.
    pub dead_after: Duration,
    /// Monitor tick interval.
    pub poll: Duration,
    /// Hard bound on one attempt's wall clock; `None` disables the global
    /// watchdog.
    pub global_timeout: Option<Duration>,
}

impl DeadlinePolicy {
    fn base() -> DeadlinePolicy {
        DeadlinePolicy {
            layer_budgets: Vec::new(),
            slack: 2.0,
            min_deadline: Duration::from_millis(20),
            dead_after: Duration::from_millis(300),
            poll: Duration::from_millis(2),
            global_timeout: None,
        }
    }

    /// Policy with explicit per-layer budgets.
    pub fn from_budgets(budgets: Vec<Duration>) -> DeadlinePolicy {
        DeadlinePolicy {
            layer_budgets: budgets,
            ..DeadlinePolicy::base()
        }
    }

    /// Policy from predicted layer times in seconds (e.g. the cost model's
    /// per-layer critical path), scaled by `scale` into wall-clock seconds
    /// — the bridge from cost-model predictions to deadlines.
    pub fn from_predictions(predicted_s: &[f64], scale: f64) -> DeadlinePolicy {
        let budgets = predicted_s
            .iter()
            .map(|&s| Duration::from_secs_f64((s * scale).max(0.0)))
            .collect();
        DeadlinePolicy::from_budgets(budgets)
    }

    /// Watchdog-only policy: no per-layer deadlines, just a hard bound on
    /// the attempt's wall clock.
    pub fn watchdog(global: Duration) -> DeadlinePolicy {
        DeadlinePolicy {
            global_timeout: Some(global),
            ..DeadlinePolicy::base()
        }
    }

    /// Set the slack multiplier (clamped to ≥ 1).
    pub fn with_slack(mut self, slack: f64) -> DeadlinePolicy {
        self.slack = slack.max(1.0);
        self
    }

    /// Widen the slack to cover the observed prediction error: the final
    /// slack is `max(current, reconciliation.suggested_slack())`.
    pub fn with_reconciliation(self, rec: &Reconciliation) -> DeadlinePolicy {
        let s = self.slack.max(rec.suggested_slack());
        self.with_slack(s)
    }

    /// Set the effective-deadline floor.
    pub fn with_min_deadline(mut self, min: Duration) -> DeadlinePolicy {
        self.min_deadline = min;
        self
    }

    /// Set the dead-heartbeat threshold.
    pub fn with_dead_after(mut self, after: Duration) -> DeadlinePolicy {
        self.dead_after = after;
        self
    }

    /// Set the monitor tick interval.
    pub fn with_poll(mut self, poll: Duration) -> DeadlinePolicy {
        self.poll = poll;
        self
    }

    /// Set (or clear) the global watchdog bound.
    pub fn with_global_timeout(mut self, bound: Option<Duration>) -> DeadlinePolicy {
        self.global_timeout = bound;
        self
    }

    /// Effective deadline of `layer`: `budget × slack`, floored at
    /// [`min_deadline`](Self::min_deadline); `None` when the layer has no
    /// budget.
    pub fn effective_deadline(&self, layer: usize) -> Option<Duration> {
        let budget = *self.layer_budgets.get(layer)?;
        Some(budget.mul_f64(self.slack).max(self.min_deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_mtask::TaskId;
    use pt_obs::TaskSample;

    #[test]
    fn effective_deadline_applies_slack_and_floor() {
        let p = DeadlinePolicy::from_budgets(vec![
            Duration::from_millis(100),
            Duration::from_micros(10),
        ])
        .with_slack(3.0)
        .with_min_deadline(Duration::from_millis(5));
        assert_eq!(p.effective_deadline(0), Some(Duration::from_millis(300)));
        // 30 µs × slack is under the floor.
        assert_eq!(p.effective_deadline(1), Some(Duration::from_millis(5)));
        assert_eq!(p.effective_deadline(2), None);
        // Slack never drops below 1.
        assert_eq!(p.with_slack(0.1).slack, 1.0);
    }

    #[test]
    fn from_predictions_scales_seconds() {
        let p = DeadlinePolicy::from_predictions(&[1e-3, 2e-3], 10.0).with_slack(1.0);
        assert_eq!(p.layer_budgets[0], Duration::from_millis(10));
        assert_eq!(p.layer_budgets[1], Duration::from_millis(20));
    }

    #[test]
    fn watchdog_only_policy_has_no_layer_deadlines() {
        let p = DeadlinePolicy::watchdog(Duration::from_secs(5));
        assert!(p.layer_budgets.is_empty());
        assert_eq!(p.effective_deadline(0), None);
        assert_eq!(p.global_timeout, Some(Duration::from_secs(5)));
    }

    #[test]
    fn reconciliation_widens_slack_monotonically() {
        // 100% worst-case error suggests 1 + 2·1 = 3×.
        let rec = Reconciliation::build(vec![TaskSample {
            task: TaskId(0),
            name: "t".into(),
            layer: 0,
            predicted: Some(2.0),
            simulated: None,
            measured: Some(1.0),
        }]);
        let p = DeadlinePolicy::from_budgets(vec![]).with_slack(1.5);
        assert!((p.with_reconciliation(&rec).slack - 3.0).abs() < 1e-12);
        // An already-wider slack is kept.
        let p = DeadlinePolicy::from_budgets(vec![]).with_slack(5.0);
        assert_eq!(p.with_reconciliation(&rec).slack, 5.0);
    }
}

//! Deterministic fault injection for testing the recovery machinery.
//!
//! A [`FaultPlan`] scripts failures at exact points of a run: "panic rank 1
//! of the team in layer 2, but only on attempt 1", "delay rank 0 by 5 ms in
//! layer 0", "lose worker 3 in layer 1".  The plan travels with the run
//! (see [`RunOptions`](crate::RunOptions)) and is consulted by each worker
//! at each layer, so injected faults are reproducible — no timing races, no
//! environment variables.
//!
//! Fault kinds cover both failure classes of the runtime's failure model
//! (DESIGN.md §9): **fail-stop** ([`Panic`](FaultKind::Panic),
//! [`Lose`](FaultKind::Lose), [`Flaky`](FaultKind::Flaky)) and
//! **fail-slow** ([`Delay`](FaultKind::Delay),
//! [`SlowFactor`](FaultKind::SlowFactor), [`Stall`](FaultKind::Stall)).
//! [`FaultPlan::chaos`] generates whole randomized campaigns from a seed,
//! the engine behind the `chaos_run` harness.
//!
//! Ranks are **logical team ranks for the attempt**: position in the
//! current roster (`0..alive_workers`), not physical worker indices.  After
//! a worker loss the survivors are re-ranked contiguously, so a plan keyed
//! on logical ranks stays meaningful across shrink-and-continue.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// What an injected fault does.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Panic before executing the layer's tasks (caught and converted to
    /// [`ExecError::TaskPanicked`](crate::ExecError::TaskPanicked)).
    Panic,
    /// Sleep before executing the layer's tasks (exercises stragglers and
    /// abort latency).  The slept duration is surfaced through the
    /// `fault:delay` instant and the `exec.fault_delay_us` counter.
    Delay(Duration),
    /// Permanently remove the worker from the team (exercises
    /// shrink-and-continue / [`ExecError::WorkerLost`](crate::ExecError::WorkerLost)).
    Lose,
    /// Fail-slow: stop making progress forever *without* crashing — the
    /// worker sleeps indefinitely and publishes no heartbeats.  Only the
    /// deadline watchdog (or the global watchdog) can recover from this;
    /// without one the run wedges, which is exactly what the chaos gate's
    /// watchdog-off test asserts.
    Stall,
    /// Fail-slow: run this layer's tasks `f`× slower than normal (the
    /// worker stretches each task by `(f − 1)` × its measured duration).
    /// Unlike [`Stall`](Self::Stall) the worker keeps publishing
    /// heartbeats, so the watchdog classifies it *straggler*, not *dead*.
    SlowFactor(f64),
    /// Panic with probability `p`, decided deterministically from the
    /// plan's seed and the `(layer, rank, attempt)` coordinates — the same
    /// plan replayed yields the same flake pattern.
    Flaky {
        /// Probability of panicking at each matching firing point.
        p: f64,
    },
}

impl FaultKind {
    /// Whether the fault only slows execution down (never corrupts or
    /// crashes): [`Delay`](Self::Delay), [`Stall`](Self::Stall),
    /// [`SlowFactor`](Self::SlowFactor).
    pub fn is_fail_slow(&self) -> bool {
        matches!(
            self,
            FaultKind::Delay(_) | FaultKind::Stall | FaultKind::SlowFactor(_)
        )
    }
}

/// One scripted fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAction {
    /// Layer index the fault fires in.
    pub layer: usize,
    /// Logical team rank the fault fires on (see module docs).
    pub rank: usize,
    /// Attempt the fault fires on (1-based); `None` fires on every attempt.
    pub attempt: Option<u32>,
    /// What happens.
    pub kind: FaultKind,
}

/// Shape of a randomized fault campaign (see [`FaultPlan::chaos`]).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Layers of the target program (faults are drawn in `0..layers`).
    pub layers: usize,
    /// Logical ranks of the target roster (drawn in `0..ranks`).
    pub ranks: usize,
    /// Faults per campaign are drawn uniformly in `1..=max_faults`.
    pub max_faults: usize,
    /// Cap on permanent capacity loss ([`Lose`](FaultKind::Lose) +
    /// [`Stall`](FaultKind::Stall)) so every campaign leaves survivors.
    pub max_losses: usize,
    /// Upper bound of drawn [`Delay`](FaultKind::Delay) durations.
    pub max_delay: Duration,
    /// Range of drawn [`SlowFactor`](FaultKind::SlowFactor) factors.
    pub slow_factor: (f64, f64),
    /// Range of drawn [`Flaky`](FaultKind::Flaky) probabilities.
    pub flaky_p: (f64, f64),
    /// Include fail-stop kinds (panic / lose / flaky) in the pool.
    pub fail_stop: bool,
    /// Include fail-slow kinds (delay / slow / stall) in the pool.
    pub fail_slow: bool,
}

impl ChaosConfig {
    /// Defaults for a program of `layers` layers on `ranks` workers:
    /// up to 3 mixed faults, at most `ranks − 1` permanent losses.
    pub fn new(layers: usize, ranks: usize) -> ChaosConfig {
        assert!(layers >= 1 && ranks >= 1, "need a non-empty target");
        ChaosConfig {
            layers,
            ranks,
            max_faults: 3,
            max_losses: ranks.saturating_sub(1).min(2),
            max_delay: Duration::from_millis(30),
            slow_factor: (4.0, 16.0),
            flaky_p: (0.15, 0.35),
            fail_stop: true,
            fail_slow: true,
        }
    }
}

/// A scripted set of faults for one run.  Empty by default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    actions: Vec<FaultAction>,
    /// Seed for the plan's probabilistic decisions
    /// ([`Flaky`](FaultKind::Flaky) draws).
    seed: u64,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Set the seed used by probabilistic faults
    /// ([`Flaky`](FaultKind::Flaky)).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Script a panic of `rank` in `layer` on `attempt` (1-based).
    pub fn panic_at(mut self, layer: usize, rank: usize, attempt: u32) -> Self {
        assert!(attempt >= 1, "attempts are 1-based");
        self.actions.push(FaultAction {
            layer,
            rank,
            attempt: Some(attempt),
            kind: FaultKind::Panic,
        });
        self
    }

    /// Script a delay of `rank` in `layer` on every attempt.
    pub fn delay(mut self, layer: usize, rank: usize, by: Duration) -> Self {
        self.actions.push(FaultAction {
            layer,
            rank,
            attempt: None,
            kind: FaultKind::Delay(by),
        });
        self
    }

    /// Script the permanent loss of `rank` in `layer` on `attempt`
    /// (1-based).
    pub fn lose_at(mut self, layer: usize, rank: usize, attempt: u32) -> Self {
        assert!(attempt >= 1, "attempts are 1-based");
        self.actions.push(FaultAction {
            layer,
            rank,
            attempt: Some(attempt),
            kind: FaultKind::Lose,
        });
        self
    }

    /// Script an indefinite stall of `rank` in `layer` on `attempt`
    /// (1-based).
    pub fn stall_at(mut self, layer: usize, rank: usize, attempt: u32) -> Self {
        assert!(attempt >= 1, "attempts are 1-based");
        self.actions.push(FaultAction {
            layer,
            rank,
            attempt: Some(attempt),
            kind: FaultKind::Stall,
        });
        self
    }

    /// Script `rank` running `layer` `factor`× slower, on every attempt.
    pub fn slow_by(mut self, layer: usize, rank: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "a slowdown factor is at least 1");
        self.actions.push(FaultAction {
            layer,
            rank,
            attempt: None,
            kind: FaultKind::SlowFactor(factor),
        });
        self
    }

    /// Append an explicit action.
    pub fn push(mut self, action: FaultAction) -> Self {
        self.actions.push(action);
        self
    }

    /// Generate a randomized campaign from `seed`: `1..=max_faults` faults
    /// drawn over the configured layer/rank grid and kind pool, with
    /// permanent losses capped by `max_losses`.  The same `(seed, cfg)`
    /// always yields the same plan, and the plan's own
    /// [seed](Self::with_seed) is set to `seed` so
    /// [`Flaky`](FaultKind::Flaky) draws are reproducible too.
    pub fn chaos(seed: u64, cfg: &ChaosConfig) -> FaultPlan {
        assert!(
            cfg.fail_stop || cfg.fail_slow,
            "chaos needs at least one fault class enabled"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut plan = FaultPlan::new().with_seed(seed);
        let n = rng.gen_range(1..=cfg.max_faults.max(1));
        let mut losses = 0usize;
        for _ in 0..n {
            let layer = rng.gen_range(0..cfg.layers);
            let rank = rng.gen_range(0..cfg.ranks);
            // Fail-stop faults fire on a pinned early attempt so retry
            // budgets stay analysable; slow/delay faults fire every attempt.
            let pinned = Some(rng.gen_range(1..=2u32));
            let may_lose = losses < cfg.max_losses;
            // Weighted pool; losing kinds drop out once the loss cap is hit.
            let mut pool: Vec<(u32, u8)> = Vec::new();
            if cfg.fail_stop {
                pool.push((3, 0)); // panic
                pool.push((1, 1)); // flaky
                if may_lose {
                    pool.push((1, 2)); // lose
                }
            }
            if cfg.fail_slow {
                pool.push((2, 3)); // delay
                pool.push((2, 4)); // slow
                if may_lose {
                    pool.push((1, 5)); // stall
                }
            }
            let total: u32 = pool.iter().map(|(w, _)| w).sum();
            let mut pick = rng.gen_range(0..total);
            let tag = pool
                .iter()
                .find(|(w, _)| {
                    if pick < *w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("weights cover the draw")
                .1;
            let (attempt, kind) = match tag {
                0 => (pinned, FaultKind::Panic),
                1 => {
                    let (lo, hi) = cfg.flaky_p;
                    (
                        None,
                        FaultKind::Flaky {
                            p: rng.gen_range(lo..hi),
                        },
                    )
                }
                2 => {
                    losses += 1;
                    (pinned, FaultKind::Lose)
                }
                3 => {
                    let us = rng.gen_range(1..=cfg.max_delay.as_micros().max(1) as u64);
                    (None, FaultKind::Delay(Duration::from_micros(us)))
                }
                4 => {
                    let (lo, hi) = cfg.slow_factor;
                    (None, FaultKind::SlowFactor(rng.gen_range(lo..hi)))
                }
                _ => {
                    losses += 1;
                    (pinned, FaultKind::Stall)
                }
            };
            plan.actions.push(FaultAction {
                layer,
                rank,
                attempt,
                kind,
            });
        }
        plan
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The scripted actions.
    pub fn actions(&self) -> &[FaultAction] {
        &self.actions
    }

    /// The seed for probabilistic faults.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether every action is fail-slow (see [`FaultKind::is_fail_slow`]).
    pub fn is_fail_slow_only(&self) -> bool {
        self.actions.iter().all(|a| a.kind.is_fail_slow())
    }

    /// Permanent capacity the plan can cost (`Lose` + `Stall` actions).
    pub fn max_permanent_losses(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a.kind, FaultKind::Lose | FaultKind::Stall))
            .count()
    }

    /// Deterministic draw for a [`Flaky`](FaultKind::Flaky) fault at
    /// `(layer, rank, attempt)`: true when the fault panics.
    pub fn flaky_fires(&self, p: f64, layer: usize, rank: usize, attempt: u32) -> bool {
        let mut h = self.seed ^ 0xd1b5_4a32_d192_ed03;
        for v in [layer as u64, rank as u64, attempt as u64] {
            h = h
                .rotate_left(17)
                .wrapping_add(v.wrapping_mul(0x2545_f491_4f6c_dd1d))
                ^ (h >> 31);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(h);
        rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Faults that fire for `rank` executing `layer` on `attempt`.
    pub(crate) fn firing(
        &self,
        layer: usize,
        rank: usize,
        attempt: u32,
    ) -> impl Iterator<Item = &FaultKind> {
        self.actions.iter().filter_map(move |a| {
            let attempt_matches = a.attempt.is_none_or(|at| at == attempt);
            (a.layer == layer && a.rank == rank && attempt_matches).then_some(&a.kind)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firing_matches_layer_rank_attempt() {
        let plan = FaultPlan::new()
            .panic_at(1, 0, 1)
            .delay(1, 0, Duration::from_millis(1))
            .lose_at(2, 3, 2);
        let kinds: Vec<_> = plan.firing(1, 0, 1).collect();
        assert_eq!(
            kinds,
            vec![
                &FaultKind::Panic,
                &FaultKind::Delay(Duration::from_millis(1))
            ]
        );
        // Attempt 2: the one-shot panic no longer fires, the delay does.
        let kinds: Vec<_> = plan.firing(1, 0, 2).collect();
        assert_eq!(kinds, vec![&FaultKind::Delay(Duration::from_millis(1))]);
        assert_eq!(plan.firing(2, 3, 2).count(), 1);
        assert_eq!(plan.firing(2, 3, 1).count(), 0);
        assert_eq!(plan.firing(0, 0, 1).count(), 0);
    }

    #[test]
    fn fail_slow_classification() {
        assert!(FaultKind::Stall.is_fail_slow());
        assert!(FaultKind::SlowFactor(4.0).is_fail_slow());
        assert!(FaultKind::Delay(Duration::from_millis(1)).is_fail_slow());
        assert!(!FaultKind::Panic.is_fail_slow());
        assert!(!FaultKind::Lose.is_fail_slow());
        assert!(!FaultKind::Flaky { p: 0.5 }.is_fail_slow());
        let slow = FaultPlan::new().stall_at(0, 1, 1).slow_by(1, 0, 8.0);
        assert!(slow.is_fail_slow_only());
        assert_eq!(slow.max_permanent_losses(), 1);
        assert!(!slow.clone().panic_at(0, 0, 1).is_fail_slow_only());
    }

    #[test]
    fn chaos_is_deterministic_and_respects_caps() {
        let cfg = ChaosConfig::new(6, 4);
        for seed in 0..64u64 {
            let a = FaultPlan::chaos(seed, &cfg);
            let b = FaultPlan::chaos(seed, &cfg);
            assert_eq!(a, b, "same seed must yield the same plan");
            assert!(!a.is_empty());
            assert!(a.actions().len() <= cfg.max_faults);
            assert!(a.max_permanent_losses() <= cfg.max_losses);
            assert_eq!(a.seed(), seed);
            for act in a.actions() {
                assert!(act.layer < cfg.layers && act.rank < cfg.ranks);
                if let FaultKind::SlowFactor(f) = act.kind {
                    assert!(f >= cfg.slow_factor.0 && f < cfg.slow_factor.1);
                }
            }
        }
        // Different seeds explore different campaigns.
        assert_ne!(
            FaultPlan::chaos(1, &cfg).actions(),
            FaultPlan::chaos(2, &cfg).actions()
        );
    }

    #[test]
    fn chaos_fail_slow_only_pool() {
        let cfg = ChaosConfig {
            fail_stop: false,
            ..ChaosConfig::new(4, 4)
        };
        for seed in 0..32u64 {
            assert!(FaultPlan::chaos(seed, &cfg).is_fail_slow_only());
        }
    }

    #[test]
    fn flaky_draws_are_deterministic_and_vary_by_point() {
        let plan = FaultPlan::new().with_seed(42);
        let a = plan.flaky_fires(0.5, 1, 2, 1);
        assert_eq!(a, plan.flaky_fires(0.5, 1, 2, 1));
        // Extremes are certain.
        assert!(plan.flaky_fires(1.0, 0, 0, 1));
        assert!(!plan.flaky_fires(0.0, 0, 0, 1));
        // Across many points, a p=0.5 flake both fires and skips.
        let fired = (0..64).filter(|&l| plan.flaky_fires(0.5, l, 0, 1)).count();
        assert!(fired > 8 && fired < 56, "draws look degenerate: {fired}/64");
        // A different seed flips at least one decision.
        let other = FaultPlan::new().with_seed(43);
        assert!((0..64).any(|l| plan.flaky_fires(0.5, l, 0, 1) != other.flaky_fires(0.5, l, 0, 1)));
    }
}

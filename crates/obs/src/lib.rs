//! Observability for the M-task stack.
//!
//! The paper's argument rests on its cost model `T(M, q, mp)` predicting
//! real execution well enough to drive scheduling decisions (§4–5, Figs
//! 13–19 compare predicted and measured speedups).  This crate makes the
//! repo's three time sources — the scheduler's symbolic estimates, the
//! simulator's mapped timeline, and the executor's wall clock — observable
//! and joinable:
//!
//! * [`TraceRecorder`] — a lock-free event/span recorder.  Each worker
//!   thread appends to its own pre-sized lane; recording an event is an
//!   atomic index claim plus a slot write, never a lock.  Disabled
//!   recording costs one branch on an `Option` at every instrumentation
//!   point (see [`Recorder`] for the no-op contract).
//! * [`MetricsRegistry`] — named monotonic [`Counter`]s and log₂-bucketed
//!   [`Histogram`]s (tasks run, retries, collective aborts, redistribution
//!   bytes, barrier wait time, scheduler cost evaluations).
//! * [`ChromeTrace`] — a `chrome://tracing` / Perfetto JSON sink laying
//!   recorded and simulated spans out on a process×thread (node×core)
//!   grid, so a simulated and a real run of the same program are visually
//!   diffable.
//! * [`Reconciliation`] — per-task and per-layer prediction-error tables
//!   joining predicted, simulated and measured task times (the repo-native
//!   version of the paper's predicted-vs-measured comparison).
//!
//! The crate is a leaf: it depends only on `pt-mtask` (task identity) and
//! the vendored serde stack, so every runtime crate (`pt-core`, `pt-sim`,
//! `pt-exec`) can depend on it without cycles.

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod reconcile;
pub mod recorder;

pub use chrome::{ChromeTrace, TraceProbe};
pub use event::{Arg, ArgValue, Phase, TraceEvent};
pub use metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
pub use reconcile::{LayerRow, Reconciliation, TaskRow, TaskSample};
pub use recorder::{NullRecorder, Recorder, TraceRecorder};

/// Well-known metric names, shared by the instrumented crates so sinks and
/// tests agree on spelling.
pub mod keys {
    /// Task bodies completed by the executor (per-rank).
    pub const TASKS_RUN: &str = "exec.tasks_run";
    /// Layer retry attempts scheduled after a failure.
    pub const RETRIES: &str = "exec.retries";
    /// Collectives that unwound with an abort sentinel.
    pub const COLLECTIVE_ABORTS: &str = "exec.collective_aborts";
    /// Faults fired by an injection plan.
    pub const FAULTS_INJECTED: &str = "exec.faults_injected";
    /// Workers permanently lost during runs.
    pub const WORKERS_LOST: &str = "exec.workers_lost";
    /// Bytes written into the shared store (re-distribution traffic).
    pub const REDIST_BYTES: &str = "exec.redist_bytes";
    /// Store snapshots taken at layer entry.
    pub const SNAPSHOTS: &str = "exec.snapshots";
    /// Store rollbacks before a layer re-run.
    pub const ROLLBACKS: &str = "exec.rollbacks";
    /// Seconds spent waiting at layer barriers (histogram).
    pub const BARRIER_WAIT: &str = "exec.barrier_wait_s";
    /// Wall seconds per executed task body (histogram).
    pub const TASK_SECONDS: &str = "exec.task_s";
    /// Microseconds slept by injected `FaultKind::Delay` faults.
    pub const FAULT_DELAY_US: &str = "exec.fault_delay_us";
    /// Layer deadlines missed (the monitor saw a layer exceed its budget).
    pub const DEADLINE_MISSES: &str = "exec.deadline_misses";
    /// Speculative hedge executions spawned for straggling groups.
    pub const HEDGES_SPAWNED: &str = "exec.hedges";
    /// Hedges that finished before their primary and were committed.
    pub const HEDGES_WON: &str = "exec.hedges_won";
    /// Hedges beaten by their primary (or cancelled) and discarded.
    pub const HEDGES_LOST: &str = "exec.hedges_lost";
    /// Ranks demoted to lost by the watchdog (stale heartbeat / stall).
    pub const DEMOTIONS: &str = "exec.demotions";
    /// Global watchdog firings (run exceeded its hard wall-clock bound).
    pub const WATCHDOG_FIRES: &str = "exec.watchdog_fires";
    /// Seconds since the last heartbeat of the laggiest active rank,
    /// observed at each monitor tick (histogram).
    pub const HEARTBEAT_AGE: &str = "exec.heartbeat_age_s";
    /// Task prices the layer scheduler computed: the homogeneous path's
    /// compiled prices or the heterogeneity-aware path's per-candidate
    /// prices.
    pub const COST_EVALUATIONS: &str = "sched.cost_evaluations";
    /// Layers scheduled.
    pub const SCHED_LAYERS: &str = "sched.layers";
    /// Wall seconds per scheduled layer (histogram).
    pub const SCHED_LAYER_SECONDS: &str = "sched.layer_s";
}

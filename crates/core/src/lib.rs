//! Combined scheduling and mapping for M-task programs — the paper's core
//! contribution (§3).
//!
//! Executing an M-task program on a hierarchical multi-core machine takes
//! three decisions:
//!
//! 1. **Scheduling** — the execution order of the M-tasks and the *number*
//!    of (symbolic) cores per task.  The paper's layer-based algorithm
//!    ([`LayerScheduler`], its Algorithm 1) contracts linear chains,
//!    partitions the graph into layers of independent tasks, sweeps the
//!    group count `g = 1..P` per layer with a greedy LPT assignment, and
//!    finally adjusts group sizes to the assigned work.  The sweep is an
//!    exact best-first search that runs LPT only for candidates whose
//!    lower bound does not exceed the best makespan found, so the schedule
//!    is the one the full sweep picks.  The baselines [`Cpa`] and [`Cpr`]
//!    (Radulescu & van Gemund) are provided for the comparison of the
//!    paper's Fig. 13, as is the trivial [`DataParallel`] reference
//!    schedule.
//! 2. **Mapping** — the assignment of symbolic to physical cores
//!    ([`MappingStrategy`]: consecutive, scattered, mixed(d); §3.4).
//! 3. **Hybrid layout** — optionally folding consecutive same-node cores of
//!    one task into a single process with threads ([`hybrid`], §4.7).

pub mod adjust;
pub mod amtha;
pub mod cpa;
pub mod cpr;
pub mod hybrid;
pub mod layer_sched;
pub mod list;
pub mod mapping;
pub mod schedule;

/// The scheduler's trace process row under its former path: the request
/// benchmark (`perfbench/`) imports `pt_core::two_level::SCHED_PID`, and
/// its sources change only together with the benchmark.
pub mod two_level {
    pub use crate::layer_sched::SCHED_PID;
}

pub use adjust::adjust_group_sizes;
pub use amtha::Amtha;
pub use cpa::Cpa;
pub use cpr::Cpr;
pub use hybrid::{hybrid_task_time, HybridConfig, Process, ProcessLayout};
pub use layer_sched::{DataParallel, LayerScheduler, SCHED_PID};
pub use mapping::{Mapping, MappingStrategy};
pub use schedule::{LayerSchedule, LayeredSchedule, ScheduledTask, SymbolicSchedule};

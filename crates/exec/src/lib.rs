//! Shared-memory SPMD runtime for M-task programs.
//!
//! The paper's M-tasks are SPMD codes over MPI process groups.  This crate
//! provides the equivalent runtime on a single shared-memory node (the
//! multi-node behaviour is covered by the simulator, `pt-sim`): a
//! [`Team`] of worker threads executes a [`Program`] — layers of groups,
//! each group running its assigned tasks SPMD —, with group-scoped
//! collectives ([`GroupComm`]: barrier, broadcast, allgather(v),
//! allreduce) implemented over lock-free shared slot buffers, and a
//! [`DataStore`] of named arrays for data exchanged between groups at layer
//! boundaries (the re-distribution operations).
//!
//! The runtime is fault-tolerant: collectives are abortable (a failed peer
//! poisons the communicator instead of wedging the group), runs return
//! typed [`ExecError`]s, and [`Team::run_with`] supports layer-granular
//! retry with [`DataStore`] rollback plus shrink-and-continue after
//! permanent worker loss.  See the [`team`] module docs for the contract
//! and [`FaultPlan`] for deterministic fault injection in tests.
//!
//! ```
//! use pt_exec::{Program, GroupPlan, Team, DataStore, TaskCtx};
//! use std::sync::Arc;
//!
//! let team = Team::new(4);
//! let store = DataStore::new();
//! store.put("out", vec![0.0; 4]);
//! // One layer, one group of 4 workers: each rank writes its slot.
//! let task: Arc<pt_exec::TaskFn> = Arc::new(|ctx: &TaskCtx| {
//!     let mine = [ctx.rank as f64 * 10.0];
//!     let mut all = vec![0.0; ctx.size];
//!     ctx.comm.allgather(ctx.rank, &mine, &mut all);
//!     if ctx.rank == 0 {
//!         ctx.store.put("out", all);
//!     }
//! });
//! let program = Program::single_layer(vec![GroupPlan::new(0..4, vec![task])]);
//! team.run(&program, &store).unwrap();
//! assert_eq!(store.get("out").unwrap(), vec![0.0, 10.0, 20.0, 30.0]);
//! ```

pub mod barrier;
pub mod comm;
pub mod deadline;
pub mod error;
pub mod fault;
pub mod heartbeat;
pub mod program;
pub mod store;
pub mod team;

pub use barrier::EpochBarrier;
pub use comm::GroupComm;
pub use deadline::{DeadlinePolicy, MAX_HEDGES};
pub use error::{CollectiveAborted, ExecError};
pub use fault::{ChaosConfig, FaultAction, FaultKind, FaultPlan};
pub use heartbeat::{HeartbeatBoard, LaneState};
pub use program::{block_range, GroupPlan, Program, TaskCtx, TaskFn};
pub use store::{DataStore, Snapshot};
pub use team::{replan, RetryPolicy, RunOptions, Team, EXEC_PID};

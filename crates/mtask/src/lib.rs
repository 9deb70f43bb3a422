//! The M-task (multiprocessor-task) programming model.
//!
//! An *M-task* is a piece of parallel program code that can run SPMD on an
//! arbitrary number of cores (paper §2.1).  An M-task program is a set of
//! M-tasks plus a coordination structure: a directed acyclic graph whose
//! edges are the input–output relations between tasks.  Independent tasks
//! (no path between them) may execute concurrently on disjoint groups of
//! cores; dependent tasks execute one after another, with data
//! re-distribution operations inserted when producer and consumer run on
//! different core groups or with different data distributions.
//!
//! This crate provides the model layer, independent of any particular
//! machine:
//!
//! * [`MTask`], [`TaskGraph`] — the task nodes and the coordination DAG,
//! * [`spec`] — a coordination DSL built from the operators of the
//!   CM-task specification language of the paper's Fig. 3 (`seq`, `par`,
//!   `for`, `parfor`), compiled into flat task graphs with automatically
//!   derived input–output edges (time-stepping loops are unrolled),
//! * [`chain`] — maximal linear-chain contraction (scheduling step 1),
//! * [`layer`] — greedy partition into layers of independent tasks
//!   (scheduling step 2),
//! * [`dist`] — data distributions (replicated / block / cyclic /
//!   block-cyclic) and re-distribution volume computation.

pub mod chain;
pub mod dist;
pub mod graph;
pub mod layer;
pub mod spec;
pub mod task;

pub use chain::{ChainGraph, Chains};
pub use dist::Distribution;
pub use graph::{EdgeData, RedistPattern, TaskGraph, TaskId};
pub use layer::layers;
pub use spec::{DataRef, Spec, SpecTask};
pub use task::{task_clone_count, CollectiveKind, CommOp, MTask};

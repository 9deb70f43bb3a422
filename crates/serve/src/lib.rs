//! # pt-serve — scheduler-as-a-service
//!
//! [`pipeline::plan`] is the one path from a [`ScheduleRequest`] to a
//! schedule and its simulated makespan; the `ptsched` one-shot runs it
//! from a cold [`TableStore`](pt_cost::TableStore).  This crate turns it
//! into a long-running, multi-threaded *service* that amortizes that work
//! across requests:
//!
//! * **Content-addressed schedule cache** ([`cache::ScheduleCache`]) —
//!   requests are keyed by a structural [`Signature`](key::Signature) over
//!   (task graph, machine, symbolic cores, mapping, g-policy).  Hash hits
//!   are always verified by full structural equality, so a collision can
//!   never return the wrong schedule.
//! * **Single-flight batching** ([`cache::Flight`]) — N concurrent requests
//!   for the same key run exactly one g-sweep; followers share the leader's
//!   result.  A failing leader fails its followers but never poisons the
//!   key.
//! * **Sharded warm cost tables** ([`service::SchedService`]) — requests
//!   route to a fixed worker by their *table signature* (graph × machine ×
//!   contraction), so a hot graph's memoized cost columns stay warm on one
//!   worker across requests, g-policies and core counts `P`.
//!
//! ```no_run
//! use pt_serve::{SchedService, ServeConfig, ScheduleRequest};
//! use pt_core::MappingStrategy;
//! use pt_machine::platforms;
//! use std::sync::Arc;
//!
//! let svc = SchedService::new(ServeConfig::default());
//! let graph = Arc::new(pt_mtask::TaskGraph::new());
//! let machine = Arc::new(platforms::chic());
//! # let graph = {
//! #     let mut g = pt_mtask::TaskGraph::new();
//! #     g.add_task(pt_mtask::MTask::compute("t", 1e9));
//! #     Arc::new(g)
//! # };
//! let req = ScheduleRequest::new(graph, machine, MappingStrategy::Consecutive);
//! let (reply, status) = svc.schedule(req).unwrap();
//! println!("makespan {:.3}s ({status:?})", reply.makespan);
//! ```

pub mod cache;
pub mod key;
pub mod pipeline;
pub mod service;

pub use key::{GPolicy, ScheduleRequest, Signature};
pub use pipeline::{plan, table_store, write_trace, Plan};
pub use service::{
    CacheStatus, SchedService, ScheduleReply, ServeConfig, ServeError, StatsSnapshot,
};

//! # pt-serve — scheduler-as-a-service
//!
//! [`pipeline::plan`] is the one path from a [`ScheduleRequest`] to a
//! schedule and its simulated makespan; the `ptsched` one-shot runs it
//! once.  This crate turns it into a long-running *service*, shared by
//! concurrent request threads, that amortizes that work across requests:
//!
//! * **Content-addressed schedule cache** ([`cache::ScheduleCache`]) —
//!   requests are keyed by a structural [`Signature`] over (task graph,
//!   machine, symbolic cores, mapping, g-policy).  Hash hits
//!   are always verified by full structural equality, so a collision can
//!   never return the wrong schedule.
//! * **Single-flight batching** ([`cache::Flight`]) — N concurrent requests
//!   for the same key run exactly one g-sweep; followers share the leader's
//!   result.  A failing leader fails its followers but never poisons the
//!   key.
//! * **Plans on the caller's thread** ([`service::SchedService`]) — a
//!   request that misses the cache is planned cold by its leader, under one
//!   of a fixed number of slots, which bounds the plans running at once.
//!   No cost table outlives a request: the scheduler prices from compiled
//!   per-task costs, which a warm memo would not beat.
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
pub use pipeline::{plan, write_trace, Plan};
pub use service::{
    CacheStatus, SchedService, ScheduleReply, ServeConfig, ServeError, StatsSnapshot,
};

//! The long-running scheduling service.
//!
//! [`SchedService`] answers concurrent [`ScheduleRequest`]s over the
//! content-addressed [`ScheduleCache`]:
//!
//! * a **hit** returns the cached reply without touching a cost model;
//! * a **follow** waits on the in-flight leader's result (single-flight
//!   batching — N concurrent requests for one key run one g-sweep);
//! * a **lead** plans the request on the calling thread and publishes the
//!   result to its followers.
//!
//! The service starts no threads.  A leader runs [`plan`] cold while it
//! holds the one of [`ServeConfig::workers`] slots that its signature
//! picks, so at most `workers` plans run at once, however many threads
//! ask.  Slot counts are explicit configuration: a long-running service
//! must not bake `available_parallelism` into a process-global (cgroup
//! limits move under it); [`ServeConfig::default`] samples the machine
//! once per service instead.

use crate::cache::{Outcome, ScheduleCache};
use crate::key::{ScheduleRequest, Signature};
use crate::pipeline::plan;
use pt_core::LayeredSchedule;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Service failure modes.  `Clone`, because one leader's error is shared
/// with every follower of its flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request failed validation (the message is user-facing).
    InvalidRequest(String),
    /// Deterministically injected failure (tests and chaos campaigns).
    Injected,
    /// The computation panicked.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServeError::Injected => write!(f, "injected failure"),
            ServeError::Internal(m) => write!(f, "scheduling failed: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How a reply was obtained — per-request, not part of the cached value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache.
    Hit,
    /// Computed by this request's leader flight.
    Miss,
    /// Shared another concurrent request's computation.
    Followed,
}

/// A computed (and cached) answer to a [`ScheduleRequest`].
#[derive(Debug)]
pub struct ScheduleReply {
    /// The layered schedule over `0..total_cores` symbolic cores.
    pub schedule: LayeredSchedule,
    /// Simulated makespan under the request's mapping strategy (seconds).
    pub makespan: f64,
    /// The request's content signature.
    pub signature: Signature,
    /// Task prices the scheduler computed for this reply (hits return the
    /// leader's count).
    pub cost_evaluations: usize,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Plans that may run at once, and the cache's shard count.  A leader
    /// plans on its own thread while it holds slot `signature % workers`,
    /// so two misses whose signatures pick one slot wait for each other.
    pub workers: usize,
    /// Ignored: the g-sweep runs on the thread that plans.  The field stays
    /// only until the benchmark harness, which builds this struct as a
    /// literal, stops setting it.
    pub sweep_workers: usize,
    /// Bound on cached ready schedules (LRU-evicted beyond this).
    pub cache_capacity: usize,
    /// Ignored: no cost table outlives a request.  The field stays for the
    /// benchmark harness, as the sweep's thread count does.
    pub tables_per_worker: usize,
    /// Deterministic failure injection: the first `n` computations fail
    /// with [`ServeError::Injected`] (tests of the single-flight error
    /// path; 0 in production).
    pub inject_compute_failures: usize,
}

impl Default for ServeConfig {
    /// Defaults sized to the machine *at construction time* — sampled
    /// fresh, never from a process-global cache.
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ServeConfig {
            workers: cores.clamp(1, 8),
            sweep_workers: 1,
            cache_capacity: 1024,
            tables_per_worker: 32,
            inject_compute_failures: 0,
        }
    }
}

/// Aggregate service counters.
#[derive(Debug, Default)]
pub struct ServeStats {
    hits: AtomicU64,
    misses: AtomicU64,
    followed: AtomicU64,
    computed: AtomicU64,
    failed: AtomicU64,
    evaluations: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StatsSnapshot {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that led a computation.
    pub misses: u64,
    /// Requests that shared a concurrent leader's computation.
    pub followed: u64,
    /// Computations that returned a reply.
    pub computed: u64,
    /// Computations that returned an error.
    pub failed: u64,
    /// Task prices the scheduler computed across all computations.
    pub evaluations: u64,
    /// Ready schedules evicted from the cache.
    pub evictions: u64,
}

impl StatsSnapshot {
    /// Fraction of answered requests that never computed: `(hits +
    /// followed) / (hits + followed + misses)`.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.followed + self.misses;
        if served == 0 {
            return 0.0;
        }
        (self.hits + self.followed) as f64 / served as f64
    }
}

/// The scheduling service.  Share it across request threads by reference
/// or with an `Arc`.
pub struct SchedService {
    cache: ScheduleCache,
    stats: ServeStats,
    config: ServeConfig,
    inject_remaining: AtomicUsize,
    /// One lock per plan slot; a leader holds its slot while it plans.
    slots: Vec<Mutex<()>>,
}

impl SchedService {
    /// A service with an empty cache and `config.workers` plan slots.
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.workers >= 1, "service needs at least one worker");
        SchedService {
            cache: ScheduleCache::new(config.cache_capacity, config.workers),
            stats: ServeStats::default(),
            inject_remaining: AtomicUsize::new(config.inject_compute_failures),
            slots: (0..config.workers).map(|_| Mutex::new(())).collect(),
            config,
        }
    }

    /// Answer one request, sharing or reusing previous work where the
    /// content-addressed key allows.
    pub fn schedule(
        &self,
        request: ScheduleRequest,
    ) -> Result<(Arc<ScheduleReply>, CacheStatus), ServeError> {
        request.validate().map_err(ServeError::InvalidRequest)?;
        let sig = request.signature();
        match self.cache.lookup_or_lead(&request, sig) {
            Outcome::Hit(reply) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Ok((reply, CacheStatus::Hit))
            }
            Outcome::Follow(flight) => {
                self.stats.followed.fetch_add(1, Ordering::Relaxed);
                flight.wait().map(|r| (r, CacheStatus::Followed))
            }
            Outcome::Lead(flight) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                let result = self.lead(&request, sig);
                self.cache.publish(sig, &flight, result.clone());
                result.map(|r| (r, CacheStatus::Miss))
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.stats;
        StatsSnapshot {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            followed: s.followed.load(Ordering::Relaxed),
            computed: s.computed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            evaluations: s.evaluations.load(Ordering::Relaxed),
            evictions: self.cache.evictions(),
        }
    }

    /// Ready schedules currently cached.
    pub fn cached_schedules(&self) -> usize {
        self.cache.len()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Plan a leader's request on the calling thread under its slot, and
    /// count the outcome.  A panic becomes [`ServeError::Internal`].
    fn lead(
        &self,
        request: &ScheduleRequest,
        sig: Signature,
    ) -> Result<Arc<ScheduleReply>, ServeError> {
        let slot = (sig.0 % self.slots.len() as u128) as usize;
        // A slot guards no data, so a poisoned one is as good as any.
        let _slot = self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let injected = self
            .inject_remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        let result = if injected {
            Err(ServeError::Injected)
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan(request, None))).map_err(
                |panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(ToString::to_string)
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "planning panicked".into());
                    ServeError::Internal(msg)
                },
            )
        };
        match &result {
            Ok(planned) => {
                self.stats.computed.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .evaluations
                    .fetch_add(planned.cost_evaluations as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        result.map(|planned| {
            Arc::new(ScheduleReply {
                schedule: planned.schedule,
                makespan: planned.report.makespan,
                signature: sig,
                cost_evaluations: planned.cost_evaluations,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::MappingStrategy;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, EdgeData, MTask, TaskGraph};
    use std::sync::Arc;

    fn fan_graph(width: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let src = g.add_task(MTask::compute("src", 1e8));
        let sink = g.add_task(MTask::compute("sink", 1e8));
        for i in 0..width {
            let t = g.add_task(MTask::with_comm(
                format!("t{i}"),
                (1 + i) as f64 * 1e9,
                vec![CommOp::allgather(8e3, 1.0)],
            ));
            g.add_edge(src, t, EdgeData::replicated(8e3));
            g.add_edge(t, sink, EdgeData::replicated(8e3));
        }
        g
    }

    fn request(width: usize) -> ScheduleRequest {
        ScheduleRequest::new(
            Arc::new(fan_graph(width)),
            Arc::new(platforms::chic().with_nodes(4)),
            MappingStrategy::Consecutive,
        )
    }

    fn small_service(inject: usize) -> SchedService {
        SchedService::new(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            inject_compute_failures: inject,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn second_request_hits_and_is_identical() {
        let svc = small_service(0);
        let (a, s1) = svc.schedule(request(6)).expect("first request");
        let (b, s2) = svc.schedule(request(6)).expect("second request");
        assert_eq!(s1, CacheStatus::Miss);
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        let stats = svc.stats();
        assert_eq!((stats.hits, stats.misses, stats.computed), (1, 1, 1));
    }

    #[test]
    fn single_flight_batches_concurrent_identical_requests() {
        let svc = Arc::new(small_service(0));
        // Cold reference: how many evaluations one computation costs.
        let cold = {
            let reference = small_service(0);
            let (r, _) = reference.schedule(request(8)).expect("cold run");
            r.cost_evaluations
        };
        assert!(cold > 0);
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let replies: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let svc = svc.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        svc.schedule(request(8)).expect("batched request")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All replies bit-identical.
        let (first, _) = &replies[0];
        for (r, _) in &replies {
            assert_eq!(first.schedule, r.schedule);
            assert_eq!(first.makespan.to_bits(), r.makespan.to_bits());
        }
        let stats = svc.stats();
        // Exactly one g-sweep ran for the whole stampede: one computation,
        // and its evaluation count equals the cold run's.
        assert_eq!(stats.computed, 1, "single-flight must compute once");
        assert_eq!(stats.evaluations, cold as u64);
        assert_eq!(stats.hits + stats.followed + stats.misses, n as u64);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn more_threads_than_slots_plan_distinct_keys_exactly() {
        // Four threads share one slot, each leading three keys no other
        // thread asks for; the second round finds them all cached.
        let svc = SchedService::new(ServeConfig {
            workers: 1,
            cache_capacity: 64,
            ..ServeConfig::default()
        });
        let (threads, keys) = (4, 3);
        let barrier = std::sync::Barrier::new(threads);
        let replies: Vec<Vec<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (svc, barrier) = (&svc, &barrier);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for _round in 0..2 {
                            barrier.wait();
                            for width in (1 + t * keys..).take(keys) {
                                let (reply, status) =
                                    svc.schedule(request(width)).expect("request");
                                got.push((width, reply, status));
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in &replies {
            let (first, second) = got.split_at(keys);
            for ((width, reply, status), (_, again, hit)) in first.iter().zip(second) {
                assert_eq!(*status, CacheStatus::Miss, "width {width}");
                assert_eq!(*hit, CacheStatus::Hit, "width {width}");
                assert!(Arc::ptr_eq(reply, again), "width {width}");
                let fresh = plan(&request(*width), None);
                assert_eq!(reply.schedule, fresh.schedule, "width {width}");
                assert_eq!(
                    reply.makespan.to_bits(),
                    fresh.report.makespan.to_bits(),
                    "width {width}"
                );
                assert_eq!(reply.cost_evaluations, fresh.cost_evaluations);
            }
        }
        let stats = svc.stats();
        let distinct = (threads * keys) as u64;
        assert_eq!(
            (stats.computed, stats.misses, stats.hits, stats.followed),
            (distinct, distinct, distinct, 0)
        );
    }

    #[test]
    fn leader_error_reaches_followers_but_does_not_poison_the_key() {
        let svc = Arc::new(small_service(1));
        let n = 4;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    let svc = svc.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        svc.schedule(request(5))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The injected failure fails the leader and everyone sharing its
        // flight; stragglers that arrived after the error was published may
        // have led a fresh (successful) computation.
        let failures = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Injected)))
            .count();
        assert!(failures >= 1, "at least the leader observes the injection");
        // The key is not poisoned: the next request succeeds.
        let (reply, _) = svc.schedule(request(5)).expect("post-error request");
        assert!(reply.schedule.validate().is_ok());
        assert_eq!(svc.stats().failed, 1);
    }

    #[test]
    fn invalid_requests_fail_fast_without_planning() {
        let svc = small_service(0);
        let mut bad = request(3);
        bad.total_cores = bad.machine.total_cores() + 16;
        match svc.schedule(bad) {
            Err(ServeError::InvalidRequest(msg)) => {
                assert!(msg.contains("symbolic cores"), "{msg}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        assert_eq!(svc.stats().computed, 0);
    }

    #[test]
    fn cache_eviction_keeps_the_bound() {
        let svc = SchedService::new(ServeConfig {
            workers: 1,
            cache_capacity: 4,
            ..ServeConfig::default()
        });
        for width in 1..=12 {
            svc.schedule(request(width)).expect("request");
        }
        assert!(
            svc.cached_schedules() <= 4,
            "cache grew past its capacity: {}",
            svc.cached_schedules()
        );
        assert!(svc.stats().evictions > 0);
    }
}

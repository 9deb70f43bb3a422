//! The long-running scheduling service.
//!
//! [`SchedService`] answers concurrent [`ScheduleRequest`]s over the
//! content-addressed [`ScheduleCache`]:
//!
//! * a **hit** returns the cached reply without touching a cost model;
//! * a **follow** waits on the in-flight leader's result (single-flight
//!   batching — N concurrent requests for one key run one g-sweep);
//! * a **lead** dispatches the computation to the fixed worker pool and
//!   waits like a follower.
//!
//! Computations are routed to workers by the request's *table signature*
//! (graph × machine × contraction), so repeated work on a hot graph — at
//! any core count `P` — always lands on the worker whose warm
//! [`TableStore`] already memoizes its cost columns, and runs [`plan`]
//! there.  Worker counts are explicit configuration: a long-running
//! service must not bake `available_parallelism` into a process-global
//! (cgroup limits move under it); [`ServeConfig::default`] samples the
//! machine once per service instead.

use crate::cache::{Flight, Outcome, ScheduleCache};
use crate::key::{ScheduleRequest, Signature};
use crate::pipeline::{plan, table_store};
use pt_core::LayeredSchedule;
use pt_cost::TableStore;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Service failure modes.  `Clone`, because one leader's error is shared
/// with every follower of its flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request failed validation (the message is user-facing).
    InvalidRequest(String),
    /// Deterministically injected failure (tests and chaos campaigns).
    Injected,
    /// The computation panicked in the worker.
    Internal(String),
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServeError::Injected => write!(f, "injected failure"),
            ServeError::Internal(m) => write!(f, "scheduling failed: {m}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
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
    /// Cost-function evaluations this computation added to its warm table
    /// (0 for a fully warm table; hits return the leader's count).
    pub cost_evaluations: usize,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads computing schedules; also the number of warm-table
    /// shards.
    pub workers: usize,
    /// Explicit per-schedule g-sweep thread count, always passed to the
    /// scheduler ([`pt_core::LayerScheduler::sweep_workers`]).  Defaults
    /// to 1, as the scheduler does: the service gets its parallelism from
    /// concurrent requests.
    pub sweep_workers: usize,
    /// Bound on cached ready schedules (LRU-evicted beyond this).
    pub cache_capacity: usize,
    /// Warm cost-table stores kept per worker (LRU-evicted beyond this).
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
    /// Computations actually performed by the worker pool.
    pub computed: u64,
    /// Computations that returned an error.
    pub failed: u64,
    /// Cost-function evaluations across all computations.
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

/// State shared between the front-end and the worker threads.
struct Shared {
    cache: ScheduleCache,
    stats: ServeStats,
    config: ServeConfig,
    inject_remaining: AtomicUsize,
}

/// A unit of work for the pool: compute `request`, publish into `flight`.
struct Job {
    request: ScheduleRequest,
    sig: Signature,
    flight: Arc<Flight>,
}

/// One warm cost-table store with the preimage of its key.
struct WarmTable {
    sig: Signature,
    request: ScheduleRequest,
    store: Arc<TableStore>,
    last_used: u64,
}

/// The multi-threaded scheduling service.  Share it across request threads
/// with an `Arc`; dropping the last handle drains and joins the pool.
pub struct SchedService {
    shared: Arc<Shared>,
    /// One queue per worker; `Sender` is `!Sync`, so each sits behind a
    /// `Mutex` (the critical section is one enqueue).
    senders: Vec<Mutex<mpsc::Sender<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SchedService {
    /// Start the worker pool.
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.workers >= 1, "service needs at least one worker");
        assert!(config.sweep_workers >= 1, "need at least one sweep worker");
        let shared = Arc::new(Shared {
            cache: ScheduleCache::new(config.cache_capacity, config.workers),
            stats: ServeStats::default(),
            inject_remaining: AtomicUsize::new(config.inject_compute_failures),
            config,
        });
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        for w in 0..shared.config.workers {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(Mutex::new(tx));
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pt-serve-{w}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawn service worker"),
            );
        }
        SchedService {
            shared,
            senders,
            workers,
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
        let stats = &self.shared.stats;
        match self.shared.cache.lookup_or_lead(&request, sig) {
            Outcome::Hit(reply) => {
                stats.hits.fetch_add(1, Ordering::Relaxed);
                Ok((reply, CacheStatus::Hit))
            }
            Outcome::Follow(flight) => {
                stats.followed.fetch_add(1, Ordering::Relaxed);
                flight.wait().map(|r| (r, CacheStatus::Followed))
            }
            Outcome::Lead(flight) => {
                stats.misses.fetch_add(1, Ordering::Relaxed);
                let worker = (request.table_signature().0 % self.senders.len() as u128) as usize;
                let job = Job {
                    request,
                    sig,
                    flight: flight.clone(),
                };
                let sent = self.senders[worker]
                    .lock()
                    .expect("sender lock")
                    .send(job)
                    .is_ok();
                if !sent {
                    // Pool gone (shutdown): unblock this flight's followers.
                    self.shared
                        .cache
                        .publish(sig, &flight, Err(ServeError::ShuttingDown));
                }
                flight.wait().map(|r| (r, CacheStatus::Miss))
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            followed: s.followed.load(Ordering::Relaxed),
            computed: s.computed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            evaluations: s.evaluations.load(Ordering::Relaxed),
            evictions: self.shared.cache.evictions(),
        }
    }

    /// Ready schedules currently cached.
    pub fn cached_schedules(&self) -> usize {
        self.shared.cache.len()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }
}

impl Drop for SchedService {
    fn drop(&mut self) {
        self.senders.clear(); // closes the channels; workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, rx: &mpsc::Receiver<Job>) {
    let mut tables: Vec<WarmTable> = Vec::new();
    let mut clock: u64 = 0;
    while let Ok(job) = rx.recv() {
        clock += 1;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compute(shared, &mut tables, clock, &job.request, job.sig)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".into());
            Err(ServeError::Internal(msg))
        });
        match &result {
            Ok(reply) => {
                shared.stats.computed.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .evaluations
                    .fetch_add(reply.cost_evaluations as u64, Ordering::Relaxed);
            }
            Err(_) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared
            .cache
            .publish(job.sig, &job.flight, result.map(Arc::new));
    }
}

/// The cold path: plan one request on this worker's warm tables.
fn compute(
    shared: &Shared,
    tables: &mut Vec<WarmTable>,
    clock: u64,
    request: &ScheduleRequest,
    sig: Signature,
) -> Result<ScheduleReply, ServeError> {
    if shared.inject_remaining.load(Ordering::Relaxed) > 0
        && shared.inject_remaining.fetch_sub(1, Ordering::Relaxed) > 0
    {
        return Err(ServeError::Injected);
    }
    let store = warm_store(shared, tables, clock, request);
    let planned = plan(request, &store, Some(shared.config.sweep_workers), None);
    Ok(ScheduleReply {
        schedule: planned.schedule,
        makespan: planned.report.makespan,
        signature: sig,
        cost_evaluations: planned.cost_evaluations,
    })
}

/// Find or create the warm [`TableStore`] for a request's table key.  Hash
/// hits are verified structurally (`same_table_inputs`), mirroring the
/// schedule cache's collision rule; capacity is enforced LRU.
fn warm_store(
    shared: &Shared,
    tables: &mut Vec<WarmTable>,
    clock: u64,
    request: &ScheduleRequest,
) -> Arc<TableStore> {
    let sig = request.table_signature();
    if let Some(t) = tables
        .iter_mut()
        .find(|t| t.sig == sig && t.request.same_table_inputs(request))
    {
        t.last_used = clock;
        return t.store.clone();
    }
    let store = table_store(request);
    if tables.len() >= shared.config.tables_per_worker.max(1) {
        if let Some(lru) = (0..tables.len()).min_by_key(|&i| tables[i].last_used) {
            tables.swap_remove(lru);
        }
    }
    tables.push(WarmTable {
        sig,
        request: request.clone(),
        store: store.clone(),
        last_used: clock,
    });
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::GPolicy;
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
            sweep_workers: 1,
            cache_capacity: 64,
            tables_per_worker: 8,
            inject_compute_failures: inject,
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
    fn different_policy_misses_but_shares_the_warm_table() {
        let svc = small_service(0);
        let sweep = request(6);
        let (_, s1) = svc.schedule(sweep.clone()).expect("sweep request");
        assert_eq!(s1, CacheStatus::Miss);
        let cold_evals = svc.stats().evaluations;
        assert!(cold_evals > 0);
        // Same graph/machine/P, different g-policy: schedule cache misses,
        // but the warm table already holds every (task, width) the sweep
        // priced, so the fixed-g run adds no evaluations at all.
        let fixed = ScheduleRequest {
            policy: GPolicy {
                fixed_groups: Some(2),
                ..GPolicy::default()
            },
            ..sweep
        };
        let (reply, s2) = svc.schedule(fixed).expect("fixed-g request");
        assert_eq!(s2, CacheStatus::Miss);
        assert_eq!(
            reply.cost_evaluations, 0,
            "fixed-g run should be fully served by the warm table"
        );
        assert_eq!(svc.stats().evaluations, cold_evals);
    }

    #[test]
    fn narrower_request_on_the_same_machine_reuses_the_warm_table() {
        let narrow = || ScheduleRequest {
            total_cores: 8,
            ..request(6)
        };
        let (cold, _) = small_service(0).schedule(narrow()).expect("cold P = 8");
        let svc = small_service(0);
        svc.schedule(request(6)).expect("P = 16 request");
        let (warm, status) = svc.schedule(narrow()).expect("P = 8 request");
        assert_eq!(status, CacheStatus::Miss);
        // Table values depend on (machine, task, q) alone, so the P = 16
        // sweep already priced the widths the P = 8 sweep shares with it.
        assert!(
            warm.cost_evaluations < cold.cost_evaluations,
            "P = 8 after P = 16 spent {} evaluations, a cold P = 8 run {}",
            warm.cost_evaluations,
            cold.cost_evaluations
        );
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
    fn invalid_requests_fail_fast_without_touching_workers() {
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
            sweep_workers: 1,
            cache_capacity: 4,
            tables_per_worker: 2,
            inject_compute_failures: 0,
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

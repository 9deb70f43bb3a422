//! The worker-thread team executing M-task programs, with fault tolerance.
//!
//! # Failure semantics
//!
//! Running a [`Program`] returns `Result<Duration, ExecError>`.  A panic in
//! a task body no longer brings the run down by unwinding into the caller
//! (and no longer risks wedging peers inside a group collective, the old
//! caveat): the failing worker records the failure, its group communicator
//! is poisoned so peers blocked in a collective unwind with a
//! [`CollectiveAborted`] sentinel, every worker re-joins the team barrier
//! at the layer boundary, and the run reports a typed
//! [`ExecError::TaskPanicked`] in bounded time.  The team and the caller's
//! program remain usable for subsequent runs.
//!
//! # Layer-granular recovery
//!
//! With a [`RetryPolicy`] of more than one attempt
//! ([`Team::run_with`]), the team snapshots the [`DataStore`] at each layer
//! boundary, rolls it back when a layer fails, and re-executes from the
//! failed layer — later layers never re-run, earlier layers are never
//! repeated.  On *permanent* worker loss the remaining layers are re-planned
//! onto the survivors (M-tasks are moldable: group sizes shrink
//! proportionally; if fewer survivors than groups remain, a layer's groups
//! are merged and their tasks serialised), implementing
//! shrink-and-continue.
//!
//! # Fail-slow tolerance
//!
//! Fail-stop recovery alone cannot save a run from a worker that is merely
//! *slow* (or silently stuck): nothing crashes, the layer barrier just
//! never completes.  Attaching a [`DeadlinePolicy`]
//! ([`RunOptions::deadline`]) spawns a monitor thread per attempt that
//! watches a [`HeartbeatBoard`] of per-rank progress stamps:
//!
//! * a layer exceeding its prediction-derived deadline flags its laggards;
//! * a laggard with *fresh* heartbeats is a **straggler** — a speculative
//!   duplicate of its group's layer slice is raced against it on a private
//!   [`DataStore`] overlay (first finisher wins, the loser is cancelled
//!   through the existing communicator-poison path, the winning overlay is
//!   committed at the layer boundary; at most [`MAX_HEDGES`] hedges per
//!   attempt);
//! * a laggard silent for longer than
//!   [`dead_after`](DeadlinePolicy::dead_after) is **dead** — it is demoted
//!   to a permanent loss, reusing the shrink-and-continue path;
//! * independently, [`global_timeout`](DeadlinePolicy::global_timeout) is
//!   the wedge-breaker of last resort: every rank still running is demoted
//!   and the run surfaces [`ExecError::WatchdogTimeout`].
//!
//! Hedging assumes task bodies are deterministic and idempotent at layer
//! granularity (the repo-wide M-task contract): the winning copy's writes
//! are bit-identical to what the straggler would have produced.  All of
//! this machinery is strictly pay-for-what-you-use: with no deadline
//! policy no monitor is spawned, no board is allocated, and the per-task
//! overhead is one `Option` branch (asserted by the bench gates via
//! [`Team::monitors_spawned`]).
//!
//! Deterministic fault injection for tests is available through
//! [`RunOptions::faults`] (see [`FaultPlan`]); [`FaultPlan::chaos`]
//! generates randomized campaigns for the `chaos_run` harness.

use crate::barrier::EpochBarrier;
use crate::comm::GroupComm;
use crate::deadline::{DeadlinePolicy, MAX_HEDGES};
use crate::error::{CollectiveAborted, ExecError};
use crate::fault::{FaultKind, FaultPlan};
use crate::heartbeat::{HeartbeatBoard, LaneState};
use crate::program::{GroupPlan, Program, TaskCtx, TaskFn};
use crate::store::{DataStore, Snapshot};
use pt_obs::{keys, Arg, Recorder, TraceRecorder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Chrome-trace process row used for executor events (worker `i` records on
/// thread row `i`; the driver and monitor record on row [`Team::size`]).
pub const EXEC_PID: u32 = 1;

/// How often (and how patiently) a failed layer is retried.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per layer (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before attempt `n + 1`, doubled per retry of the same layer.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep (the exponential curve
    /// saturates here instead of growing unboundedly).
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a factor
    /// drawn uniformly from `[1 − jitter, 1]`.  Draws are deterministic in
    /// ([`seed`](Self::seed), attempt), so the same policy replays the same
    /// backoff sequence — testable chaos, no wall-clock entropy.
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::from_secs(10),
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Up to `n` attempts per layer, no backoff.
    pub fn attempts(n: u32) -> RetryPolicy {
        assert!(n >= 1, "at least one attempt is required");
        RetryPolicy {
            max_attempts: n,
            ..RetryPolicy::none()
        }
    }

    /// Set the base backoff (doubled per retry of the same layer).
    pub fn with_backoff(mut self, base: Duration) -> RetryPolicy {
        self.base_backoff = base;
        self
    }

    /// Set the backoff ceiling.
    pub fn with_max_backoff(mut self, max: Duration) -> RetryPolicy {
        self.max_backoff = max;
        self
    }

    /// Enable seeded jitter: backoffs are scaled by a deterministic draw
    /// from `[1 − frac, 1]` (see [`jitter`](Self::jitter)).
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> RetryPolicy {
        self.jitter = frac.clamp(0.0, 1.0);
        self.seed = seed;
        self
    }

    /// Backoff after `failed_attempt` (1-based) of a layer: exponential in
    /// the attempt, saturating at [`max_backoff`](Self::max_backoff), then
    /// jittered deterministically.
    pub fn backoff(&self, failed_attempt: u32) -> Duration {
        assert!(failed_attempt >= 1, "attempts are 1-based");
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (failed_attempt - 1).min(16));
        let capped = exp.min(self.max_backoff);
        if self.jitter <= 0.0 || capped.is_zero() {
            return capped;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed ^ (failed_attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let u: f64 = rng.gen_range(0.0..1.0);
        capped.mul_f64(1.0 - self.jitter * u)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Per-run execution options for [`Team::run_with`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Retry policy (default: no retries).
    pub retry: RetryPolicy,
    /// Scripted faults for testing (default: none).
    pub faults: FaultPlan,
    /// Trace recorder (default: none — instrumentation reduces to a branch).
    ///
    /// Size it with [`TraceRecorder::for_team`] so every worker plus the
    /// driver gets a lane; undersized recorders drop (and count) the excess
    /// instead of failing the run.
    pub recorder: Option<Arc<TraceRecorder>>,
    /// Fail-slow detection and recovery (default: none — no monitor thread,
    /// no heartbeats; see the module docs).
    pub deadline: Option<DeadlinePolicy>,
}

impl RunOptions {
    /// Attach a trace recorder.
    pub fn with_recorder(mut self, recorder: Arc<TraceRecorder>) -> RunOptions {
        self.recorder = Some(recorder);
        self
    }

    /// Attach a fail-slow deadline policy.
    pub fn with_deadline(mut self, policy: DeadlinePolicy) -> RunOptions {
        self.deadline = Some(policy);
        self
    }
}

enum Msg {
    Run(Arc<RunRequest>),
    Shutdown,
}

struct RunRequest {
    program: Arc<Program>,
    store: Arc<DataStore>,
    shared: Arc<RunShared>,
}

/// Outcome flags of one hedge, shared between its threads, the monitor and
/// the committing worker.
struct HedgeOutcome {
    /// Hedge threads still running.
    remaining: AtomicUsize,
    /// Some hedge thread panicked or was cancelled.
    failed: AtomicBool,
    /// The hedge finished first and its overlay must be committed.
    won: AtomicBool,
    /// All hedge threads have exited (joining is non-blocking).
    done: AtomicBool,
}

/// One speculative duplicate of a group's layer slice.
struct Hedge {
    layer: usize,
    group: usize,
    /// Cooperative cancellation flag checked between tasks.
    cancel: Arc<AtomicBool>,
    /// The hedge's private communicator (poisoned on cancellation so
    /// threads blocked in a collective unwind).
    comm: Arc<GroupComm>,
    outcome: Arc<HedgeOutcome>,
    /// Private store the hedge executes against.
    overlay: Arc<DataStore>,
    /// Layer-entry snapshot the overlay was seeded from (commit = diff).
    base: Snapshot,
    handles: Vec<std::thread::JoinHandle<()>>,
}

#[derive(Default)]
struct HedgeState {
    hedges: Vec<Hedge>,
    /// `(layer, group)` pairs that already have a hedge this attempt.
    spawned: HashSet<(usize, usize)>,
    /// Layers already committed — no new hedges may target them.
    closed: HashSet<usize>,
    /// Hedges spawned this attempt (capped at [`MAX_HEDGES`]).
    count: u32,
    /// The attempt is over; `finalize_hedges` owns all cleanup now.
    finished: bool,
}

/// Fail-slow state of one run attempt (present iff a [`DeadlinePolicy`] is
/// attached): the heartbeat board, hedge bookkeeping, and the primary
/// progress counters the hedge win condition reads.
struct FailSlowShared {
    board: HeartbeatBoard,
    policy: DeadlinePolicy,
    /// `primary_done[layer][group]`: primary ranks of the group that
    /// completed the layer's task slice.
    primary_done: Vec<Vec<AtomicUsize>>,
    /// `hedge_won[layer][group]`: a hedge won the slice; primaries still in
    /// it cancel at their next check.
    hedge_won: Vec<Vec<AtomicBool>>,
    hedge_state: Mutex<HedgeState>,
    /// Set by the driver once all workers reported; stops the monitor.
    monitor_done: AtomicBool,
}

impl FailSlowShared {
    fn new(policy: DeadlinePolicy, program: &Program, ranks: usize) -> FailSlowShared {
        let primary_done = program
            .layers
            .iter()
            .map(|l| l.iter().map(|_| AtomicUsize::new(0)).collect())
            .collect();
        let hedge_won = program
            .layers
            .iter()
            .map(|l| l.iter().map(|_| AtomicBool::new(false)).collect())
            .collect();
        FailSlowShared {
            board: HeartbeatBoard::new(ranks, program.layers.len()),
            policy,
            primary_done,
            hedge_won,
            hedge_state: Mutex::new(HedgeState::default()),
            monitor_done: AtomicBool::new(false),
        }
    }

    fn hedge_has_won(&self, layer: usize, group: usize) -> bool {
        self.hedge_won[layer][group].load(Ordering::Acquire)
    }
}

/// State shared by the workers of one run attempt.
struct RunShared {
    /// Layer barrier for this attempt's roster.
    barrier: EpochBarrier,
    /// Physical worker indices participating, in logical-rank order.
    roster: Vec<usize>,
    /// First layer to execute (later attempts resume mid-program).
    start_layer: usize,
    /// Attempt number for `start_layer` (later layers are attempt 1).
    attempt: u32,
    /// Whether layer snapshots are taken (retries or deadlines enabled).
    snapshots: bool,
    /// Attempt sequence number, for de-duplicating worker reports (a
    /// demoted worker's own late report arrives after the monitor's proxy
    /// report for it).
    seq: u64,
    faults: FaultPlan,
    recorder: Option<Arc<TraceRecorder>>,
    /// First failure of the attempt and the layer it hit (first writer
    /// wins).
    failure: Mutex<Option<(usize, ExecError)>>,
    /// Snapshot taken at the start of the most recent layer.
    snapshot: Mutex<Option<Snapshot>>,
    /// Fail-slow machinery (present iff the run carries a deadline policy).
    fail_slow: Option<Arc<FailSlowShared>>,
}

struct WorkerReport {
    worker: usize,
    /// The worker left the team permanently (its thread exited).
    lost: bool,
    /// Attempt the report belongs to (see [`RunShared::seq`]).
    seq: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn record_failure(shared: &RunShared, layer: usize, err: ExecError) {
    let mut slot = lock(&shared.failure);
    if slot.is_none() {
        *slot = Some((layer, err));
    }
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<opaque panic payload>".to_string()
    }
}

/// A persistent team of worker threads.
///
/// Each worker owns a team index; running a [`Program`] hands every worker
/// the full plan — a worker executes the tasks of the group containing its
/// index (SPMD, using the group's communicator) and joins the team-wide
/// barrier at every layer boundary, which implements the paper's
/// layer-by-layer execution with re-distribution visibility through the
/// shared [`DataStore`].  See the module docs for the failure semantics.
pub struct Team {
    size: usize,
    senders: Vec<SyncSender<Msg>>,
    done_tx: Sender<WorkerReport>,
    done_rx: Receiver<WorkerReport>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Physical indices of workers still alive, in logical-rank order.
    alive: Mutex<Vec<usize>>,
    /// Attempt sequence counter (see [`RunShared::seq`]).
    seq: AtomicU64,
    /// Monitor threads spawned over the team's lifetime.
    monitors: AtomicU64,
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team").field("size", &self.size).finish()
    }
}

impl Team {
    /// Spawn a team of `size` workers.
    pub fn new(size: usize) -> Team {
        assert!(size >= 1, "team needs at least one worker");
        // Unbounded: the monitor may proxy-report a demoted worker whose own
        // (duplicate) report arrives arbitrarily late — neither send may
        // block.
        let (done_tx, done_rx) = channel();
        let mut senders = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for idx in 0..size {
            let (tx, rx) = sync_channel::<Msg>(1);
            senders.push(tx);
            let done = done_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pt-worker-{idx}"))
                    .spawn(move || worker_loop(idx, rx, done))
                    .expect("spawn worker"),
            );
        }
        Team {
            size,
            senders,
            done_tx,
            done_rx,
            handles,
            alive: Mutex::new((0..size).collect()),
            seq: AtomicU64::new(0),
            monitors: AtomicU64::new(0),
        }
    }

    /// Number of workers the team was spawned with.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of workers still alive (equals [`size`](Self::size) unless
    /// workers were permanently lost).
    pub fn alive_workers(&self) -> usize {
        lock(&self.alive).len()
    }

    /// Monitor threads spawned over the team's lifetime — stays zero unless
    /// a run carries a [`DeadlinePolicy`].  The benchmark gates assert this
    /// to pin down that the fail-slow path is zero-cost when disabled.
    pub fn monitors_spawned(&self) -> u64 {
        self.monitors.load(Ordering::Relaxed)
    }

    /// Execute a program to completion; returns the wall-clock duration.
    /// Equivalent to [`run_with`](Self::run_with) with default options (no
    /// retries, no fault injection).
    pub fn run(&self, program: &Program, store: &Arc<DataStore>) -> Result<Duration, ExecError> {
        self.run_with(program, store, &RunOptions::default())
    }

    /// Execute a program under explicit [`RunOptions`].
    ///
    /// Recoverable conditions — invalid programs, task panics, aborted
    /// collectives, worker loss, watchdog timeouts — surface as
    /// [`ExecError`]s; the team and the caller's program remain usable
    /// afterwards.
    pub fn run_with(
        &self,
        program: &Program,
        store: &Arc<DataStore>,
        opts: &RunOptions,
    ) -> Result<Duration, ExecError> {
        program.validate().map_err(ExecError::InvalidProgram)?;
        let snapshots = opts.retry.max_attempts > 1 || opts.deadline.is_some();
        let mut program = Arc::new(program.clone());
        let mut start_layer = 0usize;
        let mut attempt = 1u32;
        let start = Instant::now();
        // The driver records on its own lane, past the worker lanes.
        let rec = opts.recorder.as_deref();
        let driver = self.size as u32;
        let bytes_before = rec.map(|_| store.bytes_written()).unwrap_or(0);
        loop {
            let attempt_t0 = rec.map_or(0.0, Recorder::now_us);
            let roster = lock(&self.alive).clone();
            if program.required_workers() > roster.len() {
                return Err(ExecError::InvalidProgram(format!(
                    "program needs {} workers, team has {} alive",
                    program.required_workers(),
                    roster.len()
                )));
            }
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            let fail_slow = opts
                .deadline
                .as_ref()
                .map(|p| Arc::new(FailSlowShared::new(p.clone(), &program, roster.len())));
            let shared = Arc::new(RunShared {
                barrier: EpochBarrier::new(roster.len()),
                roster: roster.clone(),
                start_layer,
                attempt,
                snapshots,
                seq,
                faults: opts.faults.clone(),
                recorder: opts.recorder.clone(),
                failure: Mutex::new(None),
                snapshot: Mutex::new(None),
                fail_slow,
            });
            let req = Arc::new(RunRequest {
                program: program.clone(),
                store: store.clone(),
                shared: shared.clone(),
            });
            for &w in &roster {
                self.senders[w]
                    .send(Msg::Run(req.clone()))
                    .expect("worker alive");
            }
            let monitor = shared.fail_slow.is_some().then(|| {
                self.monitors.fetch_add(1, Ordering::Relaxed);
                let req = req.clone();
                let done = self.done_tx.clone();
                std::thread::Builder::new()
                    .name("pt-monitor".into())
                    .spawn(move || monitor_loop(req, done, driver))
                    .expect("spawn monitor")
            });
            let mut any_lost = false;
            let mut reported: HashSet<usize> = HashSet::new();
            while reported.len() < roster.len() {
                let report = self.done_rx.recv().expect("worker reports completion");
                // Stale (previous attempt) or duplicate (monitor proxied a
                // demotion and the worker later reported itself) — skip.
                if report.seq != seq || !reported.insert(report.worker) {
                    continue;
                }
                if report.lost {
                    any_lost = true;
                    lock(&self.alive).retain(|&w| w != report.worker);
                    if let Some(r) = rec {
                        r.add(keys::WORKERS_LOST, 1);
                    }
                }
            }
            if let Some(fs) = &shared.fail_slow {
                fs.monitor_done.store(true, Ordering::Release);
            }
            if let Some(h) = monitor {
                let _ = h.join();
            }
            // Hedge threads must be gone before communicators are reset.
            finalize_hedges(&shared, rec, driver);
            if let Some(r) = rec {
                r.span_args(
                    EXEC_PID,
                    driver,
                    "attempt",
                    "exec",
                    attempt_t0,
                    vec![
                        ("start_layer", start_layer.into()),
                        ("attempt", attempt.into()),
                        ("workers", roster.len().into()),
                    ],
                );
            }
            // All workers are out of the run: communicators can be reset so
            // the caller's program (which shares them) stays reusable.
            let failure = lock(&shared.failure).take();
            if failure.is_some() {
                for group in program.layers.iter().flatten() {
                    group.comm.reset();
                }
            }
            let Some((layer, err)) = failure else {
                debug_assert!(!any_lost, "worker loss must record a failure");
                if let Some(r) = rec {
                    r.add(
                        keys::REDIST_BYTES,
                        store.bytes_written().saturating_sub(bytes_before),
                    );
                }
                return Ok(start.elapsed());
            };
            let cur_attempt = if layer == start_layer { attempt } else { 1 };
            if !snapshots || cur_attempt >= opts.retry.max_attempts {
                return Err(err);
            }
            let Some(snap) = lock(&shared.snapshot).take() else {
                return Err(err);
            };
            if any_lost {
                let survivors = lock(&self.alive).len();
                if survivors == 0 {
                    return Err(err);
                }
                // Shrink-and-continue: remaining layers move onto the
                // survivors (the whole program is re-planned to keep layer
                // indices and `required_workers` consistent; completed
                // layers never re-run).
                program = Arc::new(replan(&program, survivors));
                if let Some(r) = rec {
                    r.instant(
                        EXEC_PID,
                        driver,
                        "replan",
                        "exec",
                        vec![("layer", layer.into()), ("survivors", survivors.into())],
                    );
                }
            }
            store.restore(&snap);
            if let Some(r) = rec {
                r.add(keys::ROLLBACKS, 1);
                r.add(keys::RETRIES, 1);
                r.instant(
                    EXEC_PID,
                    driver,
                    "retry",
                    "exec",
                    vec![
                        ("layer", layer.into()),
                        ("next_attempt", (cur_attempt + 1).into()),
                    ],
                );
            }
            let backoff = opts.retry.backoff(cur_attempt);
            if backoff > Duration::ZERO {
                std::thread::sleep(backoff);
            }
            start_layer = layer;
            attempt = cur_attempt + 1;
        }
    }
}

/// Cancel, join and account every hedge still alive at the end of an
/// attempt (normally only on failure paths — successful attempts commit or
/// discard their hedges at each layer boundary).
fn finalize_hedges(shared: &RunShared, rec: Option<&TraceRecorder>, driver: u32) {
    let Some(fs) = &shared.fail_slow else { return };
    let hedges = {
        let mut st = lock(&fs.hedge_state);
        st.finished = true;
        std::mem::take(&mut st.hedges)
    };
    for mut h in hedges {
        if !h.outcome.done.load(Ordering::Acquire) {
            h.cancel.store(true, Ordering::Relaxed);
            // Unblock hedge threads waiting in a collective.
            h.comm.poison();
        }
        for handle in h.handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(r) = rec {
            r.add(keys::HEDGES_LOST, 1);
            r.instant(
                EXEC_PID,
                driver,
                "hedge:lose",
                "exec",
                vec![("layer", h.layer.into()), ("group", h.group.into())],
            );
        }
    }
}

/// Re-plan a program onto `n` workers: each layer's groups shrink
/// proportionally to their original sizes; if a layer has more groups than
/// workers remain, its groups are merged into one and their tasks run in
/// sequence (M-tasks are moldable, so task bodies adapt via
/// `ctx.rank`/`ctx.size`).
///
/// Used internally for shrink-and-continue after worker loss.  It is also
/// the one way to resize a program: a group keeps its workers for a whole
/// layer, so a caller that wants another width re-plans the remaining
/// layers and runs them as a new program — `pt-tenant`'s gang-timesharing
/// executor does this between its one-layer slices.
pub fn replan(program: &Program, n: usize) -> Program {
    assert!(n >= 1, "cannot re-plan onto zero workers");
    let mut p = program.clone();
    for layer in &mut p.layers {
        if layer.is_empty() {
            continue;
        }
        if layer.len() <= n {
            let weights: Vec<f64> = layer.iter().map(|g| g.workers.len() as f64).collect();
            let sizes = proportional_sizes(&weights, n);
            let mut lo = 0usize;
            *layer = layer
                .iter()
                .zip(sizes)
                .map(|(g, s)| {
                    let plan = GroupPlan::new(lo..lo + s, g.tasks.clone());
                    lo += s;
                    plan
                })
                .collect();
        } else {
            let tasks: Vec<Arc<TaskFn>> =
                layer.iter().flat_map(|g| g.tasks.iter().cloned()).collect();
            *layer = vec![GroupPlan::new(0..n, tasks)];
        }
    }
    p
}

/// Sizes proportional to `weights`, summing to `total`.
///
/// When `total >= weights.len()` every part gets at least one worker.  With
/// fewer workers than parts — reachable through shrink-and-continue
/// re-planning after worker loss — the first `total` parts get one worker
/// each and the rest get zero, instead of the subtraction underflow this
/// used to hit.
fn proportional_sizes(weights: &[f64], total: usize) -> Vec<usize> {
    let parts = weights.len();
    if total < parts {
        // Not enough workers for one per part: no proportionality to
        // preserve, hand out the workers one per leading part.
        return (0..parts).map(|p| usize::from(p < total)).collect();
    }
    let wsum: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    let mut sizes = vec![1usize; parts];
    let mut assigned = parts;
    if wsum > 0.0 {
        // Largest-remainder on the remaining workers.
        let spare = total - parts;
        let ideal: Vec<f64> = weights
            .iter()
            .map(|w| w.max(0.0) / wsum * spare as f64)
            .collect();
        let mut rem: Vec<(usize, f64)> = Vec::with_capacity(parts);
        for (p, id) in ideal.iter().enumerate() {
            let add = id.floor() as usize;
            sizes[p] += add;
            assigned += add;
            rem.push((p, id - add as f64));
        }
        rem.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut i = 0;
        while assigned < total {
            sizes[rem[i % parts].0] += 1;
            assigned += 1;
            i += 1;
        }
    } else {
        // Equal split.
        let mut i = 0;
        while assigned < total {
            sizes[i % parts] += 1;
            assigned += 1;
            i += 1;
        }
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), total);
    sizes
}

impl Drop for Team {
    fn drop(&mut self) {
        for tx in &self.senders {
            // Lost workers have exited; sending to them just fails.
            let _ = tx.send(Msg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(idx: usize, rx: Receiver<Msg>, done: Sender<WorkerReport>) {
    while let Ok(Msg::Run(req)) = rx.recv() {
        let seq = req.shared.seq;
        let lost = run_layers(idx, &req);
        let _ = done.send(WorkerReport {
            worker: idx,
            lost,
            seq,
        });
        if lost {
            // Permanent loss: the thread exits and never rejoins the team.
            return;
        }
    }
}

/// How one worker's slice of a layer ended.
enum SliceEnd {
    /// All tasks ran to completion.
    Completed,
    /// A hedge won the group's slice; remaining tasks were skipped.
    HedgeWon,
    /// The monitor demoted this rank mid-slice; it must exit as lost.
    Demoted,
}

/// One worker's side of a run attempt.  Returns `true` if the worker was
/// (injected as, or demoted to) permanently lost.
fn run_layers(idx: usize, req: &RunRequest) -> bool {
    let me = req
        .shared
        .roster
        .iter()
        .position(|&w| w == idx)
        .expect("worker is in the roster");
    let lost = run_layers_inner(idx, me, req);
    if let Some(fs) = &req.shared.fail_slow {
        // A demoted lane stays demoted (the record is the monitor's);
        // everything else parks as finished so the monitor ignores it.
        if !fs.board.is_demoted(me) {
            fs.board.finish(me);
        }
    }
    lost
}

fn run_layers_inner(idx: usize, me: usize, req: &RunRequest) -> bool {
    let sh = &req.shared;
    let rec = sh.recorder.as_deref();
    let fs = sh.fail_slow.as_deref();
    let tid = idx as u32;
    for (layer_idx, layer) in req.program.layers.iter().enumerate().skip(sh.start_layer) {
        let attempt = if layer_idx == sh.start_layer {
            sh.attempt
        } else {
            1
        };
        // Logical rank 0 snapshots the store before anyone starts the
        // layer; the entry barrier publishes the snapshot and guarantees no
        // task of this layer has run yet.
        if sh.snapshots && me == 0 {
            let t0 = rec.map_or(0.0, Recorder::now_us);
            *lock(&sh.snapshot) = Some(req.store.snapshot());
            if let Some(r) = rec {
                r.add(keys::SNAPSHOTS, 1);
                r.span_args(
                    EXEC_PID,
                    tid,
                    "snapshot",
                    "store",
                    t0,
                    vec![("layer", layer_idx.into())],
                );
            }
        }
        let bar_t0 = rec.map_or(0.0, Recorder::now_us);
        if sh.barrier.wait().is_err() {
            return false;
        }
        record_barrier(rec, tid, layer_idx, "barrier:enter", bar_t0);
        if let Some(fs) = fs {
            fs.board.begin_layer(me, layer_idx);
        }
        // Count one injected fault and mark it on this worker's lane.
        let fault_instant = |name: &str, extra: Option<Arg>| {
            if let Some(r) = rec {
                r.add(keys::FAULTS_INJECTED, 1);
                let mut args = vec![("layer", layer_idx.into()), ("attempt", attempt.into())];
                args.extend(extra);
                r.instant(EXEC_PID, tid, name, "fault", args);
            }
        };
        let mut inject_panic = false;
        let mut slow = 1.0f64;
        let mut stall = false;
        for kind in sh.faults.firing(layer_idx, me, attempt) {
            match kind {
                FaultKind::Delay(d) => {
                    let delay_us = d.as_micros() as u64;
                    if let Some(r) = rec {
                        r.add(keys::FAULT_DELAY_US, delay_us);
                    }
                    fault_instant("fault:delay", Some(("delay_us", delay_us.into())));
                    std::thread::sleep(*d);
                    if let Some(fs) = fs {
                        fs.board.stamp(me);
                    }
                }
                FaultKind::Panic => {
                    fault_instant("fault:panic", None);
                    inject_panic = true;
                }
                FaultKind::Flaky { p } => {
                    if sh.faults.flaky_fires(*p, layer_idx, me, attempt) {
                        fault_instant("fault:flaky", None);
                        inject_panic = true;
                    }
                }
                FaultKind::SlowFactor(f) => {
                    fault_instant("fault:slow", None);
                    slow = slow.max(*f);
                }
                FaultKind::Stall => {
                    fault_instant("fault:stall", None);
                    stall = true;
                }
                FaultKind::Lose => {
                    fault_instant("fault:lose", None);
                    // Record first, then poison, then shrink the barrier:
                    // peers that unwind or arrive afterwards must observe
                    // the failure.
                    record_failure(
                        sh,
                        layer_idx,
                        ExecError::WorkerLost {
                            layer: layer_idx,
                            worker: idx,
                        },
                    );
                    if let Some(fs) = fs {
                        if !fs.board.try_finish(me, layer_idx) {
                            // The monitor demoted us first and has already
                            // poisoned and left the barrier on our behalf.
                            return true;
                        }
                    }
                    if let Some((gi, _)) = Program::find_role(layer, me) {
                        layer[gi].comm.poison();
                    }
                    sh.barrier.leave();
                    return true;
                }
            }
        }
        if stall {
            // Fail-slow stall: no heartbeats, no progress, no crash.
            // Without a monitor this wedges the run (exactly the contract
            // the chaos gate's watchdog-off test asserts); with one, the
            // rank's heartbeat goes stale and it is demoted.
            loop {
                std::thread::sleep(Duration::from_millis(5));
                if let Some(fs) = fs {
                    if fs.board.is_demoted(me) {
                        return true;
                    }
                }
            }
        }
        if let Some((gi, rank)) = Program::find_role(layer, me) {
            let group = &layer[gi];
            let ctx = TaskCtx {
                rank,
                size: group.workers.len(),
                comm: &group.comm,
                store: &req.store,
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject_panic {
                    // resume_unwind skips the panic hook: injected faults
                    // are expected control flow, not bug reports.
                    std::panic::resume_unwind(Box::new(format!(
                        "injected panic (layer {layer_idx}, rank {me}, attempt {attempt})"
                    )));
                }
                for (k, task) in group.tasks.iter().enumerate() {
                    if let Some(fs) = fs {
                        if fs.hedge_has_won(layer_idx, gi) {
                            return SliceEnd::HedgeWon;
                        }
                        if fs.board.is_demoted(me) {
                            return SliceEnd::Demoted;
                        }
                    }
                    let t0 = rec.map_or(0.0, Recorder::now_us);
                    let slow_t0 = (slow > 1.0).then(Instant::now);
                    task(&ctx);
                    if let Some(fs) = fs {
                        fs.board.stamp(me);
                    }
                    if let Some(r) = rec {
                        let dur_s = (r.now_us() - t0) / 1e6;
                        r.add(keys::TASKS_RUN, 1);
                        r.observe(keys::TASK_SECONDS, dur_s);
                        r.span_args(
                            EXEC_PID,
                            tid,
                            &format!("L{layer_idx}.g{gi}.t{k}"),
                            "task",
                            t0,
                            vec![
                                ("layer", layer_idx.into()),
                                ("group", gi.into()),
                                ("task_index", k.into()),
                                ("attempt", attempt.into()),
                                ("rank", rank.into()),
                            ],
                        );
                    }
                    if let Some(slow_t0) = slow_t0 {
                        // Injected slowdown: stretch the task by (f − 1)×
                        // its measured duration, in heartbeat-publishing
                        // chunks so the monitor sees a straggler, not a
                        // corpse.
                        let stretch = slow_t0.elapsed().mul_f64(slow - 1.0);
                        if let Some(end) = stretched_sleep(fs, layer_idx, gi, me, stretch) {
                            return end;
                        }
                    }
                }
                SliceEnd::Completed
            }));
            match result {
                Ok(SliceEnd::Completed) => {
                    if let Some(fs) = fs {
                        fs.primary_done[layer_idx][gi].fetch_add(1, Ordering::AcqRel);
                    }
                }
                Ok(SliceEnd::HedgeWon) => {
                    // Cancelled in favour of the winning hedge; the hedge's
                    // overlay carries the slice's (identical) results.
                }
                Ok(SliceEnd::Demoted) => return true,
                Err(payload) => {
                    if payload.downcast_ref::<CollectiveAborted>().is_some() {
                        if fs.is_some_and(|fs| fs.hedge_has_won(layer_idx, gi)) {
                            // The winning hedge poisoned our communicator
                            // to cancel us — expected, not a failure.
                        } else if fs.is_some_and(|fs| fs.board.is_demoted(me)) {
                            // Demoted while blocked in a collective; the
                            // monitor already left the barrier for us.
                            return true;
                        } else {
                            // Victim of a peer failure.  The culprit
                            // records before poisoning, so this only sticks
                            // when the communicator was poisoned from
                            // outside the runtime.
                            record_failure(
                                sh,
                                layer_idx,
                                ExecError::CollectiveAborted {
                                    layer: layer_idx,
                                    group: gi,
                                },
                            );
                            if let Some(r) = rec {
                                r.add(keys::COLLECTIVE_ABORTS, 1);
                                r.instant(
                                    EXEC_PID,
                                    tid,
                                    "collective_abort",
                                    "fault",
                                    vec![("layer", layer_idx.into()), ("group", gi.into())],
                                );
                            }
                        }
                    } else {
                        record_failure(
                            sh,
                            layer_idx,
                            ExecError::TaskPanicked {
                                layer: layer_idx,
                                group: gi,
                                payload: payload_text(payload.as_ref()),
                            },
                        );
                        // Unblock group peers waiting in a collective for us.
                        group.comm.poison();
                        if let Some(r) = rec {
                            r.instant(
                                EXEC_PID,
                                tid,
                                "panic",
                                "fault",
                                vec![("layer", layer_idx.into()), ("group", gi.into())],
                            );
                        }
                    }
                }
            }
        }
        if let Some(fs) = fs {
            if !fs.board.try_enter_barrier(me, layer_idx) {
                // Demoted at the barrier edge; the monitor left the
                // barrier on our behalf — joining it now would double-count.
                return true;
            }
        }
        // Layer barrier: re-distributions (DataStore writes) become visible
        // to every group before the next layer starts — and every worker
        // observes a failure of this layer at the same point.
        let bar_t0 = rec.map_or(0.0, Recorder::now_us);
        if sh.barrier.wait().is_err() {
            return false;
        }
        record_barrier(rec, tid, layer_idx, "barrier:exit", bar_t0);
        if lock(&sh.failure).is_some() {
            // Failed attempt: leftover hedges are finalized by the driver.
            return false;
        }
        if me == 0 {
            if let Some(fs) = fs {
                // Commit or discard this layer's hedges while every peer
                // is parked at the next entry barrier (no store readers).
                hedge_commit_phase(req, fs, layer_idx, rec, tid);
            }
        }
    }
    false
}

/// Sleep `total` in small chunks, publishing heartbeats and honouring
/// demotion / hedge-win cancellation.  Returns `Some` when the slice must
/// end early.
fn stretched_sleep(
    fs: Option<&FailSlowShared>,
    layer: usize,
    group: usize,
    me: usize,
    total: Duration,
) -> Option<SliceEnd> {
    let mut left = total;
    while left > Duration::ZERO {
        let chunk = left.min(Duration::from_millis(2));
        std::thread::sleep(chunk);
        left = left.saturating_sub(chunk);
        if let Some(fs) = fs {
            fs.board.stamp(me);
            if fs.board.is_demoted(me) {
                return Some(SliceEnd::Demoted);
            }
            if fs.hedge_has_won(layer, group) {
                return Some(SliceEnd::HedgeWon);
            }
        }
    }
    None
}

/// The per-attempt monitor: ticks every [`DeadlinePolicy::poll`], reads the
/// heartbeat board, and drives deadline misses, hedging, demotion, and the
/// global watchdog.  Runs on the driver's trace lane.
fn monitor_loop(req: Arc<RunRequest>, done: Sender<WorkerReport>, driver: u32) {
    let sh = &req.shared;
    let fs = sh
        .fail_slow
        .clone()
        .expect("monitor runs only with a deadline policy");
    let rec = sh.recorder.as_deref();
    let start = Instant::now();
    let mut missed: HashSet<usize> = HashSet::new();
    let mut global_fired = false;
    while !fs.monitor_done.load(Ordering::Acquire) {
        std::thread::sleep(fs.policy.poll);
        if fs.monitor_done.load(Ordering::Acquire) {
            break;
        }
        let now = fs.board.now_us();
        let states: Vec<LaneState> = (0..fs.board.ranks()).map(|r| fs.board.state(r)).collect();
        if let Some(r) = rec {
            if let Some(age) = states
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, LaneState::Running(_)))
                .map(|(i, _)| fs.board.stamp_age_us(i, now))
                .max()
            {
                r.observe(keys::HEARTBEAT_AGE, age as f64 / 1e6);
            }
        }
        if let Some(bound) = fs.policy.global_timeout {
            if !global_fired && start.elapsed() > bound {
                global_fired = true;
                fire_watchdog(&req, &fs, &done, &states, rec, driver);
            }
        }
        if fs.policy.layer_budgets.is_empty() {
            continue;
        }
        // The frontier is the earliest layer any rank is still in: layers
        // behind it are complete, layers past it haven't started for the
        // laggards — deadlines are judged at the frontier.
        let Some(frontier) = states
            .iter()
            .filter_map(|s| match s {
                LaneState::Running(l) | LaneState::Waiting(l) => Some(*l),
                _ => None,
            })
            .min()
        else {
            continue;
        };
        let Some(deadline) = fs.policy.effective_deadline(frontier) else {
            continue;
        };
        let Some(entry) = fs.board.layer_entry_us(frontier) else {
            continue;
        };
        if now.saturating_sub(entry) <= deadline.as_micros() as u64 {
            continue;
        }
        if missed.insert(frontier) {
            if let Some(r) = rec {
                r.add(keys::DEADLINE_MISSES, 1);
                r.instant(
                    EXEC_PID,
                    driver,
                    "deadline:miss",
                    "exec",
                    vec![("layer", frontier.into())],
                );
            }
        }
        let dead_us = fs.policy.dead_after.as_micros() as u64;
        let mut dead: Option<(usize, usize, u64)> = None;
        for (rank, s) in states.iter().enumerate() {
            let LaneState::Running(l) = *s else { continue };
            if l != frontier {
                continue;
            }
            let Some((gi, _)) = Program::find_role(&req.program.layers[l], rank) else {
                continue;
            };
            let age = fs.board.stamp_age_us(rank, now);
            if age > dead_us {
                // Silent past the dead threshold: fail-slow degenerated to
                // fail-stop — demote to lost, shrink-and-continue recovers.
                // Keep the stalest candidate only; see below.
                if dead.is_none_or(|(_, _, a)| age > a) {
                    dead = Some((rank, l, age));
                }
            } else {
                maybe_hedge(&req, &fs, l, gi, rec, driver);
            }
        }
        // Demote at most ONE dead rank per tick, stalest first: a rank
        // blocked in a collective waiting on a corpse is itself silent, so
        // demoting every stale lane at once would sweep up the victims
        // with the culprit.  Demoting only the stalest rank poisons its
        // group, its blocked peers unwind within the next tick, and the
        // loss accounting stays one-demotion-per-actual-corpse.
        if let Some((rank, l, _)) = dead {
            monitor_demote(&req, &fs, &done, rank, l, rec, driver);
        }
    }
}

/// Global-watchdog firing: record the failure, then demote every rank
/// still running so the wedged attempt unwinds in bounded time.
fn fire_watchdog(
    req: &Arc<RunRequest>,
    fs: &Arc<FailSlowShared>,
    done: &Sender<WorkerReport>,
    states: &[LaneState],
    rec: Option<&TraceRecorder>,
    driver: u32,
) {
    let sh = &req.shared;
    let stuck: Vec<(usize, usize)> = states
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            LaneState::Running(l) => Some((i, *l)),
            _ => None,
        })
        .collect();
    if stuck.is_empty() {
        return;
    }
    let layer = stuck.iter().map(|&(_, l)| l).min().expect("non-empty");
    let stalled: Vec<usize> = stuck.iter().map(|&(i, _)| sh.roster[i]).collect();
    record_failure(sh, layer, ExecError::WatchdogTimeout { layer, stalled });
    if let Some(r) = rec {
        r.add(keys::WATCHDOG_FIRES, 1);
        r.instant(
            EXEC_PID,
            driver,
            "watchdog",
            "fault",
            vec![("layer", layer.into()), ("stalled", stuck.len().into())],
        );
    }
    for (rank, l) in stuck {
        monitor_demote(req, fs, done, rank, l, rec, driver);
    }
}

/// Monitor-side demotion of `rank` (expected in `layer`) to a permanent
/// loss: CAS the lane (losing the race to a rank that moved on aborts the
/// demotion), record the failure, poison the rank's group, leave the
/// barrier on its behalf and proxy-report it as lost.
fn monitor_demote(
    req: &Arc<RunRequest>,
    fs: &FailSlowShared,
    done: &Sender<WorkerReport>,
    rank: usize,
    layer: usize,
    rec: Option<&TraceRecorder>,
    driver: u32,
) {
    if !fs.board.demote(rank, layer) {
        return;
    }
    let sh = &req.shared;
    let phys = sh.roster[rank];
    record_failure(
        sh,
        layer,
        ExecError::WorkerLost {
            layer,
            worker: phys,
        },
    );
    if let Some((gi, _)) = Program::find_role(&req.program.layers[layer], rank) {
        req.program.layers[layer][gi].comm.poison();
    }
    sh.barrier.leave();
    if let Some(r) = rec {
        r.add(keys::DEMOTIONS, 1);
        r.instant(
            EXEC_PID,
            driver,
            "demote",
            "exec",
            vec![("layer", layer.into()), ("rank", rank.into())],
        );
    }
    let _ = done.send(WorkerReport {
        worker: phys,
        lost: true,
        seq: sh.seq,
    });
}

/// Everything one hedge thread needs (bundled so the spawn stays readable).
struct HedgeJob {
    req: Arc<RunRequest>,
    fs: Arc<FailSlowShared>,
    layer: usize,
    group: usize,
    rank: usize,
    overlay: Arc<DataStore>,
    comm: Arc<GroupComm>,
    cancel: Arc<AtomicBool>,
    outcome: Arc<HedgeOutcome>,
}

/// Spawn a speculative duplicate of `layer`'s group `gi` against a private
/// overlay of the layer-entry snapshot, unless one exists, the layer is
/// closed, or the hedge budget is spent.
fn maybe_hedge(
    req: &Arc<RunRequest>,
    fs: &Arc<FailSlowShared>,
    layer: usize,
    gi: usize,
    rec: Option<&TraceRecorder>,
    driver: u32,
) {
    let mut st = lock(&fs.hedge_state);
    if st.finished
        || st.count >= MAX_HEDGES
        || st.closed.contains(&layer)
        || st.spawned.contains(&(layer, gi))
    {
        return;
    }
    // The layer-entry snapshot is the hedge's starting state; without one
    // (nothing snapshotted yet) there is nothing sound to execute against.
    let Some(base) = lock(&req.shared.snapshot).clone() else {
        return;
    };
    let group = &req.program.layers[layer][gi];
    let size = group.workers.len();
    let overlay = DataStore::from_snapshot(&base);
    let comm = Arc::new(GroupComm::new(size));
    let cancel = Arc::new(AtomicBool::new(false));
    let outcome = Arc::new(HedgeOutcome {
        remaining: AtomicUsize::new(size),
        failed: AtomicBool::new(false),
        won: AtomicBool::new(false),
        done: AtomicBool::new(false),
    });
    let mut handles = Vec::with_capacity(size);
    for hr in 0..size {
        let job = HedgeJob {
            req: req.clone(),
            fs: fs.clone(),
            layer,
            group: gi,
            rank: hr,
            overlay: overlay.clone(),
            comm: comm.clone(),
            cancel: cancel.clone(),
            outcome: outcome.clone(),
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("pt-hedge-L{layer}g{gi}r{hr}"))
                .spawn(move || hedge_worker(job))
                .expect("spawn hedge"),
        );
    }
    st.spawned.insert((layer, gi));
    st.count += 1;
    st.hedges.push(Hedge {
        layer,
        group: gi,
        cancel,
        comm,
        outcome,
        overlay,
        base,
        handles,
    });
    drop(st);
    if let Some(r) = rec {
        r.add(keys::HEDGES_SPAWNED, 1);
        r.instant(
            EXEC_PID,
            driver,
            "hedge:spawn",
            "exec",
            vec![("layer", layer.into()), ("group", gi.into())],
        );
    }
}

/// One hedge thread: run the group's task slice against the overlay.  The
/// last thread out decides the outcome — the hedge wins iff no thread
/// failed/cancelled and the primary group hasn't already completed; a win
/// poisons the primary communicator so remaining stragglers cancel.
fn hedge_worker(job: HedgeJob) {
    let group = &job.req.program.layers[job.layer][job.group];
    let size = group.workers.len();
    let ctx = TaskCtx {
        rank: job.rank,
        size,
        comm: &job.comm,
        store: &job.overlay,
    };
    let completed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for task in group.tasks.iter() {
            if job.cancel.load(Ordering::Relaxed) {
                return false;
            }
            task(&ctx);
        }
        true
    }));
    if !matches!(completed, Ok(true)) {
        job.outcome.failed.store(true, Ordering::Release);
        // Unblock hedge peers waiting for us in a collective.
        job.comm.poison();
    }
    if job.outcome.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        if !job.outcome.failed.load(Ordering::Acquire)
            && job.fs.primary_done[job.layer][job.group].load(Ordering::Acquire) < size
        {
            // First finisher wins: flag the win before poisoning, so a
            // primary unwinding from the poison observes the flag and
            // treats the abort as cancellation, not failure.
            job.outcome.won.store(true, Ordering::Release);
            job.fs.hedge_won[job.layer][job.group].store(true, Ordering::Release);
            group.comm.poison();
        }
        job.outcome.done.store(true, Ordering::Release);
    }
}

/// Layer-boundary hedge settlement, run by logical rank 0 after the exit
/// barrier of a *successful* layer: close the layer to new hedges, join
/// its hedge threads, commit the winner's overlay diff (and reset the
/// poisoned primary communicator), discard losers.
fn hedge_commit_phase(
    req: &RunRequest,
    fs: &FailSlowShared,
    layer: usize,
    rec: Option<&TraceRecorder>,
    tid: u32,
) {
    let mine: Vec<Hedge> = {
        let mut st = lock(&fs.hedge_state);
        st.closed.insert(layer);
        let mut kept = Vec::new();
        let mut mine = Vec::new();
        for h in st.hedges.drain(..) {
            if h.layer == layer {
                mine.push(h);
            } else {
                kept.push(h);
            }
        }
        st.hedges = kept;
        mine
    };
    for mut h in mine {
        if !h.outcome.done.load(Ordering::Acquire) {
            h.cancel.store(true, Ordering::Relaxed);
            h.comm.poison();
        }
        for handle in h.handles.drain(..) {
            let _ = handle.join();
        }
        if h.outcome.won.load(Ordering::Acquire) {
            // Commit: overlay entries that differ from the layer-entry
            // snapshot are the slice's outputs.  Identical names written by
            // the cancelled primary are overwritten with bit-identical data
            // (tasks are deterministic), so first-finisher-wins is
            // value-transparent.
            let after = h.overlay.snapshot();
            for (name, data) in after.entries() {
                if h.base.get(name) != Some(data.as_slice()) {
                    req.store.put(name.clone(), data.clone());
                }
            }
            for (name, _) in h.base.entries() {
                if after.get(name).is_none() {
                    req.store.remove(name);
                }
            }
            // The win poisoned the primary communicator to cancel the
            // straggler; everyone is past the exit barrier now, so it can
            // be made reusable again.
            req.program.layers[layer][h.group].comm.reset();
            if let Some(r) = rec {
                r.add(keys::HEDGES_WON, 1);
                r.instant(
                    EXEC_PID,
                    tid,
                    "hedge:win",
                    "exec",
                    vec![("layer", layer.into()), ("group", h.group.into())],
                );
            }
        } else if let Some(r) = rec {
            r.add(keys::HEDGES_LOST, 1);
            r.instant(
                EXEC_PID,
                tid,
                "hedge:lose",
                "exec",
                vec![("layer", layer.into()), ("group", h.group.into())],
            );
        }
    }
}

/// Record one barrier wait as a span plus a histogram observation.
fn record_barrier(
    rec: Option<&TraceRecorder>,
    tid: u32,
    layer: usize,
    name: &'static str,
    start_us: f64,
) {
    if let Some(r) = rec {
        let wait_s = (r.now_us() - start_us) / 1e6;
        r.observe(keys::BARRIER_WAIT, wait_s);
        r.span_args(
            EXEC_PID,
            tid,
            name,
            "barrier",
            start_us,
            vec![("layer", layer.into())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{GroupPlan, TaskCtx, TaskFn};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn two_groups_run_concurrently_and_join_layers() {
        let team = Team::new(4);
        let store = DataStore::new();
        store.put("sum0", vec![0.0]);
        store.put("sum1", vec![0.0]);
        // Layer 1: each group of 2 allreduces its ranks and publishes.
        let make = |name: &'static str| -> Arc<TaskFn> {
            Arc::new(move |ctx: &TaskCtx| {
                let mut v = vec![ctx.rank as f64 + 1.0];
                ctx.comm.allreduce_sum(ctx.rank, &mut v);
                if ctx.rank == 0 {
                    ctx.store.put(name, v);
                }
            })
        };
        // Layer 2: one group of 4 adds both sums.
        let combine: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            if ctx.rank == 0 {
                let a = ctx.store.get("sum0").unwrap()[0];
                let b = ctx.store.get("sum1").unwrap()[0];
                ctx.store.put("total", vec![a + b]);
            }
        });
        let mut program = Program::single_layer(vec![
            GroupPlan::new(0..2, vec![make("sum0")]),
            GroupPlan::new(2..4, vec![make("sum1")]),
        ]);
        program.push_layer(vec![GroupPlan::new(0..4, vec![combine])]);
        team.run(&program, &store).unwrap();
        assert_eq!(store.get("total").unwrap(), vec![6.0]); // (1+2) + (1+2)
    }

    #[test]
    fn all_workers_participate() {
        let team = Team::new(8);
        let store = DataStore::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let task: Arc<TaskFn> = Arc::new(move |_ctx: &TaskCtx| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        let program = Program::single_layer(vec![GroupPlan::new(0..8, vec![task])]);
        team.run(&program, &store).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn sequential_tasks_within_group_are_ordered() {
        let team = Team::new(2);
        let store = DataStore::new();
        store.put("log", vec![]);
        let t1: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            ctx.comm.barrier();
            if ctx.rank == 0 {
                ctx.store.put("log", vec![1.0]);
            }
            ctx.comm.barrier();
        });
        let t2: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            ctx.comm.barrier();
            if ctx.rank == 0 {
                let mut l = ctx.store.get("log").unwrap();
                l.push(2.0);
                ctx.store.put("log", l);
            }
            ctx.comm.barrier();
        });
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![t1, t2])]);
        team.run(&program, &store).unwrap();
        assert_eq!(store.get("log").unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn team_is_reusable_across_runs() {
        let team = Team::new(3);
        let store = DataStore::new();
        for round in 0..5 {
            let task: Arc<TaskFn> = Arc::new(move |ctx: &TaskCtx| {
                if ctx.rank == 0 {
                    ctx.store.put("round", vec![round as f64]);
                }
            });
            let program = Program::single_layer(vec![GroupPlan::new(0..3, vec![task])]);
            team.run(&program, &store).unwrap();
            assert_eq!(store.get("round").unwrap(), vec![round as f64]);
        }
    }

    #[test]
    fn idle_workers_do_not_block_layers() {
        // Program uses only 2 of 4 workers; the others still hit the layer
        // barrier and the run completes.
        let team = Team::new(4);
        let store = DataStore::new();
        let task: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            let mut v = vec![1.0];
            ctx.comm.allreduce_sum(ctx.rank, &mut v);
            if ctx.rank == 0 {
                ctx.store.put("n", v);
            }
        });
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![task])]);
        team.run(&program, &store).unwrap();
        assert_eq!(store.get("n").unwrap(), vec![2.0]);
    }

    #[test]
    fn self_poisoned_collective_reports_collective_aborted() {
        // A communicator poisoned by the task itself has no failing peer to
        // blame: the run reports the aborted collective's layer and group.
        let team = Team::new(3);
        let store = DataStore::new();
        let ok: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| ctx.comm.barrier());
        let poisoner: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            ctx.comm.poison();
            ctx.comm.barrier();
        });
        let mut program = Program::single_layer(vec![GroupPlan::new(0..3, vec![ok.clone()])]);
        program.push_layer(vec![
            GroupPlan::new(0..1, vec![ok.clone()]),
            GroupPlan::new(1..3, vec![poisoner]),
        ]);
        match team.run(&program, &store) {
            Err(ExecError::CollectiveAborted { layer, group }) => {
                assert_eq!((layer, group), (1, 1));
            }
            other => panic!("expected CollectiveAborted, got {other:?}"),
        }
        // No worker was lost, and the reset communicators run again.
        assert_eq!(team.alive_workers(), 3);
        let fine = Program::single_layer(vec![GroupPlan::new(0..3, vec![ok])]);
        team.run(&fine, &store).unwrap();
    }

    #[test]
    fn oversized_program_rejected_as_error() {
        let team = Team::new(2);
        let store = DataStore::new();
        let t: Vec<Arc<TaskFn>> = vec![];
        let program = Program::single_layer(vec![GroupPlan::new(0..4, t)]);
        match team.run(&program, &store) {
            Err(ExecError::InvalidProgram(msg)) => {
                assert!(msg.contains("program needs"), "got: {msg}")
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
        // The rejection left the team fully usable.
        let ok = Program::single_layer(vec![GroupPlan::new(0..2, vec![])]);
        team.run(&ok, &store).unwrap();
    }

    #[test]
    fn overlapping_groups_rejected_as_error() {
        let team = Team::new(4);
        let store = DataStore::new();
        let t: Vec<Arc<TaskFn>> = vec![];
        let program = Program::single_layer(vec![
            GroupPlan::new(0..2, t.clone()),
            GroupPlan::new(1..3, t),
        ]);
        assert!(matches!(
            team.run(&program, &store),
            Err(ExecError::InvalidProgram(_))
        ));
    }

    #[test]
    fn proportional_sizes_sum_and_floor() {
        assert_eq!(proportional_sizes(&[1.0, 1.0], 8), vec![4, 4]);
        assert_eq!(proportional_sizes(&[3.0, 1.0], 8), vec![6, 2]);
        let s = proportional_sizes(&[0.0, 1.0], 4);
        assert_eq!(s.iter().sum::<usize>(), 4);
        assert!(s[0] >= 1);
        assert_eq!(
            proportional_sizes(&[1.0, 2.0, 1.0], 5)
                .iter()
                .sum::<usize>(),
            5
        );
    }

    #[test]
    fn proportional_sizes_with_fewer_workers_than_parts() {
        // Used to underflow (`total - parts` on usize); now degrades to one
        // worker per leading part.
        assert_eq!(proportional_sizes(&[1.0, 1.0, 1.0], 2), vec![1, 1, 0]);
        assert_eq!(proportional_sizes(&[5.0, 1.0], 1), vec![1, 0]);
        assert_eq!(proportional_sizes(&[2.0, 3.0, 4.0], 0), vec![0, 0, 0]);
        // Boundary: exactly one worker per part.
        assert_eq!(proportional_sizes(&[9.0, 1.0, 1.0], 3), vec![1, 1, 1]);
    }

    #[test]
    fn replan_shrinks_groups_proportionally() {
        let t: Vec<Arc<TaskFn>> = vec![];
        let mut program = Program::single_layer(vec![
            GroupPlan::new(0..4, t.clone()),
            GroupPlan::new(4..8, t.clone()),
        ]);
        program.push_layer(vec![GroupPlan::new(0..8, t.clone())]);
        let shrunk = replan(&program, 6);
        assert_eq!(shrunk.required_workers(), 6);
        let sizes: Vec<usize> = shrunk.layers[0].iter().map(|g| g.workers.len()).collect();
        assert_eq!(sizes, vec![3, 3]);
        assert!(shrunk.validate().is_ok());
    }

    #[test]
    fn replan_merges_when_fewer_workers_than_groups() {
        let t: Vec<Arc<TaskFn>> = vec![Arc::new(|_: &TaskCtx| {})];
        let program = Program::single_layer(vec![
            GroupPlan::new(0..1, t.clone()),
            GroupPlan::new(1..2, t.clone()),
            GroupPlan::new(2..3, t.clone()),
        ]);
        let shrunk = replan(&program, 2);
        assert_eq!(shrunk.layers[0].len(), 1);
        assert_eq!(shrunk.layers[0][0].workers, 0..2);
        // Tasks of all three groups now run in sequence on the merged group.
        assert_eq!(shrunk.layers[0][0].tasks.len(), 3);
    }

    #[test]
    fn backoff_is_capped_and_deterministically_jittered() {
        let p = RetryPolicy::attempts(8)
            .with_backoff(Duration::from_millis(10))
            .with_max_backoff(Duration::from_millis(40));
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        // The exponential curve saturates at the ceiling.
        assert_eq!(p.backoff(7), Duration::from_millis(40));
        let j = p.clone().with_jitter(0.5, 42);
        let seq_a: Vec<Duration> = (1..=6).map(|n| j.backoff(n)).collect();
        let seq_b: Vec<Duration> = (1..=6).map(|n| j.backoff(n)).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same sequence");
        for (i, &d) in seq_a.iter().enumerate() {
            let cap = p.backoff(i as u32 + 1);
            assert!(d <= cap, "jitter only shrinks: {d:?} vs {cap:?}");
            assert!(d >= cap.mul_f64(0.5), "jitter bounded by the fraction");
        }
        // A different seed flips at least one draw.
        let other = p.clone().with_jitter(0.5, 43);
        assert!((1..=6).any(|n| other.backoff(n) != j.backoff(n)));
        // Jitter never resurrects a zero backoff.
        assert_eq!(
            RetryPolicy::attempts(3).with_jitter(0.5, 1).backoff(1),
            Duration::ZERO
        );
    }

    fn spin_for(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn hedge_races_straggler_and_commits_identical_result() {
        let team = Team::new(2);
        let store = DataStore::new();
        let task: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            spin_for(Duration::from_millis(5));
            let v = ctx.comm.allreduce_max_scalar(ctx.rank, 7.0);
            if ctx.rank == 0 {
                ctx.store.put("out", vec![v]);
            }
        });
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![task])]);
        let rec = Arc::new(TraceRecorder::for_team(2));
        let mut opts = RunOptions::default()
            .with_recorder(rec.clone())
            .with_deadline(
                DeadlinePolicy::from_budgets(vec![Duration::from_millis(15)])
                    .with_slack(1.0)
                    .with_min_deadline(Duration::from_millis(15))
                    .with_poll(Duration::from_millis(2))
                    // Keep the straggler classified as straggling, not dead.
                    .with_dead_after(Duration::from_secs(30)),
            );
        // Rank 1 runs the layer 200× slower — far past the deadline.
        opts.faults = FaultPlan::new().slow_by(0, 1, 200.0);
        team.run_with(&program, &store, &opts).unwrap();
        assert_eq!(store.get("out").unwrap(), vec![7.0]);
        // Nobody was lost: the straggler was raced, not demoted.
        assert_eq!(team.alive_workers(), 2);
        let m = rec.metrics();
        assert!(m.counter(keys::HEDGES_SPAWNED).get() >= 1);
        assert_eq!(m.counter(keys::HEDGES_WON).get(), 1);
        assert!(m.counter(keys::DEADLINE_MISSES).get() >= 1);
        assert_eq!(m.counter(keys::DEMOTIONS).get(), 0);
        // The team (and the program's communicators) stay reusable.
        team.run(&program, &store).unwrap();
        assert_eq!(store.get("out").unwrap(), vec![7.0]);
    }

    #[test]
    fn dead_rank_is_demoted_and_run_continues_on_survivors() {
        let team = Team::new(3);
        let store = DataStore::new();
        let task: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            let v = ctx.comm.allreduce_max_scalar(ctx.rank, 3.0);
            if ctx.rank == 0 {
                ctx.store.put("r", vec![v]);
            }
        });
        let program = Program::single_layer(vec![GroupPlan::new(0..3, vec![task])]);
        let opts = RunOptions {
            retry: RetryPolicy::attempts(3),
            faults: FaultPlan::new().stall_at(0, 2, 1),
            recorder: None,
            deadline: Some(
                DeadlinePolicy::from_budgets(vec![Duration::from_millis(10)])
                    .with_slack(1.0)
                    .with_min_deadline(Duration::from_millis(10))
                    .with_dead_after(Duration::from_millis(40))
                    .with_poll(Duration::from_millis(2)),
            ),
        };
        team.run_with(&program, &store, &opts).unwrap();
        // allreduce_max of identical values is group-size independent, so
        // the shrunken retry produces the bit-identical result.
        assert_eq!(store.get("r").unwrap(), vec![3.0]);
        assert_eq!(team.alive_workers(), 2);
    }

    #[test]
    fn global_watchdog_breaks_a_stall_wedge() {
        let team = Team::new(2);
        let store = DataStore::new();
        let task: Arc<TaskFn> = Arc::new(|_ctx: &TaskCtx| {});
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![task])]);
        let opts = RunOptions {
            faults: FaultPlan::new().stall_at(0, 1, 1),
            deadline: Some(DeadlinePolicy::watchdog(Duration::from_millis(200))),
            ..RunOptions::default()
        };
        let t0 = Instant::now();
        match team.run_with(&program, &store, &opts) {
            Err(ExecError::WatchdogTimeout { layer, stalled }) => {
                assert_eq!(layer, 0);
                assert_eq!(stalled, vec![1]);
            }
            other => panic!("expected WatchdogTimeout, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "bounded unwedging");
        assert_eq!(team.alive_workers(), 1);
        assert_eq!(team.monitors_spawned(), 1);
        // The survivor still runs programs.
        let ok = Program::single_layer(vec![GroupPlan::new(0..1, vec![])]);
        team.run(&ok, &store).unwrap();
    }

    #[test]
    fn no_deadline_policy_spawns_no_monitor() {
        let team = Team::new(2);
        let store = DataStore::new();
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![])]);
        team.run(&program, &store).unwrap();
        team.run_with(
            &program,
            &store,
            &RunOptions {
                retry: RetryPolicy::attempts(2),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(team.monitors_spawned(), 0);
    }
}

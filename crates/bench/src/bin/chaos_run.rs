//! `chaos_run` — seeded fault-campaign gate for the fail-slow tolerance
//! machinery.
//!
//! Runs N randomized fault campaigns ([`FaultPlan::chaos`]) against two
//! executed workloads of the paper's evaluation — the EPOL time-step graph
//! (R = 4 on BRUSS2D) and NAS BT-MZ — each replayed through
//! [`pt_bench::replay`]: planned on a 2-node CHiC model and executed by an
//! 8-worker [`Team`] with task bodies that sleep for their simulated
//! durations.  Every campaign mixes fail-stop faults (panics, permanent
//! losses, flaky ranks) with fail-slow faults (delays, slowdowns, silent
//! stalls) and must satisfy, under a prediction-derived
//! [`DeadlinePolicy`] whose slack is fed by the fault-free run's
//! reconciliation error:
//!
//! * **no wedge** — the run completes (the in-run global watchdog is armed
//!   as a backstop and must never fire);
//! * **bit-equal results** — the final [`DataStore`] snapshot equals the
//!   fault-free reference exactly, across retries, shrink-and-continue
//!   replans, and committed hedges;
//! * **bounded recovery** — retries stay within the retry budget and
//!   hedges within the per-attempt hedge cap.
//!
//! A final scripted scenario stalls a rank with per-layer deadlines
//! *disabled* and asserts the global watchdog is what breaks the wedge
//! (`ExecError::WatchdogTimeout`), pinning down the last line of defence.
//!
//! Full runs (50 campaigns) write `CHAOS.json` at the repository root;
//! `--quick` runs a fixed-seed subset and writes its report where
//! [`pt_bench::report::write`] puts quick runs, so a CI smoke run cannot
//! overwrite the gate artefact.

use pt_bench::replay::Replay;
use pt_exec::{
    ChaosConfig, DataStore, DeadlinePolicy, ExecError, FaultPlan, Program, RetryPolicy, RunOptions,
    Snapshot, TaskCtx, TaskFn, Team, MAX_HEDGES,
};
use pt_mtask::TaskGraph;
use pt_obs::{keys, MetricsSnapshot, TraceRecorder};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry budget per campaign: generous enough that even a flaky rank at
/// the campaign generator's maximum probability (0.35) fails all attempts
/// with probability < 1e-4.
const RETRY_ATTEMPTS: u32 = 12;

/// Campaign seeds per workload (full mode).
const FULL_SEEDS: u64 = 25;
/// Campaign seeds per workload (`--quick`).
const QUICK_SEEDS: u64 = 3;

#[derive(Serialize)]
struct CampaignEntry {
    program: &'static str,
    seed: u64,
    faults: Vec<String>,
    fail_slow_only: bool,
    wall_ms: f64,
    ok: bool,
    bit_equal: bool,
    retries: u64,
    faults_injected: u64,
    deadline_misses: u64,
    hedges_spawned: u64,
    hedges_won: u64,
    demotions: u64,
    workers_lost: u64,
    watchdog_fires: u64,
}

#[derive(Serialize)]
struct WatchdogEntry {
    program: &'static str,
    wall_ms: f64,
    fired: bool,
    stalled: Vec<usize>,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    machine: &'static str,
    quick: bool,
    workers: usize,
    retry_attempts: u32,
    campaigns: Vec<CampaignEntry>,
    watchdog_only: WatchdogEntry,
}

/// One executable workload: a scheduled program whose bodies sleep their
/// simulated durations, its per-layer wall-clock budgets (the deadline
/// predictions), and the fault-free reference snapshot.
struct Workload {
    name: &'static str,
    program: Program,
    policy: DeadlinePolicy,
    reference: Snapshot,
    slack: f64,
}

fn counter(m: &MetricsSnapshot, key: &str) -> u64 {
    m.counter(key).unwrap_or(0)
}

/// Replay a workload: every task sleeps for its simulated duration
/// (scaled to `target_wall` seconds total), runs one group collective, and
/// rank 0 publishes a small array derived only from the task id —
/// deterministic and group-layout independent, so results stay
/// bit-identical across replans and hedges.
fn build_workload(name: &'static str, graph: TaskGraph, target_wall: f64, quick: bool) -> Workload {
    let mut replay = Replay::new(graph, target_wall, |t, dur| {
        Arc::new(move |ctx: &TaskCtx| {
            std::thread::sleep(dur);
            let v = ctx.comm.allreduce_max_scalar(ctx.rank, 1.0);
            if ctx.rank == 0 {
                ctx.store
                    .put(format!("out{}", t.0), vec![t.0 as f64 * v; 8]);
            }
        }) as Arc<TaskFn>
    });

    // Per-layer budgets: the predicted wall clock of a layer is the
    // longest serial task chain over its groups (each group runs its
    // assignment in sequence) — the cost model's predictions, scaled to wall
    // seconds exactly like the bodies.
    let budgets_s: Vec<f64> = replay
        .plan
        .schedule
        .layers
        .iter()
        .map(|layer| {
            layer
                .assignments
                .iter()
                .map(|tasks| {
                    tasks
                        .iter()
                        .map(|&t| replay.duration(t).as_secs_f64())
                        .sum::<f64>()
                })
                .fold(0.0, f64::max)
        })
        .collect();

    // Fault-free recorded reference run: produces the bit-equality target
    // and the measured task times that feed the reconciliation (whose
    // error widens the deadline slack).
    let run = replay.run();
    let reference = run.store.snapshot();
    let rec = run.reconciliation;

    // Prediction-derived deadlines: per-layer budgets × reconciliation
    // slack, with floors sized so healthy jitter (and injected delays of up
    // to 30 ms) never looks like a failure.
    let policy = DeadlinePolicy::from_predictions(&budgets_s, 1.0)
        .with_reconciliation(&rec)
        .with_min_deadline(Duration::from_millis(150))
        .with_dead_after(Duration::from_millis(400))
        .with_poll(Duration::from_millis(10))
        .with_global_timeout(Some(Duration::from_secs(30)));
    let slack = policy.slack;
    println!(
        "{name}: {} tasks, {} layers, slack {slack:.2} (reconciled over {} tasks), \
         budgets {:?} ms{}",
        replay.request.graph.len(),
        replay.program.layers.len(),
        rec.compared,
        budgets_s
            .iter()
            .map(|s| (s * 1e3).round() as u64)
            .collect::<Vec<_>>(),
        if quick { " [quick]" } else { "" },
    );
    Workload {
        name,
        program: replay.program,
        policy,
        reference,
        slack,
    }
}

/// Run one seeded campaign; panics (failing the gate) on a wedge, a
/// result mismatch, or a blown recovery budget.
fn run_campaign(w: &Workload, seed: u64, workers: usize) -> CampaignEntry {
    let cfg = ChaosConfig::new(w.program.layers.len(), workers);
    let faults = FaultPlan::chaos(seed, &cfg);
    let recorder = Arc::new(TraceRecorder::for_team(workers));
    let team = Team::new(workers);
    let store = DataStore::new();
    let opts = RunOptions {
        retry: RetryPolicy::attempts(RETRY_ATTEMPTS)
            .with_backoff(Duration::from_millis(1))
            .with_max_backoff(Duration::from_millis(8))
            .with_jitter(0.5, seed),
        faults: faults.clone(),
        recorder: Some(recorder.clone()),
        deadline: Some(w.policy.clone()),
    };
    let t0 = Instant::now();
    let result = team.run_with(&w.program, &store, &opts);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ok = result.is_ok();
    let bit_equal = store.snapshot() == w.reference;
    let m = recorder.metrics().snapshot();
    let entry = CampaignEntry {
        program: w.name,
        seed,
        faults: faults
            .actions()
            .iter()
            .map(|a| {
                format!(
                    "L{} r{} a{} {:?}",
                    a.layer,
                    a.rank,
                    a.attempt.map_or("*".into(), |x| x.to_string()),
                    a.kind
                )
            })
            .collect(),
        fail_slow_only: faults.is_fail_slow_only(),
        wall_ms,
        ok,
        bit_equal,
        retries: counter(&m, keys::RETRIES),
        faults_injected: counter(&m, keys::FAULTS_INJECTED),
        deadline_misses: counter(&m, keys::DEADLINE_MISSES),
        hedges_spawned: counter(&m, keys::HEDGES_SPAWNED),
        hedges_won: counter(&m, keys::HEDGES_WON),
        demotions: counter(&m, keys::DEMOTIONS),
        workers_lost: counter(&m, keys::WORKERS_LOST),
        watchdog_fires: counter(&m, keys::WATCHDOG_FIRES),
    };
    assert!(
        ok,
        "{} seed {seed}: campaign did not complete: {:?}\nfaults: {:#?}",
        w.name,
        result.err(),
        faults.actions()
    );
    assert!(
        bit_equal,
        "{} seed {seed}: store diverged from the fault-free reference\nfaults: {:#?}",
        w.name,
        faults.actions()
    );
    assert_eq!(
        entry.watchdog_fires, 0,
        "{} seed {seed}: the global watchdog is a backstop and must stay silent",
        w.name
    );
    assert!(
        entry.retries < u64::from(RETRY_ATTEMPTS),
        "{} seed {seed}: {} retries blow the {RETRY_ATTEMPTS}-attempt budget",
        w.name,
        entry.retries
    );
    assert!(
        entry.hedges_spawned <= u64::from(MAX_HEDGES) * (entry.retries + 1),
        "{} seed {seed}: {} hedges exceed the per-attempt cap of {MAX_HEDGES}",
        w.name,
        entry.hedges_spawned,
    );
    entry
}

/// The watchdog-off scenario: a silent stall with per-layer deadlines
/// disabled must be broken by the global watchdog, not hang.
fn run_watchdog_only(w: &Workload, workers: usize) -> WatchdogEntry {
    let team = Team::new(workers);
    let store = DataStore::new();
    let opts = RunOptions {
        faults: FaultPlan::new().stall_at(0, 1, 1),
        deadline: Some(DeadlinePolicy::watchdog(Duration::from_millis(500))),
        ..RunOptions::default()
    };
    let t0 = Instant::now();
    let result = team.run_with(&w.program, &store, &opts);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (fired, stalled) = match result {
        Err(ExecError::WatchdogTimeout { stalled, .. }) => (true, stalled),
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    };
    assert!(
        wall_ms < 10_000.0,
        "watchdog took {wall_ms:.0} ms to break the wedge"
    );
    println!(
        "{}: watchdog-only stall broken in {wall_ms:.0} ms (stalled workers {stalled:?})",
        w.name
    );
    WatchdogEntry {
        program: w.name,
        wall_ms,
        fired,
        stalled,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let workers = pt_bench::replay::machine().total_cores();
    let target_wall = if quick { 0.06 } else { 0.12 };

    let epol_graph = pt_ode::Epol::new(4).step_graph(&pt_ode::Bruss2d::new(250), 1);
    let bt_graph = pt_nas::bt_mz(pt_nas::Class::A).step_graph(1);
    let workloads = [
        build_workload("epol_r4", epol_graph, target_wall, quick),
        build_workload("bt_mz_a", bt_graph, target_wall, quick),
    ];

    let seeds = if quick { QUICK_SEEDS } else { FULL_SEEDS };
    let mut campaigns = Vec::new();
    for w in &workloads {
        for seed in 0..seeds {
            let entry = run_campaign(w, seed, workers);
            println!(
                "{} seed {seed}: ok in {:.0} ms — {} faults, {} retries, \
                 {} hedges ({} won), {} demotions",
                w.name,
                entry.wall_ms,
                entry.faults.len(),
                entry.retries,
                entry.hedges_spawned,
                entry.hedges_won,
                entry.demotions
            );
            campaigns.push(entry);
        }
    }
    let watchdog_only = run_watchdog_only(&workloads[0], workers);

    assert_eq!(campaigns.len() as u64, 2 * seeds);
    assert!(campaigns.iter().all(|c| c.ok && c.bit_equal));
    println!(
        "\n{} campaigns: all completed bit-equal (slack epol {:.2} / bt {:.2}); \
         {} total retries, {} hedges spawned, {} won, {} demotions",
        campaigns.len(),
        workloads[0].slack,
        workloads[1].slack,
        campaigns.iter().map(|c| c.retries).sum::<u64>(),
        campaigns.iter().map(|c| c.hedges_spawned).sum::<u64>(),
        campaigns.iter().map(|c| c.hedges_won).sum::<u64>(),
        campaigns.iter().map(|c| c.demotions).sum::<u64>(),
    );

    let report = Report {
        benchmark: "seeded chaos campaigns (fail-stop + fail-slow) on executed schedules",
        machine: "chic (2 nodes, 8 cores)",
        quick,
        workers,
        retry_attempts: RETRY_ATTEMPTS,
        campaigns,
        watchdog_only,
    };
    pt_bench::report::write("CHAOS.json", quick, &report);
}

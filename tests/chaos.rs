#![allow(clippy::single_range_in_vec_init)] // worker-group layouts

//! Chaos-style integration tests of the fail-slow tolerance machinery:
//! randomized fail-slow campaigns under deadline-enabled runs, hedged
//! solver runs that must stay bit-identical to fault-free execution, the
//! global watchdog's bounded unwedging, and a guard proving that a silent
//! stall *without* the watchdog genuinely wedges (so the chaos gate tests
//! something real).

use proptest::prelude::*;
use pt_exec::{
    ChaosConfig, DataStore, DeadlinePolicy, ExecError, FaultPlan, GroupPlan, Program, RetryPolicy,
    RunOptions, Snapshot, TaskCtx, TaskFn, Team,
};
use pt_obs::{keys, TraceRecorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generous bound for "completes in bounded time".
const WATCHDOG: Duration = Duration::from_secs(30);

fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("run did not complete in bounded time — wedge?")
}

/// A two-layer, four-worker program whose results are independent of the
/// group layout (collectives reduce identical values, rank 0 publishes
/// constants), so retries, shrink-and-continue replans, and committed
/// hedges must all reproduce the fault-free store bit-for-bit.
fn layout_free_program() -> Program {
    let work = |out: &'static str| -> Arc<TaskFn> {
        Arc::new(move |ctx: &TaskCtx| {
            std::thread::sleep(Duration::from_millis(1));
            let v = ctx.comm.allreduce_max_scalar(ctx.rank, 2.5);
            if ctx.rank == 0 {
                ctx.store.put(out, vec![v; 16]);
            }
        })
    };
    let mut p = Program::single_layer(vec![
        GroupPlan::new(0..2, vec![work("a")]),
        GroupPlan::new(2..4, vec![work("b")]),
    ]);
    p.push_layer(vec![GroupPlan::new(0..4, vec![work("c")])]);
    p
}

fn reference_snapshot(program: &Program) -> Snapshot {
    let team = Team::new(4);
    let store = DataStore::new();
    team.run(program, &store).expect("fault-free run");
    store.snapshot()
}

fn fail_slow_policy(layers: usize) -> DeadlinePolicy {
    DeadlinePolicy::from_budgets(vec![Duration::from_millis(5); layers])
        .with_slack(1.0)
        .with_min_deadline(Duration::from_millis(20))
        .with_dead_after(Duration::from_millis(50))
        .with_poll(Duration::from_millis(2))
        .with_global_timeout(Some(Duration::from_secs(20)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any fail-slow-only campaign (delays, slowdowns, silent stalls — no
    /// crashes) must complete under a deadline-enabled run and leave the
    /// store bit-identical to fault-free execution: stragglers get hedged,
    /// corpses get demoted, and the replanned survivors finish the job.
    #[test]
    fn fail_slow_campaigns_complete_bit_equal(seed in any::<u64>()) {
        let program = layout_free_program();
        let reference = reference_snapshot(&program);
        let cfg = ChaosConfig {
            fail_stop: false,
            ..ChaosConfig::new(program.layers.len(), 4)
        };
        let faults = FaultPlan::chaos(seed, &cfg);
        prop_assert!(faults.is_fail_slow_only());
        let snapshot = bounded(move || {
            let team = Team::new(4);
            let store = DataStore::new();
            let opts = RunOptions {
                retry: RetryPolicy::attempts(6).with_backoff(Duration::from_millis(1)),
                faults: faults.clone(),
                recorder: None,
                deadline: Some(fail_slow_policy(program.layers.len())),
            };
            team.run_with(&program, &store, &opts)
                .unwrap_or_else(|e| panic!("seed {seed}: {e} (faults {:?})", faults.actions()));
            store.snapshot()
        });
        prop_assert_eq!(snapshot, reference, "seed {} diverged", seed);
    }
}

/// Hedged runs of all five ODE solvers must be bit-identical to their
/// fault-free runs: a straggling rank is raced by a speculative duplicate
/// whose committed overlay carries exactly the numbers the straggler would
/// have produced (deterministic task bodies, first-finisher-wins).
#[test]
fn hedged_solver_runs_are_bit_identical_across_all_five_solvers() {
    use parallel_tasks::ode::pab::{startup, state_to_store};
    use parallel_tasks::ode::{Bruss2d, Diirk, Epol, Irk, OdeSystem, Pab, Pabm};
    use std::sync::atomic::AtomicUsize;

    let sys_c = Bruss2d::new(4);
    let y0 = sys_c.initial_value();
    let h = 4e-4;
    let sys: Arc<dyn OdeSystem> = Arc::new(sys_c.clone());
    let st0 = startup(&sys_c, 0.0, &y0, h, 4);

    // (name, workers, program, store seeder)
    type Seeder = Box<dyn Fn(&Arc<DataStore>)>;
    let state_seeder = |y0: Vec<f64>| -> Seeder {
        Box::new(move |store: &Arc<DataStore>| {
            store.put("t", vec![0.0]);
            store.put("h", vec![h]);
            store.put("eta", y0.clone());
        })
    };
    let pab_seeder = |st: parallel_tasks::ode::pab::BlockState| -> Seeder {
        Box::new(move |store: &Arc<DataStore>| state_to_store(&st, store))
    };
    let cases: Vec<(&str, usize, Program, Seeder)> = vec![
        (
            "epol",
            4,
            Epol::new(4).build_program(&sys, &[0..2, 2..4]),
            state_seeder(y0.clone()),
        ),
        (
            "irk",
            3,
            Irk::new(4, 3).build_program(&sys, &[0..2, 2..3]),
            state_seeder(y0.clone()),
        ),
        (
            "diirk",
            3,
            Diirk::new(3, 2).build_program(
                &sys,
                &[0..1, 1..2, 2..3],
                Arc::new(AtomicUsize::new(0)),
            ),
            state_seeder(y0.clone()),
        ),
        (
            "pab",
            4,
            Pab::new(4).build_program(&sys, &[0..2, 2..4]),
            pab_seeder(st0.clone()),
        ),
        (
            "pabm",
            4,
            Pabm::new(4, 2).build_program(&sys, &[0..2, 2..4]),
            pab_seeder(st0.clone()),
        ),
    ];

    for (name, workers, program, seed_store) in cases {
        // Fault-free reference: two macro steps.
        let reference = bounded({
            let program = program.clone();
            let store = DataStore::new();
            seed_store(&store);
            move || {
                let team = Team::new(workers);
                team.run(&program, &store).unwrap();
                team.run(&program, &store).unwrap();
                store.snapshot()
            }
        });

        // Hedged run: rank 1 is delayed past the deadline floor and slowed,
        // so the monitor classifies it straggler and races a hedge.
        let store = DataStore::new();
        seed_store(&store);
        let (snapshot, spawned) = bounded({
            let program = program.clone();
            move || {
                let recorder = Arc::new(TraceRecorder::for_team(workers));
                let team = Team::new(workers);
                let opts = RunOptions {
                    faults: FaultPlan::new()
                        .delay(0, 1, Duration::from_millis(40))
                        .slow_by(0, 1, 8.0),
                    deadline: Some(
                        DeadlinePolicy::from_budgets(vec![
                            Duration::from_millis(2);
                            program.layers.len()
                        ])
                        .with_slack(1.0)
                        .with_min_deadline(Duration::from_millis(10))
                        // Never classify the straggler dead: hedging only.
                        .with_dead_after(Duration::from_secs(30))
                        .with_poll(Duration::from_millis(2))
                        .with_global_timeout(Some(Duration::from_secs(20))),
                    ),
                    ..RunOptions::default()
                }
                .with_recorder(recorder.clone());
                team.run_with(&program, &store, &opts).unwrap();
                team.run(&program, &store).unwrap(); // second step fault-free
                let spawned = recorder
                    .metrics()
                    .snapshot()
                    .counter(keys::HEDGES_SPAWNED)
                    .unwrap_or(0);
                (store.snapshot(), spawned)
            }
        });
        assert!(
            spawned >= 1,
            "{name}: the delayed straggler must trigger at least one hedge"
        );
        assert_eq!(
            snapshot, reference,
            "{name}: hedged run diverged from fault-free bits"
        );
    }
}

/// With per-layer deadlines disabled, a silent stall can only be broken by
/// the global watchdog — which must fire, name the culprit, and return in
/// bounded time.
#[test]
fn global_watchdog_is_the_last_line_of_defence() {
    let (err, elapsed, alive) = bounded(|| {
        let team = Team::new(4);
        let store = DataStore::new();
        let program = layout_free_program();
        let opts = RunOptions {
            faults: FaultPlan::new().stall_at(0, 2, 1),
            deadline: Some(DeadlinePolicy::watchdog(Duration::from_millis(300))),
            ..RunOptions::default()
        };
        let t0 = Instant::now();
        let err = team.run_with(&program, &store, &opts).unwrap_err();
        (err, t0.elapsed(), team.alive_workers())
    });
    match err {
        ExecError::WatchdogTimeout { layer, stalled } => {
            assert_eq!(layer, 0);
            assert!(stalled.contains(&2), "stalled {stalled:?} must name rank 2");
            // The genuinely stalled rank is always demoted; peers reported
            // alongside it (still mid-layer at firing time) are demoted
            // unless they moved on before the CAS — so the loss count is
            // between 1 and the reported stall set.
            assert!(
                (4 - stalled.len()..=3).contains(&alive),
                "alive {alive} vs stalled {stalled:?}"
            );
        }
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "unwedging took {elapsed:?}"
    );
}

/// The guard that keeps the chaos gate honest: a silent stall with NO
/// deadline policy genuinely wedges the run — if this ever starts
/// completing, `Stall` no longer models fail-slow and the watchdog tests
/// above are testing nothing.
#[test]
fn stall_without_watchdog_wedges_the_run() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let team = Team::new(2);
        let store = DataStore::new();
        let task: Arc<TaskFn> = Arc::new(|_ctx: &TaskCtx| {});
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![task])]);
        let opts = RunOptions {
            faults: FaultPlan::new().stall_at(0, 1, 1),
            ..RunOptions::default()
        };
        let _ = tx.send(team.run_with(&program, &store, &opts));
        // Unreachable while Stall models fail-slow; the thread (and the
        // stalled team it owns) is abandoned when the test binary exits.
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(1500)).is_err(),
        "a silent stall must wedge a run that has no watchdog"
    );
}

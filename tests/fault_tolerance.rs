//! Integration tests for the fault-tolerant execution path: abortable
//! collectives, typed errors, layer-granular retry with `DataStore`
//! rollback, and shrink-and-continue after permanent worker loss.
//!
//! Every scenario that could historically wedge the team (panic while peers
//! are blocked inside a collective) is run under a watchdog so a regression
//! shows up as a test failure, not a hung CI job.

use pt_exec::{
    DataStore, ExecError, FaultPlan, GroupPlan, Program, RetryPolicy, RunOptions, TaskCtx, TaskFn,
    Team,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generous bound for "completes in bounded time": these programs finish in
/// milliseconds when healthy, so hitting this means a deadlock.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Run `f` on a helper thread and fail the test if it does not finish
/// within [`WATCHDOG`].
fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("run did not complete in bounded time — collective wedge?")
}

/// A task that drags every rank of its group through a collective, then has
/// rank 0 publish the group sum of `rank + 1`.
fn allreduce_task(out: &'static str) -> Arc<TaskFn> {
    Arc::new(move |ctx: &TaskCtx| {
        let mut v = vec![ctx.rank as f64 + 1.0];
        ctx.comm.allreduce_sum(ctx.rank, &mut v);
        if ctx.rank == 0 {
            ctx.store.put(out, v);
        }
    })
}

#[test]
fn panic_inside_collective_returns_typed_error_in_bounded_time() {
    let (team, err) = bounded(|| {
        let team = Team::new(4);
        let store = DataStore::new();
        // One group of 4; the injected panic hits rank 1 before its task
        // runs, while ranks 0, 2, 3 block inside the allreduce.  Without
        // abortable collectives this deadlocks.
        let program = Program::single_layer(vec![GroupPlan::new(0..4, vec![allreduce_task("s")])]);
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at(0, 1, 1),
            ..RunOptions::default()
        };
        let err = team.run_with(&program, &store, &opts).unwrap_err();
        (team, err)
    });
    match err {
        ExecError::TaskPanicked {
            layer,
            group,
            payload,
        } => {
            assert_eq!(layer, 0);
            assert_eq!(group, 0);
            assert!(payload.contains("injected panic"), "payload: {payload}");
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }

    // The same team completes a subsequent fault-free run.
    bounded(move || {
        let store = DataStore::new();
        let program = Program::single_layer(vec![GroupPlan::new(0..4, vec![allreduce_task("s")])]);
        team.run(&program, &store).unwrap();
        assert_eq!(store.get("s").unwrap(), vec![10.0]); // 1+2+3+4
    });
}

#[test]
fn panic_in_sibling_group_does_not_wedge_other_groups() {
    bounded(|| {
        let team = Team::new(4);
        let store = DataStore::new();
        let program = Program::single_layer(vec![
            GroupPlan::new(0..2, vec![allreduce_task("a")]),
            GroupPlan::new(2..4, vec![allreduce_task("b")]),
        ]);
        // Rank 3 = rank 1 of the second group; the first group is healthy
        // and must still reach the layer barrier for the run to finish.
        let opts = RunOptions {
            faults: FaultPlan::new().panic_at(0, 3, 1),
            ..RunOptions::default()
        };
        let err = team.run_with(&program, &store, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::TaskPanicked {
                    layer: 0,
                    group: 1,
                    ..
                }
            ),
            "got {err:?}"
        );
        // The healthy group's result was produced before the failure was
        // reported (same layer, different communicator).
        assert_eq!(store.get("a").unwrap(), vec![3.0]);
    });
}

#[test]
fn retry_rolls_back_store_and_matches_fault_free_run() {
    // Layer 0 publishes a base array; layer 1 mutates it (pre-collective)
    // and then fails twice.  Under a 3-attempt policy the third attempt
    // succeeds, and rollback must have undone the two partial mutations:
    // the final store equals the fault-free run's store exactly.
    fn build_program() -> Program {
        let init: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            if ctx.rank == 0 {
                ctx.store.put("acc", vec![0.0]);
            }
        });
        let bump: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            if ctx.rank == 1 {
                // Partial effect before the group synchronises: visible in
                // the store even on attempts where rank 0 panics.
                let mut acc = ctx.store.get("acc").unwrap();
                acc[0] += 1.0;
                ctx.store.put("acc", acc);
            }
            ctx.comm.barrier();
        });
        let mut p = Program::single_layer(vec![GroupPlan::new(0..2, vec![init])]);
        p.push_layer(vec![GroupPlan::new(0..2, vec![bump])]);
        p
    }

    let faulty = bounded(|| {
        let team = Team::new(2);
        let store = DataStore::new();
        let opts = RunOptions {
            retry: RetryPolicy::attempts(3),
            faults: FaultPlan::new().panic_at(1, 0, 1).panic_at(1, 0, 2),
            ..RunOptions::default()
        };
        team.run_with(&build_program(), &store, &opts).unwrap();
        store.snapshot()
    });

    let clean = bounded(|| {
        let team = Team::new(2);
        let store = DataStore::new();
        team.run(&build_program(), &store).unwrap();
        store.snapshot()
    });

    assert_eq!(faulty, clean);
    assert_eq!(
        faulty
            .entries()
            .iter()
            .find(|(n, _)| n == "acc")
            .map(|(_, v)| v.clone()),
        Some(vec![1.0]),
        "rollback must erase the two failed attempts' increments"
    );
}

#[test]
fn retries_exhausted_reports_the_final_error() {
    bounded(|| {
        let team = Team::new(2);
        let store = DataStore::new();
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![allreduce_task("s")])]);
        let opts = RunOptions {
            retry: RetryPolicy::attempts(2),
            // Fails on every attempt.
            faults: FaultPlan::new().panic_at(0, 0, 1).panic_at(0, 0, 2),
            ..RunOptions::default()
        };
        let err = team.run_with(&program, &store, &opts).unwrap_err();
        assert!(matches!(err, ExecError::TaskPanicked { layer: 0, .. }));
        // Still usable afterwards.
        team.run(&program, &store).unwrap();
        assert_eq!(store.get("s").unwrap(), vec![3.0]);
    });
}

#[test]
fn worker_loss_shrinks_team_and_continues() {
    bounded(|| {
        let team = Team::new(4);
        let store = DataStore::new();
        let program = Program::single_layer(vec![GroupPlan::new(0..4, vec![allreduce_task("n")])]);
        let opts = RunOptions {
            retry: RetryPolicy::attempts(2),
            faults: FaultPlan::new().lose_at(0, 3, 1),
            ..RunOptions::default()
        };
        team.run_with(&program, &store, &opts).unwrap();
        // The retry re-planned the layer onto the 3 survivors.
        assert_eq!(team.alive_workers(), 3);
        assert_eq!(store.get("n").unwrap(), vec![6.0]); // 1+2+3

        // A program sized for the original team is now rejected, not hung.
        let err = team.run(&program, &store).unwrap_err();
        assert!(matches!(err, ExecError::InvalidProgram(_)), "got {err:?}");

        // One sized for the survivors still runs on the same team.
        let fit = Program::single_layer(vec![GroupPlan::new(0..3, vec![allreduce_task("m")])]);
        team.run(&fit, &store).unwrap();
        assert_eq!(store.get("m").unwrap(), vec![6.0]);
    });
}

#[test]
fn worker_loss_without_retry_is_a_typed_error() {
    bounded(|| {
        let team = Team::new(3);
        let store = DataStore::new();
        let program = Program::single_layer(vec![GroupPlan::new(0..3, vec![allreduce_task("n")])]);
        let opts = RunOptions {
            faults: FaultPlan::new().lose_at(0, 1, 1),
            ..RunOptions::default()
        };
        let err = team.run_with(&program, &store, &opts).unwrap_err();
        assert!(
            matches!(err, ExecError::WorkerLost { layer: 0, .. }),
            "got {err:?}"
        );
        assert_eq!(team.alive_workers(), 2);
    });
}

#[test]
fn injected_delay_slows_but_does_not_fail_the_run() {
    use pt_obs::{keys, Phase, TraceRecorder};

    let delay = Duration::from_millis(50);
    let (events, snapshot) = bounded(move || {
        let recorder = Arc::new(TraceRecorder::for_team(2));
        let team = Team::new(2);
        let store = DataStore::new();
        let program = Program::single_layer(vec![GroupPlan::new(0..2, vec![allreduce_task("s")])]);
        let opts = RunOptions {
            faults: FaultPlan::new().delay(0, 1, delay),
            ..RunOptions::default()
        }
        .with_recorder(recorder.clone());
        let start = Instant::now();
        team.run_with(&program, &store, &opts).unwrap();
        assert!(start.elapsed() >= delay, "straggler delay was not applied");
        assert_eq!(store.get("s").unwrap(), vec![3.0]);
        drop((team, opts));
        let mut recorder = Arc::try_unwrap(recorder).expect("recorder handles released");
        let events = recorder.drain();
        let snapshot = recorder.metrics().snapshot();
        (events, snapshot)
    });

    // The delay surfaces as its own distinct instant (not a generic fault
    // marker) and its duration is accounted in the delay counter.
    let delays: Vec<_> = events
        .iter()
        .filter(|e| e.phase == Phase::Instant && e.name == "fault:delay")
        .collect();
    assert_eq!(delays.len(), 1);
    assert_eq!(snapshot.counter(keys::FAULTS_INJECTED), Some(1));
    assert_eq!(
        snapshot.counter(keys::FAULT_DELAY_US),
        Some(delay.as_micros() as u64),
        "delay duration must be accounted in microseconds"
    );
}

#[test]
fn replanning_after_worker_loss_schedules_the_survivors() {
    use pt_core::LayerScheduler;
    use pt_cost::CostModel;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, DataRef, MTask, Spec};

    // An EPOL-like step: four parallel stages feeding a combine task.
    let graph = Spec::seq(vec![
        Spec::parfor(0..4, |i| {
            Spec::task(MTask::with_comm(
                format!("stage{i}"),
                1e9,
                vec![CommOp::allgather(8e3, 1.0)],
            ))
            .defines([DataRef::block(format!("V{i}"), 8e3)])
        }),
        Spec::task(MTask::compute("combine", 1e7)).uses((0..4).map(|i| format!("V{i}"))),
    ])
    .compile_flat();

    let spec = platforms::chic().with_nodes(2); // 8 cores
    let model = CostModel::new(&spec);
    let scheduler = LayerScheduler::new(&model);

    // Plan for the full team.
    let planned = scheduler.schedule_on(&graph, 8);
    assert!(planned.validate().is_ok());

    // Execute the planned group structure with one worker permanently
    // lost mid-run; the layer-granular retry shrinks the team and
    // finishes on the survivors.
    let barrier_task: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
        ctx.comm.barrier();
    });
    let mut layers = planned.layers.iter().filter_map(|layer| {
        let mut lo = 0;
        let mut groups = Vec::new();
        for (g, &size) in layer.group_sizes.iter().enumerate() {
            if !layer.assignments[g].is_empty() {
                let tasks = vec![barrier_task.clone(); layer.assignments[g].len()];
                groups.push(GroupPlan::new(lo..lo + size, tasks));
            }
            lo += size;
        }
        (!groups.is_empty()).then_some(groups)
    });
    let mut program = Program::single_layer(layers.next().expect("schedule has a layer"));
    for groups in layers {
        program.push_layer(groups);
    }
    let team = bounded(move || {
        let team = Team::new(8);
        let store = DataStore::new();
        let opts = RunOptions {
            retry: RetryPolicy::attempts(2),
            faults: FaultPlan::new().lose_at(0, 7, 1),
            ..RunOptions::default()
        };
        team.run_with(&program, &store, &opts).unwrap();
        team
    });
    let survivors = team.alive_workers();
    assert_eq!(survivors, 7);

    // Replan onto the survivors: a valid schedule over exactly their
    // cores.
    let replanned = scheduler.schedule_on(&graph, survivors);
    assert!(replanned.validate().is_ok());
    assert_eq!(replanned.total_cores, survivors);
    for layer in &replanned.layers {
        assert_eq!(layer.group_sizes.iter().sum::<usize>(), survivors);
    }
}

#[test]
fn multi_layer_retry_only_replays_the_failed_layer() {
    // Layer 0 counts its executions; a fault in layer 1 plus retry must not
    // re-run layer 0.
    bounded(|| {
        let team = Team::new(2);
        let store = DataStore::new();
        store.put("layer0_runs", vec![0.0]);
        let count: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            if ctx.rank == 0 {
                let mut c = ctx.store.get("layer0_runs").unwrap();
                c[0] += 1.0;
                ctx.store.put("layer0_runs", c);
            }
        });
        let noop: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            ctx.comm.barrier();
        });
        let mut program = Program::single_layer(vec![GroupPlan::new(0..2, vec![count])]);
        program.push_layer(vec![GroupPlan::new(0..2, vec![noop])]);
        let opts = RunOptions {
            retry: RetryPolicy::attempts(2),
            faults: FaultPlan::new().panic_at(1, 0, 1),
            ..RunOptions::default()
        };
        team.run_with(&program, &store, &opts).unwrap();
        assert_eq!(store.get("layer0_runs").unwrap(), vec![1.0]);
    });
}

#[test]
fn fault_injection_trace_matches_retry_accounting() {
    // A recorded faulty run must tell the same story twice: the metrics
    // counters, the instant events in the trace, and the run's observable
    // retry behaviour all have to agree on how many faults fired and how
    // many retries happened.
    use pt_obs::{keys, Phase, TraceRecorder};

    let (events, snapshot) = bounded(|| {
        let recorder = Arc::new(TraceRecorder::for_team(2));
        let team = Team::new(2);
        let store = DataStore::new();
        let init: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            if ctx.rank == 0 {
                ctx.store.put("base", vec![1.0]);
            }
        });
        let sync: Arc<TaskFn> = Arc::new(|ctx: &TaskCtx| {
            ctx.comm.barrier();
        });
        let mut program = Program::single_layer(vec![GroupPlan::new(0..2, vec![init])]);
        program.push_layer(vec![GroupPlan::new(0..2, vec![sync])]);
        // Rank 0 panics on the first two attempts of layer 1; the third
        // succeeds under a 3-attempt policy.
        let opts = RunOptions {
            retry: RetryPolicy::attempts(3),
            faults: FaultPlan::new().panic_at(1, 0, 1).panic_at(1, 0, 2),
            ..RunOptions::default()
        }
        .with_recorder(recorder.clone());
        team.run_with(&program, &store, &opts).unwrap();
        drop((team, opts));
        let mut recorder = Arc::try_unwrap(recorder).expect("recorder handles released");
        let events = recorder.drain();
        let snapshot = recorder.metrics().snapshot();
        (events, snapshot)
    });

    let instants = |name: &str| {
        events
            .iter()
            .filter(|e| e.phase == Phase::Instant && e.name == name)
            .count() as u64
    };

    // Two injected panics, each triggering one rollback + retry.
    assert_eq!(snapshot.counter(keys::FAULTS_INJECTED), Some(2));
    assert_eq!(snapshot.counter(keys::RETRIES), Some(2));
    assert_eq!(snapshot.counter(keys::ROLLBACKS), Some(2));
    assert_eq!(instants("fault:panic"), 2);
    assert_eq!(instants("retry"), 2);
    assert_eq!(
        instants("panic"),
        2,
        "each injected fault surfaces as a task panic"
    );

    // Counters and trace agree with each other, not just with the plan.
    assert_eq!(
        snapshot.counter(keys::FAULTS_INJECTED),
        Some(instants("fault:panic") + instants("fault:delay") + instants("fault:lose"))
    );
    assert_eq!(snapshot.counter(keys::RETRIES), Some(instants("retry")));
    assert_eq!(
        snapshot.counter(keys::COLLECTIVE_ABORTS),
        Some(instants("collective_abort")),
        "abort counter must match abort instants"
    );

    // Task accounting: layer 0 runs once on 2 ranks; layer 1's two failed
    // attempts never complete a task body (rank 0 panics pre-task, rank 1
    // is aborted inside its barrier), the successful third attempt
    // completes on both ranks.
    assert_eq!(snapshot.counter(keys::TASKS_RUN), Some(4));

    // Per-attempt spans: the driver records one span per retry loop
    // iteration that reaches the report phase.
    let attempts = events
        .iter()
        .filter(|e| e.name == "attempt" && e.cat == "exec")
        .count();
    assert_eq!(attempts, 3, "three attempts: two faulty, one clean");
}

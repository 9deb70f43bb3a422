//! `trace_run` — execute an example program with recording on and write the
//! observability artefacts:
//!
//! * `trace.json` — Chrome-trace JSON holding the *measured* executor
//!   timeline (worker rows), the scheduler phases, and the *simulated*
//!   timeline of the same program on the modelled cluster (node×core rows).
//!   Open it at <https://ui.perfetto.dev> or `chrome://tracing`.
//! * `metrics.json` — the counter/histogram snapshot of the run.
//! * `reconciliation.json` — per-task and per-layer prediction-error tables
//!   joining predicted (symbolic cost model), simulated (timeline) and
//!   measured (wall clock) task times; also printed as a text table.
//!
//! The program is the EPOL time-step graph of the paper's evaluation
//! (R = 4 stage chains on BRUSS2D), replayed through
//! [`pt_bench::replay`]: planned on a 2-node CHiC machine model and
//! executed by a worker-thread `Team` with task bodies that busy-wait for
//! their simulated durations — so measured times should reconcile with
//! simulated ones up to scheduling noise, and the prediction-error columns
//! exercise the full join.
//!
//! `--quick` shortens the run for CI (same artefacts, smaller durations).

use pt_bench::replay::Replay;
use pt_bench::report::repo_path;
use pt_exec::{TaskCtx, TaskFn, EXEC_PID};
use pt_obs::{keys, Reconciliation, TraceProbe};
use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget the synthetic task bodies are scaled to fill.
fn target_wall(quick: bool) -> f64 {
    if quick {
        0.25
    } else {
        1.0
    }
}

fn busy_wait(dur: Duration) {
    let end = Instant::now() + dur;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Every task busy-waits for its scaled simulated duration; rank 0
    // publishes a small array (re-distribution traffic).
    let graph = pt_ode::Epol::new(4).step_graph(&pt_ode::Bruss2d::new(250), 1);
    let mut replay = Replay::new(graph, target_wall(quick), |t, dur| {
        Arc::new(move |ctx: &TaskCtx| {
            busy_wait(dur);
            if ctx.rank == 0 {
                ctx.store.put(format!("out{}", t.0), vec![0.0; 64]);
            }
        }) as Arc<TaskFn>
    });
    println!(
        "EPOL r=4: {} tasks, {} layers, simulated makespan {:.4}s",
        replay.request.graph.len(),
        replay.plan.schedule.layers.len(),
        replay.plan.report.makespan
    );

    let run = replay.run();
    println!("executed in {:.4}s wall clock", run.wall.as_secs_f64());
    assert!(!run.events.is_empty(), "recording produced no events");
    let rec = run.reconciliation;
    println!(
        "recorded {} events ({} dropped), reconciled {} tasks",
        run.events.len(),
        run.dropped,
        rec.compared
    );

    // -- trace.json: executor + scheduler + simulated rows -----------------
    let request = &replay.request;
    let p = request.total_cores;
    let mapping = request.mapping.mapping(&request.machine, p);
    let mut trace = pt_sim::chrome_trace(
        &request.graph,
        &replay.plan.schedule,
        &replay.plan.report,
        &mapping,
        &request.machine,
    );
    trace.name_process(EXEC_PID, "executor");
    for w in 0..p {
        trace.name_thread(EXEC_PID, w as u32, format!("worker{w}"));
    }
    trace.name_thread(EXEC_PID, p as u32, "driver");
    trace.name_process(pt_core::SCHED_PID, "scheduler");
    trace.name_thread(pt_core::SCHED_PID, 0, "phases");
    trace.extend(run.events);
    let trace_json = trace.to_json();
    std::fs::write(repo_path("trace.json"), &trace_json).expect("write trace.json");

    // -- metrics.json ------------------------------------------------------
    let metrics_json = serde_json::to_string_pretty(&run.metrics).expect("metrics serialise");
    std::fs::write(repo_path("metrics.json"), metrics_json).expect("write metrics.json");

    // -- reconciliation.json + table --------------------------------------
    std::fs::write(repo_path("reconciliation.json"), rec.to_json())
        .expect("write reconciliation.json");
    println!("\n{}", rec.render_table());

    // -- Self-validate the artefacts --------------------------------------
    let probe = TraceProbe::parse(&trace_json).expect("trace.json parses as Chrome trace");
    assert!(probe.event_count() > 0, "trace.json holds no events");
    let back: pt_obs::MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(repo_path("metrics.json")).unwrap())
            .expect("metrics.json parses");
    let tasks_run = back.counter(keys::TASKS_RUN).unwrap_or(0);
    assert!(tasks_run > 0, "no task bodies recorded");
    assert!(rec.compared > 0, "reconciliation joined no tasks");
    print_summary(&back, &rec, quick);
    println!(
        "wrote {} + metrics.json + reconciliation.json",
        repo_path("trace.json").display()
    );
}

fn print_summary(m: &pt_obs::MetricsSnapshot, rec: &Reconciliation, quick: bool) {
    let summary = Value::Map(vec![
        ("quick".into(), Value::Bool(quick)),
        (
            "tasks_run".into(),
            Value::UInt(m.counter(keys::TASKS_RUN).unwrap_or(0)),
        ),
        (
            "redist_bytes".into(),
            Value::UInt(m.counter(keys::REDIST_BYTES).unwrap_or(0)),
        ),
        ("compared".into(), Value::UInt(rec.compared as u64)),
        (
            "mean_abs_predicted_err".into(),
            Value::Float(rec.mean_abs_predicted_err),
        ),
        (
            "barrier_wait_mean_s".into(),
            Value::Float(
                m.histogram(keys::BARRIER_WAIT)
                    .map(|h| h.mean)
                    .unwrap_or(0.0),
            ),
        ),
        (
            "cost_evaluations".into(),
            Value::UInt(m.counter(keys::COST_EVALUATIONS).unwrap_or(0)),
        ),
        (
            "note".into(),
            Value::Str("open trace.json at https://ui.perfetto.dev".into()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).expect("summary serialises")
    );
}

//! `recon_gate` — per-workload prediction-error regression gate.
//!
//! For each workload family of the evaluation (EPOL, IRK, BT-MZ) the gate
//! replays one scheduled step on a live `Team` through
//! [`pt_bench::replay`]: task bodies wait out their simulated durations,
//! the recorder's task spans are joined back to `TaskId`s, and
//! `pt_obs::Reconciliation` computes the relative error of the symbolic
//! cost model's per-task predictions against the measured wall clock.
//! Because the bodies replay the simulator, the error decomposes into
//! model-vs-simulator disagreement (deterministic) plus timer noise
//! (small) — so a jump in these numbers means the cost model, scheduler
//! or simulator drifted, not the machine.
//!
//! Hard gates per workload act on the **layer-critical** error: for every
//! layer, the relative error of the slowest predicted task against the
//! slowest measured task (the quantity the layer scheduler actually
//! minimizes).  Per-task means are recorded too but not gated — small
//! tasks scale down to microsecond busy-waits where relative noise
//! dominates.  Thresholds carry ~2x headroom over observed values since
//! the noise term varies across containers.  `RECON.json` at the repo
//! root records the current figures; it is committed, so any drift is
//! visible in review, and CI fails the build when a gate trips.
//!
//! `--quick` shortens the wall budget; gates run either way; the JSON goes
//! where [`pt_bench::report::write`] puts a quick or full run's report.

use pt_bench::replay::Replay;
use pt_exec::{TaskCtx, TaskFn};
use pt_mtask::TaskGraph;
use pt_obs::Reconciliation;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-workload layer-critical error ceilings (relative error, 1.0 = 100%).
struct Gate {
    name: &'static str,
    mean_gate: f64,
    max_gate: f64,
}

/// Committed thresholds.  These lock in the error levels observed today
/// (see `RECON.json`) with ~1.3x headroom for timer noise — they are
/// regression tripwires, not accuracy targets.  The absolute levels
/// differ a lot by workload: the symbolic model over-predicts EPOL's
/// `combine` layer ~2.9x and IRK's solve layers ~2.5x against the
/// simulator (a known bias that `suggested_slack` already absorbs
/// downstream), while BT-MZ's single skew-balanced layer is near-exact.
/// The gate exists so those biases cannot silently *grow*.
const GATES: &[Gate] = &[
    Gate {
        name: "epol_r4",
        mean_gate: 2.10,
        max_gate: 3.60,
    },
    Gate {
        name: "irk_r4",
        mean_gate: 3.10,
        max_gate: 3.50,
    },
    Gate {
        name: "bt_mz_a",
        mean_gate: 0.10,
        max_gate: 0.15,
    },
];

#[derive(Serialize)]
struct WorkloadRow {
    workload: &'static str,
    tasks: usize,
    layers: usize,
    compared: usize,
    /// Gated: mean over layers of |predicted_max / measured_max - 1|.
    mean_layer_err: f64,
    /// Gated: worst layer-critical relative error.
    max_layer_err: f64,
    /// Informational: per-task figures (noise-dominated for tiny tasks).
    mean_abs_predicted_err: f64,
    max_abs_predicted_err: f64,
    suggested_slack: f64,
    mean_gate: f64,
    max_gate: f64,
}

/// Layer-critical errors: relative error of each layer's slowest predicted
/// task against its slowest measured task; `(mean, max)` over layers.
fn layer_errors(rec: &Reconciliation) -> (f64, f64) {
    let errs: Vec<f64> = rec
        .layers
        .iter()
        .filter(|l| l.predicted_max > 0.0 && l.measured_max > 0.0)
        .map(|l| (l.predicted_max / l.measured_max - 1.0).abs())
        .collect();
    if errs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let max = errs.iter().fold(0.0f64, |m, &e| m.max(e));
    (mean, max)
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    machine: &'static str,
    cores: usize,
    quick: bool,
    workloads: Vec<WorkloadRow>,
}

/// Body wait primitive.  `trace_run` busy-waits to occupy cores like a
/// real solver; the gate *sleeps* instead: on CI hosts with fewer cores
/// than workers, N spinning threads contend for the CPU and every small
/// task picks up scheduler-timeslice noise larger than itself, whereas
/// sleeping threads don't contend and wake within ~a millisecond.  Each
/// rank's own span then stays accurate, which is why the replay measures
/// a task by its longest rank rather than the envelope across ranks.
fn timed_wait(dur: Duration) {
    let end = Instant::now() + dur;
    let now = Instant::now();
    if end > now {
        std::thread::sleep(end - now);
    }
}

fn workload_graph(name: &str) -> TaskGraph {
    match name {
        "epol_r4" => pt_ode::Epol::new(4).step_graph(&pt_ode::Bruss2d::new(250), 1),
        "irk_r4" => pt_ode::Irk::new(4, 3).step_graph(&pt_ode::Bruss2d::new(250), 1),
        "bt_mz_a" => pt_nas::bt_mz(pt_nas::Class::A).step_graph(1),
        other => panic!("unknown workload {other}"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let wall_budget = if quick { 0.25 } else { 1.0 };

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for gate in GATES {
        let mut replay = Replay::new(workload_graph(gate.name), wall_budget, |_, dur| {
            Arc::new(move |_: &TaskCtx| timed_wait(dur)) as Arc<TaskFn>
        });
        let rec = replay.run().reconciliation;
        let (tasks, layers) = (
            replay.request.graph.len(),
            replay.plan.schedule.layers.len(),
        );
        let (mean_layer_err, max_layer_err) = layer_errors(&rec);
        println!(
            "{}: {} tasks / {} layers, {} compared | layer err mean {:.1}% (gate {:.0}%) \
             max {:.1}% (gate {:.0}%) | per-task mean {:.1}% | suggested slack {:.2}",
            gate.name,
            tasks,
            layers,
            rec.compared,
            mean_layer_err * 100.0,
            gate.mean_gate * 100.0,
            max_layer_err * 100.0,
            gate.max_gate * 100.0,
            rec.mean_abs_predicted_err * 100.0,
            rec.suggested_slack(),
        );
        assert!(
            rec.compared > 0,
            "{}: reconciliation joined no tasks",
            gate.name
        );
        if mean_layer_err > gate.mean_gate {
            failures.push(format!(
                "{}: mean layer-critical err {:.1}% exceeds gate {:.0}%",
                gate.name,
                mean_layer_err * 100.0,
                gate.mean_gate * 100.0
            ));
        }
        if max_layer_err > gate.max_gate {
            failures.push(format!(
                "{}: max layer-critical err {:.1}% exceeds gate {:.0}%",
                gate.name,
                max_layer_err * 100.0,
                gate.max_gate * 100.0
            ));
        }
        rows.push(WorkloadRow {
            workload: gate.name,
            tasks,
            layers,
            compared: rec.compared,
            mean_layer_err,
            max_layer_err,
            mean_abs_predicted_err: rec.mean_abs_predicted_err,
            max_abs_predicted_err: rec.max_abs_predicted_err,
            suggested_slack: rec.suggested_slack(),
            mean_gate: gate.mean_gate,
            max_gate: gate.max_gate,
        });
    }

    let report = Report {
        benchmark: "per-workload prediction-error regression gate",
        machine: "chic",
        cores: pt_bench::replay::machine().total_cores(),
        quick,
        workloads: rows,
    };
    pt_bench::report::write("RECON.json", quick, &report);

    assert!(
        failures.is_empty(),
        "prediction-error regression:\n  {}",
        failures.join("\n  ")
    );
    println!("all prediction-error gates hold");
}

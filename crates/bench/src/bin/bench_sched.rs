//! Schedule-construction benchmark gate.
//!
//! Times how long the layer scheduler (Algorithm 1: chain contraction →
//! layering → best-first g-sweep → heap LPT → adjustment) takes to *build* a
//! schedule — not the simulated makespan — for the workhorse graphs of the
//! evaluation:
//!
//! * `epol_r8` — the extrapolation ODE method with R = 8 stage chains
//!   (76 tasks, contracted to 20 nodes).
//! * `bt_mz_c` — NAS BT-MZ class C, two unrolled time steps
//!   (two layers of 256 zone tasks each).
//! * `bt_mz_e` — NAS BT-MZ class E (two layers of 4096 zone tasks), the
//!   order-of-magnitude scale case.
//!
//! The baseline-anchored graphs are scheduled on JUROPA at
//! P ∈ {64, 256, 1024, 4096} symbolic cores and compared against the
//! pre-optimisation medians measured at commit 735d971 on the same
//! container; the scale cases run at P up to 65536 (a hypothetically
//! widened JUROPA — the real machine tops out at 17664 cores) and are
//! gated on absolute wall-clock ceilings instead, since no baseline commit
//! can schedule them in sensible time.  Results land in `BENCH_sched.json`
//! at the repository root so regressions show up as a diff.
//!
//! Per entry the benchmark records the median (`construct_ms`, the
//! representative cost) and the minimum (`min_ms`) over the repetitions.
//! Gates compare `min_ms`: scheduling is deterministic, so the spread is
//! one-sided container noise and the minimum is the robust estimate of
//! what the code costs.
//!
//! `--quick` reduces repetitions for CI smoke runs (still covering every
//! size, including P = 65536 and class E) and writes its JSON where
//! [`pt_bench::report::write`] puts quick runs.

use pt_bench::measure::{self, juropa_p};
use pt_cost::CostModel;
use serde::Serialize;
use std::time::Duration;

const CORE_COUNTS: [usize; 4] = [64, 256, 1024, 4096];

/// Pre-PR medians (milliseconds) measured at commit 735d971, same order as
/// [`CORE_COUNTS`].
const BASELINE_EPOL_MS: [f64; 4] = [0.0289, 0.0307, 0.0291, 0.0291];
const BASELINE_BT_MS: [f64; 4] = [6.5479, 41.9899, 42.7230, 39.8736];

#[derive(Serialize)]
struct Entry {
    graph: &'static str,
    tasks: usize,
    cores: usize,
    /// Median wall-clock milliseconds to construct one schedule.
    construct_ms: f64,
    /// Minimum over the repetitions (the gate metric).
    min_ms: f64,
    /// Same quantity at the pre-optimisation baseline commit (absent for
    /// the scale cases, which have no baseline).
    #[serde(skip_serializing_if = "Option::is_none")]
    baseline_ms: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    speedup: Option<f64>,
    /// Absolute ceiling on `min_ms` for the scale cases.
    #[serde(skip_serializing_if = "Option::is_none")]
    gate_ms: Option<f64>,
    reps: usize,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    machine: &'static str,
    baseline_commit: &'static str,
    quick: bool,
    results: Vec<Entry>,
}

/// `(median, min)` per-schedule construction time in milliseconds over
/// `reps` samples of `batch` back-to-back runs each (see
/// [`measure::median_min_ms`]).
fn time_schedule(graph: &pt_mtask::TaskGraph, p: usize, reps: usize, batch: usize) -> (f64, f64) {
    let spec = juropa_p(p);
    let model = CostModel::new(&spec);
    let sched = pt_core::LayerScheduler::new(&model);
    let schedule = sched.schedule(graph);
    assert!(schedule.validate().is_ok(), "invalid schedule for P = {p}");
    let (median, min, _) =
        measure::median_min_ms(reps, batch, Duration::ZERO, || sched.schedule(graph));
    (median, min)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Rep counts are chosen for gate stability, not run time: the gates
    // compare the min over samples, and a shared container needs enough
    // samples to catch one calm window (min-of-3 was observed tripping the
    // 5 ms BT gate purely on tenant load).
    let (epol_reps, bt_reps) = if quick { (40, 7) } else { (120, 9) };

    let epol = pt_ode::Epol::new(8).step_graph(&pt_ode::Bruss2d::new(500), 2);
    let bt = pt_nas::bt_mz(pt_nas::Class::C).step_graph(2);
    let bt_e = pt_nas::bt_mz(pt_nas::Class::E).step_graph(2);

    let mut results = Vec::new();
    for (name, graph, reps, batch, baseline) in [
        ("epol_r8", &epol, epol_reps, 8, &BASELINE_EPOL_MS),
        ("bt_mz_c", &bt, bt_reps, 1, &BASELINE_BT_MS),
    ] {
        for (i, &p) in CORE_COUNTS.iter().enumerate() {
            let (median, min) = time_schedule(graph, p, reps, batch);
            let entry = Entry {
                graph: name,
                tasks: graph.len(),
                cores: p,
                construct_ms: median,
                min_ms: min,
                baseline_ms: Some(baseline[i]),
                speedup: Some(baseline[i] / min),
                gate_ms: None,
                reps,
            };
            println!(
                "{name} P={p}: median {median:.4} ms, min {min:.4} ms \
                 (baseline {:.4} ms, {:.1}x)",
                baseline[i],
                baseline[i] / min
            );
            results.push(entry);
        }
    }

    // Scale cases: P = 65536 for the baseline graphs, BT-MZ class E at
    // P ∈ {4096, 65536}.  Ceilings are ≈3× the calm-container medians so
    // real complexity regressions trip them but tenant noise does not.
    let scale_reps = if quick { 1 } else { 3 };
    for (name, graph, p, gate_ms) in [
        ("epol_r8", &epol, 65536usize, 10.0),
        ("bt_mz_c", &bt, 65536, 20.0),
        ("bt_mz_e", &bt_e, 4096, 250.0),
        ("bt_mz_e", &bt_e, 65536, 300.0),
    ] {
        let (median, min) = time_schedule(graph, p, scale_reps, 1);
        println!("{name} P={p}: median {median:.2} ms, min {min:.2} ms (gate {gate_ms} ms)");
        results.push(Entry {
            graph: name,
            tasks: graph.len(),
            cores: p,
            construct_ms: median,
            min_ms: min,
            baseline_ms: None,
            speedup: None,
            gate_ms: Some(gate_ms),
            reps: scale_reps,
        });
    }

    // The two baseline-anchored gates have tight margins (15–25 % over the
    // calm-container cost), so a failing measurement is retried in later
    // time windows before the gate really fails.  The recorded entries
    // keep the first measurement.
    let remeasure = |graph: &pt_mtask::TaskGraph, p: usize, reps, batch, min_ms, limit_ms| {
        measure::retry_in_later_windows(min_ms, limit_ms, || time_schedule(graph, p, reps, batch).1)
    };

    // Gate: the scheduler hot path is instrumented (pt-obs spans), but with
    // no recorder attached it must stay within the ROADMAP threshold of
    // 5 ms for BT-MZ class C at P = 4096 — disabled recording is one branch
    // on an `Option`, not a regression.
    let gate = results
        .iter()
        .find(|e| e.graph == "bt_mz_c" && e.cores == 4096)
        .expect("bt_mz_c at P=4096 is always benchmarked");
    let best = remeasure(&bt, 4096, bt_reps, 1, gate.min_ms, 5.0);
    assert!(
        best <= 5.0,
        "recorder-off schedule construction regressed: bt_mz_c P=4096 took \
         {best:.4} ms (gate: 5 ms)"
    );

    // Gate: small graphs must not pay for the large-P machinery — the
    // epol_r8 construction must be at least as fast as the 735d971
    // baseline at every anchored core count.
    for (i, &p) in CORE_COUNTS.iter().enumerate() {
        let e = results
            .iter()
            .find(|e| e.graph == "epol_r8" && e.cores == p)
            .expect("epol_r8 is benchmarked at every anchored core count");
        let best = remeasure(&epol, p, epol_reps, 8, e.min_ms, BASELINE_EPOL_MS[i]);
        assert!(
            best <= BASELINE_EPOL_MS[i],
            "small-graph cheap path regressed: epol_r8 P={p} at {best:.4} ms \
             vs baseline {:.4} ms (gate: >= 1.0x)",
            BASELINE_EPOL_MS[i]
        );
    }

    // Gate: the scale cases stay under their wall-clock ceilings.
    for e in &results {
        if let Some(gate_ms) = e.gate_ms {
            assert!(
                e.min_ms <= gate_ms,
                "scale regression: {} P={} took {:.2} ms (gate: {gate_ms} ms)",
                e.graph,
                e.cores,
                e.min_ms
            );
        }
    }

    // Gate: a default-options executor run spawns no deadline monitor —
    // the fail-slow tolerance machinery must stay zero-cost when disabled.
    let per_layer_us = pt_bench::zero_cost::assert_monitor_free(64);
    println!("zero-cost probe: no monitor spawned, {per_layer_us:.1} us/layer");

    let report = Report {
        benchmark: "schedule construction (LayerScheduler::schedule wall clock)",
        machine: "juropa",
        baseline_commit: "735d971",
        quick,
        results,
    };
    pt_bench::report::write("BENCH_sched.json", quick, &report);
}

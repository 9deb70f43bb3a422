//! Simulator benchmark gate (the evaluation counterpart of `bench_sched`).
//!
//! Times how long the simulator takes to *evaluate* a schedule — not to
//! build it — for the workhorse graphs of the paper's evaluation:
//!
//! * `epol_r8` — the extrapolation ODE method with R = 8 stage chains
//!   (76 tasks) on BRUSS2D, two unrolled time steps.
//! * `bt_mz_c` — NAS BT-MZ class C (two layers of 256 zone tasks).
//! * `bt_mz_d` — NAS BT-MZ class D (two layers of 1024 zone tasks).
//! * `bt_mz_e` — NAS BT-MZ class E (two layers of 4096 zone tasks), the
//!   order-of-magnitude scale case.
//!
//! Each graph is scheduled once (untimed) by the layer scheduler on JUROPA;
//! the benchmark then times
//!
//! * `simulate_layered` on the layered schedule, and
//! * `simulate_flat` on its flattened form (the two-pass contention
//!   refinement — the hot path this gate protects).
//!
//! The baseline-anchored cases run at P ∈ {64, 256, 1024, 4096} symbolic
//! cores against the pre-optimisation means measured at commit 0a214f9 on
//! the same container; the scale cases run at P up to 65536 (a
//! hypothetically widened JUROPA) and are gated on absolute wall-clock
//! ceilings instead.  Results land in `BENCH_SIM.json` at the repository
//! root so regressions show up as a diff.
//!
//! Per timing the benchmark records the median (`sim_ms`) and the minimum
//! (`min_ms`) over the repetitions; gates compare `min_ms` — simulation is
//! deterministic, so the spread is one-sided container noise and the
//! minimum is the robust estimate of what the code costs.
//!
//! `--quick` reduces repetitions and skips class D for CI smoke runs
//! (still covering P = 65536 and class E); its noisy single-rep timings go
//! where [`pt_bench::report::write`] puts quick runs, never over the
//! committed gate numbers.

use pt_bench::measure::{self, juropa_p};
use pt_core::{LayerScheduler, MappingStrategy};
use pt_cost::CostModel;
use serde::Serialize;

const CORE_COUNTS: [usize; 4] = [64, 256, 1024, 4096];

/// Pre-PR means (milliseconds) measured at commit 0a214f9, same order as
/// [`CORE_COUNTS`].
const BASELINE_FLAT_EPOL_MS: [f64; 4] = [0.8461, 5.5625, 90.3563, 1955.2274];
const BASELINE_FLAT_BT_C_MS: [f64; 4] = [11.0252, 11.1936, 18.3722, 37.3385];
const BASELINE_FLAT_BT_D_MS: [f64; 4] = [119.7715, 421.4431, 423.1984, 584.8396];
const BASELINE_LAYERED_EPOL_MS: [f64; 4] = [0.3477, 2.5642, 43.3579, 980.6286];
const BASELINE_LAYERED_BT_C_MS: [f64; 4] = [0.1167, 0.2152, 0.4319, 1.7134];
const BASELINE_LAYERED_BT_D_MS: [f64; 4] = [0.4034, 0.6130, 1.0324, 2.6047];

#[derive(Serialize)]
struct Entry {
    graph: &'static str,
    simulator: &'static str,
    tasks: usize,
    cores: usize,
    /// Median wall-clock milliseconds for one simulation.
    sim_ms: f64,
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

struct Case {
    name: &'static str,
    graph: pt_mtask::TaskGraph,
    /// Repetitions per core count (full mode).
    reps: usize,
    flat_baseline: &'static [f64; 4],
    layered_baseline: &'static [f64; 4],
}

/// Time both simulators for one `(graph, P)` pair.
fn time_pair(graph: &pt_mtask::TaskGraph, p: usize, reps: usize) -> ((f64, f64), (f64, f64)) {
    let spec = juropa_p(p);
    let model = CostModel::new(&spec);
    let sim = pt_sim::Simulator::new(&model);
    let sched = LayerScheduler::new(&model).schedule(graph);
    let flat = sched.to_symbolic();
    let mapping = MappingStrategy::Consecutive.mapping(&spec, p);
    let layered = measure::median_min_ms(reps, 1, || sim.simulate_layered(graph, &sched, &mapping));
    let flat = measure::median_min_ms(reps, 1, || sim.simulate_flat(graph, &flat, &mapping));
    (layered, flat)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let mut cases = vec![
        Case {
            name: "epol_r8",
            graph: pt_ode::Epol::new(8).step_graph(&pt_ode::Bruss2d::new(500), 2),
            reps: 100,
            flat_baseline: &BASELINE_FLAT_EPOL_MS,
            layered_baseline: &BASELINE_LAYERED_EPOL_MS,
        },
        Case {
            name: "bt_mz_c",
            graph: pt_nas::bt_mz(pt_nas::Class::C).step_graph(2),
            reps: 20,
            flat_baseline: &BASELINE_FLAT_BT_C_MS,
            layered_baseline: &BASELINE_LAYERED_BT_C_MS,
        },
        Case {
            name: "bt_mz_d",
            graph: pt_nas::bt_mz(pt_nas::Class::D).step_graph(2),
            reps: 5,
            flat_baseline: &BASELINE_FLAT_BT_D_MS,
            layered_baseline: &BASELINE_LAYERED_BT_D_MS,
        },
    ];
    let bt_e = pt_nas::bt_mz(pt_nas::Class::E).step_graph(2);
    if quick {
        cases.pop(); // class D is too heavy for a smoke run
    }

    let mut results = Vec::new();
    for case in &cases {
        let reps = if quick { 1 } else { case.reps };
        for (i, &p) in CORE_COUNTS.iter().enumerate() {
            let (layered, flat) = time_pair(&case.graph, p, reps);
            for (simulator, (median, min), baseline) in [
                ("layered", layered, case.layered_baseline[i]),
                ("flat", flat, case.flat_baseline[i]),
            ] {
                let entry = Entry {
                    graph: case.name,
                    simulator,
                    tasks: case.graph.len(),
                    cores: p,
                    sim_ms: median,
                    min_ms: min,
                    baseline_ms: Some(baseline),
                    speedup: Some(baseline / min),
                    gate_ms: None,
                    reps,
                };
                println!(
                    "{} {simulator} P={p}: median {median:.4} ms, min {min:.4} ms \
                     (baseline {baseline:.4} ms, {:.1}x)",
                    case.name,
                    baseline / min
                );
                results.push(entry);
            }
        }
    }

    // Scale cases: P = 65536 for the baseline graphs, BT-MZ class E at
    // P ∈ {4096, 65536}.  Ceilings are ≈3× the calm-container medians so
    // real complexity regressions (like the dense O(q²) block-redist
    // matrix this PR removed) trip them but tenant noise does not.
    let scale_reps = if quick { 1 } else { 3 };
    for (name, graph, p, layered_gate, flat_gate) in [
        ("epol_r8", &cases[0].graph, 65536usize, 100.0, 2000.0),
        ("bt_mz_c", &cases[1].graph, 65536, 300.0, 300.0),
        ("bt_mz_e", &bt_e, 4096, 100.0, 100.0),
        ("bt_mz_e", &bt_e, 65536, 300.0, 600.0),
    ] {
        let (layered, flat) = time_pair(graph, p, scale_reps);
        for (simulator, (median, min), gate_ms) in [
            ("layered", layered, layered_gate),
            ("flat", flat, flat_gate),
        ] {
            println!(
                "{name} {simulator} P={p}: median {median:.2} ms, min {min:.2} ms \
                 (gate {gate_ms} ms)"
            );
            results.push(Entry {
                graph: name,
                simulator,
                tasks: graph.len(),
                cores: p,
                sim_ms: median,
                min_ms: min,
                baseline_ms: None,
                speedup: None,
                gate_ms: Some(gate_ms),
                reps: scale_reps,
            });
        }
    }

    // Gate: scheduling/simulation paths gained pt-obs instrumentation, but
    // with no recorder attached the flat simulator must keep its ≥5×
    // speedup over the 0a214f9 baseline for BT-MZ class C at P = 4096,
    // retried in later time windows before it really fails.
    let gate = results
        .iter()
        .find(|e| e.graph == "bt_mz_c" && e.simulator == "flat" && e.cores == 4096)
        .expect("flat bt_mz_c at P=4096 is always benchmarked");
    let limit_ms = BASELINE_FLAT_BT_C_MS[3] / 5.0;
    let reps = if quick { 3 } else { 20 };
    let best = measure::retry_in_later_windows(gate.min_ms, limit_ms, || {
        let (_, (_, flat_min)) = time_pair(&cases[1].graph, 4096, reps);
        flat_min
    });
    assert!(
        best <= limit_ms,
        "recorder-off flat simulation regressed: bt_mz_c P=4096 took \
         {best:.4} ms, under {:.2}x over baseline (gate: 5x)",
        BASELINE_FLAT_BT_C_MS[3] / best
    );

    // Gate: the scale cases stay under their wall-clock ceilings.
    for e in &results {
        if let Some(gate_ms) = e.gate_ms {
            assert!(
                e.min_ms <= gate_ms,
                "scale regression: {} {} P={} took {:.2} ms (gate: {gate_ms} ms)",
                e.graph,
                e.simulator,
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
        benchmark: "schedule evaluation (Simulator::simulate_{flat,layered} wall clock)",
        machine: "juropa",
        baseline_commit: "0a214f9",
        quick,
        results,
    };
    pt_bench::report::write("BENCH_SIM.json", quick, &report);
}

//! Heterogeneity-aware scheduling benchmark gate and slow-factor sweep.
//!
//! Runs the evaluation workloads on a *two-class* JUROPA variant — the
//! trailing 25 % of the nodes clocked down to a sweep of slow factors
//! (1.0 = the homogeneous machine) — and compares three schedulers on the
//! same machine:
//!
//! * `het` — the layer scheduler with its heterogeneity-aware path
//!   (speed-equal group partition, slowest-class symbolic costs, adjusted
//!   LPT), which switches on automatically for a non-uniform machine.
//! * `blind` — the same scheduler forced onto the homogeneous path
//!   (`speed_blind()`): the schedule a speed-oblivious Algorithm 1
//!   would produce, simulated on the real (het) machine.
//! * `AMTHA` — the node-granular heterogeneous list-mapping baseline.
//!
//! All three are simulated with the consecutive mapping and the simulated
//! makespan is deterministic, so the gate needs no retry loop: at every
//! (workload, P) point with the slow quarter at 0.5× the het-aware
//! schedule must be *strictly* faster than the blind one.  The other
//! factors are reported, not gated: at 1.0 the het path is inactive, so
//! `het` and `blind` coincide by construction.  AMTHA is reported
//! alongside — it trades malleability for node granularity and is not
//! expected to win.
//!
//! Printed per workload and P: simulated milliseconds per time step for
//! each scheduler and the `blind / het` speedup row, one column per slow
//! factor.  Results land in `BENCH_het.json`; `--quick` runs the same grid
//! and only changes where [`pt_bench::report::write`] puts the report.

use pt_bench::{measure, table};
use pt_cost::CostModel;
use pt_machine::ClusterSpec;
use pt_mtask::TaskGraph;
use pt_sim::Simulator;
use serde::Serialize;

const CORE_COUNTS: [usize; 2] = [256, 1024];
const SLOW_FRACTION: f64 = 0.25;
/// Speed factors of the slow nodes, swept per (workload, P).
const SLOW_FACTORS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
/// The factor the gate acts on.
const GATED_FACTOR: f64 = 0.5;

#[derive(Serialize)]
struct Entry {
    graph: &'static str,
    tasks: usize,
    cores: usize,
    slow_nodes: usize,
    slow_factor: f64,
    /// Simulated seconds per time step, heterogeneity-aware scheduler.
    het_s: f64,
    /// Same machine, scheduler forced onto the homogeneous path.
    blind_s: f64,
    /// AMTHA node-granular baseline (reported, not gated).
    amtha_s: f64,
    /// `blind_s / het_s` — the gate requires > 1 at [`GATED_FACTOR`].
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    machine: &'static str,
    quick: bool,
    results: Vec<Entry>,
}

/// `(het, blind, amtha)` simulated seconds per step of `graph` on `spec`.
fn run(graph: &TaskGraph, spec: &ClusterSpec, steps: usize) -> (f64, f64, f64) {
    let model = CostModel::new(spec);
    let sim = Simulator::new(&model);
    let map = pt_core::MappingStrategy::Consecutive.mapping(spec, spec.total_cores());

    let het = pt_core::LayerScheduler::new(&model).schedule(graph);
    assert!(het.validate().is_ok(), "invalid het schedule");
    let blind = pt_core::LayerScheduler::new(&model)
        .speed_blind()
        .schedule(graph);
    assert!(blind.validate().is_ok(), "invalid blind schedule");
    let amtha = pt_core::Amtha::new(&model).schedule(graph);
    assert!(amtha.validate().is_ok(), "invalid AMTHA schedule");

    let s = steps as f64;
    (
        sim.simulate_layered(graph, &het, &map).makespan / s,
        sim.simulate_layered(graph, &blind, &map).makespan / s,
        sim.simulate_layered(graph, &amtha, &map).makespan / s,
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let epol = pt_ode::Epol::new(8).step_graph(&pt_ode::Bruss2d::new(500), 2);
    let bt = pt_nas::bt_mz(pt_nas::Class::C).step_graph(2);

    let columns: Vec<String> = SLOW_FACTORS.iter().map(|f| format!("slow={f}")).collect();
    let mut results = Vec::new();
    for (name, graph) in [("epol_r8", &epol), ("bt_mz_c", &bt)] {
        for p in CORE_COUNTS {
            let homogeneous = measure::juropa_p(p);
            let slow_nodes = ((homogeneous.nodes as f64) * SLOW_FRACTION).round() as usize;
            let sweep: Vec<Entry> = SLOW_FACTORS
                .iter()
                .map(|&slow_factor| {
                    let spec = homogeneous.clone().with_slow_nodes(slow_nodes, slow_factor);
                    let (het_s, blind_s, amtha_s) = run(graph, &spec, 2);
                    Entry {
                        graph: name,
                        tasks: graph.len(),
                        cores: p,
                        slow_nodes,
                        slow_factor,
                        het_s,
                        blind_s,
                        amtha_s,
                        speedup: blind_s / het_s,
                    }
                })
                .collect();
            let row = |f: fn(&Entry) -> f64| sweep.iter().map(f).collect();
            let rows = vec![
                ("het [ms/step]".to_string(), row(|e| e.het_s * 1e3)),
                ("blind [ms/step]".to_string(), row(|e| e.blind_s * 1e3)),
                ("AMTHA [ms/step]".to_string(), row(|e| e.amtha_s * 1e3)),
                ("blind / het".to_string(), row(|e| e.speedup)),
            ];
            table::print(
                &format!(
                    "{name} on {p} JUROPA cores, trailing {slow_nodes} nodes at the \
                     column's speed factor"
                ),
                &columns,
                &rows,
            );
            results.extend(sweep);
        }
    }

    // Gate: heterogeneity-awareness must strictly pay off at every point
    // of the gated factor.  The makespans are simulated (deterministic), so
    // a tie or a loss is a real scheduling regression, not noise.
    for e in results.iter().filter(|e| e.slow_factor == GATED_FACTOR) {
        assert!(
            e.het_s < e.blind_s,
            "het-aware scheduling lost to the blind path: {} P={} het {:.6} s \
             vs blind {:.6} s",
            e.graph,
            e.cores,
            e.het_s,
            e.blind_s
        );
    }

    let report = Report {
        benchmark: "het-aware vs speed-blind layer scheduling (simulated makespan)",
        machine: "juropa, trailing 25% of nodes at each slow factor",
        quick,
        results,
    };
    pt_bench::report::write("BENCH_het.json", quick, &report);
}

//! Figure 16 — PAB and PABM under the mapping strategies.
//!
//! * Top: PAB (K = 8) time per step on CHiC and JuRoPA — the method with a
//!   balanced mix of group-based and orthogonal communication, where the
//!   mixed mapping wins.
//! * Bottom left: PABM (K = 8) speedups on the dense system on CHiC.
//! * Bottom right: PABM runtimes on the sparse system on JuRoPA.
//!
//! ```text
//! cargo run -p pt-bench --release --bin fig16 [-- --quick] [-- --trace PATH]
//! ```
//!
//! `--quick` reduces the core grid for CI smoke runs.  `--trace PATH`
//! additionally writes a Chrome-trace JSON of the layer-scheduled PABM run
//! on JuRoPA at the largest core count (scheduler phases + simulated
//! timeline under the consecutive mapping).

use pt_bench::pipeline::{sequential_step, time_per_step, Scheduler};
use pt_bench::{cases, table};
use pt_core::MappingStrategy;
use pt_machine::{platforms, ClusterSpec};
use pt_mtask::TaskGraph;
use pt_ode::{Pab, Pabm};
use pt_serve::ScheduleRequest;
use std::sync::Arc;

fn mapping_rows(
    graph: &TaskGraph,
    machine: &ClusterSpec,
    cores: &[usize],
    steps: usize,
    scale: impl Fn(f64, usize) -> f64,
) -> Vec<(String, Vec<f64>)> {
    let mut rows = Vec::new();
    let dp: Vec<f64> = cores
        .iter()
        .map(|&p| {
            scale(
                time_per_step(
                    graph,
                    machine,
                    p,
                    Scheduler::DataParallel,
                    MappingStrategy::Consecutive,
                    None,
                    steps,
                ),
                p,
            )
        })
        .collect();
    rows.push(("dp consecutive".into(), dp));
    for m in MappingStrategy::all_for(machine) {
        let values: Vec<f64> = cores
            .iter()
            .map(|&p| {
                scale(
                    time_per_step(graph, machine, p, Scheduler::LayerFixed(8), m, None, steps),
                    p,
                )
            })
            .collect();
        rows.push((format!("tp {}", m.name()), values));
    }
    rows
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let chic = platforms::chic();
    let juropa = platforms::juropa();
    let cores: &[usize] = if quick {
        &[32, 128, 512]
    } else {
        &[32, 64, 128, 256, 512]
    };
    let headers: Vec<String> = cores.iter().map(|c| format!("{c} cores")).collect();

    // ---- Top: PAB K = 8 time per step ------------------------------------
    let sys = cases::bruss_sparse();
    let pab = Pab::new(8);
    let graph = pab.step_graph(&sys, 2);
    table::print(
        "Fig 16 (top left): PAB K=8 time per step [ms] on CHiC (BRUSS2D)",
        &headers,
        &mapping_rows(&graph, &chic, cores, 2, |t, _| 1e3 * t),
    );
    table::print(
        "Fig 16 (top right): PAB K=8 time per step [ms] on JuRoPA (BRUSS2D)",
        &headers,
        &mapping_rows(&graph, &juropa, cores, 2, |t, _| 1e3 * t),
    );

    // ---- Bottom left: PABM dense speedups on CHiC ------------------------
    let sys = cases::schroed_dense();
    let pabm = Pabm::new(8, 2);
    let graph = pabm.step_graph(&sys, 2);
    let seq = sequential_step(&graph, &chic, 2);
    table::print(
        "Fig 16 (bottom left): PABM K=8 speedups on CHiC (dense system)",
        &headers,
        &mapping_rows(&graph, &chic, cores, 2, |t, _| seq / t),
    );

    // ---- Bottom right: PABM sparse runtimes on JuRoPA --------------------
    let sys = cases::bruss_sparse();
    let graph = pabm.step_graph(&sys, 2);
    table::print(
        "Fig 16 (bottom right): PABM K=8 time per step [ms] on JuRoPA (BRUSS2D)",
        &headers,
        &mapping_rows(&graph, &juropa, cores, 2, |t, _| 1e3 * t),
    );

    if let Some(path) = pt_bench::arg_value("--trace") {
        let p = *cores.last().expect("core grid is never empty");
        let machine = Arc::new(juropa.with_cores(p));
        let request = ScheduleRequest::new(Arc::new(graph), machine, MappingStrategy::Consecutive);
        pt_serve::write_trace(&request, &path).expect("write --trace output");
        println!("\nwrote chrome trace of PABM K=8 at {p} JuRoPA cores to {path}");
    }
}

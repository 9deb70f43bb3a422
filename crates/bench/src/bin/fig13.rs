//! Figure 13 — comparison of scheduling algorithms.
//!
//! * Left: speedups of the PABM method (K = 8, dense system) under the
//!   layer-based scheduler, CPA, CPR and the data-parallel version on the
//!   CHiC cluster.
//! * Right: execution time per time step of the EPOL method (R = 8, sparse
//!   system) for the same schedulers.
//!
//! ```text
//! cargo run -p pt-bench --release --bin fig13 [-- --quick] [-- --trace PATH]
//! ```
//!
//! `--quick` reduces the core grid for CI smoke runs.  `--trace PATH`
//! additionally writes a Chrome-trace JSON of the layer-scheduled EPOL run
//! at the largest core count (scheduler phases + simulated timeline).

use pt_bench::pipeline::{sequential_step, time_per_step, Scheduler};
use pt_bench::{cases, table};
use pt_core::MappingStrategy;
use pt_machine::platforms;
use pt_ode::{Epol, Pabm};
use pt_serve::ScheduleRequest;
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let chic = platforms::chic();
    let cores: &[usize] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 32, 64, 128, 256, 512]
    };
    let schedulers = [
        Scheduler::Layer,
        Scheduler::Cpa,
        Scheduler::Cpr,
        Scheduler::DataParallel,
    ];
    let mapping = MappingStrategy::Consecutive;

    // ---- Left: PABM K = 8 speedups on the dense system ------------------
    let sys = cases::schroed_dense();
    let graph = Pabm::new(8, 2).step_graph(&sys, 2);
    let seq = sequential_step(&graph, &chic, 2);
    let mut rows = Vec::new();
    for s in schedulers {
        let values: Vec<f64> = cores
            .iter()
            .map(|&p| seq / time_per_step(&graph, &chic, p, s, mapping, None, 2))
            .collect();
        rows.push((s.label(), values));
    }
    table::print(
        "Fig 13 (left): PABM K=8 speedups on CHiC (dense system, consecutive mapping)",
        &cores
            .iter()
            .map(|c| format!("{c} cores"))
            .collect::<Vec<_>>(),
        &rows,
    );

    // ---- Right: EPOL R = 8 time per step on the sparse system -----------
    let sys = cases::bruss_large();
    let graph = Epol::new(8).step_graph(&sys, 2);
    let mut rows = Vec::new();
    for s in schedulers {
        let values: Vec<f64> = cores
            .iter()
            .map(|&p| 1e3 * time_per_step(&graph, &chic, p, s, mapping, None, 2))
            .collect();
        rows.push((s.label(), values));
    }
    table::print(
        "Fig 13 (right): EPOL R=8 time per step [ms] on CHiC (sparse system)",
        &cores
            .iter()
            .map(|c| format!("{c} cores"))
            .collect::<Vec<_>>(),
        &rows,
    );

    if let Some(path) = pt_bench::arg_value("--trace") {
        let p = *cores.last().expect("core grid is never empty");
        let machine = Arc::new(chic.with_cores(p));
        let request = ScheduleRequest::new(Arc::new(graph), machine, mapping);
        pt_serve::write_trace(&request, &path).expect("write --trace output");
        println!("\nwrote chrome trace of EPOL R=8 at {p} cores to {path}");
    }
}

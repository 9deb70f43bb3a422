//! Quickstart: specify an M-task program, schedule it, map it, simulate it.
//!
//! Reproduces the paper's running example: the extrapolation method (EPOL)
//! with R = 4 approximations (Fig. 3–6) on a small cluster of two nodes
//! with two dual-core processors each (Fig. 1).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parallel_tasks::core::{DataParallel, LayerScheduler, MappingStrategy};
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::{platforms, tree::ArchNode};
use parallel_tasks::mtask::Chains;
use parallel_tasks::ode::{Bruss2d, Epol};
use parallel_tasks::sim::Simulator;

fn main() {
    // --- The platform: 2 nodes x 2 processors x 2 cores (paper Fig. 1) ---
    let spec = platforms::example_2x2x2();
    println!("Platform architecture tree (paper Fig. 7):");
    println!("{}", ArchNode::from_spec(&spec).render(&spec));

    // --- The application: one EPOL time step as an M-task graph ----------
    let sys = Bruss2d::new(64); // n = 8192 ODEs
    let epol = Epol::new(4);
    let graph = epol.step_graph(&sys, 1);
    println!(
        "EPOL R=4 time-step graph: {} tasks, {} edges",
        graph.len(),
        graph.edge_count()
    );

    // Step 1 of the scheduler: contract the micro-step chains (Fig. 5).
    let chains = Chains::find(&graph);
    println!(
        "After chain contraction: {} nodes (the 4 micro-step chains merged)",
        chains.len()
    );
    // Step 2: layers of independent tasks.
    let ls = chains.layers(&graph);
    println!(
        "Layers: {:?} (chains | combine)",
        ls.iter().map(Vec::len).collect::<Vec<_>>()
    );

    // --- Schedule: the paper's Algorithm 1 -------------------------------
    let model = CostModel::new(&spec);
    let schedule = LayerScheduler::new(&model).schedule(&graph);
    println!("\nComputed schedule (groups per layer):");
    for (i, layer) in schedule.layers.iter().enumerate() {
        let summary: Vec<String> = layer
            .assignments
            .iter()
            .zip(&layer.group_sizes)
            .map(|(tasks, size)| {
                let names: Vec<&str> = tasks.iter().map(|t| graph.task(*t).name.as_str()).collect();
                format!("{size} cores <- {}", names.join(", "))
            })
            .collect();
        println!("  layer {i}: {}", summary.join("  |  "));
    }

    // --- Map and simulate under all three mapping strategies -------------
    let sim = Simulator::new(&model);
    println!("\nSimulated time per step on {}:", spec.name);
    for strategy in [
        MappingStrategy::Consecutive,
        MappingStrategy::Mixed(2),
        MappingStrategy::Scattered,
    ] {
        let mapping = strategy.mapping(&spec, spec.total_cores());
        let report = sim.simulate_layered(&graph, &schedule, &mapping);
        println!(
            "  task parallel, {:<12} {:>10.3} ms  (redistribution {:>7.3} ms)",
            strategy.name(),
            report.makespan * 1e3,
            report.total_redist * 1e3
        );
    }
    let dp = DataParallel::schedule(&graph, spec.total_cores());
    let mapping = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
    let report = sim.simulate_layered(&graph, &dp, &mapping);
    println!(
        "  data parallel, consecutive  {:>10.3} ms",
        report.makespan * 1e3
    );

    // --- Timeline of the task-parallel run (cf. paper Fig. 6) ------------
    let mapping = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
    let report = sim.simulate_layered(&graph, &schedule, &mapping);
    println!("\nSimulated timeline (consecutive mapping):");
    print!("{}", parallel_tasks::sim::render_gantt(&report, &graph, 48));
}

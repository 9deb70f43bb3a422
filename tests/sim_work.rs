//! Exact work counters of the layered simulator, pinned for the graphs of
//! the request benchmark on JuRoPA (two time steps each): the ranks whose
//! `(node, processor)` labels the pricing worked out, and the step shapes
//! it derived from them.  Both are pure functions of the schedule and the
//! mapping, independent of the host, so a change to the simulator's memo
//! or to the cost model's step folding moves them exactly.
//!
//! For reference, the pricing these counters came with kept one memo
//! entry per task's operations, group and context, labelling a group
//! afresh for every entry.  It labelled 97 557 ranks for BT-MZ D under
//! either mapping and 8 192 for EPOL.

use parallel_tasks::core::{LayerScheduler, MappingStrategy};
use parallel_tasks::cost::{pricing_work, CostModel};
use parallel_tasks::machine::platforms;
use parallel_tasks::mtask::TaskGraph;
use parallel_tasks::nas::{bt_mz, Class};
use parallel_tasks::ode::{Bruss2d, Epol};
use parallel_tasks::sim::Simulator;

/// `(ranks labelled, step shapes)` of one layered simulation of `graph` at
/// `p` cores under `strategy`: the difference of the calling thread's
/// pricing counters across the call.
fn sim_work(graph: &TaskGraph, p: usize, strategy: MappingStrategy) -> [u64; 2] {
    let spec = platforms::juropa().with_nodes(p / 8);
    let model = CostModel::new(&spec);
    let sched = LayerScheduler::new(&model).schedule(graph);
    let mapping = strategy.mapping(&spec, p);
    let before = pricing_work();
    Simulator::new(&model).simulate_layered(graph, &sched, &mapping);
    let after = pricing_work();
    [
        after.ranks_labelled - before.ranks_labelled,
        after.step_shapes - before.step_shapes,
    ]
}

#[test]
fn bt_mz_d_at_16384_cores() {
    let g = bt_mz(Class::D).step_graph(2);
    let got = [MappingStrategy::Consecutive, MappingStrategy::Scattered]
        .map(|strategy| sim_work(&g, 16384, strategy));
    assert_eq!(got, [[32_452, 908], [32_452, 908]]);
}

#[test]
fn epol_r8_at_4096_cores() {
    let g = Epol::new(8).step_graph(&Bruss2d::new(500), 2);
    let got = [MappingStrategy::Consecutive, MappingStrategy::Scattered]
        .map(|strategy| sim_work(&g, 4096, strategy));
    assert_eq!(got, [[8_192, 32], [8_192, 32]]);
}

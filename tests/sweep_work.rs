//! Exact work counters of the layer scheduler's g-sweep, pinned for the
//! unjittered NAS BT-MZ graphs (two time steps) on JuRoPA with one sweep
//! thread: the cost-table evaluations of a cold schedule and the LPT runs
//! of each layer's sweep.  Both are pure functions of the graph and the
//! machine, independent of the host, so a change to the search's pruning
//! or to the cost table's memoisation moves them exactly.
//!
//! For reference, the exhaustive sweep with a per-candidate bound that
//! the best-first search replaced priced every task at every candidate
//! width: 81 408 evaluations for class C at P = 4096 and 694 272 for
//! class D at P = 16384, whatever the task works.

use parallel_tasks::core::LayerScheduler;
use parallel_tasks::cost::{CostModel, CostTable};
use parallel_tasks::machine::platforms;
use parallel_tasks::mtask::ChainGraph;
use parallel_tasks::nas::{bt_mz, Class};
use parallel_tasks::obs::{ArgValue, TraceRecorder};
use std::sync::Arc;

/// `(evaluations, lpt_runs per layer)` of one cold, single-threaded
/// schedule of BT-MZ `class` at `p` cores.
fn sweep_work(class: Class, p: usize) -> (usize, Vec<u64>) {
    let graph = bt_mz(class).step_graph(2);
    let spec = platforms::juropa().with_nodes(p / 8);
    let model = CostModel::new(&spec);
    let table = CostTable::with_width(&model, ChainGraph::contract(&graph).graph.len(), p);
    let recorder = Arc::new(TraceRecorder::new(1));
    LayerScheduler::new(&model)
        .with_sweep_workers(1)
        .with_recorder(recorder.clone())
        .schedule_on_with(&table, &graph, p);
    let mut recorder = Arc::try_unwrap(recorder).expect("the scheduler is dropped");
    let lpt_runs = recorder
        .drain()
        .into_iter()
        .filter(|ev| ev.name == "g_sweep")
        .map(|ev| {
            let arg = ev.args.iter().find(|(k, _)| *k == "lpt_runs");
            match arg {
                Some((_, ArgValue::U64(n))) => *n,
                other => panic!("g_sweep span without an lpt_runs count: {other:?}"),
            }
        })
        .collect();
    (table.evaluations(), lpt_runs)
}

#[test]
fn bt_mz_c_at_4096_cores() {
    assert_eq!(sweep_work(Class::C, 4096), (34_688, vec![2, 2]));
}

#[test]
fn bt_mz_d_at_16384_cores() {
    assert_eq!(sweep_work(Class::D, 16384), (194_816, vec![8, 8]));
}

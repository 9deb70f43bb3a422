//! Exact work counters of the layer scheduler's g-sweep, pinned for the
//! unjittered NAS BT-MZ graphs (two time steps) on JuRoPA with one sweep
//! thread: every task price a cold schedule computes, and per layer the
//! task prices of the search's run refinements and its LPT runs.  All are
//! pure functions of the graph and the machine, independent of the host,
//! so a change to the search's pruning or pricing moves them exactly.
//!
//! For reference, the exhaustive sweep with a per-candidate bound that
//! the best-first search replaced priced every task at every candidate
//! width: 81 408 evaluations for class C at P = 4096 and 694 272 for
//! class D at P = 16384, whatever the task works.  The best-first search
//! first priced its run refinements through a memo table too: 34 688 and
//! 194 816 evaluations.  Then it priced them from compiled costs, and the
//! table evaluated only the bound order, the LPT candidates and the final
//! assignment (2 048 and 12 288 cells, against the refinements' 43 264
//! and 304 384 prices).  Now every price is compiled and none is
//! memoised, so the count below is all of them: the refinements plus
//! 2 560 and 18 432 prices for the rest, as many as the table was read.

use parallel_tasks::core::LayerScheduler;
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::platforms;
use parallel_tasks::nas::{bt_mz, Class};
use parallel_tasks::obs::{keys, ArgValue, TraceRecorder};
use std::sync::Arc;

/// The counts of one cold, single-threaded schedule of BT-MZ `class` at
/// `p` cores.
#[derive(Debug, PartialEq)]
struct Work {
    /// Task prices computed.
    evaluations: usize,
    /// Task prices the run refinements computed, per layer.
    bound_prices: Vec<u64>,
    /// LPT runs, per layer.
    lpt_runs: Vec<u64>,
}

fn sweep_work(class: Class, p: usize) -> Work {
    let graph = bt_mz(class).step_graph(2);
    let spec = platforms::juropa().with_nodes(p / 8);
    let model = CostModel::new(&spec);
    let recorder = Arc::new(TraceRecorder::new(1));
    let (_, evaluations) = LayerScheduler::new(&model)
        .with_recorder(recorder.clone())
        .schedule_counted(&graph, p);
    let mut recorder = Arc::try_unwrap(recorder).expect("the scheduler is dropped");
    assert_eq!(
        recorder
            .metrics()
            .snapshot()
            .counter(keys::COST_EVALUATIONS),
        Some(evaluations as u64)
    );
    let sweeps: Vec<_> = recorder
        .drain()
        .into_iter()
        .filter(|ev| ev.name == "g_sweep")
        .collect();
    let count = |key: &str| -> Vec<u64> {
        sweeps
            .iter()
            .map(|ev| match ev.args.iter().find(|(k, _)| *k == key) {
                Some((_, ArgValue::U64(n))) => *n,
                other => panic!("g_sweep span without a {key} count: {other:?}"),
            })
            .collect()
    };
    Work {
        evaluations,
        bound_prices: count("bound_prices"),
        lpt_runs: count("lpt_runs"),
    }
}

#[test]
fn bt_mz_c_at_4096_cores() {
    assert_eq!(
        sweep_work(Class::C, 4096),
        Work {
            evaluations: 45_824,
            bound_prices: vec![21_632, 21_632],
            lpt_runs: vec![2, 2],
        }
    );
}

#[test]
fn bt_mz_d_at_16384_cores() {
    assert_eq!(
        sweep_work(Class::D, 16384),
        Work {
            evaluations: 322_816,
            bound_prices: vec![152_192, 152_192],
            lpt_runs: vec![8, 8],
        }
    );
}

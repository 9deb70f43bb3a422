//! Exact work counters of the layer scheduler's g-sweep, pinned for the
//! unjittered NAS multi-zone graphs (two time steps) on JuRoPA: every task
//! price a cold schedule computes and, per layer, the search's runs, the
//! runs it priced, those runs' task prices and its LPT runs.  All are pure
//! functions of the graph and the machine, independent of the host, so a
//! change to the search's pruning or pricing moves them exactly.
//!
//! For reference, the exhaustive sweep with a per-candidate bound that
//! the best-first search replaced priced every task at every candidate
//! width: 81 408 evaluations for BT-MZ C at P = 4096 and 694 272 for
//! BT-MZ D at P = 16384, whatever the task works.  The best-first search
//! then bounded each run over a prefix of one task order, doubling the
//! prefix on every pop: a run that had not been priced yet had bound 0,
//! so every run was priced at least once, and the refinements were
//! 43 264 and 304 384 of 45 824 and 322 816 prices (710 400 for SP-MZ D
//! and 1 977 088 for BT-MZ E at P = 65536).  Now every run starts from
//! the layer's price floor (`pt_cost::PriceFloor`), built in one pass, and
//! only a run the floor cannot rule out prices the layer, once, at its
//! widths `b` and `b + 1`.  The LPT runs are the same; the task order the
//! prefixes followed, and its `n` prices per layer, are gone.

use parallel_tasks::core::LayerScheduler;
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::platforms;
use parallel_tasks::nas::{bt_mz, sp_mz, Class, MultiZone};
use parallel_tasks::obs::{keys, ArgValue, TraceRecorder};
use std::sync::Arc;

/// The counts of one cold schedule of a multi-zone graph at `p` cores.
#[derive(Debug, PartialEq)]
struct Work {
    /// Task prices computed.
    evaluations: usize,
    /// Runs of candidates sharing `b = ⌊p/g⌋`, per layer.
    runs: Vec<u64>,
    /// Runs whose floor did not rule them out, per layer.
    runs_priced: Vec<u64>,
    /// Task prices the priced runs computed, per layer.
    bound_prices: Vec<u64>,
    /// LPT runs, per layer.
    lpt_runs: Vec<u64>,
}

fn sweep_work(benchmark: fn(Class) -> MultiZone, class: Class, p: usize) -> Work {
    let graph = benchmark(class).step_graph(2);
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
        runs: count("runs"),
        runs_priced: count("runs_priced"),
        bound_prices: count("bound_prices"),
        lpt_runs: count("lpt_runs"),
    }
}

#[test]
fn bt_mz_c_at_4096_cores() {
    assert_eq!(
        sweep_work(bt_mz, Class::C, 4096),
        Work {
            evaluations: 4_096,
            runs: vec![112, 112],
            runs_priced: vec![2, 2],
            bound_prices: vec![1_024, 1_024],
            lpt_runs: vec![2, 2],
        }
    );
}

#[test]
fn bt_mz_d_at_16384_cores() {
    assert_eq!(
        sweep_work(bt_mz, Class::D, 16384),
        Work {
            evaluations: 32_768,
            runs: vec![240, 240],
            runs_priced: vec![4, 4],
            bound_prices: vec![8_192, 8_192],
            lpt_runs: vec![8, 8],
        }
    );
}

#[test]
fn sp_mz_d_at_65536_cores() {
    assert_eq!(
        sweep_work(sp_mz, Class::D, 65536),
        Work {
            evaluations: 6_144,
            runs: vec![448, 448],
            runs_priced: vec![1, 1],
            bound_prices: vec![2_048, 2_048],
            lpt_runs: vec![1, 1],
        }
    );
}

#[test]
fn bt_mz_e_at_65536_cores() {
    assert_eq!(
        sweep_work(bt_mz, Class::E, 65536),
        Work {
            evaluations: 98_304,
            runs: vec![496, 496],
            runs_priced: vec![3, 3],
            bound_prices: vec![24_576, 24_576],
            lpt_runs: vec![15, 15],
        }
    );
}

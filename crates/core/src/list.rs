//! List scheduling of M-tasks with a given per-task allocation.
//!
//! CPA and CPR (paper §4.3) both separate an *allocation* phase (how many
//! cores per task) from a *scheduling* phase that orders the tasks and picks
//! concrete core subsets.  The scheduling phase here is the standard
//! M-task list scheduler both algorithms use: ready tasks are dispatched in
//! decreasing bottom-level priority onto the `np` symbolic cores that become
//! free earliest.

use crate::schedule::{ScheduledTask, SymbolicSchedule};
use pt_cost::{task_time_optimistic, CostModel};
use pt_mtask::{EdgeData, TaskGraph, TaskId};

/// Symbolic estimate of the re-distribution delay of an edge when producer
/// and consumer core sets differ (slowest-link transfer, parallel over the
/// smaller group).
pub fn symbolic_redist(
    model: &CostModel<'_>,
    edge: &EdgeData,
    src: &[usize],
    dst: &[usize],
) -> f64 {
    if edge.bytes == 0.0 {
        return 0.0;
    }
    // Same core set ⇒ no data moves.  Core lists are usually kept sorted by
    // the schedulers, so try the allocation-free comparisons first and only
    // sort copies when an equal-length pair arrives unordered.
    if src.len() == dst.len() {
        let same = src == dst || {
            let sorted = |s: &[usize]| s.windows(2).all(|w| w[0] <= w[1]);
            if sorted(src) && sorted(dst) {
                false // both sorted and not equal ⇒ different sets
            } else {
                let mut a: Vec<usize> = src.to_vec();
                let mut b: Vec<usize> = dst.to_vec();
                a.sort_unstable();
                b.sort_unstable();
                a == b
            }
        };
        if same {
            return 0.0;
        }
    }
    symbolic_redist_disjoint(model, edge, src.len(), dst.len())
}

/// [`symbolic_redist`] when producer and consumer sets are known (or
/// conservatively assumed) to differ — only the group sizes matter.
pub fn symbolic_redist_disjoint(
    model: &CostModel<'_>,
    edge: &EdgeData,
    src_n: usize,
    dst_n: usize,
) -> f64 {
    if edge.bytes == 0.0 {
        return 0.0;
    }
    let link = model.spec.slowest_link();
    let par = src_n.min(dst_n).max(1) as f64;
    link.latency_s + edge.bytes / par / link.bytes_per_s
}

/// List-schedule `graph` with `alloc[t]` symbolic cores per task, each
/// task priced once at its allocation.
///
/// Structural (zero-cost) tasks are honoured for precedence but omitted
/// from the resulting schedule.
pub fn list_schedule(
    model: &CostModel<'_>,
    graph: &TaskGraph,
    alloc: &[usize],
) -> SymbolicSchedule {
    assert_eq!(alloc.len(), graph.len(), "one allocation per task");
    let times: Vec<f64> = graph
        .task_ids()
        .map(|t| task_time_optimistic(model, graph.task(t), alloc[t.0].max(1)))
        .collect();
    list_schedule_timed(model, graph, alloc, &times)
}

/// [`list_schedule`] given each task's time at its allocation: CPR keeps
/// those times across its rounds and re-prices only the tasks it widens.
pub(crate) fn list_schedule_timed(
    model: &CostModel<'_>,
    graph: &TaskGraph,
    alloc: &[usize],
    times: &[f64],
) -> SymbolicSchedule {
    let p = model.spec.total_cores();
    let n = graph.len();
    debug_assert_eq!(times.len(), n, "one time per task");

    // Priorities: bottom levels under the allocated execution times.
    let bl = graph.bottom_levels(|t| times[t.0]);

    let mut core_free = vec![0.0f64; p];
    let mut finish = vec![f64::NAN; n];
    let mut placed: Vec<Option<Vec<usize>>> = vec![None; n];
    let mut remaining_preds: Vec<usize> = graph.task_ids().map(|t| graph.preds(t).len()).collect();
    let mut ready: Vec<TaskId> = graph
        .task_ids()
        .filter(|t| remaining_preds[t.0] == 0)
        .collect();
    let mut entries: Vec<ScheduledTask> = Vec::with_capacity(n);
    let mut order: Vec<usize> = (0..p).collect();

    while let Some(pos) = ready
        .iter()
        .enumerate()
        .max_by(|a, b| bl[a.1 .0].total_cmp(&bl[b.1 .0]))
        .map(|(i, _)| i)
    {
        let t = ready.swap_remove(pos);
        let np = alloc[t.0].clamp(1, p);
        // Pick the np cores that free up earliest (stable by index): the
        // key (free time, index) is distinct per core, so a linear-time
        // selection yields the same set as a full sort.  `order` stays a
        // permutation of 0..p across iterations.
        order.select_nth_unstable_by(np - 1, |&a, &b| {
            core_free[a].total_cmp(&core_free[b]).then(a.cmp(&b))
        });
        let mut cores: Vec<usize> = order[..np].to_vec();
        cores.sort_unstable();

        // Data-ready time: predecessors plus re-distribution.
        let mut data_ready = 0.0f64;
        for &pr in graph.preds(t) {
            let src = placed[pr.0].as_deref().unwrap_or(&[]);
            let edge = graph.edge(pr, t).expect("edge exists");
            let d = finish[pr.0] + symbolic_redist(model, edge, src, &cores);
            data_ready = data_ready.max(d);
        }
        let cores_ready = cores.iter().map(|&c| core_free[c]).fold(0.0f64, f64::max);
        let start = data_ready.max(cores_ready);
        let end = start + times[t.0];
        for &c in &cores {
            core_free[c] = end;
        }
        finish[t.0] = end;
        placed[t.0] = Some(cores.clone());
        if !graph.task(t).is_structural() {
            entries.push(ScheduledTask {
                task: t,
                cores,
                est_start: start,
                est_finish: end,
            });
        }
        for &s in graph.succs(t) {
            remaining_preds[s.0] -= 1;
            if remaining_preds[s.0] == 0 {
                ready.push(s);
            }
        }
    }

    entries.sort_by(|a, b| a.est_start.total_cmp(&b.est_start));
    let sched = SymbolicSchedule {
        total_cores: p,
        entries,
    };
    debug_assert!(sched.validate(graph).is_ok());
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;
    use pt_mtask::MTask;

    fn model_4nodes() -> pt_machine::ClusterSpec {
        platforms::chic().with_nodes(4)
    }

    #[test]
    fn independent_tasks_run_concurrently_when_allocated_half() {
        let spec = model_4nodes();
        let model = CostModel::new(&spec);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 5.2e9));
        let b = g.add_task(MTask::compute("b", 5.2e9));
        let sched = list_schedule(&model, &g, &[8, 8]);
        let ea = sched.entry(a).unwrap();
        let eb = sched.entry(b).unwrap();
        assert!(ea.est_start < 1e-12 && eb.est_start < 1e-12);
        assert!(ea.cores.iter().all(|c| !eb.cores.contains(c)));
    }

    #[test]
    fn oversubscription_serialises() {
        let spec = model_4nodes();
        let model = CostModel::new(&spec);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 5.2e9));
        let b = g.add_task(MTask::compute("b", 5.2e9));
        // Both want 12 of 16 cores: whichever dispatches second must wait.
        let sched = list_schedule(&model, &g, &[12, 12]);
        let starts = [
            sched.entry(a).unwrap().est_start,
            sched.entry(b).unwrap().est_start,
        ];
        assert!(
            starts.iter().any(|&s| s > 0.0),
            "one task should queue: {starts:?}"
        );
    }

    #[test]
    fn dependencies_respected_with_redistribution_delay() {
        let spec = model_4nodes();
        let model = CostModel::new(&spec);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 5.2e9));
        let b = g.add_task(MTask::compute("b", 5.2e9));
        g.add_edge(a, b, EdgeData::replicated(1e8));
        let sched = list_schedule(&model, &g, &[16, 8]);
        let ea = sched.entry(a).unwrap();
        let eb = sched.entry(b).unwrap();
        assert!(
            eb.est_start > ea.est_finish,
            "redistribution delay must separate producer and consumer"
        );
    }

    #[test]
    fn same_core_set_has_no_redist_delay() {
        let spec = model_4nodes();
        let model = CostModel::new(&spec);
        let e = EdgeData::replicated(1e9);
        assert_eq!(symbolic_redist(&model, &e, &[0, 1], &[1, 0]), 0.0);
        assert!(symbolic_redist(&model, &e, &[0, 1], &[2, 3]) > 0.0);
    }

    #[test]
    fn priorities_prefer_long_chains() {
        let spec = model_4nodes();
        let model = CostModel::new(&spec);
        let mut g = TaskGraph::new();
        // Chain c1 -> c2 (long) competes with a single short task.
        let c1 = g.add_task(MTask::compute("c1", 5.2e9));
        let c2 = g.add_task(MTask::compute("c2", 5.2e9));
        let s = g.add_task(MTask::compute("s", 5.2e8));
        g.add_ordering_edge(c1, c2);
        let sched = list_schedule(&model, &g, &[16, 16, 16]);
        // Chain head must dispatch before the short independent task.
        let pos_c1 = sched.entries.iter().position(|e| e.task == c1).unwrap();
        let pos_s = sched.entries.iter().position(|e| e.task == s).unwrap();
        assert!(pos_c1 < pos_s);
    }
}

//! CPR — Critical Path Reduction (Radulescu et al., IPDPS'01).
//!
//! CPR interleaves allocation and scheduling: starting from one core per
//! task, it repeatedly offers one extra core to a critical-path task and
//! *keeps* the increment only if the resulting list schedule's makespan
//! improves; it stops when no critical task's increment helps.
//!
//! This makes CPR far more robust than CPA for symmetric stage graphs
//! (paper §4.3: "CPR computes schedules that are identical with the task
//! parallel version"), but greedy makespan descent follows the longest
//! chain first: for the extrapolation method's asymmetric chains it drives
//! the longest chain towards a near data-parallel allocation whose heavy
//! re-distribution traffic the internal (symbolic) metric underestimates —
//! exactly the behaviour of the paper's Fig. 13 (right).

use crate::list::{list_schedule, list_schedule_timed};
use crate::schedule::SymbolicSchedule;
use pt_cost::{task_time_optimistic, CostModel};
use pt_mtask::{chain::ChainGraph, TaskGraph, TaskId};

/// The CPR scheduler.
#[derive(Debug, Clone)]
pub struct Cpr<'a> {
    /// Cost model providing `Tsymb`.
    pub model: &'a CostModel<'a>,
    /// Relative makespan improvement required to accept an increment.
    pub min_gain: f64,
}

impl<'a> Cpr<'a> {
    /// New CPR instance with the default acceptance threshold.
    pub fn new(model: &'a CostModel<'a>) -> Self {
        Cpr {
            model,
            min_gain: 1e-12,
        }
    }

    /// Run CPR on the contracted graph and expand to the original tasks.
    pub fn schedule(&self, graph: &TaskGraph) -> SymbolicSchedule {
        let cg = ChainGraph::contract(graph);
        let contracted_np = self.allocate(&cg.graph);
        let np: Vec<usize> = graph
            .task_ids()
            .map(|t| contracted_np[cg.chains.node_of(t).0])
            .collect();
        list_schedule(self.model, graph, &np)
    }

    /// The iterative allocation: repeatedly widen the tasks of the current
    /// critical path and keep the new allocation while the list schedule's
    /// makespan does not worsen.
    ///
    /// Symmetric stage graphs need the whole critical *antichain* to grow
    /// together (widening a single one of `K` equal stages can never
    /// improve the makespan on its own), so each round increments every
    /// critical task by one core; the strictly best allocation seen is
    /// returned.  This greedy descent follows the longest chain first —
    /// for asymmetric graphs such as the extrapolation method it drives
    /// the longest chain towards a wide, almost data-parallel allocation
    /// (the behaviour the paper reports in Fig. 13 right).
    pub fn allocate(&self, graph: &TaskGraph) -> Vec<usize> {
        let p = self.model.spec.total_cores();
        let mut np = vec![1usize; graph.len()];
        // Each task's time at `np`, re-priced only where a round widens it.
        let mut times: Vec<f64> = graph
            .task_ids()
            .map(|t| task_time_optimistic(self.model, graph.task(t), 1))
            .collect();
        let mut current = list_schedule_timed(self.model, graph, &np, &times).makespan();
        let mut best = current;
        let mut best_np = np.clone();
        for _round in 0..p {
            let bl = graph.bottom_levels(|t| times[t.0]);
            let tl = graph.top_levels(|t| times[t.0]);
            let tcp = graph.task_ids().map(|t| tl[t.0]).fold(0.0f64, f64::max);
            // All tasks on a critical path (tl + bl − T == TCP).
            let critical: Vec<TaskId> = graph
                .task_ids()
                .filter(|t| !graph.task(*t).is_structural() && np[t.0] < p)
                .filter(|t| tl[t.0] + bl[t.0] - times[t.0] >= tcp * (1.0 - 1e-9))
                .collect();
            if critical.is_empty() {
                break;
            }
            for &t in &critical {
                np[t.0] += 1;
                times[t.0] = task_time_optimistic(self.model, graph.task(t), np[t.0]);
            }
            let m = list_schedule_timed(self.model, graph, &np, &times).makespan();
            // A worse round ends the descent; `best_np` never held it.
            if m > current * (1.0 + self.min_gain) {
                break;
            }
            current = m;
            if m < best * (1.0 - self.min_gain) {
                best = m;
                best_np = np.clone();
            }
        }
        best_np
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, EdgeData, MTask};

    #[test]
    fn symmetric_stages_get_balanced_groups() {
        // K = 4 equal stages on 16 cores: CPR should end close to 4 cores
        // each and run them concurrently (the "identical to task parallel"
        // observation of §4.3).
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let cpr = Cpr::new(&model);
        let mut g = TaskGraph::new();
        let stages: Vec<TaskId> = (0..4)
            .map(|i| {
                g.add_task(MTask::with_comm(
                    format!("s{i}"),
                    5.2e9,
                    vec![CommOp::allgather(80_000.0, 1.0)],
                ))
            })
            .collect();
        let sched = cpr.schedule(&g);
        assert!(sched.validate(&g).is_ok());
        // All four stages overlap in time.
        let max_start = stages
            .iter()
            .map(|s| sched.entry(*s).unwrap().est_start)
            .fold(0.0, f64::max);
        let min_finish = stages
            .iter()
            .map(|s| sched.entry(*s).unwrap().est_finish)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_start < min_finish,
            "stages should run concurrently under CPR"
        );
    }

    #[test]
    fn asymmetric_chains_pull_allocation_to_longest() {
        // EPOL-like: chains of 1..4 tasks; CPR grows the longest chain's
        // allocation the most.
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let cpr = Cpr::new(&model);
        let mut g = TaskGraph::new();
        let mut chain_heads = Vec::new();
        for i in 1..=4usize {
            let mut prev: Option<TaskId> = None;
            for j in 0..i {
                let t = g.add_task(MTask::with_comm(
                    format!("c{i}_{j}"),
                    5.2e9,
                    vec![CommOp::allgather(80_000.0, 1.0)],
                ));
                if let Some(p) = prev {
                    g.add_edge(p, t, EdgeData::replicated(80_000.0));
                }
                prev = Some(t);
            }
            chain_heads.push(prev.unwrap());
        }
        let cg = ChainGraph::contract(&g);
        let np = cpr.allocate(&cg.graph);
        // Identify contracted nodes by work: heaviest = longest chain.
        let works: Vec<f64> = cg.graph.task_ids().map(|t| cg.graph.task(t).work).collect();
        let longest = works
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let shortest = works
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            np[longest] >= np[shortest],
            "longest chain must receive at least as many cores: {np:?}"
        );
        assert!(np[longest] > 1, "CPR should widen the critical chain");
    }

    #[test]
    fn makespan_never_increases_during_allocation() {
        let spec = platforms::chic().with_nodes(2);
        let model = CostModel::new(&spec);
        let cpr = Cpr::new(&model);
        let mut g = TaskGraph::new();
        for i in 0..3 {
            g.add_task(MTask::compute(format!("t{i}"), (i as f64 + 1.0) * 1e9));
        }
        let base = list_schedule(&model, &g, &[1; 3]).makespan();
        let np = cpr.allocate(&g);
        let tuned = list_schedule(&model, &g, &np).makespan();
        assert!(tuned <= base + 1e-12);
    }
}

//! The AMTHA baseline: Automatic Mapping of Tasks on Heterogeneous
//! Architectures (De Giusti et al., PAPERS.md).
//!
//! AMTHA targets exactly the setting the heterogeneity-aware layer
//! scheduler addresses — a machine whose processors differ in speed — but
//! with a fixed processor granularity: tasks are mapped to whole
//! *processors* (here: nodes, the machine's natural speed boundary, since
//! slow nodes are how real mixed-generation clusters look), never to
//! resized core groups.  Each task goes, in decreasing-time order, to the
//! processor with the lowest availability plus heterogeneity-adjusted
//! execution time.
//!
//! Reproducing it as a [`LayeredSchedule`] (one group per node, every
//! layer) makes it directly comparable in the simulator to the layer-based
//! scheduler and exposes its structural handicap: group widths are frozen
//! at the node size, so AMTHA can neither widen a critical task across
//! nodes nor shrink groups below a node.

use crate::layer_sched::{het_assign, HetGroups};
use crate::schedule::{LayerSchedule, LayeredSchedule};
use pt_cost::CostModel;
use pt_mtask::{Chains, MTask, TaskGraph, TaskId};

/// The AMTHA scheduler (node-granular heterogeneous list mapping).
#[derive(Debug, Clone)]
pub struct Amtha<'a> {
    /// Cost model providing class-adjusted symbolic times.
    pub model: &'a CostModel<'a>,
}

impl<'a> Amtha<'a> {
    /// Scheduler over a cost model.
    pub fn new(model: &'a CostModel<'a>) -> Self {
        Amtha { model }
    }

    /// Schedule a task graph onto the whole machine.
    pub fn schedule(&self, graph: &TaskGraph) -> LayeredSchedule {
        self.schedule_on(graph, self.model.spec.total_cores())
    }

    /// Schedule onto the first `total` symbolic cores, grouped per node
    /// (a trailing partial node becomes one smaller group).  Each layer's
    /// tasks go through the heterogeneity-aware layer path's greedy rule
    /// on those fixed groups, in decreasing nominal-speed time at the node
    /// width, the smaller task id first on ties.
    pub fn schedule_on(&self, graph: &TaskGraph, total: usize) -> LayeredSchedule {
        assert!(total >= 1);
        let cpn = self.model.spec.cores_per_node().max(1);
        let mut sizes: Vec<usize> = std::iter::repeat_n(cpn, total / cpn).collect();
        if !total.is_multiple_of(cpn) {
            sizes.push(total % cpn);
        }
        let groups = HetGroups::new(self.model, sizes);

        let chains = Chains::find(graph);
        let mut out = LayeredSchedule {
            total_cores: total,
            layers: Vec::new(),
        };
        let mut tasks: Vec<(TaskId, &MTask)> = Vec::new();
        let mut assignment: Vec<Vec<usize>> = Vec::new();
        for mut layer in chains.layers(graph) {
            // The greedy rule breaks ties by position: in id order, that
            // is the smaller id.
            layer.sort_unstable();
            tasks.clear();
            tasks.extend(layer.iter().map(|&c| (c, chains.task(graph, c))));
            het_assign(self.model, &tasks, &groups, Some(&mut assignment), &mut 0);
            let assignments = assignment
                .iter()
                .map(|group| {
                    group
                        .iter()
                        .flat_map(|&i| chains.members(tasks[i].0).iter().copied())
                        .collect()
                })
                .collect();
            out.layers.push(LayerSchedule {
                group_sizes: groups.sizes.clone(),
                assignments,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;
    use pt_mtask::MTask;

    fn independent_tasks(n: usize, work: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..n {
            g.add_task(MTask::compute(format!("t{i}"), work));
        }
        g
    }

    #[test]
    fn produces_a_valid_node_granular_schedule() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let g = independent_tasks(7, 1e9);
        let sched = Amtha::new(&model).schedule(&g);
        assert!(sched.validate().is_ok());
        assert_eq!(sched.layers.len(), 1);
        // One group per node, each of node width.
        let cpn = spec.cores_per_node();
        assert_eq!(sched.layers[0].group_sizes, vec![cpn; 4]);
        let scheduled: usize = sched.layers[0].assignments.iter().map(Vec::len).sum();
        assert_eq!(scheduled, 7);
    }

    #[test]
    fn prefers_fast_nodes_on_a_het_machine() {
        // 4 nodes, last two at half speed; 2 equal tasks land on the two
        // fast nodes (a blind round-robin would use a slow one).
        let spec = platforms::chic().with_nodes(4).with_slow_nodes(2, 0.5);
        let model = CostModel::new(&spec);
        let g = independent_tasks(2, 1e9);
        let sched = Amtha::new(&model).schedule(&g);
        let loads: Vec<usize> = sched.layers[0].assignments.iter().map(Vec::len).collect();
        assert_eq!(loads, vec![1, 1, 0, 0], "tasks must land on the fast nodes");
    }

    #[test]
    fn saturates_fast_nodes_before_slow_ones_proportionally() {
        // 6 equal tasks on 2 fast + 2 half-speed nodes: the fast nodes take
        // two each, the slow ones one each (finish times 2w, 2w, 2w, 2w).
        let spec = platforms::chic().with_nodes(4).with_slow_nodes(2, 0.5);
        let model = CostModel::new(&spec);
        let g = independent_tasks(6, 1e9);
        let sched = Amtha::new(&model).schedule(&g);
        let loads: Vec<usize> = sched.layers[0].assignments.iter().map(Vec::len).collect();
        assert_eq!(loads, vec![2, 2, 1, 1]);
    }

    #[test]
    fn respects_layer_precedence() {
        // A fork a → {b, c} survives chain contraction (a has two
        // successors), so the dependents land in a second layer.
        let spec = platforms::chic().with_nodes(2);
        let model = CostModel::new(&spec);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1e9));
        let b = g.add_task(MTask::compute("b", 1e9));
        let c = g.add_task(MTask::compute("c", 1e9));
        g.add_ordering_edge(a, b);
        g.add_ordering_edge(a, c);
        let sched = Amtha::new(&model).schedule(&g);
        assert!(sched.validate().is_ok());
        assert_eq!(sched.layers.len(), 2, "dependents occupy the second layer");
        let first: usize = sched.layers[0].assignments.iter().map(Vec::len).sum();
        let second: usize = sched.layers[1].assignments.iter().map(Vec::len).sum();
        assert_eq!((first, second), (1, 2));
    }
}

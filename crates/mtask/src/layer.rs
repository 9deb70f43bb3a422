//! Greedy partition of a task graph into layers of independent M-tasks
//! (step 2 of the paper's scheduling algorithm, §3.2).
//!
//! A greedy algorithm runs over the graph in breadth-first manner and puts
//! as many independent nodes as possible into the current layer: layer `k`
//! consists of every task whose predecessors all lie in layers `< k`.
//! Structural start/stop nodes carry no computation and are not assigned to
//! any layer (paper Fig. 5 right).

use crate::graph::{TaskGraph, TaskId};

/// Partition `graph` into layers of pairwise independent tasks.
///
/// Returns the layers in execution order.  Structural nodes (zero work, no
/// communication) are skipped; if skipping them empties a layer, the layer
/// is dropped.
pub fn layers(graph: &TaskGraph) -> Vec<Vec<TaskId>> {
    layer_nodes(
        graph.task_ids().map(|t| graph.preds(t).len()).collect(),
        |u, out| out.extend_from_slice(graph.succs(u)),
        |t| graph.task(t).is_structural(),
    )
}

/// The greedy layering of the nodes `0..indeg.len()` of a DAG, given each
/// node's in-degree and, through `succs(u, out)`, its successors in the
/// order the walk visits them (`out` arrives empty).  Each layer lists its
/// nodes in the order they became ready; nodes for which `skip` holds
/// still count for the precedence structure but are left out.
pub(crate) fn layer_nodes(
    mut indeg: Vec<usize>,
    mut succs: impl FnMut(TaskId, &mut Vec<TaskId>),
    skip: impl Fn(TaskId) -> bool,
) -> Vec<Vec<TaskId>> {
    let mut current: Vec<TaskId> = (0..indeg.len())
        .filter(|&u| indeg[u] == 0)
        .map(TaskId)
        .collect();
    let mut out = Vec::new();
    let mut buf = Vec::new();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &u in &current {
            buf.clear();
            succs(u, &mut buf);
            for &v in &buf {
                indeg[v.0] -= 1;
                if indeg[v.0] == 0 {
                    next.push(v);
                }
            }
        }
        let kept: Vec<TaskId> = current.iter().copied().filter(|&t| !skip(t)).collect();
        if !kept.is_empty() {
            out.push(kept);
        }
        current = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeData;
    use crate::task::MTask;

    fn diamond() -> (TaskGraph, Vec<TaskId>) {
        let mut g = TaskGraph::new();
        let ids: Vec<_> = (0..4)
            .map(|i| g.add_task(MTask::compute(format!("t{i}"), 1.0)))
            .collect();
        g.add_edge(ids[0], ids[1], EdgeData::ordering());
        g.add_edge(ids[0], ids[2], EdgeData::ordering());
        g.add_edge(ids[1], ids[3], EdgeData::ordering());
        g.add_edge(ids[2], ids[3], EdgeData::ordering());
        (g, ids)
    }

    #[test]
    fn diamond_layers() {
        let (g, ids) = diamond();
        let ls = layers(&g);
        assert_eq!(ls.len(), 3);
        assert_eq!(ls[0], vec![ids[0]]);
        assert_eq!(
            {
                let mut l = ls[1].clone();
                l.sort();
                l
            },
            vec![ids[1], ids[2]]
        );
        assert_eq!(ls[2], vec![ids[3]]);
    }

    #[test]
    fn layers_are_antichains() {
        let (g, _) = diamond();
        for layer in layers(&g) {
            for (i, &a) in layer.iter().enumerate() {
                for &b in &layer[i + 1..] {
                    assert!(
                        g.independent(a, b),
                        "{a:?} and {b:?} share a layer but depend"
                    );
                }
            }
        }
    }

    #[test]
    fn layering_is_a_topological_partition() {
        let (g, _) = diamond();
        let ls = layers(&g);
        let mut layer_of = std::collections::HashMap::new();
        for (k, layer) in ls.iter().enumerate() {
            for &t in layer {
                layer_of.insert(t, k);
            }
        }
        for (a, b, _) in g.edges() {
            assert!(layer_of[&a] < layer_of[&b]);
        }
    }

    #[test]
    fn structural_nodes_skipped() {
        let (mut g, _) = diamond();
        let (start, stop) = g.add_start_stop();
        let ls = layers(&g);
        assert_eq!(ls.len(), 3, "start/stop must not add layers");
        for layer in &ls {
            assert!(!layer.contains(&start));
            assert!(!layer.contains(&stop));
        }
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        assert!(layers(&g).is_empty());
    }

    #[test]
    fn single_independent_set_is_one_layer() {
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add_task(MTask::compute(format!("z{i}"), 1.0));
        }
        let ls = layers(&g);
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].len(), 8);
    }
}

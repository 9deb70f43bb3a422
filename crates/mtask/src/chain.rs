//! Maximal linear-chain contraction (step 1 of the scheduling algorithm,
//! paper §3.2).
//!
//! A *linear chain* is a subgraph `v1 → v2 → … → vk` (k ≥ 2) with a unique
//! entry node preceding all others, a unique exit node succeeding all
//! others, where every node except the entry has exactly one predecessor
//! (its chain neighbour) and every node except the exit has exactly one
//! successor (its chain neighbour).  Each maximal chain is replaced by a
//! single node whose costs are the accumulated computation and communication
//! costs of its members.  This guarantees the tasks of one chain run on the
//! same group of cores, so the re-distribution operations between them can
//! be avoided (the contracted node drops the internal edges).
//!
//! [`Chains`] finds the chains and their payloads and layers the
//! contracted graph without building it, which is all the layer scheduler
//! needs.  [`ChainGraph`] also builds the contracted [`TaskGraph`], for the
//! schedulers that read its edges.
//!
//! Only a chain's head has predecessors outside the chain, and only its
//! exit has successors outside it, each the head of another chain.  So a
//! contracted node's in-degree is its head's, and its successors are its
//! exit's, mapped to their chains.

use crate::graph::{TaskGraph, TaskId};
use crate::layer::layer_nodes;
use crate::task::MTask;
use std::sync::Arc;

/// The maximal linear chains of a [`TaskGraph`]: the nodes of its
/// contracted graph, numbered in ascending order of their head task.
#[derive(Debug, Clone)]
pub struct Chains {
    /// Every chain's members in chain order, one chain after another.
    members: Vec<TaskId>,
    /// Chain `c` is `members[start[c]..start[c + 1]]`.
    start: Vec<usize>,
    /// The chain of every task.
    chain_of: Vec<usize>,
    /// The accumulated payload of every chain of two or more members; a
    /// singleton's payload is its task's own.
    merged: Vec<Option<Arc<MTask>>>,
}

impl Chains {
    /// Find the maximal linear chains of `g`.
    pub fn find(g: &TaskGraph) -> Chains {
        let n = g.len();
        // next[u] = v iff u→v is a chain link: u has exactly one successor v
        // and v has exactly one predecessor u.
        let mut next: Vec<Option<TaskId>> = vec![None; n];
        let mut linked = vec![false; n];
        for u in g.task_ids() {
            if g.task(u).is_structural() {
                continue; // start/stop markers never join a chain
            }
            if let [v] = g.succs(u) {
                if g.preds(*v).len() == 1 && !g.task(*v).is_structural() {
                    next[u.0] = Some(*v);
                    linked[v.0] = true;
                }
            }
        }

        // Walk each chain from its head (a node with no incoming chain link).
        let mut chains = Chains {
            members: Vec::with_capacity(n),
            start: vec![0],
            chain_of: vec![usize::MAX; n],
            merged: Vec::new(),
        };
        for u in g.task_ids() {
            if linked[u.0] {
                continue; // not a head
            }
            let c = chains.start.len() - 1;
            let mut cur = Some(u);
            while let Some(v) = cur {
                chains.members.push(v);
                chains.chain_of[v.0] = c;
                cur = next[v.0];
            }
            chains.start.push(chains.members.len());
            let chain = &chains.members[chains.start[c]..];
            chains
                .merged
                .push((chain.len() > 1).then(|| Arc::new(merge(g, chain))));
        }
        chains
    }

    /// Number of chains (nodes of the contracted graph).
    pub fn len(&self) -> usize {
        self.merged.len()
    }

    /// True if the graph had no tasks.
    pub fn is_empty(&self) -> bool {
        self.merged.is_empty()
    }

    /// The original tasks of chain `c`, in chain order.
    pub fn members(&self, c: TaskId) -> &[TaskId] {
        &self.members[self.start[c.0]..self.start[c.0 + 1]]
    }

    /// The chain that contains original task `t`.
    pub fn node_of(&self, t: TaskId) -> TaskId {
        TaskId(self.chain_of[t.0])
    }

    /// The payload of chain `c` of `g`: its members' accumulated costs, or
    /// a singleton's own task.
    pub fn task<'a>(&'a self, g: &'a TaskGraph, c: TaskId) -> &'a MTask {
        match &self.merged[c.0] {
            Some(merged) => merged,
            None => g.task(self.members[self.start[c.0]]),
        }
    }

    /// The layers of the contracted graph of `g`, exactly as
    /// [`layers`](crate::layer::layers) partitions [`ChainGraph::graph`]:
    /// that graph lists every node's successors in ascending order, so the
    /// walk visits each exit's successors in ascending chain order.
    pub fn layers(&self, g: &TaskGraph) -> Vec<Vec<TaskId>> {
        let head = |c: usize| self.members[self.start[c]];
        layer_nodes(
            (0..self.len()).map(|c| g.preds(head(c)).len()).collect(),
            |c, out| {
                let exit = self.members[self.start[c.0 + 1] - 1];
                out.extend(g.succs(exit).iter().map(|&v| self.node_of(v)));
                if !out.is_sorted() {
                    out.sort_unstable();
                }
            },
            |c| self.task(g, c).is_structural(),
        )
    }
}

/// One node for a chain of two or more members: work and internal
/// communication accumulated, the tightest core cap.
fn merge(g: &TaskGraph, chain: &[TaskId]) -> MTask {
    let name = format!(
        "chain[{}..{}]",
        g.task(chain[0]).name,
        g.task(chain[chain.len() - 1]).name
    );
    let mut merged = MTask::compute(name, 0.0);
    let mut cap: Option<usize> = None;
    for &t in chain {
        let task = g.task(t);
        merged.work += task.work;
        for op in &task.comm {
            // Coalesce identical collectives: cost is linear in `count`, so
            // `k` repeats of one op price the same as a single op with `k×`
            // the count — and the schedulers re-price merged chains at many
            // widths.
            match merged
                .comm
                .iter_mut()
                .find(|m| m.kind == op.kind && m.bytes == op.bytes)
            {
                Some(m) => m.count += op.count,
                None => merged.comm.push(op.clone()),
            }
        }
        cap = match (cap, task.max_cores) {
            (None, c) => c,
            (c, None) => c,
            (Some(a), Some(b)) => Some(a.min(b)),
        };
    }
    merged.max_cores = cap;
    merged
}

/// The chains of a [`TaskGraph`] together with its contracted graph.
#[derive(Debug, Clone)]
pub struct ChainGraph {
    /// The contracted graph: node `c` is chain `c`.
    pub graph: TaskGraph,
    /// The chains, which map the contracted nodes to the original tasks.
    pub chains: Chains,
}

impl ChainGraph {
    /// Contract all maximal linear chains of `g`.
    pub fn contract(g: &TaskGraph) -> ChainGraph {
        let chains = Chains::find(g);
        // Singleton chains share the original payload (`Arc` bump, no deep
        // copy — pinned by `task_clone_count` in the tests below); merged
        // chains share the one node `Chains::find` built.
        let mut graph = TaskGraph::with_capacity(chains.len(), g.edge_count());
        for (c, merged) in chains.merged.iter().enumerate() {
            let first = chains.members[chains.start[c]];
            graph.add_task_shared(merged.clone().unwrap_or_else(|| g.task_arc(first).clone()));
        }
        // External edges: between different chains only.  The contracted
        // graph is a quotient of a DAG along its topological order, so no
        // cycle can appear — skip `add_edge`'s per-edge path check.  Instead
        // of probing the adjacency lists per edge, pre-merge duplicates in
        // one stable sort (equal keys keep encounter order, so payload
        // merges fold left-to-right exactly as repeated `add_edge` would)
        // and bulk-append the unique records.
        let mut ext: Vec<(u32, u32, &crate::graph::EdgeData)> = Vec::with_capacity(g.edge_count());
        for (a, b, data) in g.edges() {
            let ca = chains.chain_of[a.0];
            let cb = chains.chain_of[b.0];
            if ca != cb {
                ext.push((ca as u32, cb as u32, data));
            }
        }
        ext.sort_by_key(|&(ca, cb, _)| (ca, cb));
        let mut i = 0;
        while i < ext.len() {
            let (ca, cb, first) = ext[i];
            let mut data = *first;
            i += 1;
            while i < ext.len() && ext[i].0 == ca && ext[i].1 == cb {
                data = data.merge(*ext[i].2);
                i += 1;
            }
            graph.push_edge_unchecked(TaskId(ca as usize), TaskId(cb as usize), data);
        }

        ChainGraph { graph, chains }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeData;
    use crate::layer::layers;

    /// A graph shaped like one EPOL time step with R = 3 (paper Fig. 5):
    /// start → three chains of length 1, 2, 3 → combine.
    fn epol_like(r: usize) -> (TaskGraph, TaskId, TaskId) {
        let mut g = TaskGraph::new();
        let start = g.add_task(MTask::compute("init", 1.0));
        let combine = g.add_task(MTask::compute("combine", 1.0));
        for i in 1..=r {
            let mut prev = start;
            for j in 1..=i {
                let t = g.add_task(MTask::compute(format!("step({j},{i})"), 1.0));
                g.add_edge(prev, t, EdgeData::replicated(8.0));
                prev = t;
            }
            g.add_edge(prev, combine, EdgeData::replicated(8.0));
        }
        (g, start, combine)
    }

    #[test]
    fn epol_chains_contract_to_one_node_each() {
        let (g, _, _) = epol_like(3);
        let cg = ChainGraph::contract(&g);
        // init + combine + 3 chains = 5 nodes.
        assert_eq!(cg.graph.len(), 5);
        // Chain works are 1, 2, 3.
        let mut chain_works: Vec<f64> = (0..cg.chains.len())
            .map(|c| {
                let m = cg.chains.members(TaskId(c));
                m.iter().map(|&t| g.task(t).work).sum()
            })
            .collect();
        chain_works.sort_by(f64::total_cmp);
        assert_eq!(chain_works, vec![1.0, 1.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn chain_members_in_order() {
        let (g, _, _) = epol_like(4);
        let cg = ChainGraph::contract(&g);
        for c in 0..cg.chains.len() {
            for pair in cg.chains.members(TaskId(c)).windows(2) {
                assert!(
                    g.edge(pair[0], pair[1]).is_some(),
                    "chain members must be consecutive in the original graph"
                );
            }
        }
    }

    #[test]
    fn contraction_preserves_total_work() {
        let (g, _, _) = epol_like(5);
        let cg = ChainGraph::contract(&g);
        assert!((g.total_work() - cg.graph.total_work()).abs() < 1e-12);
    }

    #[test]
    fn no_chain_in_wide_graph() {
        // A fork-join: nothing to contract except nothing (entry has 3
        // succs, join has 3 preds).
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1.0));
        let b = g.add_task(MTask::compute("b", 1.0));
        for i in 0..3 {
            let t = g.add_task(MTask::compute(format!("m{i}"), 1.0));
            g.add_ordering_edge(a, t);
            g.add_ordering_edge(t, b);
        }
        let cg = ChainGraph::contract(&g);
        assert_eq!(cg.graph.len(), g.len());
    }

    #[test]
    fn pure_path_contracts_to_single_node() {
        let mut g = TaskGraph::new();
        let mut prev = g.add_task(MTask::compute("t0", 1.0));
        for i in 1..6 {
            let t = g.add_task(MTask::compute(format!("t{i}"), 1.0));
            g.add_ordering_edge(prev, t);
            prev = t;
        }
        let cg = ChainGraph::contract(&g);
        assert_eq!(cg.graph.len(), 1);
        assert_eq!(cg.chains.members(TaskId(0)).len(), 6);
        assert_eq!(cg.graph.task(TaskId(0)).work, 6.0);
    }

    #[test]
    fn node_of_maps_back() {
        let (g, start, combine) = epol_like(3);
        let cg = ChainGraph::contract(&g);
        assert_ne!(cg.chains.node_of(start), cg.chains.node_of(combine));
        // Every original task maps to exactly the one chain holding it.
        let total: usize = (0..cg.chains.len())
            .map(|c| cg.chains.members(TaskId(c)).len())
            .sum();
        assert_eq!(total, g.len());
        for t in g.task_ids() {
            assert!(cg.chains.members(cg.chains.node_of(t)).contains(&t));
        }
    }

    #[test]
    fn chain_layers_visit_successors_in_ascending_order() {
        // A fork whose edges were inserted to its later successor first:
        // the contracted graph lists successors in ascending order, and so
        // does the layering without it; `layers` on the graph itself keeps
        // the insertion order.
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1.0));
        let b = g.add_task(MTask::compute("b", 1.0));
        let c = g.add_task(MTask::compute("c", 1.0));
        let d = g.add_task(MTask::compute("d", 1.0));
        g.add_ordering_edge(a, d);
        g.add_ordering_edge(a, c);
        g.add_ordering_edge(c, b);
        g.add_ordering_edge(a, b);
        let contracted = Chains::find(&g).layers(&g);
        assert_eq!(contracted, layers(&ChainGraph::contract(&g).graph));
        assert_eq!(contracted, vec![vec![a], vec![c, d], vec![b]]);
        assert_eq!(layers(&g), vec![vec![a], vec![d, c], vec![b]]);
    }

    #[test]
    fn max_cores_cap_is_min_over_chain() {
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1.0).max_cores(8));
        let b = g.add_task(MTask::compute("b", 1.0).max_cores(4));
        g.add_ordering_edge(a, b);
        let cg = ChainGraph::contract(&g);
        assert_eq!(cg.graph.len(), 1);
        assert_eq!(cg.graph.task(TaskId(0)).max_cores, Some(4));
    }

    #[test]
    fn contraction_performs_zero_per_node_clones() {
        // The arena path shares singleton payloads via `Arc` and builds
        // merged chains from scratch: no `MTask::clone` may run.  The
        // counter is thread-local, so concurrently running tests cannot
        // pollute the delta.
        let (g, _, _) = epol_like(8);
        let before = crate::task::task_clone_count();
        let cg = ChainGraph::contract(&g);
        let after = crate::task::task_clone_count();
        assert_eq!(
            after - before,
            0,
            "chain contraction deep-copied a task payload"
        );
        // Singletons really are shared, not copied.
        for i in 0..cg.chains.len() {
            if let [t] = cg.chains.members(TaskId(i)) {
                assert!(std::sync::Arc::ptr_eq(
                    cg.graph.task_arc(TaskId(i)),
                    g.task_arc(*t)
                ));
            }
        }
    }

    #[test]
    fn contracted_graph_is_acyclic_dag() {
        let (g, _, _) = epol_like(4);
        let cg = ChainGraph::contract(&g);
        // topo_order would debug-assert on a cycle; also check edges reduced.
        assert_eq!(cg.graph.topo_order().len(), cg.graph.len());
        assert!(cg.graph.edge_count() < g.edge_count());
    }
}

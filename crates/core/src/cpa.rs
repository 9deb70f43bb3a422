//! CPA — Critical Path and Allocation (Radulescu & van Gemund, IPDPS'01).
//!
//! CPA decouples allocation from scheduling: the allocation phase starts
//! with one core per task and repeatedly grants one more core to the
//! critical-path task with the best time/core-ratio improvement, until the
//! critical path `TCP` no longer exceeds the average area `TA = Σ np·T / P`.
//! The scheduling phase is a bottom-level list scheduler
//! ([`crate::list::list_schedule`]).
//!
//! CPA is the paper's first baseline (Fig. 13).  Its known weakness —
//! reproduced faithfully here — is *over-allocation*: because the ratio
//! `T(np)/np` keeps falling even when `T` itself stalls or grows
//! (communication-bound tasks), the allocation loop can hand the critical
//! tasks far more cores than `P/K`, so the scheduling phase cannot run the
//! `K` independent tasks of a PABM/IRK layer concurrently.

use crate::list::{list_schedule, symbolic_redist_disjoint};
use crate::schedule::SymbolicSchedule;
use pt_cost::{task_time_optimistic, CostModel};
use pt_mtask::{chain::ChainGraph, TaskGraph, TaskId};

/// The CPA scheduler.
#[derive(Debug, Clone)]
pub struct Cpa<'a> {
    /// Cost model providing `Tsymb`.
    pub model: &'a CostModel<'a>,
}

impl<'a> Cpa<'a> {
    /// New CPA instance.
    pub fn new(model: &'a CostModel<'a>) -> Self {
        Cpa { model }
    }

    /// Allocation phase on the (chain-contracted) graph: one `np` per node.
    pub fn allocate(&self, graph: &TaskGraph) -> Vec<usize> {
        let p = self.model.spec.total_cores();
        let n = graph.len();
        let mut np = vec![1usize; n];
        // Each task's time at its allocation and at one core more: a grant
        // moves `nxt` into `cur` and prices one new width.
        let mut cur: Vec<f64> = graph.task_ids().map(|t| self.time(graph, t, 1)).collect();
        let mut nxt: Vec<f64> = graph.task_ids().map(|t| self.time(graph, t, 2)).collect();
        // Top/bottom levels are maintained *incrementally*: granting one
        // core to task `t` changes only `T(t)` and the symbolic costs of
        // edges incident to `t`, so `tl` can shift only for `t` and its
        // descendants and `bl` only for `t` and its ancestors.  Each grant
        // propagates along the topological order and stops where the
        // recomputed value is bit-identical to the stored one, which keeps
        // every round's levels bit-equal to a full recompute (asserted
        // against the retained oracle in the tests below).
        let mut lv = Levels::new(self, graph, &np, &cur);
        // Bound the loop: every task can grow to at most P cores.
        let max_steps = n * p;
        for _ in 0..max_steps {
            let tcp = lv.tl.iter().copied().fold(0.0, f64::max);
            let ta = self.average_area(&np, &cur);
            if tcp <= ta {
                break;
            }
            let eps = 1e-12 + tcp * 1e-9;
            // Best ratio improvement among critical tasks
            // (tl + bl − T == TCP, up to float slack).
            let mut best: Option<(f64, TaskId)> = None;
            for t in graph.task_ids() {
                if graph.task(t).is_structural()
                    || (lv.tl[t.0] + lv.bl[t.0] - cur[t.0] - tcp).abs() > eps
                {
                    continue;
                }
                if np[t.0] >= p {
                    continue;
                }
                let gain = cur[t.0] / np[t.0] as f64 - nxt[t.0] / (np[t.0] + 1) as f64;
                if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                    best = Some((gain, t));
                }
            }
            match best {
                Some((_, t)) => {
                    np[t.0] += 1;
                    cur[t.0] = nxt[t.0];
                    nxt[t.0] = self.time(graph, t, np[t.0] + 1);
                    lv.update_after_grant(self, graph, &np, &cur, t);
                    #[cfg(test)]
                    lv.assert_matches_full_recompute(self, graph, &np, &cur);
                }
                None => break, // every critical task is maximal
            }
        }
        np
    }

    /// Full CPA: allocate on the contracted graph, then list-schedule the
    /// original graph with the expanded allocation.
    pub fn schedule(&self, graph: &TaskGraph) -> SymbolicSchedule {
        let cg = ChainGraph::contract(graph);
        let contracted_np = self.allocate(&cg.graph);
        let np: Vec<usize> = graph
            .task_ids()
            .map(|t| contracted_np[cg.chains.node_of(t).0])
            .collect();
        list_schedule(self.model, graph, &np)
    }

    fn time(&self, graph: &TaskGraph, t: TaskId, np: usize) -> f64 {
        task_time_optimistic(self.model, graph.task(t), np)
    }

    /// `tl[u]` from its predecessors' current levels — the single expression
    /// shared by the full pass and the incremental propagation, so both
    /// produce bit-identical floats.  `cur[u]` is `u`'s time at `np[u]`.
    fn tl_node(&self, graph: &TaskGraph, np: &[usize], cur: &[f64], tl: &[f64], u: TaskId) -> f64 {
        let mut base = 0.0f64;
        for (pr, e) in graph.in_edges(u) {
            // Conservative: producer/consumer on different sets.
            let ec = symbolic_redist_disjoint(self.model, e, np[pr.0].max(1), np[u.0].max(1));
            base = base.max(tl[pr.0] + ec);
        }
        base + cur[u.0]
    }

    /// `bl[u]` from its successors' current levels (mirror of
    /// [`tl_node`](Self::tl_node)).
    fn bl_node(&self, graph: &TaskGraph, np: &[usize], cur: &[f64], bl: &[f64], u: TaskId) -> f64 {
        let mut base = 0.0f64;
        for (s, e) in graph.out_edges(u) {
            let ec = symbolic_redist_disjoint(self.model, e, np[u.0].max(1), np[s.0].max(1));
            base = base.max(bl[s.0] + ec);
        }
        base + cur[u.0]
    }

    /// Full-recompute critical-path levels — the pre-rewrite O(V+E)-per-
    /// grant path, retained as the oracle the incremental maintenance is
    /// proven against (and used to seed [`Levels`]).
    fn full_levels(
        &self,
        graph: &TaskGraph,
        np: &[usize],
        cur: &[f64],
        order: &[TaskId],
    ) -> (Vec<f64>, Vec<f64>) {
        let mut tl = vec![0.0f64; graph.len()];
        for &u in order {
            tl[u.0] = self.tl_node(graph, np, cur, &tl, u);
        }
        let mut bl = vec![0.0f64; graph.len()];
        for &u in order.iter().rev() {
            bl[u.0] = self.bl_node(graph, np, cur, &bl, u);
        }
        (tl, bl)
    }

    /// Average area `TA = (1/P) Σ np·T(t, np)`.
    fn average_area(&self, np: &[usize], cur: &[f64]) -> f64 {
        let p = self.model.spec.total_cores() as f64;
        np.iter().zip(cur).map(|(&n, &t)| n as f64 * t).sum::<f64>() / p
    }
}

/// Incrementally maintained top/bottom levels (with symbolic edge delays)
/// for the CPA allocation loop.
///
/// Invariant — *incremental-level invariant* (DESIGN.md): after
/// [`update_after_grant`](Levels::update_after_grant) returns, `tl`/`bl`
/// are bit-identical to a full forward/backward recompute under the current
/// allocation.  This holds because a grant to `t` changes only `T(t)` and
/// the costs of edges incident to `t`; propagation visits affected nodes in
/// topological order with the *same* fold expression as the full pass, and
/// cuts where the recomputed value's bits are unchanged (a node's level is
/// a pure function of its neighbours' levels, the edge costs and its own
/// time — all unchanged beyond the cut).
struct Levels {
    /// One fixed topological order of the graph (kept for the test-only
    /// full-recompute cross-check).
    #[cfg_attr(not(test), allow(dead_code))]
    order: Vec<TaskId>,
    /// Position of each node in `order`.
    pos: Vec<usize>,
    tl: Vec<f64>,
    bl: Vec<f64>,
    /// Scratch: nodes already enqueued this propagation.
    queued: Vec<bool>,
}

impl Levels {
    fn new(cpa: &Cpa<'_>, graph: &TaskGraph, np: &[usize], cur: &[f64]) -> Levels {
        let order = graph.topo_order();
        let mut pos = vec![0usize; graph.len()];
        for (i, &u) in order.iter().enumerate() {
            pos[u.0] = i;
        }
        let (tl, bl) = cpa.full_levels(graph, np, cur, &order);
        Levels {
            order,
            pos,
            tl,
            bl,
            queued: vec![false; graph.len()],
        }
    }

    /// Re-establish the invariant after `np[t]` was incremented and
    /// `cur[t]` re-priced.
    fn update_after_grant(
        &mut self,
        cpa: &Cpa<'_>,
        graph: &TaskGraph,
        np: &[usize],
        cur: &[f64],
        t: TaskId,
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Forward sweep: `t` (its time and incoming edge costs changed) and
        // its direct successors (their incoming edge from `t` changed) seed
        // the worklist; nodes pop in ascending topological position, so
        // every predecessor level is final when a node is recomputed.
        let mut fwd: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        self.enqueue_fwd(&mut fwd, t);
        for &s in graph.succs(t) {
            self.enqueue_fwd(&mut fwd, s);
        }
        while let Some(Reverse((_, u))) = fwd.pop() {
            let u = TaskId(u);
            let new = cpa.tl_node(graph, np, cur, &self.tl, u);
            if new.to_bits() != self.tl[u.0].to_bits() {
                self.tl[u.0] = new;
                for &s in graph.succs(u) {
                    self.enqueue_fwd(&mut fwd, s);
                }
            }
        }
        self.queued.fill(false);

        // Backward sweep, mirrored: `t` and its direct predecessors seed;
        // nodes pop in descending topological position.
        let mut bwd: BinaryHeap<(usize, usize)> = BinaryHeap::new();
        self.enqueue_bwd(&mut bwd, t);
        for &pr in graph.preds(t) {
            self.enqueue_bwd(&mut bwd, pr);
        }
        while let Some((_, u)) = bwd.pop() {
            let u = TaskId(u);
            let new = cpa.bl_node(graph, np, cur, &self.bl, u);
            if new.to_bits() != self.bl[u.0].to_bits() {
                self.bl[u.0] = new;
                for &pr in graph.preds(u) {
                    self.enqueue_bwd(&mut bwd, pr);
                }
            }
        }
        self.queued.fill(false);
    }

    fn enqueue_fwd(
        &mut self,
        heap: &mut std::collections::BinaryHeap<std::cmp::Reverse<(usize, usize)>>,
        v: TaskId,
    ) {
        if !self.queued[v.0] {
            self.queued[v.0] = true;
            heap.push(std::cmp::Reverse((self.pos[v.0], v.0)));
        }
    }

    fn enqueue_bwd(&mut self, heap: &mut std::collections::BinaryHeap<(usize, usize)>, v: TaskId) {
        if !self.queued[v.0] {
            self.queued[v.0] = true;
            heap.push((self.pos[v.0], v.0));
        }
    }

    /// Oracle check: the maintained levels must be bit-identical to a full
    /// recompute.  Runs after **every** grant in unit tests, so any CPA
    /// test doubles as a check of the incremental-level invariant.
    #[cfg(test)]
    fn assert_matches_full_recompute(
        &self,
        cpa: &Cpa<'_>,
        graph: &TaskGraph,
        np: &[usize],
        cur: &[f64],
    ) {
        let (tl, bl) = cpa.full_levels(graph, np, cur, &self.order);
        for u in graph.task_ids() {
            assert_eq!(
                self.tl[u.0].to_bits(),
                tl[u.0].to_bits(),
                "incremental tl diverged at {u:?}"
            );
            assert_eq!(
                self.bl[u.0].to_bits(),
                bl[u.0].to_bits(),
                "incremental bl diverged at {u:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, MTask};

    /// K equal independent compute-bound tasks.
    fn stage_layer(k: usize, work: f64, comm_bytes: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..k {
            g.add_task(MTask::with_comm(
                format!("stage{i}"),
                work,
                vec![CommOp::allgather(comm_bytes, 1.0)],
            ));
        }
        g
    }

    /// K parallel stage tasks feeding a global update task — the shape of
    /// one PABM/IRK time step, which triggers CPA's over-allocation.
    fn stage_step(k: usize, work: f64, comm_bytes: f64) -> TaskGraph {
        let mut g = stage_layer(k, work, comm_bytes);
        let stages: Vec<TaskId> = g.task_ids().collect();
        let upd = g.add_task(MTask::with_comm(
            "update",
            work / 10.0,
            vec![CommOp::allgather(comm_bytes, 1.0)],
        ));
        for s in stages {
            g.add_edge(s, upd, pt_mtask::EdgeData::replicated(comm_bytes));
        }
        g
    }

    /// The pre-rewrite allocation loop — every task re-priced and the
    /// top/bottom levels recomputed in full every round — kept as the
    /// oracle for the incremental path.
    fn allocate_oracle(cpa: &Cpa<'_>, graph: &TaskGraph) -> Vec<usize> {
        let p = cpa.model.spec.total_cores();
        let n = graph.len();
        let mut np = vec![1usize; n];
        let order = graph.topo_order();
        let max_steps = n * p;
        for _ in 0..max_steps {
            let cur: Vec<f64> = graph
                .task_ids()
                .map(|t| cpa.time(graph, t, np[t.0]))
                .collect();
            let (tl, bl) = cpa.full_levels(graph, &np, &cur, &order);
            let tcp = tl.iter().copied().fold(0.0, f64::max);
            let ta = cpa.average_area(&np, &cur);
            if tcp <= ta {
                break;
            }
            let eps = 1e-12 + tcp * 1e-9;
            let mut best: Option<(f64, TaskId)> = None;
            for t in graph.task_ids() {
                if graph.task(t).is_structural()
                    || (tl[t.0] + bl[t.0] - cur[t.0] - tcp).abs() > eps
                    || np[t.0] >= p
                {
                    continue;
                }
                let nxt = cpa.time(graph, t, np[t.0] + 1);
                let gain = cur[t.0] / np[t.0] as f64 - nxt / (np[t.0] + 1) as f64;
                if best.as_ref().is_none_or(|(g, _)| gain > *g) {
                    best = Some((gain, t));
                }
            }
            match best {
                Some((_, t)) => np[t.0] += 1,
                None => break,
            }
        }
        np
    }

    /// A random layered DAG with data-carrying edges (the shape that
    /// exercises the symbolic edge delays in the level computation).
    fn arb_dag() -> impl proptest::strategy::Strategy<Value = TaskGraph> {
        use proptest::prelude::*;
        (2usize..5, 1usize..5, proptest::prelude::any::<u64>()).prop_map(|(depth, width, seed)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut g = TaskGraph::new();
            let mut prev: Vec<TaskId> = Vec::new();
            for d in 0..depth {
                let mut rank = Vec::new();
                for w in 0..width {
                    let work = rng.gen_range(1e8..5e9);
                    let comm = if rng.gen_bool(0.5) {
                        vec![CommOp::allgather(rng.gen_range(1e3..1e6), 1.0)]
                    } else {
                        vec![]
                    };
                    rank.push(g.add_task(MTask::with_comm(format!("t{d}_{w}"), work, comm)));
                }
                if d > 0 {
                    for &t in &rank {
                        let p = prev[rng.gen_range(0..prev.len())];
                        g.add_edge(
                            p,
                            t,
                            pt_mtask::EdgeData::replicated(rng.gen_range(8.0..1e6)),
                        );
                        if rng.gen_bool(0.3) {
                            let p2 = prev[rng.gen_range(0..prev.len())];
                            if p2 != p {
                                g.add_edge(p2, t, pt_mtask::EdgeData::replicated(64.0));
                            }
                        }
                    }
                }
                prev = rank;
            }
            g
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Randomized CPA runs: the incremental allocation equals the
        /// full-recompute oracle decision for decision (the per-grant level
        /// bit-equality is asserted inside `allocate_with` under test
        /// builds), and the final schedule is bit-identical to the
        /// pre-rewrite path.
        #[test]
        fn incremental_cpa_matches_full_recompute_oracle(
            g in arb_dag(),
            nodes in 1usize..5,
        ) {
            let spec = platforms::chic().with_nodes(nodes);
            let model = CostModel::new(&spec);
            let cpa = Cpa::new(&model);

            // Allocation decisions identical on the contracted graph (the
            // graph `schedule()` actually allocates on).
            let cg = ChainGraph::contract(&g);
            let np_inc = cpa.allocate(&cg.graph);
            let np_full = allocate_oracle(&cpa, &cg.graph);
            proptest::prop_assert_eq!(&np_inc, &np_full);

            // Final schedules bit-identical to the pre-rewrite path.
            let sched = cpa.schedule(&g);
            let np: Vec<usize> = g
                .task_ids()
                .map(|t| np_full[cg.chains.node_of(t).0])
                .collect();
            let oracle = list_schedule(&model, &g, &np);
            proptest::prop_assert_eq!(sched.entries.len(), oracle.entries.len());
            for (a, b) in sched.entries.iter().zip(&oracle.entries) {
                proptest::prop_assert_eq!(a.task, b.task);
                proptest::prop_assert_eq!(a.cores.clone(), b.cores.clone());
                proptest::prop_assert_eq!(a.est_start.to_bits(), b.est_start.to_bits());
                proptest::prop_assert_eq!(a.est_finish.to_bits(), b.est_finish.to_bits());
            }
        }
    }

    #[test]
    fn compute_bound_allocation_balances() {
        // Compute-dominated stages: allocation should settle near P/K.
        let spec = platforms::chic().with_nodes(8); // P = 32
        let model = CostModel::new(&spec);
        let cpa = Cpa::new(&model);
        let g = stage_layer(4, 1e10, 1_000.0);
        let np = cpa.allocate(&g);
        for &a in &np {
            assert!((4..=16).contains(&a), "allocation {np:?} far from P/K = 8");
        }
    }

    #[test]
    fn communication_bound_allocation_over_allocates() {
        // Heavy allgather per stage: T(np) stops improving but the ratio
        // T/np keeps falling → CPA pumps cores beyond P/K (its documented
        // flaw, paper §4.3).
        let spec = platforms::chic().with_nodes(8); // P = 32
        let model = CostModel::new(&spec);
        let cpa = Cpa::new(&model);
        let g = stage_step(4, 1e9, 64.0 * 1024.0 * 1024.0);
        let np = cpa.allocate(&g);
        let stage_total: usize = np[..4].iter().sum();
        assert!(
            stage_total > 32,
            "expected over-allocation of the stage layer beyond P = 32, got {np:?}"
        );
    }

    #[test]
    fn schedule_is_valid() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let cpa = Cpa::new(&model);
        let g = stage_layer(4, 1e9, 8_000.0);
        let sched = cpa.schedule(&g);
        assert!(sched.validate(&g).is_ok());
        assert_eq!(sched.entries.len(), 4);
    }

    #[test]
    fn over_allocated_schedule_serialises_stages() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let cpa = Cpa::new(&model);
        let g = stage_step(4, 1e9, 64.0 * 1024.0 * 1024.0);
        let sched = cpa.schedule(&g);
        // At least one stage must start strictly after another (they no
        // longer all fit side by side).
        let stage_starts: Vec<f64> = sched.entries[..4].iter().map(|e| e.est_start).collect();
        assert!(
            stage_starts.iter().any(|&s| s > 0.0),
            "over-allocation should force serialisation: {stage_starts:?}"
        );
    }
}

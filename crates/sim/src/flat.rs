//! Simulation of flat schedules (the CPA/CPR output form): execution is
//! driven by task dependencies and physical core occupancy, in dispatch
//! order.  Without the layer structure there is no *static* notion of
//! concurrent groups, so NIC contention is recovered by a two-pass
//! refinement: a first pass without cross-task contention yields tentative
//! execution intervals; the second pass charges every task with the
//! contention context of the tasks its interval overlaps.
//!
//! The contention pass is *counting-based* rather than all-pairs: the
//! sharing factor of a node only depends on how many tentative intervals
//! touching that node overlap the task's own interval, and that number
//! falls out of two binary searches in per-node sorted endpoint arrays,
//! evaluated only on the nodes the cost model can actually observe for
//! that task (see `ContentionIndex`).  The pass *streams*: one scratch
//! context is charged with an entry's sharing factors, read by the cost
//! model, and wiped back to uniform on exactly the dirtied nodes — no
//! per-entry context materialises, so pass 2 allocates O(nodes) once
//! instead of O(entries × nodes).  Combined with dense per-core/per-task
//! state this makes a pass near-linear in the schedule size; the original
//! all-pairs formulation is kept under `#[cfg(test)]` as a reference
//! oracle and the two are checked bit-identical on randomized DAGs.

use crate::report::{SimReport, TaskTiming};
use crate::Simulator;
use pt_core::{Mapping, SymbolicSchedule};
use pt_cost::CommContext;
use pt_machine::{ClusterSpec, CoreId};
use pt_mtask::{TaskGraph, TaskId};

impl Simulator<'_> {
    /// Simulate a flat schedule under a mapping.
    pub fn simulate_flat(
        &self,
        graph: &TaskGraph,
        sched: &SymbolicSchedule,
        mapping: &Mapping,
    ) -> SimReport {
        debug_assert!(sched.validate(graph).is_ok());
        // Physical core set of every entry, mapped once and shared by both
        // passes (also the entry-index → cores table that makes group
        // lookup O(1); entry i of the schedule is task i of each pass's
        // report, so indices line up everywhere).
        let mapped: Vec<Vec<CoreId>> = sched
            .entries
            .iter()
            .map(|e| mapping.map(&e.cores))
            .collect();
        // Pass 1: no cross-task contention.
        let first = self.flat_pass(graph, sched, &mapped, None);
        // Pass 2: per-task contention context from overlapping intervals.
        self.flat_pass(graph, sched, &mapped, Some(&first))
    }

    fn flat_pass(
        &self,
        graph: &TaskGraph,
        sched: &SymbolicSchedule,
        mapped: &[Vec<CoreId>],
        tentative: Option<&SimReport>,
    ) -> SimReport {
        let spec = self.model.spec;
        let uniform = CommContext::uniform(spec);
        let contention =
            tentative.map(|prev| ContentionIndex::build(spec, graph, sched, prev, mapped));
        // The one scratch context the streaming pass charges and wipes per
        // entry, plus the dirty-node list that makes the wipe exact.
        let mut scratch_ctx = CommContext::uniform(spec);
        let mut dirty: Vec<u32> = Vec::new();
        let mut fallback_ctx: CommContext;

        // Dense state: core_free by physical core id, finish by task id
        // (NaN = not finished), entry_of by task id (u32::MAX = not
        // scheduled yet) pointing into `mapped`.
        let mut core_free = vec![0.0f64; spec.total_cores()];
        let mut finish = vec![f64::NAN; graph.len()];
        let mut entry_of = vec![u32::MAX; graph.len()];
        let mut resolver = FinishResolver::new(graph.len());
        let mut report = SimReport::default();
        report.tasks.reserve(sched.entries.len());

        for (i, entry) in sched.entries.iter().enumerate() {
            let cores = &mapped[i];
            let ctx: &CommContext = match (&contention, tentative) {
                (Some(cidx), Some(prev)) => {
                    let t = &prev.tasks[i];
                    if t.start < t.finish {
                        cidx.charge(graph, sched, prev, i, &mut scratch_ctx, &mut dirty);
                        &scratch_ctx
                    } else {
                        // Zero-length interval: counting would cancel the
                        // entry out of its own context — exact direct scan.
                        fallback_ctx = overlap_scan_context(spec, prev, mapped, i);
                        &fallback_ctx
                    }
                }
                _ => &uniform,
            };
            // Producers must have finished; the incoming re-distributions
            // then serialise at the consumer (its cores receive one foreign
            // datum after another).
            let mut preds_done = 0.0f64;
            let mut redist_total = 0.0f64;
            for &pr in graph.preds(entry.task) {
                preds_done = preds_done.max(resolver.resolve(graph, pr, &finish));
                let src = entry_of[pr.0];
                if src != u32::MAX {
                    let edge = *graph.edge(pr, entry.task).expect("edge exists");
                    redist_total +=
                        self.model
                            .redist_time(ctx, &edge, &mapped[src as usize], cores);
                }
            }
            let data_ready = preds_done + redist_total;
            let cores_ready = cores.iter().map(|c| core_free[c.0]).fold(0.0f64, f64::max);
            let start = data_ready.max(cores_ready);
            let task = graph.task(entry.task);
            let dur = self.model.task_time(ctx, task, cores);
            // Pricing is done; wipe exactly the dirtied nodes so the scratch
            // is uniform again for the next entry.
            for n in dirty.drain(..) {
                scratch_ctx.sharers[n as usize] = 1.0;
            }
            let compute = self.model.compute_share(task, cores);
            let end = start + dur;
            for &c in cores {
                core_free[c.0] = end;
            }
            finish[entry.task.0] = end;
            entry_of[entry.task.0] = i as u32;
            report.tasks.push(TaskTiming {
                task: entry.task,
                start,
                finish: end,
                comm_time: (dur - compute).max(0.0),
            });
        }
        report.makespan = report.tasks.iter().map(|t| t.finish).fold(0.0, f64::max);
        report
    }
}

/// The pass-2 contention index: everything needed to charge any entry's
/// sharing factors into a scratch context, built once from the tentative
/// pass-1 intervals.
///
/// The reference formulation lists, for entry `i`, the core sets of
/// `{i} ∪ {j ≠ i : s_j < f_i ∧ s_i < f_j}` and counts per node how many
/// listed sets touch it.  For an entry with `s_i < f_i` that count equals
///
/// ```text
/// D_n(s_i, f_i) = #{j touching n : s_j < f_i} − #{j touching n : f_j ≤ s_i}
/// ```
///
/// taken over *all* entries `j` including `i` itself: `i`'s own term and
/// its exclusion from the "others" cancel, and the subtrahend removes
/// exactly the non-overlapping entries (every `j` with `f_j ≤ s_i` also
/// satisfies `s_j < f_i`, so the difference is never negative).  Both
/// counts are binary searches in per-node sorted endpoint arrays.
///
/// The cost model only ever reads a context at the nodes of the cores
/// taking part in the priced operation (`p2p`/`step_time`), and pass 2
/// prices entry `i` exclusively on its own cores and its predecessors'
/// cores.  So each entry's context is only *computed* on that read set —
/// every other node keeps the uniform sharing factor `1.0`, which is never
/// observed.  That turns the per-entry cost from O(nodes · log n) into
/// O(read-set · log n), and the simulated times stay bit-identical to the
/// reference's full contexts.  [`charge`](Self::charge) writes those
/// factors straight into the caller's scratch context and records the
/// dirtied nodes, so the whole pass reuses a single O(nodes) buffer
/// instead of materialising one context per entry.
///
/// Zero-length intervals (`s_i == f_i`) break the cancellation: the entry
/// would subtract itself out of its own context.  Those entries fall back
/// to the reference-style direct scan ([`overlap_scan_context`]), which
/// stays exact and is rare (zero-work, zero-comm tasks only).
struct ContentionIndex {
    /// Nodes each entry's cores touch, deduplicated and sorted.
    touched: Vec<Vec<u32>>,
    /// Sorted tentative interval endpoints per node.
    starts: Vec<Vec<f64>>,
    finishes: Vec<Vec<f64>>,
    /// Entry index of every scheduled task (`u32::MAX`: unscheduled).
    entry_of: Vec<u32>,
}

impl ContentionIndex {
    fn build(
        spec: &ClusterSpec,
        graph: &TaskGraph,
        sched: &SymbolicSchedule,
        prev: &SimReport,
        mapped: &[Vec<CoreId>],
    ) -> ContentionIndex {
        debug_assert_eq!(prev.tasks.len(), mapped.len());
        let touched: Vec<Vec<u32>> = mapped
            .iter()
            .map(|cores| {
                let mut nodes: Vec<u32> =
                    cores.iter().map(|&c| spec.label(c).node as u32).collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            })
            .collect();
        let mut starts: Vec<Vec<f64>> = vec![Vec::new(); spec.nodes];
        let mut finishes: Vec<Vec<f64>> = vec![Vec::new(); spec.nodes];
        for (t, nodes) in prev.tasks.iter().zip(&touched) {
            for &n in nodes {
                starts[n as usize].push(t.start);
                finishes[n as usize].push(t.finish);
            }
        }
        for v in starts.iter_mut().chain(finishes.iter_mut()) {
            v.sort_unstable_by(f64::total_cmp);
        }
        let mut entry_of = vec![u32::MAX; graph.len()];
        for (i, entry) in sched.entries.iter().enumerate() {
            entry_of[entry.task.0] = i as u32;
        }
        ContentionIndex {
            touched,
            starts,
            finishes,
            entry_of,
        }
    }

    /// Write entry `i`'s sharing factors into `ctx` (which must be uniform)
    /// and append the written node ids to `dirty` so the caller can wipe
    /// them back after pricing.  Only valid for `s_i < f_i` entries.
    fn charge(
        &self,
        graph: &TaskGraph,
        sched: &SymbolicSchedule,
        prev: &SimReport,
        i: usize,
        ctx: &mut CommContext,
        dirty: &mut Vec<u32>,
    ) {
        let t = &prev.tasks[i];
        debug_assert!(t.start < t.finish);
        debug_assert!(dirty.is_empty());
        dirty.extend_from_slice(&self.touched[i]);
        for &pr in graph.preds(sched.entries[i].task) {
            let src = self.entry_of[pr.0];
            if src != u32::MAX {
                dirty.extend_from_slice(&self.touched[src as usize]);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        for &n in dirty.iter() {
            let n = n as usize;
            let begun = self.starts[n].partition_point(|&s| s < t.finish);
            let done = self.finishes[n].partition_point(|&f| f <= t.start);
            ctx.sharers[n] = (begun - done).max(1) as f64;
        }
    }
}

/// Reference-style O(n) context for one entry: list the overlapping core
/// sets explicitly.  Exact for any interval; used for the zero-length ones
/// the counting path cannot handle.
fn overlap_scan_context(
    spec: &ClusterSpec,
    prev: &SimReport,
    mapped: &[Vec<CoreId>],
    i: usize,
) -> CommContext {
    let (s, f) = (prev.tasks[i].start, prev.tasks[i].finish);
    let mut concurrent: Vec<&[CoreId]> = vec![&mapped[i]];
    for (j, other) in prev.tasks.iter().enumerate() {
        if j != i && other.start < f && s < other.finish {
            concurrent.push(&mapped[j]);
        }
    }
    CommContext::from_groups(spec, &concurrent)
}

/// Iterative, memoized resolution of finish times through unscheduled
/// (structural) predecessors.
///
/// The recursive formulation re-walks every path — exponential on diamond
/// lattices — and overflows the stack on deep structural chains.  This
/// resolver runs an explicit depth-first walk with a memo keyed by
/// generation stamp: the memo is valid *within* one call only (the finish
/// state mutates between schedule entries), so each call bumps the
/// generation instead of clearing the table.
struct FinishResolver {
    value: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    /// DFS frames: (task id, next predecessor index to inspect).
    stack: Vec<(usize, usize)>,
}

impl FinishResolver {
    fn new(tasks: usize) -> Self {
        FinishResolver {
            value: vec![0.0; tasks],
            stamp: vec![0; tasks],
            generation: 0,
            stack: Vec::new(),
        }
    }

    /// Finish time of `t`: its simulated finish if recorded in `finish`
    /// (non-NaN), otherwise the maximum over its predecessors' resolved
    /// finishes (0.0 at sources) — the value the recursive reference
    /// computes.
    fn resolve(&mut self, graph: &TaskGraph, t: TaskId, finish: &[f64]) -> f64 {
        if !finish[t.0].is_nan() {
            return finish[t.0];
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.stamp.fill(0);
                1
            }
        };
        let generation = self.generation;
        self.stack.clear();
        self.stack.push((t.0, 0));
        while let Some(&(u, idx)) = self.stack.last() {
            let preds = graph.preds(TaskId(u));
            let mut k = idx;
            let mut descended = false;
            while k < preds.len() {
                let p = preds[k].0;
                if finish[p].is_nan() && self.stamp[p] != generation {
                    self.stack.last_mut().expect("frame exists").1 = k;
                    self.stack.push((p, 0));
                    descended = true;
                    break;
                }
                k += 1;
            }
            if descended {
                continue;
            }
            let done = preds
                .iter()
                .map(|&p| {
                    if finish[p.0].is_nan() {
                        self.value[p.0]
                    } else {
                        finish[p.0]
                    }
                })
                .fold(0.0f64, f64::max);
            self.value[u] = done;
            self.stamp[u] = generation;
            self.stack.pop();
        }
        self.value[t.0]
    }
}

#[cfg(test)]
mod reference {
    //! The original all-pairs O(n²) formulation, kept verbatim as the
    //! oracle the optimized pass is checked against (bit-identical
    //! `SimReport`s, see the proptest below).

    use super::*;
    use std::collections::HashMap;

    impl Simulator<'_> {
        pub(crate) fn simulate_flat_reference(
            &self,
            graph: &TaskGraph,
            sched: &SymbolicSchedule,
            mapping: &Mapping,
        ) -> SimReport {
            let first = self.flat_pass_reference(graph, sched, mapping, None);
            self.flat_pass_reference(graph, sched, mapping, Some(&first))
        }

        fn flat_pass_reference(
            &self,
            graph: &TaskGraph,
            sched: &SymbolicSchedule,
            mapping: &Mapping,
            tentative: Option<&SimReport>,
        ) -> SimReport {
            let spec = self.model.spec;
            let uniform = CommContext::uniform(spec);
            let p = mapping.len();
            let mut core_free: HashMap<CoreId, f64> = HashMap::with_capacity(p);
            let mut finish: HashMap<TaskId, f64> = HashMap::new();
            let mut placement: HashMap<TaskId, Vec<CoreId>> = HashMap::new();
            let mut report = SimReport::default();

            // Tentative intervals and core sets from pass 1, used to
            // determine which tasks communicate concurrently.
            let intervals: HashMap<TaskId, (f64, f64)> = tentative
                .map(|r| {
                    r.tasks
                        .iter()
                        .map(|t| (t.task, (t.start, t.finish)))
                        .collect()
                })
                .unwrap_or_default();

            for entry in &sched.entries {
                let cores = mapping.map(&entry.cores);
                let ctx = match tentative {
                    None => uniform.clone(),
                    Some(prev) => {
                        // Groups whose tentative interval overlaps this task's.
                        let (my_s, my_f) = intervals
                            .get(&entry.task)
                            .copied()
                            .unwrap_or((0.0, f64::INFINITY));
                        let mut concurrent: Vec<Vec<CoreId>> = vec![cores.clone()];
                        for other in &prev.tasks {
                            if other.task == entry.task {
                                continue;
                            }
                            let (os, of) = (other.start, other.finish);
                            if os < my_f && my_s < of {
                                concurrent.push(
                                    mapping.map(
                                        &sched
                                            .entries
                                            .iter()
                                            .find(|e| e.task == other.task)
                                            .expect("entry exists")
                                            .cores,
                                    ),
                                );
                            }
                        }
                        CommContext::from_groups(spec, &concurrent)
                    }
                };
                let mut preds_done = 0.0f64;
                let mut redist_total = 0.0f64;
                for &pr in graph.preds(entry.task) {
                    let pf = resolve_finish_reference(graph, pr, &finish);
                    preds_done = preds_done.max(pf);
                    if let Some(src) = placement.get(&pr) {
                        let edge = *graph.edge(pr, entry.task).expect("edge exists");
                        redist_total += self.model.redist_time(&ctx, &edge, src, &cores);
                    }
                }
                let data_ready = preds_done + redist_total;
                let cores_ready = cores
                    .iter()
                    .map(|c| core_free.get(c).copied().unwrap_or(0.0))
                    .fold(0.0f64, f64::max);
                let start = data_ready.max(cores_ready);
                let task = graph.task(entry.task);
                let dur = self.model.task_time(&ctx, task, &cores);
                let compute = self.model.compute_share(task, &cores);
                let end = start + dur;
                for &c in &cores {
                    core_free.insert(c, end);
                }
                finish.insert(entry.task, end);
                placement.insert(entry.task, cores);
                report.tasks.push(TaskTiming {
                    task: entry.task,
                    start,
                    finish: end,
                    comm_time: (dur - compute).max(0.0),
                });
            }
            report.makespan = report.tasks.iter().map(|t| t.finish).fold(0.0, f64::max);
            report
        }
    }

    fn resolve_finish_reference(
        graph: &TaskGraph,
        t: TaskId,
        finish: &HashMap<TaskId, f64>,
    ) -> f64 {
        if let Some(&f) = finish.get(&t) {
            return f;
        }
        graph
            .preds(t)
            .iter()
            .map(|&p| resolve_finish_reference(graph, p, finish))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use crate::{SimReport, Simulator};
    use proptest::prelude::*;
    use pt_core::{Cpa, Cpr, MappingStrategy, ScheduledTask, SymbolicSchedule};
    use pt_cost::CostModel;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, EdgeData, MTask, RedistPattern, TaskGraph, TaskId};

    #[test]
    fn flat_respects_dependencies_and_occupancy() {
        let spec = platforms::chic().with_nodes(2);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 5.2e9));
        let b = g.add_task(MTask::compute("b", 5.2e9));
        g.add_edge(a, b, EdgeData::replicated(1e6));
        let cpa = Cpa::new(&model);
        let sched = cpa.schedule(&g);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 8);
        let rep = sim.simulate_flat(&g, &sched, &mapping);
        let ta = rep.task(a).unwrap();
        let tb = rep.task(b).unwrap();
        assert!(tb.start >= ta.finish);
    }

    #[test]
    fn slow_cores_stretch_simulated_compute() {
        // One compute task pinned to the slow tail node runs 2× longer than
        // on a fast node; comm_time stays zero either way (the speed factor
        // must hit only the compute part).
        let spec = platforms::chic().with_nodes(4).with_slow_nodes(1, 0.5);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 5.2e9));
        let cpn = spec.cores_per_node();
        let entry = |cores: Vec<usize>| SymbolicSchedule {
            total_cores: spec.total_cores(),
            entries: vec![ScheduledTask {
                task: a,
                cores,
                est_start: 0.0,
                est_finish: 0.0,
            }],
        };
        let fast = entry((0..cpn).collect());
        let slow = entry((3 * cpn..4 * cpn).collect());
        let mapping = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
        let rep_fast = sim.simulate_flat(&g, &fast, &mapping);
        let rep_slow = sim.simulate_flat(&g, &slow, &mapping);
        let tf = rep_fast.task(a).unwrap();
        let ts = rep_slow.task(a).unwrap();
        assert!(
            (ts.finish / tf.finish - 2.0).abs() < 1e-9,
            "half-speed cores must double the compute time"
        );
        assert_eq!(tf.comm_time, 0.0);
        assert_eq!(ts.comm_time, 0.0);
    }

    #[test]
    fn cpr_schedule_simulates_concurrent_stages() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let stages: Vec<_> = (0..4)
            .map(|i| {
                g.add_task(MTask::with_comm(
                    format!("s{i}"),
                    5.2e9,
                    vec![CommOp::allgather(80_000.0, 1.0)],
                ))
            })
            .collect();
        let sched = Cpr::new(&model).schedule(&g);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 16);
        let rep = sim.simulate_flat(&g, &sched, &mapping);
        let idx = rep.index();
        // All stages overlap.
        let max_start = stages
            .iter()
            .map(|s| rep.tasks[idx[s]].start)
            .fold(0.0, f64::max);
        let min_finish = stages
            .iter()
            .map(|s| rep.tasks[idx[s]].finish)
            .fold(f64::INFINITY, f64::min);
        assert!(max_start < min_finish);
    }

    #[test]
    fn structural_predecessors_resolve_to_zero() {
        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1e9));
        let _ = g.add_start_stop();
        let sched = SymbolicSchedule {
            total_cores: 4,
            entries: vec![ScheduledTask {
                task: a,
                cores: vec![0, 1, 2, 3],
                est_start: 0.0,
                est_finish: 1.0,
            }],
        };
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 4);
        let rep = sim.simulate_flat(&g, &sched, &mapping);
        assert!((rep.task(a).unwrap().start).abs() < 1e-12);
    }

    #[test]
    fn deep_structural_chain_resolves_iteratively() {
        // 100k unscheduled nodes between two scheduled tasks: the recursive
        // resolver overflowed the stack here; the iterative one must walk
        // the chain and carry the head's finish through to the tail.
        let mut g = TaskGraph::new();
        let head = g.add_task(MTask::compute("head", 1e9));
        let mut prev = head;
        for i in 0..100_000 {
            let s = g.add_task(MTask::compute(format!("s{i}"), 0.0));
            g.add_ordering_edge(prev, s);
            prev = s;
        }
        let tail = g.add_task(MTask::compute("tail", 1e9));
        g.add_ordering_edge(prev, tail);

        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let entry = |task, cores: std::ops::Range<usize>| ScheduledTask {
            task,
            cores: cores.collect(),
            est_start: 0.0,
            est_finish: 0.0,
        };
        let sched = SymbolicSchedule {
            total_cores: 4,
            entries: vec![entry(head, 0..2), entry(tail, 2..4)],
        };
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 4);
        let rep = sim.simulate_flat(&g, &sched, &mapping);
        let idx = rep.index();
        let h = &rep.tasks[idx[&head]];
        let t = &rep.tasks[idx[&tail]];
        assert!(t.start >= h.finish);
        assert!((t.start - h.finish).abs() < 1e-12);
    }

    #[test]
    fn diamond_lattice_resolves_without_blowup() {
        // 64 stacked unscheduled diamonds have 2^64 source-to-sink paths;
        // the memoized resolver visits each node once.
        let mut g = TaskGraph::new();
        let head = g.add_task(MTask::compute("head", 1e9));
        let mut join = head;
        for i in 0..64 {
            let l = g.add_task(MTask::compute(format!("l{i}"), 0.0));
            let r = g.add_task(MTask::compute(format!("r{i}"), 0.0));
            let j = g.add_task(MTask::compute(format!("j{i}"), 0.0));
            g.add_ordering_edge(join, l);
            g.add_ordering_edge(join, r);
            g.add_ordering_edge(l, j);
            g.add_ordering_edge(r, j);
            join = j;
        }
        let tail = g.add_task(MTask::compute("tail", 1e9));
        g.add_ordering_edge(join, tail);

        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let entry = |task, cores: std::ops::Range<usize>| ScheduledTask {
            task,
            cores: cores.collect(),
            est_start: 0.0,
            est_finish: 0.0,
        };
        let sched = SymbolicSchedule {
            total_cores: 4,
            entries: vec![entry(head, 0..2), entry(tail, 2..4)],
        };
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 4);
        let rep = sim.simulate_flat(&g, &sched, &mapping);
        let idx = rep.index();
        assert!(rep.tasks[idx[&tail]].start >= rep.tasks[idx[&head]].finish);
    }

    // ---- bit-identity against the reference oracle ----------------------

    const P: usize = 16;

    /// Per task: ((work class, has comm, pred bitmask over up to 16 earlier
    /// tasks, edge kind), (core range lo, core range len, scheduled?)).
    type Row = ((u8, bool, u32, u8), (usize, usize, bool));

    fn build_case(rows: Vec<Row>) -> (TaskGraph, SymbolicSchedule) {
        let mut g = TaskGraph::new();
        for (i, &((wk, comm, ..), _)) in rows.iter().enumerate() {
            // Class 0 is zero work: combined with no comm it yields
            // zero-length tentative intervals, the counting fallback path.
            let work = match wk % 4 {
                0 => 0.0,
                1 => 1e8,
                2 => 1.3e9,
                _ => 5.2e9,
            };
            let t = if comm {
                MTask::with_comm(format!("t{i}"), work, vec![CommOp::allgather(8e5, 1.0)])
            } else {
                MTask::compute(format!("t{i}"), work)
            };
            g.add_task(t);
        }
        for (i, &((_, _, mask, ek), _)) in rows.iter().enumerate() {
            let lo = i.saturating_sub(16);
            for j in lo..i {
                if mask >> (j - lo) & 1 == 1 {
                    let edge = match ek % 3 {
                        0 => EdgeData::ordering(),
                        1 => EdgeData::replicated(4e5),
                        _ => EdgeData {
                            bytes: 2e5,
                            pattern: RedistPattern::Block,
                        },
                    };
                    g.add_edge(TaskId(j), TaskId(i), edge);
                }
            }
        }
        let mut entries = Vec::new();
        for (i, &(_, (lo, len, scheduled))) in rows.iter().enumerate() {
            if scheduled {
                let lo = lo % P;
                let hi = (lo + len.max(1)).min(P);
                entries.push(ScheduledTask {
                    task: TaskId(i),
                    cores: (lo..hi).collect(),
                    est_start: 0.0,
                    est_finish: 0.0,
                });
            }
        }
        if entries.is_empty() {
            entries.push(ScheduledTask {
                task: TaskId(0),
                cores: (0..4).collect(),
                est_start: 0.0,
                est_finish: 0.0,
            });
        }
        let sched = SymbolicSchedule {
            total_cores: P,
            entries,
        };
        (g, sched)
    }

    fn assert_bit_identical(fast: &SimReport, slow: &SimReport) {
        assert_eq!(fast.makespan.to_bits(), slow.makespan.to_bits());
        assert_eq!(fast.total_redist.to_bits(), slow.total_redist.to_bits());
        assert_eq!(fast.tasks.len(), slow.tasks.len());
        for (a, b) in fast.tasks.iter().zip(&slow.tasks) {
            assert_eq!(a.task, b.task);
            assert_eq!(
                a.start.to_bits(),
                b.start.to_bits(),
                "start of {:?}",
                a.task
            );
            assert_eq!(
                a.finish.to_bits(),
                b.finish.to_bits(),
                "finish of {:?}",
                a.task
            );
            assert_eq!(
                a.comm_time.to_bits(),
                b.comm_time.to_bits(),
                "comm_time of {:?}",
                a.task
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn counting_pass_matches_reference_oracle(
            rows in proptest::collection::vec(
                (
                    (0u8..4, any::<bool>(), any::<u32>(), 0u8..3),
                    (0usize..P, 1usize..P + 1, any::<bool>()),
                ),
                1..24,
            ),
            strategy in 0usize..3,
        ) {
            let (g, sched) = build_case(rows);
            let spec = platforms::chic().with_nodes(4);
            let model = CostModel::new(&spec);
            let sim = Simulator::new(&model);
            let strategy = [
                MappingStrategy::Consecutive,
                MappingStrategy::Scattered,
                MappingStrategy::Mixed(2),
            ][strategy];
            let mapping = strategy.mapping(&spec, P);
            let fast = sim.simulate_flat(&g, &sched, &mapping);
            let slow = sim.simulate_flat_reference(&g, &sched, &mapping);
            assert_bit_identical(&fast, &slow);
        }
    }
}

//! Simulation of layered schedules (the native output of the paper's
//! Algorithm 1): layers execute one after another; within a layer the
//! groups run concurrently (sharing node NICs); data re-distribution is
//! paid at layer boundaries, with the orthogonal exchanges of all producer
//! groups aggregated into one concurrent multi-allgather phase.
//!
//! Every group of a layered schedule is a contiguous range of symbolic
//! cores, and a [`Mapping`] never repeats a physical core, so two groups
//! are the same cores exactly when their ranges are equal, and one lies
//! inside the other exactly when its range does.  The simulator decides
//! redistribution residency from the ranges in O(1), and keys its price
//! memo by them.

use crate::report::{GroupTiming, LayerTiming, SimReport, TaskTiming};
use crate::Simulator;
use pt_core::hybrid::{hybrid_task_time, ProcessLayout};
use pt_core::{LayeredSchedule, Mapping};
use pt_cost::{CommContext, GroupShapes, Overlap};
use pt_machine::CoreId;
use pt_mtask::{MTask, RedistPattern, TaskGraph, TaskId};
use std::collections::{BTreeMap, HashMap};

/// A group: the half-open range `lo..hi` of its symbolic cores.
type Range = (usize, usize);

/// A layer's contention context and its index among the simulation's
/// distinct contexts (the memo's name for it).
type Ctx<'a> = (usize, &'a CommContext);

impl Simulator<'_> {
    /// Simulate a layered schedule under a mapping.
    pub fn simulate_layered(
        &self,
        graph: &TaskGraph,
        sched: &LayeredSchedule,
        mapping: &Mapping,
    ) -> SimReport {
        assert!(
            mapping.len() >= sched.total_cores,
            "mapping covers {} cores, schedule needs {}",
            mapping.len(),
            sched.total_cores
        );
        let spec = self.model.spec;
        let cores = mapping.sequence();
        let mut report = SimReport::default();
        let mut prices = Prices::new(cores);
        // Where each task ran: the range of its group.
        let mut placement: Vec<Option<Range>> = vec![None; graph.len()];
        let mut now = 0.0f64;
        // Layers of iterative applications repeat the same group structure
        // over and over; share the contention context by the layer's
        // active-range signature instead of rebuilding it every layer.
        let mut ctx_ids: HashMap<Vec<Range>, usize> = HashMap::new();
        let mut contexts: Vec<CommContext> = Vec::new();

        for layer in &sched.layers {
            let mut ranges = Vec::with_capacity(layer.num_groups());
            let mut lo = 0;
            for &size in &layer.group_sizes {
                ranges.push((lo, lo + size));
                lo += size;
            }
            let signature: Vec<Range> = layer
                .assignments
                .iter()
                .enumerate()
                .filter(|(_, ts)| !ts.is_empty())
                .map(|(g, _)| ranges[g])
                .collect();
            let id = *ctx_ids.entry(signature).or_insert_with_key(|sig| {
                let active: Vec<&[CoreId]> = sig.iter().map(|&(a, b)| &cores[a..b]).collect();
                contexts.push(CommContext::from_groups(spec, &active));
                contexts.len() - 1
            });
            let ctx = (id, &contexts[id]);

            // --- Re-distribution phase -----------------------------------
            let redist =
                self.layer_redistribution(graph, layer, &ranges, &placement, ctx, &mut prices);
            now += redist;
            report.total_redist += redist;

            // --- Compute phase -------------------------------------------
            let mut groups = Vec::with_capacity(layer.num_groups());
            let mut layer_busy = 0.0f64;
            for (g, tasks) in layer.assignments.iter().enumerate() {
                let mut cursor = now;
                for &t in tasks {
                    let task = graph.task(t);
                    let (dur, comm) = self.task_duration(task, ranges[g], ctx, &mut prices);
                    report.tasks.push(TaskTiming {
                        task: t,
                        start: cursor,
                        finish: cursor + dur,
                        comm_time: comm,
                    });
                    placement[t.0] = Some(ranges[g]);
                    cursor += dur;
                }
                let busy = cursor - now;
                layer_busy = layer_busy.max(busy);
                groups.push(GroupTiming {
                    group: g,
                    busy,
                    tasks: tasks.clone(),
                });
            }
            report.layers.push(LayerTiming {
                start: now,
                finish: now + layer_busy,
                redist,
                groups,
            });
            now += layer_busy;
        }
        report.makespan = now;
        report
    }

    /// Duration and communication share of one task on its group.
    fn task_duration(
        &self,
        task: &MTask,
        group: Range,
        (ctx_id, ctx): Ctx,
        prices: &mut Prices,
    ) -> (f64, f64) {
        let spec = self.model.spec;
        let group_cores = &prices.cores[group.0..group.1];
        match &self.hybrid {
            Some(cfg) => {
                let layout = ProcessLayout::build(spec, group_cores, cfg);
                let total = hybrid_task_time(self.model, ctx, task, &layout, cfg);
                let compute = spec.compute_time(task.work) / layout.capacity(task, cfg).max(1.0);
                (total, (total - compute).max(0.0))
            }
            None => {
                let width = task
                    .max_cores
                    .map_or(group_cores.len(), |cap| cap.min(group_cores.len()));
                // A task without operations or with a lone core prices to
                // nothing, without a memo entry.
                let shapes = (!task.comm.is_empty() && width >= 2).then(|| {
                    let useful = (group.0, group.0 + width);
                    prices.comm.entry((useful, ctx_id)).or_default()
                });
                let comm = self.model.comm_share(ctx, task, group_cores, shapes);
                // `task_time`, with the communication part memoised; the
                // same capping and slowest-core division as the total, so
                // the communication share stays exact on het machines.
                let compute = self.model.compute_share(task, group_cores);
                let total = compute + comm;
                (total, (total - compute).max(0.0))
            }
        }
    }

    /// Re-distribution time paid before a layer can start: the aggregated
    /// orthogonal exchange plus the slowest of the remaining per-edge
    /// re-distributions (all phases overlap).
    fn layer_redistribution(
        &self,
        graph: &TaskGraph,
        layer: &pt_core::LayerSchedule,
        ranges: &[Range],
        placement: &[Option<Range>],
        (ctx_id, ctx): Ctx,
        prices: &mut Prices,
    ) -> f64 {
        let cores = prices.cores;
        let mut worst = 0.0f64;
        // (producer task) -> contribution for the aggregated orthogonal set.
        // Ordered map: its iteration order feeds the total_bytes float sum,
        // and the simulated makespan must be bit-identical across runs and
        // threads (the serve cache verifies cached replies against fresh
        // computations). The participant order itself is harmless — the
        // cost model canonicalises each exchange set before pricing it.
        let mut ortho_sources: BTreeMap<TaskId, (Range, f64)> = BTreeMap::new();
        let mut ortho_groups: Vec<Range> = Vec::new();

        for (g, tasks) in layer.assignments.iter().enumerate() {
            let dst = ranges[g];
            let mut dst_in_ortho = false;
            // Incoming re-distributions serialise at the consumer group;
            // different groups receive concurrently (hence max over groups).
            let mut group_incoming = 0.0f64;
            for &t in tasks {
                for &p in graph.preds(t) {
                    let Some(src) = placement[p.0] else {
                        continue; // unscheduled (structural) predecessor
                    };
                    let edge = *graph.edge(p, t).expect("edge exists");
                    match edge.pattern {
                        RedistPattern::Orthogonal => {
                            let q = (src.1 - src.0).max(1) as f64;
                            ortho_sources.entry(p).or_insert((src, edge.bytes / q));
                            dst_in_ortho = true;
                        }
                        // Nothing moves: no lookup needed.
                        RedistPattern::None => {}
                        _ if edge.bytes == 0.0 || src == dst => {}
                        _ => {
                            let overlap = if src.0 <= dst.0 && dst.1 <= src.1 {
                                Overlap::Inside
                            } else {
                                Overlap::Other
                            };
                            let key = RedistKey {
                                bytes: edge.bytes.to_bits(),
                                pattern: edge.pattern,
                                src,
                                dst,
                                ctx: ctx_id,
                            };
                            group_incoming += *prices.redist.entry(key).or_insert_with(|| {
                                let (src, dst) = (&cores[src.0..src.1], &cores[dst.0..dst.1]);
                                self.model.redist_time(ctx, &edge, src, dst, overlap)
                            });
                        }
                    }
                }
            }
            worst = worst.max(group_incoming);
            if dst_in_ortho {
                ortho_groups.push(dst);
            }
        }

        if !ortho_sources.is_empty() {
            // Participants: all producer groups plus consumer groups
            // (deduplicated by identical core sets, that is, ranges).
            let mut participants: Vec<Range> = ortho_sources.values().map(|(r, _)| *r).collect();
            participants.extend(ortho_groups);
            participants.sort_unstable();
            participants.dedup();
            let total_bytes: f64 = ortho_sources.values().map(|(_, b)| b).sum();
            let groups: Vec<&[CoreId]> = participants.iter().map(|&(a, b)| &cores[a..b]).collect();
            worst = worst.max(self.model.orthogonal_exchange(&groups, total_bytes));
        }
        worst
    }
}

/// Prices already paid in one simulation, on the mapped cores.
///
/// A task's communication time depends on its operations, the cores that
/// run them and the layer's context — not on its work, which the caller
/// adds back as the task's own compute share.  Each operation is a
/// sequence of steps whose shapes depend on the useful cores and the
/// context alone, so one [`GroupShapes`] per (useful cores, context)
/// prices every operation of every pure-MPI task on that group, whatever
/// its message sizes.  Each redistribution is priced once per (edge,
/// source group, destination group, context).  Hybrid tasks are priced
/// afresh.
struct Prices<'g> {
    /// The mapping's physical cores; a range of them is a group.
    cores: &'g [CoreId],
    comm: HashMap<(Range, usize), GroupShapes>,
    redist: HashMap<RedistKey, f64>,
}

impl<'g> Prices<'g> {
    fn new(cores: &'g [CoreId]) -> Self {
        Prices {
            cores,
            comm: HashMap::new(),
            redist: HashMap::new(),
        }
    }
}

#[derive(PartialEq, Eq, Hash)]
struct RedistKey {
    bytes: u64,
    pattern: RedistPattern,
    src: Range,
    dst: Range,
    ctx: usize,
}

#[cfg(test)]
mod reference {
    //! The layered simulation without range relations or the price memo,
    //! the oracle of the proptest below: every group materialised as a
    //! physical core list, every task and redistribution priced afresh
    //! through the cost model's per-pair oracle, set relations decided by
    //! comparing core lists.

    use super::*;
    use crate::cost_oracle as oracle;

    impl Simulator<'_> {
        pub(crate) fn simulate_layered_reference(
            &self,
            graph: &TaskGraph,
            sched: &LayeredSchedule,
            mapping: &Mapping,
        ) -> SimReport {
            let spec = self.model.spec;
            let mut report = SimReport::default();
            let mut placement: HashMap<TaskId, Vec<CoreId>> = HashMap::new();
            let mut now = 0.0f64;
            for layer in &sched.layers {
                let mut phys = Vec::with_capacity(layer.num_groups());
                let mut lo = 0;
                for &size in &layer.group_sizes {
                    phys.push(mapping.map_range(lo..lo + size));
                    lo += size;
                }
                let active: Vec<&[CoreId]> = layer
                    .assignments
                    .iter()
                    .zip(&phys)
                    .filter(|(ts, _)| !ts.is_empty())
                    .map(|(_, cores)| cores.as_slice())
                    .collect();
                let ctx = oracle::from_groups(spec, &active);
                let redist =
                    self.layer_redistribution_reference(graph, layer, &phys, &placement, &ctx);
                now += redist;
                report.total_redist += redist;
                let mut groups = Vec::with_capacity(layer.num_groups());
                let mut layer_busy = 0.0f64;
                for (g, tasks) in layer.assignments.iter().enumerate() {
                    let cores = &phys[g];
                    let mut cursor = now;
                    for &t in tasks {
                        let task = graph.task(t);
                        let (total, compute) = match &self.hybrid {
                            Some(cfg) => {
                                let layout = ProcessLayout::build(spec, cores, cfg);
                                let reps = layout.reps();
                                let sync = cfg.thread_sync_s
                                    * (layout.max_threads() as f64).log2().max(0.0);
                                let comm: f64 = task
                                    .comm
                                    .iter()
                                    .map(|op| {
                                        oracle::comm_op(self.model, &ctx, &reps, op)
                                            + sync * op.count
                                    })
                                    .sum();
                                let capacity = layout.capacity(task, cfg);
                                let work = spec.compute_time(task.work);
                                (work / capacity + comm, work / capacity.max(1.0))
                            }
                            None => (
                                oracle::task_time(self.model, &ctx, task, cores),
                                self.model.compute_share(task, cores),
                            ),
                        };
                        report.tasks.push(TaskTiming {
                            task: t,
                            start: cursor,
                            finish: cursor + total,
                            comm_time: (total - compute).max(0.0),
                        });
                        placement.insert(t, cores.clone());
                        cursor += total;
                    }
                    let busy = cursor - now;
                    layer_busy = layer_busy.max(busy);
                    groups.push(GroupTiming {
                        group: g,
                        busy,
                        tasks: tasks.clone(),
                    });
                }
                report.layers.push(LayerTiming {
                    start: now,
                    finish: now + layer_busy,
                    redist,
                    groups,
                });
                now += layer_busy;
            }
            report.makespan = now;
            report
        }

        fn layer_redistribution_reference(
            &self,
            graph: &TaskGraph,
            layer: &pt_core::LayerSchedule,
            phys: &[Vec<CoreId>],
            placement: &HashMap<TaskId, Vec<CoreId>>,
            ctx: &CommContext,
        ) -> f64 {
            let mut worst = 0.0f64;
            let mut ortho_sources: BTreeMap<TaskId, (Vec<CoreId>, f64)> = BTreeMap::new();
            let mut ortho_groups: Vec<Vec<CoreId>> = Vec::new();
            for (g, tasks) in layer.assignments.iter().enumerate() {
                let dst = &phys[g];
                let mut dst_in_ortho = false;
                let mut group_incoming = 0.0f64;
                for &t in tasks {
                    for &p in graph.preds(t) {
                        let Some(src) = placement.get(&p) else {
                            continue;
                        };
                        let edge = *graph.edge(p, t).expect("edge exists");
                        if edge.pattern == RedistPattern::Orthogonal {
                            let q = src.len().max(1) as f64;
                            ortho_sources
                                .entry(p)
                                .or_insert_with(|| (src.clone(), edge.bytes / q));
                            dst_in_ortho = true;
                        } else {
                            group_incoming += oracle::redist_time(self.model, ctx, &edge, src, dst);
                        }
                    }
                }
                worst = worst.max(group_incoming);
                if dst_in_ortho {
                    ortho_groups.push(dst.clone());
                }
            }
            if !ortho_sources.is_empty() {
                let mut participants: Vec<&[CoreId]> = Vec::new();
                for g in ortho_sources.values().map(|(g, _)| g).chain(&ortho_groups) {
                    if !participants.contains(&g.as_slice()) {
                        participants.push(g);
                    }
                }
                let total_bytes: f64 = ortho_sources.values().map(|(_, b)| b).sum();
                worst = worst.max(oracle::orthogonal_exchange(
                    self.model,
                    &participants,
                    total_bytes,
                ));
            }
            worst
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Simulator;
    use pt_core::{DataParallel, LayerScheduler, MappingStrategy};
    use pt_cost::CostModel;
    use pt_machine::platforms;
    use pt_mtask::{DataRef, EdgeData, MTask, Spec, TaskGraph, TaskId};

    #[test]
    fn layers_execute_back_to_back() {
        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 5.2e9));
        let b = g.add_task(MTask::compute("b", 5.2e9));
        g.add_ordering_edge(a, b);
        let sched = DataParallel::schedule(&g, 4);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 4);
        let rep = sim.simulate_layered(&g, &sched, &mapping);
        assert_eq!(rep.layers.len(), 2);
        assert!((rep.layers[0].finish - rep.layers[1].start).abs() < 1e-12);
        assert!((rep.makespan - 0.5).abs() < 1e-9);
    }

    #[test]
    fn redistribution_charged_between_groups() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        // Two producers on separate groups; the consumer joins both, so it
        // cannot be chain-contracted with either and must receive at least
        // one datum from a foreign group.
        let g = Spec::seq(vec![
            Spec::par(vec![
                Spec::task(MTask::compute("p0", 1e9)).defines([DataRef::replicated("A", 1e6)]),
                Spec::task(MTask::compute("p1", 1e9)).defines([DataRef::replicated("B", 1e6)]),
            ]),
            Spec::task(MTask::compute("c", 1e9)).uses(["A", "B"]),
        ])
        .compile_flat();
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(2)
            .schedule(&g);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 16);
        let rep = sim.simulate_layered(&g, &sched, &mapping);
        assert!(
            rep.total_redist > 0.0,
            "replicated data must be re-broadcast to the wider group"
        );
    }

    #[test]
    fn zero_comm_program_is_mapping_invariant() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add_task(MTask::compute(format!("t{i}"), 1e9));
        }
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(8)
            .schedule(&g);
        let mut times = Vec::new();
        for s in MappingStrategy::all_for(&spec) {
            let mapping = s.mapping(&spec, 32);
            times.push(sim.simulate_layered(&g, &sched, &mapping).makespan);
        }
        for w in times.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-12,
                "mapping must not matter without communication: {times:?}"
            );
        }
    }

    #[test]
    fn orthogonal_exchange_aggregates_across_groups() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        // 4 stages produce orthogonally exchanged vectors consumed by the
        // next step's stages.
        let k = 4;
        let bytes = 4e6;
        let g = Spec::seq(vec![
            Spec::parfor(0..k, |i| {
                Spec::task(MTask::compute(format!("s{i}"), 1e9))
                    .defines([DataRef::orthogonal(format!("V{i}"), bytes)])
            }),
            Spec::parfor(0..k, |i| {
                Spec::task(MTask::compute(format!("u{i}"), 1e9))
                    .uses((0..k).map(|j| format!("V{j}")))
                    .defines([DataRef::orthogonal(format!("W{i}"), bytes)])
            }),
        ])
        .compile_flat();
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(k)
            .schedule(&g);
        let m_cons = MappingStrategy::Consecutive.mapping(&spec, 32);
        let m_scat = MappingStrategy::Scattered.mapping(&spec, 32);
        let t_cons = sim.simulate_layered(&g, &sched, &m_cons);
        let t_scat = sim.simulate_layered(&g, &sched, &m_scat);
        assert!(t_cons.total_redist > 0.0);
        // Orthogonal traffic favours the scattered mapping (paper §3.4).
        assert!(
            t_scat.total_redist < t_cons.total_redist,
            "scattered {} vs consecutive {}",
            t_scat.total_redist,
            t_cons.total_redist
        );
    }

    #[test]
    fn task_timings_cover_all_tasks() {
        let spec = platforms::chic().with_nodes(2);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1e9));
        let b = g.add_task(MTask::compute("b", 1e9));
        g.add_edge(a, b, EdgeData::replicated(8.0));
        let sched = DataParallel::schedule(&g, 8);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 8);
        let rep = sim.simulate_layered(&g, &sched, &mapping);
        assert!(rep.task(TaskId(0)).is_some());
        assert!(rep.task(TaskId(1)).is_some());
        assert!(rep.task(TaskId(1)).unwrap().start >= rep.task(TaskId(0)).unwrap().finish);
    }

    // ---- bit-identity against the per-pair, unmemoised reference --------

    use crate::SimReport;
    use proptest::prelude::*;
    use pt_core::hybrid::HybridConfig;
    use pt_core::{LayerSchedule, LayeredSchedule};
    use pt_mtask::{CollectiveKind, CommOp, RedistPattern};

    const P: usize = 32;

    /// Message and datum sizes: few, so that tasks and edges repeat and
    /// the memo hits, and spanning every algorithm switch point.
    const SIZES: [f64; 4] = [64.0, 5e3, 1e5, 4e6];

    /// Per task: ((work class, operation list, size, max-cores pick),
    /// (pred bitmask over up to 12 earlier tasks, out-edge kind, out-edge
    /// size, group pick)).
    type Row = ((u8, u8, u8, u8), (u32, u8, u8, u8));

    /// A random graph and a layered schedule of it: the graph's
    /// topological layers, each cut into up to four groups at multiples
    /// of four cores (so groups recur across layers), every task on a
    /// random group (some groups stay idle).
    fn build_case(rows: &[Row], layer_seeds: &[u32]) -> (TaskGraph, LayeredSchedule) {
        let mut g = TaskGraph::new();
        for (i, &((work, ops, size, cap), _)) in rows.iter().enumerate() {
            let work = [0.0, 1e8, 1.3e9, 5.2e9][work as usize % 4];
            let b = SIZES[size as usize % 4];
            let comm = match ops % 6 {
                0 => vec![],
                1 => vec![CommOp::allgather(b, 1.0)],
                2 => vec![CommOp::bcast(b, 1.0)],
                3 => vec![
                    CommOp::new(CollectiveKind::Allreduce, b, 2.0),
                    CommOp::new(CollectiveKind::Barrier, 0.0, 1.0),
                ],
                4 => vec![CommOp::new(CollectiveKind::NeighborExchange, b, 15.0)],
                _ => vec![CommOp::allgather(b, 1.0), CommOp::bcast(b / 2.0, 1.0)],
            };
            let task = MTask::with_comm(format!("t{i}"), work, comm);
            g.add_task(if cap < 48 {
                task.max_cores(1 + cap as usize % P)
            } else {
                task
            });
        }
        for (i, &(_, (mask, ..))) in rows.iter().enumerate() {
            let lo = i.saturating_sub(12);
            for (j, &(_, (_, kind, size, _))) in rows.iter().enumerate().take(i).skip(lo) {
                // The producer's datum: every consumer gets the same edge.
                if mask >> (j - lo) & 1 == 1 {
                    let pattern = [
                        RedistPattern::None,
                        RedistPattern::Replicated,
                        RedistPattern::Block,
                        RedistPattern::Orthogonal,
                    ][kind as usize % 4];
                    let bytes = if kind >= 16 {
                        0.0
                    } else {
                        SIZES[size as usize % 4]
                    };
                    g.add_edge(TaskId(j), TaskId(i), EdgeData { bytes, pattern });
                }
            }
        }
        let layers = pt_mtask::layers(&g)
            .into_iter()
            .zip(layer_seeds.iter().cycle())
            .map(|(tasks, &seed)| {
                let mut cuts: Vec<usize> = (0..tasks.len().min(4) - 1)
                    .map(|i| 4 * (1 + (seed as usize >> (3 * i)) % (P / 4 - 1)))
                    .chain([0, P])
                    .collect();
                cuts.sort_unstable();
                cuts.dedup();
                let group_sizes: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
                let mut assignments = vec![Vec::new(); group_sizes.len()];
                for t in tasks {
                    assignments[rows[t.0].1 .3 as usize % group_sizes.len()].push(t);
                }
                LayerSchedule {
                    group_sizes,
                    assignments,
                }
            })
            .collect();
        (
            g,
            LayeredSchedule {
                total_cores: P,
                layers,
            },
        )
    }

    fn assert_bit_identical(fast: &SimReport, slow: &SimReport) -> Result<(), TestCaseError> {
        prop_assert_eq!(fast.makespan.to_bits(), slow.makespan.to_bits());
        prop_assert_eq!(fast.total_redist.to_bits(), slow.total_redist.to_bits());
        prop_assert_eq!(fast.tasks.len(), slow.tasks.len());
        for (a, b) in fast.tasks.iter().zip(&slow.tasks) {
            prop_assert_eq!(
                (
                    a.task,
                    a.start.to_bits(),
                    a.finish.to_bits(),
                    a.comm_time.to_bits()
                ),
                (
                    b.task,
                    b.start.to_bits(),
                    b.finish.to_bits(),
                    b.comm_time.to_bits()
                )
            );
        }
        prop_assert_eq!(fast.layers.len(), slow.layers.len());
        for (a, b) in fast.layers.iter().zip(&slow.layers) {
            prop_assert_eq!(
                (a.start.to_bits(), a.finish.to_bits(), a.redist.to_bits()),
                (b.start.to_bits(), b.finish.to_bits(), b.redist.to_bits())
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn memoised_pricing_matches_per_pair_oracle(
            rows in proptest::collection::vec(
                ((0u8..4, 0u8..6, 0u8..4, 0u8..128), (any::<u32>(), 0u8..20, 0u8..4, 0u8..255)),
                1..16,
            ),
            layer_seeds in proptest::collection::vec(any::<u32>(), 1..6),
        ) {
            let (g, sched) = build_case(&rows, &layer_seeds);
            let juropa = platforms::juropa().with_nodes(P / 8);
            for spec in [juropa.clone(), juropa.with_slow_nodes(1, 0.5)] {
                let model = CostModel::new(&spec);
                for strategy in [
                    MappingStrategy::Consecutive,
                    MappingStrategy::Scattered,
                    MappingStrategy::Mixed(2),
                ] {
                    let mapping = strategy.mapping(&spec, P);
                    for hybrid in [false, true] {
                        let mut sim = Simulator::new(&model);
                        if hybrid {
                            sim = sim.with_hybrid(HybridConfig::per_node(&spec));
                        }
                        let fast = sim.simulate_layered(&g, &sched, &mapping);
                        let slow = sim.simulate_layered_reference(&g, &sched, &mapping);
                        assert_bit_identical(&fast, &slow)?;
                    }
                }
            }
        }
    }
}

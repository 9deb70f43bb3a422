//! Mapping-aware communication and execution cost model (paper §3.1).
//!
//! The execution time of an M-task `M` on `q` cores with mapping pattern
//! `mp` is modelled as
//!
//! ```text
//! T(M, q, mp) = Tcomp(M) / q + Tcomm(M, q, mp)
//! ```
//!
//! where the computational part assumes linear speedup (the paper's stated
//! simplification) and the communication part depends on *which physical
//! cores* execute the task: a message between two cores is charged with the
//! [`LinkParams`](pt_machine::LinkParams) of the deepest machine-tree level
//! containing both ([`pt_machine::CommLevel`]).
//!
//! Collectives are modelled after the algorithms real MPI libraries use —
//! and which the paper identifies as the cause of the mapping effects
//! (§4.4): a **ring** allgather for large messages (so consecutive mappings
//! put the ring's neighbour links inside nodes), **recursive doubling** for
//! small allgathers, and a **binomial tree** broadcast.
//!
//! Concurrent communication of several groups shares node NICs; a
//! [`CommContext`] carries a per-node sharing factor that divides the
//! effective inter-node bandwidth, reproducing the Multi-Allgather
//! behaviour of the paper's Fig. 14 (right).
//!
//! The schedulers price symbolic widths ([`symbolic`]) and keep no memo
//! of them: the homogeneous layer path prices from [`SymbolicCosts`], and
//! every other scheduler prices a task once per width it holds.

pub mod collectives;
pub mod context;
pub mod redist;
pub mod symbolic;

// The per-pair oracle names the crate as `pt_cost`, as it does when other
// crates' tests include it.
#[cfg(test)]
extern crate self as pt_cost;
#[cfg(test)]
mod oracle;

pub use collectives::{pricing_work, CostModel, GroupShapes, PricingWork, SpeedClasses};
pub use context::CommContext;
pub use redist::{NodeRuns, Overlap};
pub use symbolic::{task_time_optimistic, PriceFloor, SymbolicCosts};

#[cfg(test)]
mod tests {
    use crate::{collectives, oracle, CommContext, CostModel, GroupShapes, Overlap};
    use proptest::prelude::*;
    use pt_machine::{platforms, ClusterSpec, CoreId};
    use pt_mtask::{CollectiveKind, CommOp, EdgeData, MTask, RedistPattern};

    /// A machine of the given shape (non-power-of-two widths included),
    /// its first `slow` nodes at half speed, and the given NIC sharers.
    fn machine(
        nodes: usize,
        ppn: usize,
        cpp: usize,
        slow: usize,
        sharers: &[u32],
    ) -> (ClusterSpec, CommContext) {
        let spec = ClusterSpec {
            nodes,
            processors_per_node: ppn,
            cores_per_processor: cpp,
            ..platforms::chic()
        };
        let spec = if slow > 0 {
            spec.with_slow_nodes(slow, 0.5)
        } else {
            spec
        };
        let mut ctx = CommContext::uniform(&spec);
        for (s, &f) in ctx.sharers.iter_mut().zip(sharers) {
            *s = f64::from(f);
        }
        (spec, ctx)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn pricing_is_bit_equal_to_the_per_pair_oracle(
            shape in (1usize..10, 1usize..4, 1usize..4, 0usize..3),
            sharers in prop::collection::vec(1u32..6, 0..10),
            strategy in 0usize..3,
            windows in ((0usize..1000, 1usize..40), (0usize..1000, 1usize..40)),
            log_bytes in 0.0f64..7.0,
            count in 0.5f64..3.0,
            cap in 0usize..48,
        ) {
            let (nodes, ppn, cpp, slow) = shape;
            let (spec, ctx) = machine(nodes, ppn, cpp, slow.min(nodes - 1), &sharers);
            let m = CostModel::new(&spec);
            let p = spec.total_cores();
            let seq = mapped_sequence(&spec, strategy);
            let window = |(lo, len): (usize, usize)| {
                let lo = lo % p;
                &seq[lo..(lo + len).min(p)]
            };
            let (src, dst) = (window(windows.0), window(windows.1));
            let bytes = 10f64.powf(log_bytes);
            for kind in [
                CollectiveKind::Broadcast,
                CollectiveKind::Allgather,
                CollectiveKind::Allreduce,
                CollectiveKind::Barrier,
                CollectiveKind::NeighborExchange,
            ] {
                let op = CommOp::new(kind, bytes, count);
                let fast = m.comm_op(&ctx, src, &op);
                let slow = oracle::comm_op(&m, &ctx, src, &op);
                prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{:?} on {:?}: {} vs {}", kind, src, fast, slow);
            }
            let task = MTask::with_comm(
                "t",
                1e9,
                vec![CommOp::allgather(bytes, count), CommOp::new(CollectiveKind::Allreduce, 64.0, 2.0)],
            );
            let task = if cap > 0 { task.max_cores(cap) } else { task };
            let fast = m.task_time(&ctx, &task, src);
            prop_assert_eq!(fast.to_bits(), oracle::task_time(&m, &ctx, &task, src).to_bits());
            let split = m.compute_share(&task, src) + m.comm_share(&ctx, &task, src, None);
            prop_assert_eq!(fast.to_bits(), split.to_bits());

            let overlap = if oracle::same_set(src, dst) {
                Overlap::Same
            } else if oracle::subset(dst, src) {
                Overlap::Inside
            } else {
                Overlap::Other
            };
            for pattern in [RedistPattern::Replicated, RedistPattern::Block, RedistPattern::Orthogonal] {
                let edge = EdgeData { bytes, pattern };
                let fast = m.redist_time(&ctx, &edge, src, dst, overlap, None);
                let slow = oracle::redist_time(&m, &ctx, &edge, src, dst);
                prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{:?} {:?} -> {:?}", pattern, src, dst);
            }
            let groups: Vec<&[CoreId]> = seq.chunks(src.len()).collect();
            prop_assert_eq!(
                CommContext::from_groups(&spec, &groups),
                oracle::from_groups(&spec, &groups)
            );
            let fast = m.orthogonal_exchange(&groups, bytes);
            prop_assert_eq!(fast.to_bits(), oracle::orthogonal_exchange(&m, &groups, bytes).to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// One group's shapes kept across a random sequence of tasks (each
        /// labels the group afresh, and the labels end with it): every
        /// task's communication time equals, bit for bit, the per-pair
        /// oracle's and a fresh group's, for all five kinds, sizes either
        /// side of the ring / recursive-doubling and binomial / scatter
        /// switches, dense and sparse windows of uneven length, and
        /// asymmetric sharers.
        #[test]
        fn reused_group_shapes_price_like_a_fresh_group(
            shape in (1usize..12, 1usize..4, 1usize..4),
            sharers in prop::collection::vec(1u32..6, 0..12),
            strategy in 0usize..3,
            window in (0usize..1000, 1usize..48, 1usize..5),
            ops in prop::collection::vec(((0usize..5, 0usize..8), (0.0f64..7.0, 0.5f64..3.0), any::<bool>()), 1..12),
        ) {
            let (nodes, ppn, cpp) = shape;
            let (spec, ctx) = machine(nodes, ppn, cpp, 0, &sharers);
            let m = CostModel::new(&spec);
            let p = spec.total_cores();
            let seq = mapped_sequence(&spec, strategy);
            // Every `stride`-th core of a window: stride 1 is dense on the
            // machine's nodes, wider strides spread the group out.
            let (lo, len, stride) = window;
            let cores: Vec<CoreId> = (0..len)
                .map(|i| lo % p + i * stride)
                .take_while(|&i| i < p)
                .map(|i| seq[i])
                .collect();
            let q = cores.len() as f64;
            let kinds = [
                CollectiveKind::Broadcast,
                CollectiveKind::Allgather,
                CollectiveKind::Allreduce,
                CollectiveKind::Barrier,
                CollectiveKind::NeighborExchange,
            ];
            // Switch points: the ring's per-member block and the scatter
            // broadcast's message size, each hit and just missed.
            let ring = m.ring_threshold * q;
            let sag = collectives::DEFAULT_SAG_BCAST_THRESHOLD;
            let mut tasks: Vec<Vec<CommOp>> = vec![Vec::new()];
            for &((kind, size), (log_bytes, count), new_task) in &ops {
                let bytes = match size {
                    0 => ring,
                    1 => ring * (1.0 - 1e-9),
                    2 => sag,
                    3 => sag * (1.0 - 1e-9),
                    _ => 10f64.powf(log_bytes),
                };
                if new_task && !tasks.last().expect("a task is open").is_empty() {
                    tasks.push(Vec::new());
                }
                tasks.last_mut().expect("a task is open").push(CommOp::new(kinds[kind], bytes, count));
            }
            let mut shapes = GroupShapes::default();
            for comm in tasks {
                let task = MTask::with_comm("t", 1e9, comm);
                let kept = m.comm_share(&ctx, &task, &cores, Some(&mut shapes));
                let fresh = m.comm_share(&ctx, &task, &cores, None);
                let slow: f64 = task.comm.iter().map(|op| oracle::comm_op(&m, &ctx, &cores, op)).sum();
                prop_assert_eq!(kept.to_bits(), fresh.to_bits(), "{:?} on {:?}", task.comm, cores);
                prop_assert_eq!(kept.to_bits(), slow.to_bits(), "{:?} on {:?}: {} vs {}", task.comm, cores, kept, slow);
            }
        }
    }

    /// Consecutive, scattered or mixed(2) core sequence of the machine —
    /// the placements a mapping produces (rebuilt here: pt-core depends on
    /// this crate).
    pub(crate) fn mapped_sequence(spec: &ClusterSpec, strategy: usize) -> Vec<CoreId> {
        let cpn = spec.cores_per_node();
        let d = [cpn, 1, 2][strategy].min(cpn);
        let mut seq = Vec::with_capacity(spec.total_cores());
        let mut base = 0;
        while base < cpn {
            let width = d.min(cpn - base);
            for node in 0..spec.nodes {
                seq.extend((0..width).map(|k| CoreId(node * cpn + base + k)));
            }
            base += width;
        }
        seq
    }

    #[test]
    fn task_time_splits_compute_linearly() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let task = MTask::compute("t", 5.2e9); // 1 s sequential on CHiC
        let one = model.task_time(&ctx, &task, &[CoreId(0)]);
        assert!((one - 1.0).abs() < 1e-9);
        let four: Vec<CoreId> = (0..4).map(CoreId).collect();
        let t4 = model.task_time(&ctx, &task, &four);
        assert!((t4 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn comm_adds_on_top_of_compute() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let task = MTask::with_comm(
            "t",
            5.2e9,
            vec![CommOp::new(CollectiveKind::Allgather, 1e6, 2.0)],
        );
        let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
        let plain = model.task_time(&ctx, &MTask::compute("t", 5.2e9), &cores);
        let with_comm = model.task_time(&ctx, &task, &cores);
        assert!(with_comm > plain);
    }

    #[test]
    fn max_cores_caps_useful_parallelism() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let task = MTask::compute("t", 5.2e9).max_cores(2);
        let cores: Vec<CoreId> = (0..8).map(CoreId).collect();
        let t = model.task_time(&ctx, &task, &cores);
        assert!((t - 0.5).abs() < 1e-9, "only 2 of 8 cores are useful");
    }
}

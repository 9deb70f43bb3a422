//! Symbolic costs `Tsymb(M, p) = T(M, p, dmp)` used by the scheduling step
//! (paper §3.2).
//!
//! Scheduling works on *symbolic* cores interconnected by a homogeneous
//! network; the default mapping pattern `dmp` charges every internal
//! communication operation at the machine's **slowest** interconnect level,
//! so `Tsymb(M, p)` is an upper bound of the real execution time for any
//! mapping.  The separate mapping step then recovers the difference.
//!
//! `Tsymb` is evaluated from a compiled form of the task: its compute time,
//! its core cap, the fold of its leading neighbour exchanges (whose time is
//! the same at every width q ≥ 2) and, for each later operation, what the
//! operation needs at any width — its transfer time, or the total bytes of
//! an allgather.  Pricing a width then costs one division plus the
//! width-dependent operations, and the width's `⌈log₂ q⌉` is computed once,
//! and only when some operation asks for it.  [`SymbolicCosts`] keeps a task
//! list in that form and prices any slice of it at one width in one flat
//! loop; [`CostModel::task_time_symbolic`] compiles its one task on the fly
//! and evaluates the same code, so every caller prices with one formula.

use crate::collectives::CostModel;
use pt_machine::LinkParams;
use pt_mtask::{CollectiveKind, CommOp, MTask};
use std::ops::Range;

impl CostModel<'_> {
    /// Upper-bound execution time of `task` on `q` symbolic cores (uniform
    /// slowest-level network under worst-case NIC sharing, the default
    /// mapping pattern `dmp`).
    pub fn task_time_symbolic(&self, task: &MTask, q: usize) -> f64 {
        debug_assert!(q >= 1, "task {:?}: zero-core width priced", task.name);
        let (cost, rest) = TaskCost::split(self, task);
        let ops = rest.iter().map(|op| OpCost::new(self.symbolic_link, op));
        let mut width = Width::new(q.min(cost.cap), self.symbolic_link, self.ring_threshold);
        cost.at(&mut width, ops)
    }

    /// Placement-aware symbolic cost:
    /// [`task_time_symbolic`](Self::task_time_symbolic) priced for a
    /// candidate range whose slowest core belongs to speed class `class` —
    /// the compute part slows by the class's factor, communication is
    /// placement-blind as before.
    ///
    /// For a class at nominal speed this *is* `task_time_symbolic`, bit for
    /// bit (the branch below delegates), so homogeneous machines and class
    /// 0 of a nominal-speed tier pay nothing for the generalisation.
    pub fn task_time_symbolic_class(&self, task: &MTask, q: usize, class: usize) -> f64 {
        let speed = self.classes().speed(class);
        if speed == 1.0 {
            return self.task_time_symbolic(task, q);
        }
        let t = self.task_time_symbolic(task, q);
        if !t.is_finite() {
            return t;
        }
        // Re-derive the compute part exactly as task_time_symbolic did and
        // scale only it.
        let q_eff = match task.max_cores {
            Some(cap) => q.min(cap),
            None => q,
        };
        let compute = self.spec.compute_time(task.work) / q_eff as f64;
        t + compute * (1.0 / speed - 1.0)
    }

    /// Class-aware optimistic cost (see [`task_time_optimistic`]); class 0
    /// at nominal speed is bit-identical to the free function.
    pub fn task_time_optimistic_class(&self, task: &MTask, q: usize, class: usize) -> f64 {
        let speed = self.classes().speed(class);
        if speed == 1.0 {
            return task_time_optimistic(self, task, q);
        }
        let t = task_time_optimistic(self, task, q);
        if !t.is_finite() {
            return t;
        }
        let q_eff = match task.max_cores {
            Some(cap) => q.min(cap),
            None => q,
        };
        let compute = self.spec.compute_time(task.work) / q_eff as f64;
        t + compute * (1.0 / speed - 1.0)
    }
}

/// Optimistic execution-time estimate of `task` on `q` cores, as the
/// classic two-step schedulers (CPA, CPR) assume it: uncontended
/// slowest-link bandwidth, logarithmic latency terms, bandwidth-optimal
/// collectives.  This is the cost model of those algorithms' original
/// papers — their documented failure modes (CPA's over-allocation, CPR's
/// chain-widening) emerge exactly because this estimate ignores latency
/// growth and NIC contention that the real machine (and this crate's
/// simulator) charge.
pub fn task_time_optimistic(model: &CostModel<'_>, task: &MTask, q: usize) -> f64 {
    debug_assert!(q >= 1, "task {:?}: zero-core width priced", task.name);
    let q = match task.max_cores {
        Some(cap) => q.min(cap),
        None => q,
    };
    if q == 0 {
        return f64::INFINITY;
    }
    let compute = model.spec.compute_time(task.work) / q as f64;
    let link = model.spec.slowest_link();
    let qf = q as f64;
    let rounds = qf.log2().ceil().max(1.0);
    let comm: f64 = task
        .comm
        .iter()
        .map(|op| {
            if q == 1 {
                return 0.0;
            }
            let once = match op.kind {
                CollectiveKind::Broadcast => rounds * link.latency_s + op.bytes / link.bytes_per_s,
                CollectiveKind::Allgather => {
                    rounds * link.latency_s + op.bytes * (qf - 1.0) / qf / link.bytes_per_s
                }
                CollectiveKind::Allreduce => {
                    rounds * link.latency_s + 2.0 * op.bytes / link.bytes_per_s
                }
                CollectiveKind::Barrier => rounds * link.latency_s,
                CollectiveKind::NeighborExchange => 2.0 * link.transfer_time(op.bytes),
            };
            once * op.count
        })
        .sum();
    compute + comm
}

/// The symbolic costs of a task list, compiled once (see the module
/// docs).  [`price_into`](Self::price_into) prices any slice of the list at
/// one width, each value bit for bit [`CostModel::task_time_symbolic`] of
/// its task.
#[derive(Debug, Clone)]
pub struct SymbolicCosts {
    link: LinkParams,
    ring_threshold: f64,
    tasks: Vec<TaskCost>,
    /// The operations after each task's leading neighbour exchanges, task
    /// after task.
    ops: Vec<OpCost>,
}

impl SymbolicCosts {
    /// Compile `tasks`, in order, for `model`.
    pub fn new<'t>(model: &CostModel<'_>, tasks: impl IntoIterator<Item = &'t MTask>) -> Self {
        let mut ops = Vec::new();
        let tasks = tasks
            .into_iter()
            .map(|task| {
                let (mut cost, rest) = TaskCost::split(model, task);
                let start = ops.len();
                ops.extend(rest.iter().map(|op| OpCost::new(model.symbolic_link, op)));
                cost.rest = start..ops.len();
                cost
            })
            .collect();
        SymbolicCosts {
            link: model.symbolic_link,
            ring_threshold: model.ring_threshold,
            tasks,
            ops,
        }
    }

    /// Number of tasks compiled.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` iff no task was compiled.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// [`CostModel::task_time_symbolic`] at width `q` of every task in
    /// `range`, written to `out` in order.  A capped task is priced at its
    /// own capped width; the others share `q`'s quantities.
    pub fn price_into(&self, range: Range<usize>, q: usize, out: &mut Vec<f64>) {
        debug_assert!(q >= 1, "zero-core width priced");
        let mut shared = Width::new(q, self.link, self.ring_threshold);
        out.clear();
        out.extend(self.tasks[range].iter().map(|cost| {
            let rest = self.ops[cost.rest.clone()].iter().copied();
            if cost.cap < q {
                let mut own = Width::new(cost.cap, self.link, self.ring_threshold);
                cost.at(&mut own, rest)
            } else {
                cost.at(&mut shared, rest)
            }
        }));
    }
}

/// One task's symbolic cost, split into the parts no width changes.
#[derive(Debug, Clone)]
struct TaskCost {
    /// `spec.compute_time(work)`.
    compute: f64,
    /// `max_cores`, `usize::MAX` when uncapped.
    cap: usize,
    /// The leading neighbour exchanges' times, summed: the start of the sum
    /// over all operations, to which `at` adds the later ones in order.
    fixed: f64,
    /// The communication share on one core, where every operation is free:
    /// the sum of one `0.0` per operation.
    one_core: f64,
    /// The task's later operations in its owner's operation list (empty
    /// for a task compiled on the fly).
    rest: Range<usize>,
}

impl TaskCost {
    /// `task`'s width-independent parts, and the operations after its
    /// leading neighbour exchanges.
    fn split<'t>(model: &CostModel<'_>, task: &'t MTask) -> (TaskCost, &'t [CommOp]) {
        let lead = task
            .comm
            .iter()
            .take_while(|op| op.kind == CollectiveKind::NeighborExchange)
            .count();
        let cost = TaskCost {
            compute: model.spec.compute_time(task.work),
            cap: task.max_cores.unwrap_or(usize::MAX),
            fixed: task.comm[..lead]
                .iter()
                .map(|op| exchange_time(model.symbolic_link, op))
                .sum(),
            one_core: task.comm.iter().map(|_| 0.0).sum(),
            rest: 0..0,
        };
        (cost, &task.comm[lead..])
    }

    /// The task's time at `width` (already capped), its later operations
    /// compiled as `rest`.
    #[inline]
    fn at(&self, width: &mut Width, rest: impl Iterator<Item = OpCost>) -> f64 {
        if width.q == 0 {
            // A zero-core assignment can never execute; pricing it as free
            // would let degenerate group sizes win any width sweep.
            return f64::INFINITY;
        }
        let compute = self.compute / width.qf;
        let comm = if width.q == 1 {
            self.one_core
        } else {
            rest.fold(self.fixed, |sum, op| sum + op.at(width))
        };
        compute + comm
    }
}

/// One operation after a task's leading neighbour exchanges, with what its
/// time at any width needs precomputed.
#[derive(Debug, Clone, Copy)]
enum OpCost {
    /// A neighbour exchange: its time, the same at every q ≥ 2.
    Fixed(f64),
    /// Broadcast, allreduce or barrier: one round's transfer time, paid
    /// `⌈log₂ q⌉` times.
    Rounds { transfer: f64, count: f64 },
    /// Allgather of `bytes` in total.
    Allgather { bytes: f64, count: f64 },
}

impl OpCost {
    fn new(link: LinkParams, op: &CommOp) -> Self {
        let count = op.count;
        match op.kind {
            CollectiveKind::NeighborExchange => OpCost::Fixed(exchange_time(link, op)),
            CollectiveKind::Broadcast | CollectiveKind::Allreduce => OpCost::Rounds {
                transfer: link.transfer_time(op.bytes),
                count,
            },
            CollectiveKind::Barrier => OpCost::Rounds {
                transfer: link.transfer_time(8.0),
                count,
            },
            CollectiveKind::Allgather => OpCost::Allgather {
                bytes: op.bytes,
                count,
            },
        }
    }

    /// The operation's time at `width` (q ≥ 2).
    #[inline]
    fn at(self, width: &mut Width) -> f64 {
        match self {
            OpCost::Fixed(time) => time,
            OpCost::Rounds { transfer, count } => width.rounds() * transfer * count,
            OpCost::Allgather { bytes, count } => {
                let link = width.link;
                let block = bytes / width.qf;
                let once = if block >= width.ring_threshold && width.q > 2 {
                    (width.qf - 1.0) * link.transfer_time(block)
                } else {
                    // Recursive doubling: message doubles per round; total
                    // data moved per core ≈ bytes·(q−1)/q, latency ≈ rounds.
                    width.rounds() * link.latency_s + (bytes - block) / link.bytes_per_s
                };
                once * count
            }
        }
    }
}

/// A neighbour exchange's time at any width q ≥ 2: two transfers per
/// count.
fn exchange_time(link: LinkParams, op: &CommOp) -> f64 {
    2.0 * link.transfer_time(op.bytes) * op.count
}

/// One width's shared quantities: `q`, `q as f64` and, on first use,
/// `⌈log₂ q⌉`, with the model's symbolic link and ring threshold.
struct Width {
    q: usize,
    qf: f64,
    rounds: Option<f64>,
    link: LinkParams,
    ring_threshold: f64,
}

impl Width {
    fn new(q: usize, link: LinkParams, ring_threshold: f64) -> Self {
        Width {
            q,
            qf: q as f64,
            rounds: None,
            link,
            ring_threshold,
        }
    }

    fn rounds(&mut self) -> f64 {
        let qf = self.qf;
        *self.rounds.get_or_insert_with(|| qf.log2().ceil())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, CommContext};
    use proptest::prelude::*;
    use pt_machine::{platforms, CoreId};

    /// The oracle's `Tsymb` priced for speed class `class`, as
    /// `task_time_symbolic_class` scales it.
    fn oracle_class(m: &CostModel, task: &MTask, q: usize, class: usize) -> f64 {
        let speed = m.classes().speed(class);
        let t = oracle::task_time_symbolic(m, task, q);
        if speed == 1.0 || !t.is_finite() {
            return t;
        }
        let q_eff = task.max_cores.map_or(q, |cap| q.min(cap));
        t + m.spec.compute_time(task.work) / q_eff as f64 * (1.0 / speed - 1.0)
    }

    /// A drawn operation: kind, byte size (a switch point or `10^x`) and
    /// count.
    type DrawnOp = (u32, (u32, f64), f64);

    /// A drawn task priced at width `q`: work (zero or over seven
    /// decades), a cap below, at or above `q` (or none), and 0–3
    /// operations of any kind, neighbour exchanges half the time (so runs
    /// of them lead, follow and repeat), whose bytes sit at, just below or
    /// far from the allgather ring switch at `q` and at 2 cores, with
    /// counts of 1 and not.
    fn drawn_task(q: usize, work: f64, cap: u32, ops: &[DrawnOp], ring: f64) -> MTask {
        let comm = ops
            .iter()
            .map(|&(kind, (size, log_bytes), count)| {
                let kind = match kind {
                    0..=4 => CollectiveKind::NeighborExchange,
                    5 => CollectiveKind::Broadcast,
                    6 => CollectiveKind::Allgather,
                    7 => CollectiveKind::Allreduce,
                    _ => CollectiveKind::Barrier,
                };
                let bytes = match size {
                    0 => ring * q as f64,
                    1 => ring * q as f64 * (1.0 - 1e-9),
                    2 => ring * 2.0,
                    3 => ring * 2.0 * (1.0 - 1e-9),
                    _ => 10f64.powf(log_bytes),
                };
                let count = if count < 1.0 { 1.0 } else { count };
                CommOp::new(kind, bytes, count)
            })
            .collect();
        let work = if work < 1.0 { 0.0 } else { 10f64.powf(work) };
        let task = MTask::with_comm("t", work, comm);
        match cap {
            0 => task,
            1 => task.max_cores(q / 2),
            2 => task.max_cores(q.saturating_sub(1)),
            3 => task.max_cores(q),
            _ => task.max_cores(q + 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Compiled costs against the oracle's per-operation expression,
        /// bit for bit: each task alone, whole and partial slices at the
        /// drawn width and the next one, and every speed class of a
        /// machine with a slow tier through `task_time_symbolic_class`.
        #[test]
        fn compiled_costs_price_like_the_oracle(
            machine in 0usize..3,
            width in (0usize..6, 1usize..(1 << 17) + 1),
            drawn in prop::collection::vec(
                (0.0f64..8.0, 0u32..5, prop::collection::vec((0u32..9, (0u32..6, 0.0f64..8.0), 0.0f64..3.0), 0..4)),
                1..8,
            ),
            slice in (0usize..8, 0usize..8),
        ) {
            let spec = [platforms::chic(), platforms::juropa(), platforms::altix()][machine].with_nodes(8);
            let m = CostModel::new(&spec);
            let q = match width.0 {
                0 => 1,
                1 => 2,
                2 => 3,
                3 => 1 << 17,
                _ => width.1,
            };
            let tasks: Vec<MTask> = drawn
                .iter()
                .map(|(work, cap, ops)| drawn_task(q, *work, *cap, ops, m.ring_threshold))
                .collect();
            let costs = SymbolicCosts::new(&m, &tasks);
            prop_assert_eq!(costs.len(), tasks.len());
            let mut out = Vec::new();
            for q in [q, q + 1] {
                let want: Vec<u64> = tasks
                    .iter()
                    .map(|t| oracle::task_time_symbolic(&m, t, q).to_bits())
                    .collect();
                let alone: Vec<u64> = tasks.iter().map(|t| m.task_time_symbolic(t, q).to_bits()).collect();
                prop_assert_eq!(&alone, &want, "q = {}: {:?}", q, tasks);
                costs.price_into(0..tasks.len(), q, &mut out);
                let sliced: Vec<u64> = out.iter().map(|t| t.to_bits()).collect();
                prop_assert_eq!(&sliced, &want, "q = {}: {:?}", q, tasks);
                let lo = slice.0.min(tasks.len());
                let hi = slice.1.clamp(lo, tasks.len());
                costs.price_into(lo..hi, q, &mut out);
                let part: Vec<u64> = out.iter().map(|t| t.to_bits()).collect();
                prop_assert_eq!(&part[..], &want[lo..hi], "q = {}, {}..{}", q, lo, hi);
            }

            let slow_spec = spec.with_slow_nodes(2, 0.5);
            let slow = CostModel::new(&slow_spec);
            prop_assert_eq!(slow.num_classes(), 2);
            for task in &tasks {
                for class in 0..slow.num_classes() {
                    prop_assert_eq!(
                        slow.task_time_symbolic_class(task, q, class).to_bits(),
                        oracle_class(&slow, task, q, class).to_bits(),
                        "class {}, q = {}: {:?}", class, q, task
                    );
                }
            }
        }
    }

    #[test]
    fn symbolic_is_upper_bound_of_any_mapping() {
        let spec = platforms::chic().with_nodes(8);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let task = MTask::with_comm(
            "t",
            1e9,
            vec![CommOp::allgather(1e6, 2.0), CommOp::bcast(1e5, 1.0)],
        );
        for q in [2usize, 4, 8, 16, 32] {
            let sym = m.task_time_symbolic(&task, q);
            // Consecutive physical cores — the *fastest* mapping.
            let cores: Vec<CoreId> = (0..q).map(CoreId).collect();
            let real = m.task_time(&ctx, &task, &cores);
            assert!(
                sym >= real * 0.999,
                "q={q}: symbolic {sym} must bound consecutive {real}"
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "zero-core width"))]
    fn zero_core_width_is_infinite_not_free() {
        // Regression: q = 0 used to divide work by zero *after* the q.max(1)
        // clamps were removed, pricing an impossible assignment as NaN/free.
        // Debug builds assert; release builds return +inf so no scheduler
        // can ever prefer a zero-core width.
        let spec = platforms::chic();
        let m = CostModel::new(&spec);
        let task = MTask::compute("t", 1e9);
        assert_eq!(m.task_time_symbolic(&task, 0), f64::INFINITY);
        assert_eq!(task_time_optimistic(&m, &task, 0), f64::INFINITY);
    }

    #[test]
    fn symbolic_compute_scales_down() {
        let spec = platforms::chic();
        let m = CostModel::new(&spec);
        let task = MTask::compute("t", 5.2e9);
        let t1 = m.task_time_symbolic(&task, 1);
        let t8 = m.task_time_symbolic(&task, 8);
        assert!((t1 / t8 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn symbolic_comm_does_not_scale_down() {
        // With enough cores the (q−1) allgather term grows: there is an
        // optimal moldable width, which is exactly why the scheduler's
        // g-sweep finds interior optima.
        let spec = platforms::chic();
        let m = CostModel::new(&spec);
        let task = MTask::with_comm("t", 1e7, vec![CommOp::allgather(8e6, 1.0)]);
        let t16 = m.task_time_symbolic(&task, 16);
        let t512 = m.task_time_symbolic(&task, 512);
        assert!(
            t512 > t16,
            "communication-bound task must slow down when over-parallelised"
        );
    }

    #[test]
    fn class_zero_is_bit_identical_to_the_homogeneous_cost() {
        // On a 2-class machine, class 0 (nominal speed) prices exactly like
        // the homogeneous functions; the slow class scales only compute.
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5);
        let m = CostModel::new(&spec);
        let compute = MTask::compute("c", 5.2e9);
        let comm = MTask::with_comm("m", 5.2e9, vec![CommOp::allgather(1e6, 2.0)]);
        for task in [&compute, &comm] {
            for q in [1usize, 2, 7, 16, 32] {
                assert_eq!(
                    m.task_time_symbolic_class(task, q, 0).to_bits(),
                    m.task_time_symbolic(task, q).to_bits()
                );
                assert_eq!(
                    m.task_time_optimistic_class(task, q, 0).to_bits(),
                    task_time_optimistic(&m, task, q).to_bits()
                );
            }
        }
        // Slow class: compute-only task exactly doubles; comm part of a
        // mixed task is untouched.
        let t_fast = m.task_time_symbolic_class(&compute, 4, 0);
        let t_slow = m.task_time_symbolic_class(&compute, 4, 1);
        assert!((t_slow / t_fast - 2.0).abs() < 1e-9);
        let comm_part = m.task_time_symbolic(&comm, 8) - m.spec.compute_time(comm.work) / 8.0;
        let slow_comm_part =
            m.task_time_symbolic_class(&comm, 8, 1) - 2.0 * m.spec.compute_time(comm.work) / 8.0;
        assert!((comm_part - slow_comm_part).abs() < 1e-9);
    }

    #[test]
    fn max_cores_respected_symbolically() {
        let spec = platforms::chic();
        let m = CostModel::new(&spec);
        let task = MTask::compute("t", 1e9).max_cores(4);
        assert_eq!(
            m.task_time_symbolic(&task, 4),
            m.task_time_symbolic(&task, 64)
        );
    }
}

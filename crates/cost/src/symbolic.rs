//! Symbolic costs `Tsymb(M, p) = T(M, p, dmp)` used by the scheduling step
//! (paper §3.2).
//!
//! Scheduling works on *symbolic* cores interconnected by a homogeneous
//! network; the default mapping pattern `dmp` charges every internal
//! communication operation at the machine's **slowest** interconnect level,
//! so `Tsymb(M, p)` is an upper bound of the real execution time for any
//! mapping.  The separate mapping step then recovers the difference.

use crate::collectives::CostModel;
use pt_machine::LinkParams;
use pt_mtask::{CollectiveKind, CommOp, MTask};

impl CostModel<'_> {
    /// Upper-bound execution time of `task` on `q` symbolic cores (uniform
    /// slowest-level network).
    pub fn task_time_symbolic(&self, task: &MTask, q: usize) -> f64 {
        debug_assert!(q >= 1, "task {:?}: zero-core width priced", task.name);
        let q = match task.max_cores {
            Some(cap) => q.min(cap),
            None => q,
        };
        if q == 0 {
            // A zero-core assignment can never execute; pricing it as free
            // would let degenerate group sizes win any width sweep.
            return f64::INFINITY;
        }
        let compute = self.spec.compute_time(task.work) / q as f64;
        // Default mapping pattern `dmp`: slowest link for everything, with
        // worst-case NIC sharing (all cores of a node sending at once), so
        // the symbolic cost is an upper bound for *any* physical mapping.
        let mut link = self.spec.slowest_link();
        let worst_sharing = self.spec.cores_per_node() as f64;
        link.bytes_per_s = link
            .bytes_per_s
            .min(self.spec.nic_bytes_per_s / worst_sharing);
        let comm: f64 = task
            .comm
            .iter()
            .map(|op| symbolic_comm_op(op, q, link, self.ring_threshold))
            .sum();
        compute + comm
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

/// Symbolic time of one collective on `q` uniform cores.
pub fn symbolic_comm_op(op: &CommOp, q: usize, link: LinkParams, ring_threshold: f64) -> f64 {
    if q <= 1 {
        return 0.0;
    }
    let qf = q as f64;
    let rounds = (qf).log2().ceil();
    let once = match op.kind {
        CollectiveKind::Broadcast => rounds * link.transfer_time(op.bytes),
        CollectiveKind::Allgather => {
            let block = op.bytes / qf;
            if block >= ring_threshold && q > 2 {
                (qf - 1.0) * link.transfer_time(block)
            } else {
                // Recursive doubling: message doubles per round; total data
                // moved per core ≈ bytes·(q−1)/q, latency ≈ rounds.
                rounds * link.latency_s + (op.bytes - block) / link.bytes_per_s
            }
        }
        CollectiveKind::Allreduce => rounds * link.transfer_time(op.bytes),
        CollectiveKind::Barrier => rounds * link.transfer_time(8.0),
        CollectiveKind::NeighborExchange => 2.0 * link.transfer_time(op.bytes),
    };
    once * op.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommContext;
    use pt_machine::{platforms, CoreId};

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

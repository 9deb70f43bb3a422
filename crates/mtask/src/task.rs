//! The M-task node type and its internal-communication specification.

use serde::{Deserialize, Serialize};

/// Kind of a collective communication operation executed *inside* an M-task
/// by the cores of its group.
///
/// The paper's cost model distinguishes broadcast (`Tbc`, `MPI_Bcast`) and
/// multi-broadcast (`Tag`, `MPI_Allgather`) because those dominate the ODE
/// solvers (Table 1); the remaining kinds appear in the NAS benchmarks and
/// the runtime library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// One root sends the same data to every group member (`MPI_Bcast`).
    Broadcast,
    /// Every member contributes a block; everyone receives all blocks
    /// (`MPI_Allgather`, the paper's *multi-broadcast*).
    Allgather,
    /// Element-wise reduction with result on all members (`MPI_Allreduce`).
    Allreduce,
    /// Pure synchronisation.
    Barrier,
    /// Nearest-neighbour (halo) exchange along the group's rank order.
    NeighborExchange,
}

/// One internal communication operation of an M-task, executed `count` times
/// per task activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommOp {
    /// The collective performed by the task's group.
    pub kind: CollectiveKind,
    /// Message size in bytes.  For [`CollectiveKind::Allgather`] this is the
    /// *total* gathered volume (each of the `q` members contributes
    /// `bytes / q`), so the specification stays independent of the group
    /// size chosen later by the scheduler.  For the other kinds it is the
    /// per-message size.
    pub bytes: f64,
    /// How many times the operation runs per task activation (fractional
    /// counts express data-dependent averages, e.g. the dynamic iteration
    /// count `I` of the DIIRK solver).
    pub count: f64,
}

impl CommOp {
    /// Convenience constructor.
    pub fn new(kind: CollectiveKind, bytes: f64, count: f64) -> Self {
        CommOp { kind, bytes, count }
    }

    /// `count ×` broadcast of `bytes`.
    pub fn bcast(bytes: f64, count: f64) -> Self {
        Self::new(CollectiveKind::Broadcast, bytes, count)
    }

    /// `count ×` allgather with a per-member contribution of `bytes`.
    pub fn allgather(bytes: f64, count: f64) -> Self {
        Self::new(CollectiveKind::Allgather, bytes, count)
    }
}

/// An M-task: a moldable parallel task that can execute on any number of
/// cores of its group.
///
/// The cost model of the paper (§3.1) needs the sequential compute work
/// (`Tcomp`, here in floating-point operations so it can be scaled by the
/// platform's per-core speed) and the internal communication operations
/// (`Tcomm(M, q, mp)`, derived from [`comm`](MTask::comm) by the cost crate).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct MTask {
    /// Human-readable name, e.g. `"step(2,3)"`.
    pub name: String,
    /// Sequential computational work in floating-point operations.
    pub work: f64,
    /// Internal communication per activation.
    pub comm: Vec<CommOp>,
    /// Upper bound on useful cores (e.g. a task that distributes `K`
    /// independent systems cannot use more than `K·n` cores); `None` means
    /// unbounded (moldable up to the machine width).
    pub max_cores: Option<usize>,
}

thread_local! {
    static TASK_CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of deep [`MTask`] copies performed *on this thread* since it
/// started.  The counterpart of the scheduler's price counts for allocation
/// pressure: graph transforms that are supposed to be clone-free (chain
/// contraction over the arena graph, graph clones via `Arc` payloads)
/// assert a zero delta across their run.
pub fn task_clone_count() -> usize {
    TASK_CLONES.with(|c| c.get())
}

// Deep copies are counted so perf tests can pin clone-free paths; the copy
// itself is exactly what `#[derive(Clone)]` would generate.
impl Clone for MTask {
    fn clone(&self) -> Self {
        TASK_CLONES.with(|c| c.set(c.get() + 1));
        MTask {
            name: self.name.clone(),
            work: self.work,
            comm: self.comm.clone(),
            max_cores: self.max_cores,
        }
    }
}

impl MTask {
    /// A compute-only task.
    pub fn compute(name: impl Into<String>, work: f64) -> Self {
        MTask {
            name: name.into(),
            work,
            comm: Vec::new(),
            max_cores: None,
        }
    }

    /// A task with compute work and internal communication.
    pub fn with_comm(name: impl Into<String>, work: f64, comm: Vec<CommOp>) -> Self {
        MTask {
            name: name.into(),
            work,
            comm,
            max_cores: None,
        }
    }

    /// Builder-style cap on the number of cores.
    pub fn max_cores(mut self, cap: usize) -> Self {
        self.max_cores = Some(cap);
        self
    }

    /// A zero-cost structural node (used for the unique start/stop nodes the
    /// spec compiler inserts, paper §2.2.3).
    pub fn structural(name: impl Into<String>) -> Self {
        MTask::compute(name, 0.0)
    }

    /// True if the node carries no computation and no communication (start /
    /// stop markers).  Such nodes are skipped by layering and scheduling.
    pub fn is_structural(&self) -> bool {
        self.work == 0.0 && self.comm.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_detection() {
        assert!(MTask::structural("start").is_structural());
        assert!(!MTask::compute("c", 1.0).is_structural());
        assert!(!MTask::with_comm("c", 0.0, vec![CommOp::bcast(8.0, 1.0)]).is_structural());
    }

    #[test]
    fn builders() {
        let t = MTask::compute("t", 5.0).max_cores(4);
        assert_eq!(t.max_cores, Some(4));
        let op = CommOp::allgather(64.0, 2.0);
        assert_eq!(op.kind, CollectiveKind::Allgather);
        assert_eq!(op.bytes, 64.0);
        assert_eq!(op.count, 2.0);
    }
}

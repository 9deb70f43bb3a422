//! Hybrid MPI+OpenMP process layouts (paper §4.7).
//!
//! When the mapping places several consecutive symbolic cores of one M-task
//! on the same node, those cores can be fused into a single MPI process
//! running OpenMP threads.  This shrinks the participant count of the
//! task's collectives (often the dominant win, e.g. for the data-parallel
//! IRK version) at the price of a per-operation thread synchronisation
//! overhead (which can turn into a net loss for solvers with very frequent
//! small operations, e.g. the data-parallel DIIRK version — both effects
//! are visible in the paper's Fig. 18).

use pt_cost::{CommContext, CostModel};
use pt_machine::{ClusterSpec, CoreId};
use pt_mtask::MTask;

/// Configuration of the hybrid execution scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Maximum OpenMP threads per MPI process (usually the node width; the
    /// SGI Altix allows more because threads may span nodes).
    pub max_threads_per_process: usize,
    /// Per-collective thread synchronisation overhead (fork/join + barrier)
    /// in seconds, multiplied by `log2(threads)`.
    pub thread_sync_s: f64,
    /// Parallel efficiency of each additional thread (1.0 = perfect).
    pub thread_efficiency: f64,
}

impl HybridConfig {
    /// Default configuration: one process per node.
    pub fn per_node(spec: &ClusterSpec) -> Self {
        HybridConfig {
            max_threads_per_process: spec.cores_per_node(),
            thread_sync_s: 2.0e-6,
            thread_efficiency: 0.97,
        }
    }

    /// Fixed number of threads per process.
    pub fn with_threads(threads: usize) -> Self {
        HybridConfig {
            max_threads_per_process: threads.max(1),
            thread_sync_s: 2.0e-6,
            thread_efficiency: 0.97,
        }
    }
}

/// One MPI process of a hybrid layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// The core on which the process (and its MPI communication) runs.
    pub rep: CoreId,
    /// Number of OpenMP threads (cores fused into this process).
    pub threads: usize,
}

/// A group's decomposition into processes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessLayout {
    /// Processes in group-rank order.
    pub processes: Vec<Process>,
}

impl ProcessLayout {
    /// Fold the mapped physical cores of one group into processes: maximal
    /// runs of cores on the same node (or anywhere, for distributed shared
    /// memory machines) become one process of up to
    /// `max_threads_per_process` threads.
    pub fn build(spec: &ClusterSpec, cores: &[CoreId], cfg: &HybridConfig) -> ProcessLayout {
        let mut processes: Vec<Process> = Vec::new();
        for &c in cores {
            let node = spec.label(c).node;
            match processes.last_mut() {
                Some(p)
                    if p.threads < cfg.max_threads_per_process
                        && (spec.shared_memory_across_nodes || spec.label(p.rep).node == node) =>
                {
                    p.threads += 1;
                }
                _ => processes.push(Process { rep: c, threads: 1 }),
            }
        }
        ProcessLayout { processes }
    }

    /// Total cores covered.
    pub fn total_cores(&self) -> usize {
        self.processes.iter().map(|p| p.threads).sum()
    }

    /// Representative cores, i.e. the MPI ranks.
    pub fn reps(&self) -> Vec<CoreId> {
        self.processes.iter().map(|p| p.rep).collect()
    }

    /// Widest process.
    pub fn max_threads(&self) -> usize {
        self.processes.iter().map(|p| p.threads).max().unwrap_or(1)
    }

    /// Effective parallel capacity for `task`: the first thread of each
    /// process counts fully, additional threads at
    /// `cfg.thread_efficiency`, capped at the task's useful cores.
    pub fn capacity(&self, task: &MTask, cfg: &HybridConfig) -> f64 {
        let capacity: f64 = self
            .processes
            .iter()
            .map(|p| 1.0 + (p.threads as f64 - 1.0) * cfg.thread_efficiency)
            .sum();
        match task.max_cores {
            Some(cap) => capacity.min(cap as f64),
            None => capacity,
        }
    }
}

/// Execution time of an M-task under a hybrid layout: compute uses all
/// cores (threads at `thread_efficiency`), collectives run between the
/// process representatives only, plus a thread-synchronisation term per
/// operation.
pub fn hybrid_task_time(
    model: &CostModel<'_>,
    ctx: &CommContext,
    task: &MTask,
    layout: &ProcessLayout,
    cfg: &HybridConfig,
) -> f64 {
    if layout.processes.is_empty() {
        return 0.0;
    }
    let compute = model.spec.compute_time(task.work) / layout.capacity(task, cfg);

    let reps = layout.reps();
    let sync = cfg.thread_sync_s * (layout.max_threads() as f64).log2().max(0.0);
    let comm: f64 = task
        .comm
        .iter()
        .map(|op| model.comm_op(ctx, &reps, op) + sync * op.count)
        .sum();
    compute + comm
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;
    use pt_mtask::CommOp;

    #[test]
    fn layout_folds_whole_nodes() {
        let spec = platforms::chic().with_nodes(4); // 4 cores/node
        let cfg = HybridConfig::per_node(&spec);
        let cores: Vec<CoreId> = (0..16).map(CoreId).collect();
        let l = ProcessLayout::build(&spec, &cores, &cfg);
        assert_eq!(l.processes.len(), 4);
        assert!(l.processes.iter().all(|p| p.threads == 4));
        assert_eq!(l.total_cores(), 16);
    }

    #[test]
    fn layout_respects_node_boundaries() {
        let spec = platforms::chic().with_nodes(2);
        let cfg = HybridConfig::with_threads(8);
        // Cores from two different nodes cannot fuse on CHiC.
        let cores: Vec<CoreId> = (0..8).map(CoreId).collect();
        let l = ProcessLayout::build(&spec, &cores, &cfg);
        assert_eq!(l.processes.len(), 2, "one process per node");
    }

    #[test]
    fn altix_allows_threads_across_nodes() {
        let spec = platforms::altix().with_nodes(2);
        let cfg = HybridConfig::with_threads(8);
        let cores: Vec<CoreId> = (0..8).map(CoreId).collect();
        let l = ProcessLayout::build(&spec, &cores, &cfg);
        assert_eq!(l.processes.len(), 1, "DSM machine fuses across nodes");
        assert_eq!(l.processes[0].threads, 8);
    }

    #[test]
    fn scattered_cores_stay_separate_processes() {
        let spec = platforms::chic().with_nodes(4);
        let cfg = HybridConfig::per_node(&spec);
        // One core per node: nothing to fuse.
        let cores: Vec<CoreId> = (0..4).map(|n| CoreId(n * 4)).collect();
        let l = ProcessLayout::build(&spec, &cores, &cfg);
        assert_eq!(l.processes.len(), 4);
        assert!(l.processes.iter().all(|p| p.threads == 1));
    }

    #[test]
    fn hybrid_shrinks_collective_participants() {
        // A global allgather over 64 cores vs 16 process reps: the hybrid
        // version must be faster for a comm-heavy task.
        let spec = platforms::chic().with_nodes(16);
        let model = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let cfg = HybridConfig::per_node(&spec);
        let cores: Vec<CoreId> = (0..64).map(CoreId).collect();
        let task = MTask::with_comm("t", 1e9, vec![CommOp::allgather(8e6, 4.0)]);
        let pure = model.task_time(&ctx, &task, &cores);
        let layout = ProcessLayout::build(&spec, &cores, &cfg);
        let hybrid = hybrid_task_time(&model, &ctx, &task, &layout, &cfg);
        assert!(
            hybrid < pure,
            "hybrid ({hybrid}) should beat pure MPI ({pure}) for global collectives"
        );
    }

    #[test]
    fn frequent_small_ops_can_make_hybrid_lose() {
        // Many tiny broadcasts (the data-parallel DIIRK pattern): the
        // per-op thread sync dominates and hybrid is slower.
        let spec = platforms::chic().with_nodes(2);
        let model = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let cfg = HybridConfig::per_node(&spec);
        let cores: Vec<CoreId> = (0..8).map(CoreId).collect();
        let task = MTask::with_comm("t", 1e7, vec![CommOp::bcast(64.0, 20_000.0)]);
        let pure = model.task_time(&ctx, &task, &cores);
        let layout = ProcessLayout::build(&spec, &cores, &cfg);
        let hybrid = hybrid_task_time(&model, &ctx, &task, &layout, &cfg);
        assert!(
            hybrid > pure,
            "hybrid ({hybrid}) should lose to pure MPI ({pure}) for frequent tiny ops"
        );
    }

    #[test]
    fn compute_uses_all_threads() {
        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let cfg = HybridConfig::per_node(&spec);
        let cores: Vec<CoreId> = (0..4).map(CoreId).collect();
        let task = MTask::compute("t", 5.2e9);
        let layout = ProcessLayout::build(&spec, &cores, &cfg);
        let t = hybrid_task_time(&model, &ctx, &task, &layout, &cfg);
        // Close to perfect 4-way speedup (efficiency 0.97).
        assert!(t < 0.27 && t > 0.24, "got {t}");
    }
}

//! Per-run memoization of the width-dependent cost functions.
//!
//! CPA's allocation loop re-prices the whole graph once per granted core,
//! CPR re-runs a full list schedule per round, and the heterogeneity-aware
//! layer path and AMTHA price every task at each candidate group's width
//! and speed class.  Both cost functions
//! ([`CostModel::task_time_symbolic_class`] and
//! [`task_time_optimistic`](crate::task_time_optimistic)) are pure in
//! `(task, q, class)` for a fixed model, so a [`CostTable`] caches them and
//! each triple is computed at most once per run.  The homogeneous layer
//! path keeps no memo: it prices from
//! [`SymbolicCosts`](crate::SymbolicCosts), where a price costs less than a
//! cold cell.
//!
//! Widths above a task's `max_cores` cap collapse onto the capped width, so
//! all of them share one entry.  The table is stored *width-major*: one
//! column of `tasks` cells per (function, class, width), allocated when the
//! run first touches it.  That matches the access pattern — an equal
//! partition of `P` cores into `g` groups has only the `⌊P/g⌋`/`⌈P/g⌉`
//! widths (O(√P) distinct values over all `g`), so a task-major layout
//! would fill `P + 1` cells per task to use a handful of them.

use crate::collectives::CostModel;
use crate::symbolic::task_time_optimistic_fastest;
use pt_mtask::{MTask, TaskId};
use std::cell::{Cell, RefCell};

/// Bit pattern marking an empty cell.  `f64::to_bits` of any value the cost
/// functions return (finite positives or `+inf`) never produces it.
const UNSET: u64 = u64::MAX;

/// Which of the two width-dependent cost functions a column caches.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Symbolic = 0,
    Optimistic = 1,
}

/// A lazily filled memo of `Tsymb(task, q, class)` and its optimistic
/// (CPA/CPR) counterpart, keyed by task id × core count × speed class.
///
/// Create one per scheduling run over the graph whose `TaskId`s index it
/// (for AMTHA and the heterogeneity-aware layer path that is the
/// chain-contracted graph).
#[derive(Debug)]
pub struct CostTable<'a> {
    model: &'a CostModel<'a>,
    /// Cells per column: the task ids the table covers.
    tasks: usize,
    /// The column of `(kind, class, q)` at `(q · classes + class) · 2 +
    /// kind`, `None` until the run first touches it.
    columns: RefCell<Vec<Option<Box<[f64]>>>>,
    /// Cost-function evaluations performed (cache misses).
    misses: Cell<usize>,
}

impl<'a> CostTable<'a> {
    /// Empty table for task ids `0..tasks` on the model's machine.
    pub fn new(model: &'a CostModel<'a>, tasks: usize) -> Self {
        CostTable {
            model,
            tasks,
            columns: RefCell::new(Vec::new()),
            misses: Cell::new(0),
        }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &'a CostModel<'a> {
        self.model
    }

    /// Memoized [`CostModel::task_time_symbolic_class`] in class 0, the
    /// machine's fastest (`task_time_symbolic` wherever class 0 runs at
    /// nominal speed).  `task` must be the task `id` refers to.
    pub fn symbolic(&self, id: TaskId, task: &MTask, q: usize) -> f64 {
        self.lookup(Kind::Symbolic, id, task, q, 0)
    }

    /// Memoized [`CostModel::task_time_symbolic_class`]: the symbolic cost
    /// of `task` on `q` cores of speed class `class`.
    pub fn symbolic_class(&self, id: TaskId, task: &MTask, q: usize, class: usize) -> f64 {
        self.lookup(Kind::Symbolic, id, task, q, class)
    }

    /// Memoized [`task_time_optimistic`](crate::task_time_optimistic) on
    /// cores of class 0.  `task` must be the task `id` refers to.
    pub fn optimistic(&self, id: TaskId, task: &MTask, q: usize) -> f64 {
        self.lookup(Kind::Optimistic, id, task, q, 0)
    }

    /// Number of underlying cost-function evaluations so far: the distinct
    /// triples priced.
    pub fn evaluations(&self) -> usize {
        self.misses.get()
    }

    fn lookup(&self, kind: Kind, id: TaskId, task: &MTask, q: usize, class: usize) -> f64 {
        debug_assert!(q >= 1, "task {:?}: zero-core width priced", task.name);
        let classes = self.model.num_classes();
        debug_assert!(
            class < classes,
            "class {class} out of range for this machine"
        );
        // Capped widths all hit the capped entry.
        let q = match task.max_cores {
            Some(cap) if cap < q => cap,
            _ => q,
        };
        if q == 0 {
            return f64::INFINITY;
        }
        let slot = (q * classes + class) * 2 + kind as usize;
        let mut columns = self.columns.borrow_mut();
        if columns.len() <= slot {
            columns.resize_with(slot + 1, || None);
        }
        let cell = &mut columns[slot]
            .get_or_insert_with(|| vec![f64::from_bits(UNSET); self.tasks].into_boxed_slice())
            [id.0];
        if cell.to_bits() == UNSET {
            self.misses.set(self.misses.get() + 1);
            *cell = match kind {
                Kind::Symbolic => self.model.task_time_symbolic_class(task, q, class),
                Kind::Optimistic => task_time_optimistic_fastest(self.model, task, q),
            };
        }
        *cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::task_time_optimistic;
    use pt_machine::platforms;
    use pt_mtask::CommOp;

    fn tasks() -> Vec<MTask> {
        vec![
            MTask::with_comm("a", 1e9, vec![CommOp::allgather(8e5, 2.0)]),
            MTask::compute("b", 3e8).max_cores(4),
        ]
    }

    #[test]
    fn memoized_values_match_direct_computation() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let ts = tasks();
        let table = CostTable::new(&model, ts.len());
        for (i, t) in ts.iter().enumerate() {
            for q in 1..=spec.total_cores() {
                let id = TaskId(i);
                assert_eq!(table.symbolic(id, t, q), model.task_time_symbolic(t, q));
                assert_eq!(
                    table.optimistic(id, t, q),
                    task_time_optimistic(&model, t, q)
                );
            }
        }
    }

    #[test]
    fn each_pair_is_priced_once() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let ts = tasks();
        let table = CostTable::new(&model, ts.len());
        for _ in 0..5 {
            for (i, t) in ts.iter().enumerate() {
                for q in [1usize, 2, 7, 32] {
                    table.symbolic(TaskId(i), t, q);
                }
            }
        }
        // Task "b" caps at 4 cores: widths 7 and 32 share the q=4 entry,
        // so it contributes 3 distinct evaluations to the 4×2 sweep.
        assert_eq!(table.evaluations(), 4 + 3);
    }

    #[test]
    fn capped_width_shares_the_capped_entry() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let ts = tasks();
        let table = CostTable::new(&model, ts.len());
        let before = table.evaluations();
        let a = table.symbolic(TaskId(1), &ts[1], 4);
        let b = table.symbolic(TaskId(1), &ts[1], 32);
        assert_eq!(a, b);
        assert_eq!(table.evaluations() - before, 1);
    }

    #[test]
    fn class_dimension_memoizes_per_class() {
        // Two-class machine: the same (task, q) pair memoizes separately
        // per class, each cell matching the direct class computation, and
        // class 0 stays bit-identical to the homogeneous accessor.
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5);
        let model = CostModel::new(&spec);
        assert_eq!(model.num_classes(), 2);
        let ts = tasks();
        let table = CostTable::new(&model, ts.len());
        for (i, t) in ts.iter().enumerate() {
            for q in [1usize, 2, 7, 16] {
                for class in 0..model.num_classes() {
                    let id = TaskId(i);
                    assert_eq!(
                        table.symbolic_class(id, t, q, class).to_bits(),
                        model.task_time_symbolic_class(t, q, class).to_bits()
                    );
                }
                assert_eq!(
                    table.symbolic(TaskId(i), t, q).to_bits(),
                    table.symbolic_class(TaskId(i), t, q, 0).to_bits()
                );
            }
        }
        // Repeating the sweep adds no evaluations: every (class, kind,
        // width, task) cell is warm.
        let warm = table.evaluations();
        for (i, t) in ts.iter().enumerate() {
            for q in [1usize, 2, 7, 16] {
                for class in 0..model.num_classes() {
                    table.symbolic_class(TaskId(i), t, q, class);
                }
            }
        }
        assert_eq!(table.evaluations(), warm);
    }
}

//! Per-schedule memoization of the width-dependent cost functions.
//!
//! The scheduling algorithms price the same `(task, width)` pair many
//! times: the layer scheduler's g-sweep re-prices every task of a layer at
//! every candidate group size, CPA's allocation loop re-prices the whole
//! graph once per granted core, and CPR re-runs a full list schedule per
//! round.  Both cost functions ([`CostModel::task_time_symbolic`] and
//! [`task_time_optimistic`](crate::task_time_optimistic)) are pure in
//! `(task, q)` for a fixed model, so a [`CostTable`] caches them in a dense
//! `task × width` table and each pair is computed at most once per
//! schedule.
//!
//! Widths above a task's `max_cores` cap collapse onto the capped width, so
//! all of them share one entry.  The table is stored *width-major*: one
//! column of `tasks` cells per core count, allocated lazily on first touch.
//! That matches the access pattern — a g-sweep over `P` cores prices every
//! task at only the `⌊P/g⌋`/`⌈P/g⌉` widths (O(√P) distinct values), so a
//! task-major layout would allocate and sentinel-fill `P + 1` cells per
//! task to use a handful of them.  Cells are atomics, so one table can be
//! shared by the scheduler's parallel g-sweep workers without locking: a
//! racing duplicate computation stores the same deterministic value.

use crate::collectives::CostModel;
use pt_mtask::{MTask, TaskId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Bit pattern marking an empty cell.  `f64::to_bits` of any value the cost
/// functions return (finite positives or `+inf`) never produces it.
const UNSET: u64 = u64::MAX;

/// Which of the two width-dependent cost functions a row caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Symbolic,
    Optimistic,
}

/// The lifetime-free storage behind a [`CostTable`]: the memo cells plus
/// the miss counter, with no reference to any cost model.
///
/// A store outlives any single scheduling run — wrap it in an
/// [`Arc`](std::sync::Arc) and rebind it to a fresh [`CostModel`] with
/// [`CostTable::shared`] to keep a hot graph's memoized columns warm across
/// requests (the scheduling service does exactly this).
///
/// # Invariant
/// All models a store is ever bound to must describe *structurally equal*
/// machines (`ClusterSpec` equality) and index it with the task ids of
/// structurally equal graphs: the cached values are pure in
/// `(spec, task, q)`, so rebinding to a different machine would serve stale
/// costs.  Callers key shared stores by a (graph, machine) signature and
/// verify equality before reuse.
#[derive(Debug)]
pub struct TableStore {
    /// Number of task ids the table covers (cells per column).
    tasks: usize,
    /// Columns per kind (`max_q + 1`: one per width `0..=max_q`).  Widths
    /// beyond `max_q` are computed directly, uncached.
    widths: usize,
    /// Speed classes the store covers (1 on homogeneous machines — the
    /// pre-heterogeneity layout, so warm stores of homogeneous requests
    /// are carried over unchanged).
    classes: usize,
    /// One column per (class, kind, width) — within a class symbolic
    /// columns first, then optimistic; class 0 occupies the leading
    /// `2 * widths` slots, so a one-class store has exactly the historic
    /// layout.  A single set keeps construction to one zeroed allocation.
    columns: ColumnSet,
    /// Cost-function evaluations actually performed (cache misses).
    misses: AtomicUsize,
}

impl TableStore {
    /// Empty storage for `tasks` task ids and widths `1..=max_q` on a
    /// homogeneous machine (one speed class).
    pub fn new(tasks: usize, max_q: usize) -> Self {
        Self::with_classes(tasks, max_q, 1)
    }

    /// Empty storage covering `classes` speed classes.  `classes` must
    /// match the machine of every model the store is bound to
    /// ([`CostModel::num_classes`](crate::CostModel::num_classes)); one
    /// class collapses to the homogeneous layout.
    pub fn with_classes(tasks: usize, max_q: usize, classes: usize) -> Self {
        assert!(classes >= 1, "a machine has at least one speed class");
        TableStore {
            tasks,
            widths: max_q + 1,
            classes,
            columns: ColumnSet::new(classes * 2 * (max_q + 1), tasks),
            misses: AtomicUsize::new(0),
        }
    }

    /// Number of task ids the store covers.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Number of speed classes the store covers.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of underlying cost-function evaluations so far (see
    /// [`CostTable::evaluations`]).
    pub fn evaluations(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// How a [`CostTable`] holds its [`TableStore`]: privately owned (the
/// one-shot scheduling path) or shared with other runs via an `Arc` (the
/// service's warm-table path).
#[derive(Debug)]
enum StoreHandle {
    Owned(TableStore),
    Shared(std::sync::Arc<TableStore>),
}

/// A lazily filled memo table for `Tsymb(task, q)` and its optimistic
/// (CPA/CPR) counterpart, keyed by task id × core count.
///
/// Create one per scheduling run over the graph whose `TaskId`s are used to
/// index it (for the layer scheduler that is the chain-contracted graph).
/// To reuse the memo cells across runs, build a [`TableStore`] once and
/// bind it per run with [`CostTable::shared`].
#[derive(Debug)]
pub struct CostTable<'a> {
    model: &'a CostModel<'a>,
    store: StoreHandle,
}

/// Lazily allocated columns of `tasks` cells each, installed lock-free via
/// a null-sentinel pointer CAS.  A plain `Vec<OnceLock<Box<[AtomicU64]>>>`
/// would work, but constructing thousands of `OnceLock`s per schedule run
/// is measurably slow; a null-pointer slot vector is a single memset.
struct ColumnSet {
    /// Cells per column; every installed pointer owns exactly this many.
    tasks: usize,
    slots: Vec<AtomicPtr<AtomicU64>>,
}

impl ColumnSet {
    fn new(widths: usize, tasks: usize) -> Self {
        // A null `AtomicPtr` is all-zero bits, so the slot vector can come
        // straight from `alloc_zeroed` (fresh zero pages, no element loop —
        // this runs once per schedule with `widths ≈ P`).
        let slots = unsafe {
            let layout = std::alloc::Layout::array::<AtomicPtr<AtomicU64>>(widths)
                .expect("slot vector fits in memory");
            let ptr = if widths == 0 {
                std::ptr::NonNull::<AtomicPtr<AtomicU64>>::dangling().as_ptr()
            } else {
                let raw = std::alloc::alloc_zeroed(layout) as *mut AtomicPtr<AtomicU64>;
                if raw.is_null() {
                    std::alloc::handle_alloc_error(layout);
                }
                raw
            };
            Vec::from_raw_parts(ptr, widths, widths)
        };
        ColumnSet { tasks, slots }
    }

    /// The column for width `q`, or `None` when `q` is out of range.
    /// Installs the column on first touch: a spare one of this thread,
    /// refilled with `UNSET`, or a new allocation.
    fn column(&self, q: usize) -> Option<&[AtomicU64]> {
        let slot = self.slots.get(q)?;
        let p = slot.load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: a non-null slot holds a pointer leaked from a
            // `Box<[AtomicU64]>` of length `self.tasks`, freed only in Drop.
            return Some(unsafe { std::slice::from_raw_parts(p, self.tasks) });
        }
        let col = match take_spare(self.tasks) {
            Some(mut col) => {
                for cell in col.iter_mut() {
                    *cell.get_mut() = UNSET;
                }
                col
            }
            None => (0..self.tasks).map(|_| AtomicU64::new(UNSET)).collect(),
        };
        let raw = Box::into_raw(col) as *mut AtomicU64;
        match slot.compare_exchange(
            std::ptr::null_mut(),
            raw,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Some(unsafe { std::slice::from_raw_parts(raw, self.tasks) }),
            Err(winner) => {
                // Another thread installed first; drop our copy.
                // SAFETY: `raw` came from `Box::into_raw` just above and was
                // never shared.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, self.tasks)) });
                Some(unsafe { std::slice::from_raw_parts(winner, self.tasks) })
            }
        }
    }
}

impl Drop for ColumnSet {
    /// Hands the columns to this thread's spare list, replacing what it
    /// held, or frees them when the list is unavailable (thread teardown).
    /// A table that installed no column leaves the list as it is.
    fn drop(&mut self) {
        let tasks = self.tasks;
        let mut columns = self
            .slots
            .iter_mut()
            .filter_map(|slot| {
                let p = *slot.get_mut();
                // SAFETY: installed pointers own a `tasks`-length boxed
                // slice; Drop has exclusive access and visits each once.
                (!p.is_null())
                    .then(|| unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, tasks)) })
            })
            .peekable();
        if columns.peek().is_some() {
            let _ = SPARE_COLUMNS.try_with(|spare| {
                if let Ok(mut spare) = spare.try_borrow_mut() {
                    spare.clear();
                    spare.extend(&mut columns);
                }
            });
        }
        // Whatever the list did not take is freed here.
        columns.for_each(drop);
    }
}

thread_local! {
    /// The columns of the last table dropped on this thread, all of one
    /// length, for the next table to refill instead of allocating.  A cold
    /// schedule of BT-MZ class D at P = 16384 fills 348 columns of 2 050
    /// cells; freed, glibc may hand their pages back to the kernel, and
    /// the next request faults them in again: on a 2-vCPU host, perfbench
    /// `plan_btmz` processes in that mode read about 1 000–2 000 minor
    /// faults per request, and under 100 with the pages kept.
    static SPARE_COLUMNS: RefCell<Vec<Box<[AtomicU64]>>> = const { RefCell::new(Vec::new()) };
}

/// A spare column of `tasks` cells from this thread's list, if it has one.
fn take_spare(tasks: usize) -> Option<Box<[AtomicU64]>> {
    SPARE_COLUMNS
        .try_with(|spare| {
            let mut spare = spare.try_borrow_mut().ok()?;
            if spare.last()?.len() != tasks {
                return None;
            }
            spare.pop()
        })
        .ok()
        .flatten()
}

impl std::fmt::Debug for ColumnSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self
            .slots
            .iter()
            .filter(|s| !s.load(Ordering::Relaxed).is_null())
            .count();
        write!(
            f,
            "ColumnSet {{ widths: {}, filled: {filled} }}",
            self.slots.len()
        )
    }
}

impl<'a> CostTable<'a> {
    /// Empty table for `tasks` task ids and widths `1..=max_q`, covering
    /// every speed class of the model's machine (one on homogeneous
    /// machines — the historic layout).
    pub fn with_width(model: &'a CostModel<'a>, tasks: usize, max_q: usize) -> Self {
        CostTable {
            model,
            store: StoreHandle::Owned(TableStore::with_classes(tasks, max_q, model.num_classes())),
        }
    }

    /// Empty table for `tasks` task ids, sized to the model's machine.
    pub fn new(model: &'a CostModel<'a>, tasks: usize) -> Self {
        Self::with_width(model, tasks, model.spec.total_cores())
    }

    /// Bind an existing (possibly pre-warmed) [`TableStore`] to a model for
    /// one run.  The model's machine must be structurally equal to the one
    /// every previous binding of `store` used — see the [`TableStore`]
    /// invariant.
    pub fn shared(model: &'a CostModel<'a>, store: std::sync::Arc<TableStore>) -> Self {
        CostTable {
            model,
            store: StoreHandle::Shared(store),
        }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &'a CostModel<'a> {
        self.model
    }

    fn store(&self) -> &TableStore {
        match &self.store {
            StoreHandle::Owned(s) => s,
            StoreHandle::Shared(s) => s,
        }
    }

    /// Memoized [`CostModel::task_time_symbolic`].  `task` must be the task
    /// `id` refers to.
    pub fn symbolic(&self, id: TaskId, task: &MTask, q: usize) -> f64 {
        self.lookup(Kind::Symbolic, id, task, q, 0)
    }

    /// Memoized [`task_time_optimistic`](crate::task_time_optimistic).
    /// `task` must be the task `id` refers to.
    pub fn optimistic(&self, id: TaskId, task: &MTask, q: usize) -> f64 {
        self.lookup(Kind::Optimistic, id, task, q, 0)
    }

    /// Memoized [`CostModel::task_time_symbolic_class`]: the symbolic cost
    /// of `task` on `q` cores of speed class `class`.
    pub fn symbolic_class(&self, id: TaskId, task: &MTask, q: usize, class: usize) -> f64 {
        self.lookup(Kind::Symbolic, id, task, q, class)
    }

    /// Memoized [`CostModel::task_time_optimistic_class`].
    pub fn optimistic_class(&self, id: TaskId, task: &MTask, q: usize, class: usize) -> f64 {
        self.lookup(Kind::Optimistic, id, task, q, class)
    }

    /// Number of underlying cost-function evaluations so far.  Under
    /// concurrent access a pair may rarely be evaluated twice (both writes
    /// store the same value); single-threaded use counts exactly the
    /// distinct pairs priced.  For a [`shared`](Self::shared) store the
    /// count accumulates across every run the store served.
    pub fn evaluations(&self) -> usize {
        self.store().evaluations()
    }

    /// Memoized [`CostModel::task_time_symbolic`] of every task of `tasks`
    /// at width `q`, written to `out` in order: exactly what
    /// [`symbolic`](Self::symbolic) returns per task, with the same
    /// evaluation count, but the width's column is fetched once and the
    /// miss counter is bumped once per call.
    pub fn symbolic_into(&self, tasks: &[(TaskId, &MTask)], q: usize, out: &mut Vec<f64>) {
        debug_assert!(q >= 1, "zero-core width priced");
        let column = self.column(Kind::Symbolic, q, 0);
        let mut misses = 0;
        out.clear();
        out.extend(tasks.iter().map(|&(id, task)| match task.max_cores {
            // A capped width lives in another column.
            Some(cap) if cap < q => self.symbolic(id, task, q),
            _ => memo(column.and_then(|c| c.get(id.0)), &mut misses, || {
                self.model.task_time_symbolic_class(task, q, 0)
            }),
        }));
        self.add_misses(misses);
    }

    /// The memo column of `(kind, q, class)`, or `None` when the pair lies
    /// outside the table (priced correctly, just uncached).
    fn column(&self, kind: Kind, q: usize, class: usize) -> Option<&[AtomicU64]> {
        let store = self.store();
        if q >= store.widths || class >= store.classes {
            return None;
        }
        let slot = class * 2 * store.widths
            + match kind {
                Kind::Symbolic => q,
                Kind::Optimistic => store.widths + q,
            };
        store.columns.column(slot)
    }

    fn add_misses(&self, misses: usize) {
        if misses > 0 {
            self.store().misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    fn lookup(&self, kind: Kind, id: TaskId, task: &MTask, q: usize, class: usize) -> f64 {
        debug_assert!(q >= 1, "task {:?}: zero-core width priced", task.name);
        debug_assert!(
            class < self.model.num_classes(),
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
        let cell = self.column(kind, q, class).and_then(|c| c.get(id.0));
        let mut misses = 0;
        // The class functions delegate to the homogeneous ones at nominal
        // speed, so class 0 of a uniform machine prices (and caches)
        // bit-identically to the historic path.
        let value = memo(cell, &mut misses, || match kind {
            Kind::Symbolic => self.model.task_time_symbolic_class(task, q, class),
            Kind::Optimistic => self.model.task_time_optimistic_class(task, q, class),
        });
        self.add_misses(misses);
        value
    }
}

/// The value of one memo cell: read it, or on a miss (or with no cell)
/// `compute` it, store it and count the miss.
#[inline]
fn memo(cell: Option<&AtomicU64>, misses: &mut usize, compute: impl FnOnce() -> f64) -> f64 {
    if let Some(bits) = cell.map(|c| c.load(Ordering::Relaxed)) {
        if bits != UNSET {
            return f64::from_bits(bits);
        }
    }
    *misses += 1;
    let value = compute();
    if let Some(cell) = cell {
        cell.store(value.to_bits(), Ordering::Relaxed);
    }
    value
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
    fn shared_store_keeps_cells_warm_across_bindings() {
        let spec = platforms::chic().with_nodes(8);
        let ts = tasks();
        let store = std::sync::Arc::new(TableStore::new(ts.len(), spec.total_cores()));
        let cold = {
            let model = CostModel::new(&spec);
            let table = CostTable::shared(&model, store.clone());
            for (i, t) in ts.iter().enumerate() {
                for q in 1..=spec.total_cores() {
                    table.symbolic(TaskId(i), t, q);
                }
            }
            table.evaluations()
        };
        assert!(cold > 0);
        // A second run over a *fresh model of the same machine* re-binds the
        // store and hits every cell: no new evaluations.
        let spec2 = spec.clone();
        let model2 = CostModel::new(&spec2);
        let table2 = CostTable::shared(&model2, store.clone());
        for (i, t) in ts.iter().enumerate() {
            for q in 1..=spec2.total_cores() {
                assert_eq!(
                    table2.symbolic(TaskId(i), t, q),
                    model2.task_time_symbolic(t, q)
                );
            }
        }
        assert_eq!(store.evaluations(), cold);
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
                    assert_eq!(
                        table.optimistic_class(id, t, q, class).to_bits(),
                        model.task_time_optimistic_class(t, q, class).to_bits()
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
                    table.optimistic_class(TaskId(i), t, q, class);
                }
            }
        }
        assert_eq!(table.evaluations(), warm);
    }

    #[test]
    fn symbolic_into_matches_per_cell_lookups() {
        // Two tables priced the same way, one a cell at a time and one a
        // column at a time, must agree to the bit and in evaluation count:
        // uncapped and capped tasks (caps below, at and above the width),
        // widths past the table, and ids past the table (one id beyond
        // the 3 the table covers), on a uniform machine and on class 0 of
        // a non-uniform one.
        let ts = [
            MTask::with_comm("a", 1e9, vec![CommOp::allgather(8e5, 2.0)]),
            MTask::compute("b", 3e8).max_cores(4),
            MTask::with_comm("c", 7e8, vec![CommOp::bcast(1e4, 1.0)]).max_cores(16),
            MTask::compute("d", 2e8),
        ];
        let list: Vec<(TaskId, &MTask)> =
            ts.iter().enumerate().map(|(i, t)| (TaskId(i), t)).collect();
        for spec in [
            platforms::chic().with_nodes(8),
            platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5),
        ] {
            let model = CostModel::new(&spec);
            let cells = CostTable::with_width(&model, 3, 16);
            let columns = CostTable::with_width(&model, 3, 16);
            let mut out = Vec::new();
            // Repeats hit warm cells; 17 and 40 lie past the table.
            for q in [1usize, 4, 7, 16, 7, 17, 40, 1] {
                let before = (cells.evaluations(), columns.evaluations());
                let expected: Vec<u64> = list
                    .iter()
                    .map(|&(id, t)| cells.symbolic(id, t, q).to_bits())
                    .collect();
                columns.symbolic_into(&list, q, &mut out);
                let got: Vec<u64> = out.iter().map(|t| t.to_bits()).collect();
                assert_eq!(got, expected, "q={q}");
                assert_eq!(
                    columns.evaluations() - before.1,
                    cells.evaluations() - before.0,
                    "q={q}"
                );
            }
        }
    }

    #[test]
    fn a_table_on_spare_columns_prices_like_a_fresh_one() {
        // The test's thread starts with no spare columns, so the first
        // table prices on fresh ones; dropped, it leaves them, full of its
        // values, on the spare list.  Each later table of the same length
        // refills them and must return the same values and evaluation
        // count; a table that touched no column leaves the list alone, and
        // one of another length allocates its own.
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let ts = tasks();
        let sweep = |table: &CostTable| -> (Vec<u64>, usize) {
            let mut bits = Vec::new();
            for (i, t) in ts.iter().enumerate() {
                for q in [1usize, 3, 4, 9, 32] {
                    bits.push(table.symbolic(TaskId(i), t, q).to_bits());
                    bits.push(table.optimistic(TaskId(i), t, q).to_bits());
                }
            }
            (bits, table.evaluations())
        };
        let fresh = sweep(&CostTable::new(&model, ts.len()));
        drop(CostTable::with_width(&model, ts.len() + 1, 40));
        for _ in 0..3 {
            assert_eq!(sweep(&CostTable::new(&model, ts.len())), fresh);
        }
        let other = CostTable::new(&model, ts.len() + 1);
        assert_eq!(
            other.symbolic(TaskId(2), &ts[0], 5),
            model.task_time_symbolic(&ts[0], 5)
        );
        assert_eq!(other.evaluations(), 1);
    }

    #[test]
    fn table_is_shareable_across_threads() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let ts = tasks();
        let table = CostTable::new(&model, ts.len());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (i, t) in ts.iter().enumerate() {
                        for q in 1..=32 {
                            table.symbolic(TaskId(i), t, q);
                        }
                    }
                });
            }
        });
        for (i, t) in ts.iter().enumerate() {
            for q in 1..=32 {
                assert_eq!(
                    table.symbolic(TaskId(i), t, q),
                    model.task_time_symbolic(t, q)
                );
            }
        }
    }
}

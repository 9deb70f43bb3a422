//! The paper's layer-based scheduling algorithm (§3.2, Algorithm 1).
//!
//! Three steps:
//!
//! 1. **Chain contraction** — maximal linear chains are replaced by single
//!    nodes so their members share one core group (no re-distribution
//!    between them).
//! 2. **Layering** — greedy partition into layers of independent tasks.
//! 3. **Per-layer group search** — for every candidate group count
//!    `g ∈ {1..P}` the symbolic cores are split into `g` equal subsets and
//!    the layer's tasks are assigned by the modified greedy rule (tasks in
//!    decreasing symbolic execution time, each to the subset with the
//!    smallest accumulated time — Sahni's LPT, 4/3-suboptimal for the
//!    uniprocessor analogue).  The `g` minimising the layer makespan
//!    `Tact(g)` wins, then the **group adjustment** resizes the subsets
//!    proportionally to their assigned work.

use crate::adjust::{adjust_group_sizes, equal_partition};
use crate::schedule::{LayerSchedule, LayeredSchedule};
use pt_cost::{CostModel, CostTable};
use pt_mtask::{layer::layers, MTask, TaskGraph, TaskId};
use pt_obs::Recorder as _;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `f64` with the total order of `f64::total_cmp`, usable as a heap key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Group counts at or below this use a linear scan for "subset with the
/// smallest accumulated time" — for small `g` that beats the heap.
const LPT_HEAP_THRESHOLD: usize = 16;

/// Minimum `candidates × tasks` product before the g-sweep fans out across
/// threads; below it the spawn overhead outweighs the sweep itself.
const PARALLEL_SWEEP_MIN_WORK: usize = 1 << 14;

/// Minimum layer size before the g-sweep consults the makespan lower bound
/// to prune candidates; below it the bound costs as much as running the
/// candidate outright.
const LB_PRUNE_MIN_TASKS: usize = 64;

/// Per-task times at one width, cached so consecutive candidates sharing a
/// width (`⌊P/g⌋` repeats for many `g`) skip the table walk entirely.
struct CachedTimes {
    /// Width the buffer holds, `usize::MAX` when invalid.
    width: usize,
    times: Vec<f64>,
}

impl CachedTimes {
    /// Per-task times at `width`, refilled from `table` on miss.
    fn fill<'s>(
        &'s mut self,
        table: &CostTable<'_>,
        tasks: &[(TaskId, &MTask)],
        width: usize,
    ) -> &'s [f64] {
        if self.width != width {
            self.width = width;
            self.times.clear();
            self.times
                .extend(tasks.iter().map(|(id, m)| table.symbolic(*id, m, width)));
        }
        &self.times
    }

    fn invalidate(&mut self) {
        self.width = usize::MAX;
    }
}

/// LPT priority: decreasing time, original index breaking ties (what a
/// stable descending sort yields).  Keys are unique (distinct indices), so
/// every comparison sort produces the identical sequence.
#[inline]
fn lpt_cmp(a: &(TotalF64, u32), b: &(TotalF64, u32)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Reusable buffers for one LPT evaluation, so the sweep does not allocate
/// per candidate group count.  The width-keyed caches are only valid for
/// one task list; [`reset`](Self::reset) them between layers.
pub(crate) struct LptScratch {
    /// Task indices sorted by decreasing time at the sort width, as packed
    /// `(time, index)` keys.
    order: Vec<(TotalF64, u32)>,
    /// Width `order` was sorted for, `usize::MAX` when invalid.
    order_width: usize,
    /// Times at the two widths an equal partition produces.
    lo: CachedTimes,
    hi: CachedTimes,
    acc: Vec<f64>,
    heap: BinaryHeap<Reverse<(TotalF64, usize)>>,
}

impl Default for LptScratch {
    fn default() -> Self {
        LptScratch {
            order: Vec::new(),
            order_width: usize::MAX,
            lo: CachedTimes {
                width: usize::MAX,
                times: Vec::new(),
            },
            hi: CachedTimes {
                width: usize::MAX,
                times: Vec::new(),
            },
            acc: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }
}

impl LptScratch {
    /// Invalidate the width-keyed caches (required when the task list
    /// changes).
    fn reset(&mut self) {
        self.order_width = usize::MAX;
        self.lo.invalidate();
        self.hi.invalidate();
    }
}

/// The combined scheduler of the paper.
#[derive(Debug, Clone)]
pub struct LayerScheduler<'a> {
    /// Cost model providing `Tsymb(M, p)`.
    pub model: &'a CostModel<'a>,
    /// Optional fixed group count per layer (`None`: sweep `g = 1..P` and
    /// pick the best, the paper's default; `Some(g)`: force `g` subsets, as
    /// in the NAS group-count exploration of Fig. 17).
    pub fixed_groups: Option<usize>,
    /// Apply the group-adjustment step (on by default; switching it off
    /// reproduces the "equal-sized groups" ablation).
    pub adjust: bool,
    /// Contract maximal linear chains before layering (on by default;
    /// switching it off reproduces the "no chain contraction" ablation —
    /// chain members may then land on different groups and pay
    /// re-distribution).
    pub contract_chains: bool,
    /// Worker threads for the g-sweep (`None`: use
    /// `std::thread::available_parallelism`, falling back to 1).  The
    /// result is identical for any worker count: every candidate's
    /// makespan is a pure function of the inputs, and the reduction picks
    /// the smallest makespan with the smallest `g` breaking ties, in any
    /// partition order.
    pub sweep_workers: Option<usize>,
    /// Trace recorder for scheduling-phase spans and metrics (`None` — the
    /// default — keeps the hot path free of instrumentation beyond one
    /// branch).
    pub recorder: Option<std::sync::Arc<pt_obs::TraceRecorder>>,
    /// Heterogeneity-aware layer scheduling: group sizing by aggregate core
    /// speed and LPT keyed on class-adjusted finish times.  `None` (the
    /// default) activates it exactly when the machine is non-uniform, so
    /// homogeneous machines keep the historic path bit for bit; `Some`
    /// forces it on or off (off reproduces the heterogeneity-*blind*
    /// baseline of the `bench_het` gate on a het machine).
    pub het_aware: Option<bool>,
}

impl<'a> LayerScheduler<'a> {
    /// Scheduler with the paper's default behaviour.
    pub fn new(model: &'a CostModel<'a>) -> Self {
        LayerScheduler {
            model,
            fixed_groups: None,
            adjust: true,
            contract_chains: true,
            sweep_workers: None,
            recorder: None,
            het_aware: None,
        }
    }

    /// Attach a trace recorder (scheduling phases appear as spans on the
    /// scheduler's process row, cost-table misses as a counter).
    pub fn with_recorder(mut self, recorder: std::sync::Arc<pt_obs::TraceRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Force a specific number of groups per layer.
    ///
    /// `g` is clamped to each layer's maximum useful group count
    /// `min(layer tasks, total cores)` at scheduling time (a layer cannot
    /// use more groups than it has tasks).
    ///
    /// # Panics
    /// Panics if `g == 0`: a schedule needs at least one group, and a
    /// silent zero would otherwise be indistinguishable from the sweep.
    pub fn with_fixed_groups(mut self, g: usize) -> Self {
        assert!(g >= 1, "a layer schedule needs at least one group");
        self.fixed_groups = Some(g);
        self
    }

    /// Pin the number of g-sweep worker threads (mainly for tests and
    /// benchmarks; the default tracks the machine).
    pub fn with_sweep_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one sweep worker");
        self.sweep_workers = Some(workers);
        self
    }

    /// Force the heterogeneity-aware layer path on (`true`) or off
    /// (`false`), overriding the default of "on iff the machine is
    /// non-uniform".  Forcing it *off* on a heterogeneous machine yields
    /// the blind schedule a pre-heterogeneity scheduler would build —
    /// group sizes by core count, LPT by nominal-speed times.
    pub fn with_het_aware(mut self, on: bool) -> Self {
        self.het_aware = Some(on);
        self
    }

    /// Whether this scheduler uses the heterogeneity-aware layer path.
    fn het_active(&self) -> bool {
        self.het_aware.unwrap_or(!self.model.is_uniform())
    }

    /// Disable the group-adjustment step.
    pub fn without_adjustment(mut self) -> Self {
        self.adjust = false;
        self
    }

    /// Disable the chain-contraction step.
    pub fn without_chain_contraction(mut self) -> Self {
        self.contract_chains = false;
        self
    }

    /// Schedule a task graph onto `P = spec.total_cores()` symbolic cores.
    pub fn schedule(&self, graph: &TaskGraph) -> LayeredSchedule {
        let out = self.schedule_on(graph, self.model.spec.total_cores());
        debug_assert!(out.validate().is_ok());
        out
    }

    /// Schedule one layer of independent tasks, pricing through `table`
    /// (indexed by the same `TaskId`s as `tasks`) and reusing `scratch`
    /// across layers; returns the adjusted group sizes and the per-group
    /// ordered task lists (ids refer to the graph the tasks came from).
    ///
    /// The candidate group counts `g = 1..=min(tasks, total)` are swept in
    /// parallel across [`sweep_workers`](Self::sweep_workers) threads when
    /// the layer is large enough to pay for the fan-out; the winner's LPT
    /// run is serial.  A fixed group count is clamped to
    /// `min(tasks, total)`.
    pub(crate) fn schedule_layer_scratch(
        &self,
        table: &CostTable<'_>,
        tasks: &[(TaskId, &MTask)],
        total: usize,
        scratch: &mut LptScratch,
    ) -> (Vec<usize>, Vec<Vec<TaskId>>) {
        assert!(!tasks.is_empty(), "cannot schedule an empty layer");
        if self.het_active() {
            return self.schedule_layer_het(table, tasks, total);
        }
        let max_g = tasks.len().min(total);
        scratch.reset();
        let rec = self.recorder.as_deref();

        let t0 = rec.map_or(0.0, pt_obs::Recorder::now_us);
        let best_g = match self.fixed_groups {
            Some(g) => g.clamp(1, max_g),
            None => self.sweep(table, tasks, total, max_g, scratch),
        };
        if let Some(r) = rec {
            r.span_args(
                crate::two_level::SCHED_PID,
                0,
                "g_sweep",
                "sched",
                t0,
                vec![("candidates", max_g.into()), ("best_g", best_g.into())],
            );
        }

        // Re-run the winning candidate, this time materialising the
        // assignment (the sweep itself only tracks makespans).
        let t0 = rec.map_or(0.0, pt_obs::Recorder::now_us);
        let mut assignment: Vec<Vec<usize>> = Vec::new();
        assign_lpt(table, tasks, best_g, total, scratch, Some(&mut assignment));
        if let Some(r) = rec {
            r.span_args(
                crate::two_level::SCHED_PID,
                0,
                "lpt",
                "sched",
                t0,
                vec![("tasks", tasks.len().into()), ("groups", best_g.into())],
            );
        }

        // Group adjustment: resize proportionally to assigned work.
        let sizes = if self.adjust && best_g > 1 {
            let work: Vec<f64> = assignment
                .iter()
                .map(|group| {
                    group
                        .iter()
                        .map(|&i| self.model.spec.compute_time(tasks[i].1.work))
                        .sum::<f64>()
                })
                .collect();
            adjust_group_sizes(&work, total)
        } else {
            equal_partition(total, best_g)
        };
        let assignment = assignment
            .into_iter()
            .map(|group| group.into_iter().map(|i| tasks[i].0).collect())
            .collect();
        (sizes, assignment)
    }

    /// Heterogeneity-aware layer scheduling: candidate partitions split the
    /// symbolic cores into `g` subsets of near-equal *aggregate speed*
    /// (slow subsets get more cores), each subset is priced at the speed
    /// class of its slowest core, and the greedy rule assigns each task to
    /// the subset with the earliest class-adjusted finish time.  The final
    /// adjustment resizes subsets so their aggregate-speed shares track
    /// their assigned work.
    ///
    /// Symbolic core `i` is assumed to land on physical core `i` — exact
    /// under the default consecutive mapping, heuristic under scattered and
    /// mixed mappings (the symbolic cost stays an upper bound either way:
    /// a subset never prices *faster* than its slowest member).
    ///
    /// When the symbolic range spans at least two whole nodes, only
    /// node-aligned candidates are swept (`g ≤ ⌈total / cores-per-node⌉`,
    /// cuts snapped by [`speed_partition`]).  Unaligned subsets pay
    /// inter-node links for their internal collectives, which the
    /// width-keyed symbolic table cannot see — comparing their
    /// (optimistic) predictions against aligned candidates' honest ones
    /// systematically mispicks, so the sweep stays inside the candidate
    /// family it can rank faithfully.  Sub-node ranges (a narrow
    /// lower-level group) keep the full unaligned sweep.
    fn schedule_layer_het(
        &self,
        table: &CostTable<'_>,
        tasks: &[(TaskId, &MTask)],
        total: usize,
    ) -> (Vec<usize>, Vec<Vec<TaskId>>) {
        let cpn = self.model.spec.cores_per_node();
        let max_g = if total / cpn >= 2 {
            tasks.len().min(total.div_ceil(cpn))
        } else {
            tasks.len().min(total)
        };
        let cum = speed_prefix(self.model, total);
        let best_g = match self.fixed_groups {
            Some(g) => g.clamp(1, max_g),
            None => {
                let mut best = (f64::INFINITY, 1usize);
                for g in 1..=max_g {
                    let groups = HetGroups::equal_speed(self.model, &cum, g);
                    let mk = het_assign(table, tasks, &groups, None);
                    if mk < best.0 {
                        best = (mk, g);
                    }
                }
                best.1
            }
        };
        let groups = HetGroups::equal_speed(self.model, &cum, best_g);
        let mut assignment: Vec<Vec<usize>> = Vec::new();
        het_assign(table, tasks, &groups, Some(&mut assignment));
        // Group adjustment, speed-aware: shares of *aggregate speed* (not
        // core count) proportional to assigned work, so a slow group with
        // the same work ends up with more cores.
        let sizes = if self.adjust && best_g > 1 {
            let work: Vec<f64> = assignment
                .iter()
                .map(|group| {
                    group
                        .iter()
                        .map(|&i| self.model.spec.compute_time(tasks[i].1.work))
                        .sum::<f64>()
                })
                .collect();
            speed_partition(&cum, &work, self.model.spec.cores_per_node())
        } else {
            groups.sizes
        };
        let assignment = assignment
            .into_iter()
            .map(|group| group.into_iter().map(|i| tasks[i].0).collect())
            .collect();
        (sizes, assignment)
    }

    /// Sweep `g = 1..=max_g`, returning the `g` with the smallest layer
    /// makespan (smallest `g` on ties).
    fn sweep(
        &self,
        table: &CostTable<'_>,
        tasks: &[(TaskId, &MTask)],
        total: usize,
        max_g: usize,
        scratch: &mut LptScratch,
    ) -> usize {
        // An explicit worker count is honoured as-is; otherwise small
        // sweeps stay serial without even asking for the core count
        // (`available_parallelism` re-reads cgroup state on every call).
        let workers = match self.sweep_workers {
            Some(w) => w.min(max_g),
            None if max_g * tasks.len() < PARALLEL_SWEEP_MIN_WORK => 1,
            None => default_workers().min(max_g),
        };
        if workers <= 1 {
            return sweep_range(table, tasks, total, (1..=max_g).collect(), scratch)
                .expect("at least one candidate group count")
                .1;
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut scratch = LptScratch::default();
                        let mine: Vec<usize> = (1 + w..=max_g).step_by(workers).collect();
                        sweep_range(table, tasks, total, mine, &mut scratch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("sweep worker panicked"))
                .reduce(|a, b| {
                    // Smallest makespan; smallest g breaks ties — the same
                    // winner the sequential ascending sweep would pick.
                    match a.0.total_cmp(&b.0) {
                        std::cmp::Ordering::Less => a,
                        std::cmp::Ordering::Greater => b,
                        std::cmp::Ordering::Equal => {
                            if a.1 <= b.1 {
                                a
                            } else {
                                b
                            }
                        }
                    }
                })
                .expect("at least one candidate group count")
                .1
        })
    }
}

/// `std::thread::available_parallelism`, queried once per process (each
/// call re-reads cgroup limits, which is far too slow for a per-layer
/// decision).
fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1)
    })
}

/// Per-core speed prefix sums over the symbolic range: `cum[i]` is the
/// aggregate speed of symbolic cores `0..i`.  Symbolic cores beyond the
/// machine (a widened lower-level range can ask for them) count as nominal
/// speed.
fn speed_prefix(model: &CostModel<'_>, total: usize) -> Vec<f64> {
    let classes = model.classes();
    let physical = model.spec.total_cores();
    let mut cum = Vec::with_capacity(total + 1);
    cum.push(0.0);
    for c in 0..total {
        let s = if c < physical {
            classes.speed(classes.class_of(pt_machine::CoreId(c)))
        } else {
            1.0
        };
        cum.push(cum[c] + s);
    }
    cum
}

/// Partition the symbolic cores into `weights.len()` consecutive groups
/// whose aggregate speeds track the weights: group `l`'s boundary is the
/// first core index whose cumulative speed reaches the cumulative weight
/// share.  Every group keeps at least one core.  On a uniform machine with
/// equal weights and `grid = 1` this is as balanced as [`equal_partition`]
/// (sizes differ by at most one), though the one-larger groups may sit at
/// different indices — the homogeneous path never routes through here, so
/// the two partitions need not coincide bit for bit.
///
/// `grid > 1` snaps each cut to the nearest multiple of `grid` (the node
/// width) that keeps every group non-empty.  Groups that straddle node
/// boundaries pay inter-node links for their *internal* collectives, and on
/// real graphs that comm penalty outweighs a slightly better speed split —
/// a cut is only left off-grid when no admissible boundary exists.  With
/// more groups than nodes no partition can be node-aligned anyway — whole
/// early groups would crush the trailing ones against the one-core floor —
/// so snapping turns off entirely and the pure speed split applies.
fn speed_partition(cum: &[f64], weights: &[f64], grid: usize) -> Vec<usize> {
    let total = cum.len() - 1;
    let g = weights.len();
    assert!(g >= 1 && g <= total, "need 1 ≤ g ≤ total");
    assert!(grid >= 1, "grid is a node width");
    let grid = if g <= total / grid { grid } else { 1 };
    let wsum: f64 = weights.iter().filter(|w| w.is_finite()).sum();
    let equal = 1.0 / g as f64;
    let total_speed = cum[total];
    let mut sizes = Vec::with_capacity(g);
    let mut start = 0usize;
    let mut share = 0.0f64;
    for (l, &w) in weights.iter().enumerate().take(g - 1) {
        share += if wsum > 0.0 { w / wsum } else { equal };
        // A hair of relative tolerance so accumulated-share rounding (e.g.
        // 0.2 × 3 = 0.6000…01) cannot push a cut point one core past an
        // exact boundary.
        let target = total_speed * share * (1.0 - 1e-12);
        // Leave at least one core per remaining group.
        let cap = total - (g - l - 1);
        let mut end = (start + 1).min(cap);
        while end < cap && cum[end] < target {
            end += 1;
        }
        if grid > 1 {
            // Snap to the neighbouring node boundary whose aggregate speed
            // is closest to the target, if one is admissible.
            let mut snapped: Option<(f64, usize)> = None;
            for c in [end / grid * grid, end / grid * grid + grid] {
                if c > start && c <= cap {
                    let d = (cum[c] - target).abs();
                    if snapped.is_none_or(|(bd, _)| d < bd) {
                        snapped = Some((d, c));
                    }
                }
            }
            if let Some((_, c)) = snapped {
                end = c;
            }
        }
        sizes.push(end - start);
        start = end;
    }
    sizes.push(total - start);
    sizes
}

/// One candidate het partition: group sizes plus the speed class each group
/// is priced at (its slowest member's class).
struct HetGroups {
    sizes: Vec<usize>,
    class: Vec<usize>,
}

impl HetGroups {
    /// `g` consecutive groups of near-equal aggregate speed.
    fn equal_speed(model: &CostModel<'_>, cum: &[f64], g: usize) -> Self {
        let sizes = speed_partition(cum, &vec![1.0; g], model.spec.cores_per_node());
        let classes = model.classes();
        let physical = model.spec.total_cores();
        let mut class = Vec::with_capacity(g);
        let mut lo = 0usize;
        for &s in &sizes {
            let hi = lo + s;
            class.push(classes.slowest_in_range(lo.min(physical), hi.min(physical)));
            lo = hi;
        }
        HetGroups { sizes, class }
    }
}

/// The heterogeneity-aware greedy rule: tasks in decreasing class-0 time,
/// each to the group with the earliest class-adjusted finish time
/// `acc[l] + Tsymb(task, size_l, class_l)` (smallest index on ties).
/// Returns the layer makespan; `assignment` (when given) receives per-group
/// task indices into `tasks`.
fn het_assign(
    table: &CostTable<'_>,
    tasks: &[(TaskId, &MTask)],
    groups: &HetGroups,
    mut assignment: Option<&mut Vec<Vec<usize>>>,
) -> f64 {
    let g = groups.sizes.len();
    let mut order: Vec<(TotalF64, u32)> = tasks
        .iter()
        .enumerate()
        .map(|(i, (id, m))| (TotalF64(table.symbolic(*id, m, groups.sizes[0])), i as u32))
        .collect();
    order.sort_unstable_by(lpt_cmp);
    if let Some(asg) = assignment.as_deref_mut() {
        asg.clear();
        asg.resize_with(g, Vec::new);
    }
    let mut acc = vec![0.0f64; g];
    for &(_, idx) in &order {
        let idx = idx as usize;
        let (id, m) = tasks[idx];
        let mut best_l = 0usize;
        let mut best_finish = f64::INFINITY;
        for (l, &busy) in acc.iter().enumerate().take(g) {
            let finish = busy + table.symbolic_class(id, m, groups.sizes[l], groups.class[l]);
            if finish < best_finish {
                best_finish = finish;
                best_l = l;
            }
        }
        acc[best_l] = best_finish;
        if let Some(asg) = assignment.as_deref_mut() {
            asg[best_l].push(idx);
        }
    }
    acc.iter().copied().fold(0.0, f64::max)
}

/// Evaluate the LPT makespan of each candidate group count in `candidates`,
/// returning the best `(makespan, g)` (first wins ties, so pass candidates
/// in ascending order).
fn sweep_range(
    table: &CostTable<'_>,
    tasks: &[(TaskId, &MTask)],
    total: usize,
    candidates: Vec<usize>,
    scratch: &mut LptScratch,
) -> Option<(f64, usize)> {
    // Cheap path for small layers: the lower bound costs nearly as much as
    // the LPT run it tries to skip (both are two fills plus a linear scan),
    // so pruning only pays past this size.  Pruning never changes the
    // winner, so neither does skipping it.
    let prune = tasks.len() >= LB_PRUNE_MIN_TASKS;
    let mut best: Option<(f64, usize)> = None;
    for g in candidates {
        // A candidate whose lower bound cannot *strictly* beat the best
        // makespan can be skipped without affecting the winner (ties keep
        // the earlier, smaller g).
        if let Some((bt, _)) = best {
            if prune && candidate_lower_bound(table, tasks, g, total, scratch) >= bt {
                continue;
            }
        }
        let t_act = assign_lpt(table, tasks, g, total, scratch, None);
        if best.is_none_or(|(bt, _)| t_act < bt) {
            best = Some((t_act, g));
        }
    }
    best
}

/// A lower bound on the LPT makespan of candidate `g`: every task runs for
/// at least the cheaper of its two subset-width times, some group holds the
/// largest such task, and the busiest group is at least the average load.
fn candidate_lower_bound(
    table: &CostTable<'_>,
    tasks: &[(TaskId, &MTask)],
    g: usize,
    total: usize,
    scratch: &mut LptScratch,
) -> f64 {
    let base = total / g;
    let extra = total % g;
    let lo = scratch.lo.fill(table, tasks, base);
    let hi: &[f64] = if extra > 0 {
        scratch.hi.fill(table, tasks, base + 1)
    } else {
        lo
    };
    let mut largest = 0.0f64;
    let mut sum = 0.0f64;
    for (&l, &h) in lo.iter().zip(hi) {
        let m = l.min(h);
        largest = largest.max(m);
        sum += m;
    }
    largest.max(sum / g as f64)
}

/// The modified greedy assignment (Algorithm 1 line 10): the `total` cores
/// are split into `g` equal subsets ([`equal_partition`]), then tasks in
/// decreasing symbolic time each go to the subset with the smallest
/// accumulated time (smallest index on ties).  Returns the layer makespan
/// `Tact`; when `assignment` is given it is filled with per-group task
/// *indices into `tasks`*.
///
/// An equal partition only produces two widths (`⌊total/g⌋` and
/// `⌈total/g⌉`), so the per-task times are gathered into two flat arrays up
/// front — cached in `scratch` across candidates, since the same widths
/// recur for many `g` — and the greedy loop is pure array arithmetic.
/// Group selection uses a linear scan for few groups and a binary min-heap
/// of `(accumulated time, group)` above [`LPT_HEAP_THRESHOLD`] — both pick
/// the identical group, so the result is independent of the strategy.
fn assign_lpt(
    table: &CostTable<'_>,
    tasks: &[(TaskId, &MTask)],
    g: usize,
    total: usize,
    scratch: &mut LptScratch,
    mut assignment: Option<&mut Vec<Vec<usize>>>,
) -> f64 {
    debug_assert!(g >= 1 && g <= total);
    let base = total / g;
    let extra = total % g;
    let LptScratch {
        order,
        order_width,
        lo,
        hi,
        acc,
        heap,
    } = scratch;
    // Times at the two subset widths; groups `l < extra` get `base + 1`.
    let lo_times: &[f64] = lo.fill(table, tasks, base);
    let hi_times: &[f64] = if extra > 0 {
        hi.fill(table, tasks, base + 1)
    } else {
        lo_times
    };

    // LPT order by decreasing time at the first subset's width, original
    // index breaking ties.
    let width0 = base + usize::from(extra > 0);
    if *order_width != width0 {
        let sort_times = if extra > 0 { hi_times } else { lo_times };
        if *order_width != usize::MAX && order.len() == sort_times.len() {
            // Sweep reuse: the scratch already holds this task list's
            // permutation at an adjacent width.  Keys are unique (distinct
            // indices), so re-keying in place and re-sorting with *any*
            // comparison sort reproduces exactly what a fresh
            // enumerate-and-sort would — and adjacent widths rank tasks
            // almost identically, so the re-keyed permutation is nearly
            // sorted and the adaptive stable sort (behind an is-sorted
            // fast path) does near-linear work instead of a full rebuild.
            for e in order.iter_mut() {
                e.0 = TotalF64(sort_times[e.1 as usize]);
            }
            if order
                .windows(2)
                .any(|w| lpt_cmp(&w[0], &w[1]) == std::cmp::Ordering::Greater)
            {
                order.sort_by(lpt_cmp);
            }
        } else {
            order.clear();
            order.extend(
                sort_times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (TotalF64(t), i as u32)),
            );
            order.sort_unstable_by(lpt_cmp);
        }
        *order_width = width0;
    }

    if let Some(asg) = assignment.as_deref_mut() {
        asg.clear();
        asg.resize_with(g, Vec::new);
    }
    acc.clear();
    acc.resize(g, 0.0);
    if g <= LPT_HEAP_THRESHOLD {
        for &(_, idx) in order.iter() {
            let idx = idx as usize;
            let l = (0..g).min_by(|&a, &b| acc[a].total_cmp(&acc[b])).unwrap();
            acc[l] += if l < extra {
                hi_times[idx]
            } else {
                lo_times[idx]
            };
            if let Some(asg) = assignment.as_deref_mut() {
                asg[l].push(idx);
            }
        }
    } else {
        heap.clear();
        heap.extend((0..g).map(|l| Reverse((TotalF64(0.0), l))));
        for &(_, idx) in order.iter() {
            let idx = idx as usize;
            // In-place update of the minimum: one sift instead of pop+push.
            let mut top = heap.peek_mut().expect("heap holds g groups");
            let Reverse((TotalF64(t), l)) = *top;
            let t = t + if l < extra {
                hi_times[idx]
            } else {
                lo_times[idx]
            };
            *top = Reverse((TotalF64(t), l));
            drop(top);
            acc[l] = t;
            if let Some(asg) = assignment.as_deref_mut() {
                asg[l].push(idx);
            }
        }
    }
    acc.iter().copied().fold(0.0, f64::max)
}

/// The pure data-parallel reference schedule: every task executes on all
/// cores, one after another (the `dp` program versions of §4.2).
#[derive(Debug, Clone, Copy)]
pub struct DataParallel;

impl DataParallel {
    /// Build the data-parallel schedule for a graph.
    pub fn schedule(graph: &TaskGraph, total_cores: usize) -> LayeredSchedule {
        let ls: Vec<LayerSchedule> = layers(graph)
            .into_iter()
            .map(|layer| LayerSchedule {
                group_sizes: vec![total_cores],
                assignments: vec![layer],
            })
            .collect();
        LayeredSchedule {
            total_cores,
            layers: ls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, Spec};

    /// EPOL-shaped one-time-step graph (paper Fig. 5): R chains of 1..R
    /// micro steps plus a combine task.
    fn epol_step_graph(r: usize, micro_work: f64, n_bytes: f64) -> TaskGraph {
        let spec = Spec::seq(vec![
            Spec::parfor(1..=r, |i| {
                Spec::for_loop(1..=i, |j| {
                    let mut s = Spec::task(MTask::with_comm(
                        format!("step({j},{i})"),
                        micro_work,
                        vec![CommOp::allgather(n_bytes, 1.0)],
                    ))
                    .uses(["eta"]);
                    if j > 1 {
                        s = s.uses([format!("V{i}")]);
                    }
                    s.defines([pt_mtask::DataRef::orthogonal(format!("V{i}"), n_bytes)])
                })
            }),
            Spec::task(MTask::with_comm(
                "combine",
                micro_work,
                vec![CommOp::bcast(n_bytes, 1.0)],
            ))
            .uses((1..=r).map(|i| format!("V{i}")))
            .defines([pt_mtask::DataRef::replicated("eta", n_bytes)]),
        ]);
        spec.compile_flat()
    }

    #[test]
    fn epol_schedule_balances_chains() {
        // Paper §4.2: for EPOL the scheduler pairs approximation i with
        // R−i+1 so every subset computes the same number of micro steps.
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let r = 4;
        let g = epol_step_graph(r, 1e9, 8_000.0);
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(r / 2)
            .schedule(&g);
        assert!(sched.validate().is_ok());
        // First layer: two groups; micro-step counts must be equal (1+4 and
        // 2+3).
        let l0 = &sched.layers[0];
        assert_eq!(l0.num_groups(), 2);
        let counts: Vec<usize> = l0.assignments.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![5, 5]);
        // Equal work ⇒ equal adjusted sizes.
        assert_eq!(l0.group_sizes[0], l0.group_sizes[1]);
    }

    #[test]
    fn sweep_finds_interior_group_count_for_epol() {
        let spec = platforms::chic().with_nodes(16);
        let model = CostModel::new(&spec);
        let g = epol_step_graph(8, 2e9, 800_000.0);
        let sched = LayerScheduler::new(&model).schedule(&g);
        let g0 = sched.layers[0].num_groups();
        assert!(
            g0 > 1 && g0 <= 8,
            "expected a task-parallel split, got {g0} groups"
        );
    }

    #[test]
    fn schedule_is_deterministic_across_runs_and_workers() {
        // The sweep's pruning, cached LPT orders and parallel workers must
        // not perturb the result: repeated runs and the serial vs threaded
        // sweep all produce bit-identical schedules — for the contracted
        // EPOL step and for one layer as wide as BT-MZ class E's.
        let spec = platforms::chic().with_nodes(16);
        let model = CostModel::new(&spec);
        let g = epol_step_graph(8, 2e9, 800_000.0);
        let serial = LayerScheduler::new(&model).with_sweep_workers(1);
        let a = serial.schedule(&g);
        let b = serial.schedule(&g);
        assert_eq!(a, b, "identical calls must produce identical schedules");
        let threaded = LayerScheduler::new(&model)
            .with_sweep_workers(4)
            .schedule(&g);
        assert_eq!(a, threaded, "parallel sweep must match the serial sweep");

        // Coarse work buckets force many exact time ties in the LPT order.
        let mut wide = TaskGraph::new();
        for i in 0..4100u32 {
            let bucket = f64::from((i * 7919) % 97);
            wide.add_task(MTask::with_comm(
                format!("t{i}"),
                1e6 * (1.0 + bucket),
                vec![CommOp::allgather(1024.0 * f64::from(1 + i % 13), 1.0)],
            ));
        }
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let a = LayerScheduler::new(&model)
            .with_sweep_workers(1)
            .schedule(&wide);
        assert_eq!(a.layers.len(), 1);
        assert_eq!(
            a.layers[0].assignments.iter().map(Vec::len).sum::<usize>(),
            4100
        );
        let threaded = LayerScheduler::new(&model)
            .with_sweep_workers(4)
            .schedule(&wide);
        assert_eq!(a, threaded, "parallel sweep must match the serial sweep");
    }

    #[test]
    fn lpt_order_reuse_across_widths_is_bit_identical() {
        // The g-sweep walks many adjacent widths over one task list; the
        // scratch re-keys and adaptively re-sorts its existing permutation
        // instead of rebuilding it per candidate.  Sweeping every g with
        // one shared scratch must be bit-identical to a fresh scratch per
        // candidate, makespan and assignment alike.
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let tasks: Vec<MTask> = (0..23)
            .map(|i| {
                MTask::with_comm(
                    format!("t{i}"),
                    5e8 + (i as f64) * ((i % 5) as f64) * 1e7,
                    vec![CommOp::allgather(4096.0 + i as f64 * 512.0, 1.0)],
                )
            })
            .collect();
        let list: Vec<(TaskId, &MTask)> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i), t))
            .collect();
        let total = 32;
        let table = CostTable::with_width(&model, list.len(), total);
        let mut shared = LptScratch::default();
        let mut asg_shared = Vec::new();
        let mut asg_fresh = Vec::new();
        // Walk down like a sweep worker (widths increase), then back up, so
        // the reuse path sees both directions of near-sortedness.
        let gs: Vec<usize> = (1..=total).chain((1..=total).rev()).collect();
        for g in gs {
            let t_shared = assign_lpt(&table, &list, g, total, &mut shared, Some(&mut asg_shared));
            let mut fresh = LptScratch::default();
            let t_fresh = assign_lpt(&table, &list, g, total, &mut fresh, Some(&mut asg_fresh));
            assert_eq!(t_shared.to_bits(), t_fresh.to_bits(), "g={g}");
            assert_eq!(asg_shared, asg_fresh, "g={g}");
        }
    }

    #[test]
    fn schedule_covers_every_nonstructural_task() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let g = epol_step_graph(4, 1e8, 8_000.0);
        let sched = LayerScheduler::new(&model).schedule(&g);
        let scheduled: std::collections::HashSet<TaskId> = sched
            .layers
            .iter()
            .flat_map(|l| l.assignments.iter().flatten().copied())
            .collect();
        for t in g.task_ids() {
            if !g.task(t).is_structural() {
                assert!(scheduled.contains(&t), "{:?} missing", g.task(t).name);
            }
        }
    }

    #[test]
    fn data_parallel_uses_all_cores_everywhere() {
        let g = epol_step_graph(4, 1e8, 8_000.0);
        let sched = DataParallel::schedule(&g, 32);
        assert!(sched.validate().is_ok());
        for layer in &sched.layers {
            assert_eq!(layer.group_sizes, vec![32]);
        }
    }

    #[test]
    fn adjustment_gives_longer_chains_more_cores() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let g = epol_step_graph(4, 1e9, 8_000.0);
        // Force 4 groups: chains of 1..4 micro steps each in its own group
        // (Fig. 6 right).
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(4)
            .schedule(&g);
        let l0 = &sched.layers[0];
        // Collect (micro steps, size) pairs and check monotonicity.
        let mut pairs: Vec<(usize, usize)> = l0
            .assignments
            .iter()
            .zip(&l0.group_sizes)
            .map(|(ts, &s)| (ts.len(), s))
            .collect();
        pairs.sort();
        for w in pairs.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "group with more micro steps must not get fewer cores: {pairs:?}"
            );
        }
    }

    #[test]
    fn without_adjustment_keeps_equal_sizes() {
        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let g = epol_step_graph(4, 1e9, 8_000.0);
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(4)
            .without_adjustment()
            .schedule(&g);
        let sizes = &sched.layers[0].group_sizes;
        assert!(sizes.iter().all(|&s| s == sizes[0]));
    }

    #[test]
    fn lpt_balances_unequal_independent_tasks() {
        // 6 independent tasks with works 5,4,3,3,2,1 on 2 groups: LPT gives
        // 5+3+1 = 9 vs 4+3+2 = 9.
        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let mut g = TaskGraph::new();
        for (i, w) in [5.0, 4.0, 3.0, 3.0, 2.0, 1.0].iter().enumerate() {
            g.add_task(MTask::compute(format!("t{i}"), w * 1e9));
        }
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(2)
            .schedule(&g);
        let l0 = &sched.layers[0];
        let work: Vec<f64> = l0
            .assignments
            .iter()
            .map(|ts| ts.iter().map(|t| g.task(*t).work).sum())
            .collect();
        assert!((work[0] - work[1]).abs() < 1e-6, "{work:?}");
    }

    #[test]
    fn single_task_layer_gets_all_cores() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let mut g = TaskGraph::new();
        g.add_task(MTask::compute("only", 1e9));
        let sched = LayerScheduler::new(&model).schedule(&g);
        assert_eq!(sched.layers.len(), 1);
        assert_eq!(sched.layers[0].group_sizes, vec![16]);
    }

    #[test]
    fn speed_partition_is_balanced_on_uniform_machines() {
        // Unit-speed prefix sums with equal weights: sizes sum to the
        // total and are balanced to within one core, like
        // `equal_partition` (the one-larger groups may differ in index).
        for total in [1usize, 7, 10, 16, 100] {
            let cum: Vec<f64> = (0..=total).map(|i| i as f64).collect();
            for g in 1..=total.min(12) {
                let sizes = speed_partition(&cum, &vec![1.0; g], 1);
                assert_eq!(sizes.iter().sum::<usize>(), total, "total={total} g={g}");
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(min >= 1 && max - min <= 1, "total={total} g={g}: {sizes:?}");
            }
        }
    }

    #[test]
    fn het_partition_gives_slow_groups_more_cores() {
        // 8 nodes (32 cores), last 2 nodes at half speed: an equal-speed
        // split into 2 groups puts the boundary past the midpoint, so the
        // group containing the slow tail is the larger one.
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5);
        let model = pt_cost::CostModel::new(&spec);
        let cum = speed_prefix(&model, 32);
        let sizes = speed_partition(&cum, &[1.0, 1.0], spec.cores_per_node());
        assert_eq!(sizes.iter().sum::<usize>(), 32);
        assert!(
            sizes[1] > sizes[0],
            "slow-tail group must get more cores: {sizes:?}"
        );
        // And its priced class is the slow one.
        let groups = HetGroups::equal_speed(&model, &cum, 2);
        assert_eq!(groups.class, vec![0, 1]);
    }

    #[test]
    fn het_partition_snaps_to_node_boundaries() {
        // 8 CHiC nodes (4 cores each), slow tail: every cut of an aligned
        // candidate lands on a node boundary, so each group's internal
        // collectives stay intra-node.
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5);
        let model = pt_cost::CostModel::new(&spec);
        let cpn = spec.cores_per_node();
        let cum = speed_prefix(&model, 32);
        for g in 1..=8 {
            let sizes = speed_partition(&cum, &vec![1.0; g], cpn);
            assert_eq!(sizes.iter().sum::<usize>(), 32, "g={g}");
            let mut cut = 0usize;
            for &s in &sizes {
                cut += s;
                assert!(cut.is_multiple_of(cpn), "g={g}: off-grid cut at {cut}");
            }
        }
        // More groups than nodes: no partition can be aligned, snapping
        // turns off, and the pure speed split still covers every core.
        let sizes = speed_partition(&cum, &[1.0; 12], cpn);
        assert_eq!(sizes.iter().sum::<usize>(), 32);
        assert!(sizes.iter().all(|&s| s >= 1));
        assert!(sizes
            .iter()
            .scan(0, |c, s| {
                *c += s;
                Some(*c)
            })
            .any(|c| !c.is_multiple_of(cpn)));
    }

    #[test]
    fn het_lpt_balances_by_adjusted_finish_times() {
        // 2 equal tasks, fixed g = 2 on a machine whose second half is
        // slow: the het greedy puts one task per group (balanced adjusted
        // finishes), and adjustment keeps the slow group bigger.
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(4, 0.5);
        let model = pt_cost::CostModel::new(&spec);
        let mut g = TaskGraph::new();
        g.add_task(MTask::compute("a", 1e9));
        g.add_task(MTask::compute("b", 1e9));
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(2)
            .schedule(&g);
        let l0 = &sched.layers[0];
        let counts: Vec<usize> = l0.assignments.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![1, 1]);
        assert!(
            l0.group_sizes[1] > l0.group_sizes[0],
            "equal work on a slow group needs more cores: {:?}",
            l0.group_sizes
        );
        assert_eq!(l0.group_sizes.iter().sum::<usize>(), 32);
    }

    #[test]
    fn het_path_is_off_on_uniform_machines_and_forceable() {
        let spec = platforms::chic().with_nodes(16);
        let model = CostModel::new(&spec);
        let g = epol_step_graph(8, 2e9, 800_000.0);
        assert!(!LayerScheduler::new(&model).het_active());
        let forced = LayerScheduler::new(&model).with_het_aware(true);
        assert!(forced.het_active());
        // Forced het on a uniform machine is a valid schedule (not
        // necessarily identical: the greedy keys differ).
        assert!(forced.schedule(&g).validate().is_ok());
        // A het machine turns the path on by default and off by force.
        let het_spec = platforms::chic().with_nodes(16).with_slow_nodes(4, 0.5);
        let het_model = CostModel::new(&het_spec);
        assert!(LayerScheduler::new(&het_model).het_active());
        assert!(!LayerScheduler::new(&het_model)
            .with_het_aware(false)
            .het_active());
        // Forcing blind on a het machine reproduces the uniform-machine
        // schedule (same graph, same totals).
        let blind = LayerScheduler::new(&het_model)
            .with_het_aware(false)
            .schedule(&g);
        let uniform = LayerScheduler::new(&model).schedule(&g);
        assert_eq!(blind, uniform);
    }

    #[test]
    fn chain_members_stay_in_one_group_in_order() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let g = epol_step_graph(4, 1e8, 8_000.0);
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(2)
            .schedule(&g);
        // Find the group containing step(1,4): it must contain 4 micro
        // steps of approximation 4 in ascending j order.
        let l0 = &sched.layers[0];
        for tasks in &l0.assignments {
            let names: Vec<&str> = tasks.iter().map(|t| g.task(*t).name.as_str()).collect();
            let steps4: Vec<usize> = names
                .iter()
                .enumerate()
                .filter(|(_, n)| n.ends_with(",4)"))
                .map(|(i, _)| i)
                .collect();
            if !steps4.is_empty() {
                assert_eq!(steps4.len(), 4, "chain must not split: {names:?}");
                for w in steps4.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "chain order broken: {names:?}");
                }
            }
        }
    }
}

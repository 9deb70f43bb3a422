//! Collective communication and task execution cost model.

use crate::context::CommContext;
use pt_machine::{ClusterSpec, CoreId, LinkParams};
use pt_mtask::{CollectiveKind, CommOp, MTask};
use std::cell::{Cell, RefCell};

/// Per-member block-size threshold above which the allgather uses the
/// ring algorithm (mirrors the large-message switch of MVAPICH/MPT, which
/// the paper identifies as the source of the consecutive-mapping
/// advantage, §4.4); below it the log-depth recursive doubling is used.
pub const DEFAULT_RING_THRESHOLD: f64 = 4.0 * 1024.0;

/// Message size above which a broadcast uses the scatter + allgather (van
/// de Geijn) algorithm instead of a binomial tree.
pub const DEFAULT_SAG_BCAST_THRESHOLD: f64 = 64.0 * 1024.0;

/// The distinct core-speed classes of a machine, precomputed for O(log n)
/// range queries.
///
/// Class indices are *descending* speeds: class 0 is the fastest (nominal,
/// factor `1.0` on every machine built from the presets), higher classes
/// are slower.  Homogeneous machines collapse to the single class `[1.0]`
/// and skip all per-core bookkeeping.
#[derive(Debug, Clone)]
pub struct SpeedClasses {
    /// Distinct core speeds, descending.
    speeds: Vec<f64>,
    /// Class index of every core (empty when uniform).
    class_of_core: Vec<u32>,
    /// Sorted core positions per class (empty when uniform).
    positions: Vec<Vec<u32>>,
}

impl SpeedClasses {
    /// Precompute the classes of a machine.
    pub fn build(spec: &ClusterSpec) -> SpeedClasses {
        if spec.is_uniform() {
            return SpeedClasses {
                speeds: vec![1.0],
                class_of_core: Vec::new(),
                positions: Vec::new(),
            };
        }
        let speeds = spec.speed_classes();
        let mut class_of_core = Vec::with_capacity(spec.total_cores());
        let mut positions = vec![Vec::new(); speeds.len()];
        for c in spec.all_cores() {
            let s = spec.core_speed(c);
            let k = speeds
                .iter()
                .position(|&v| v.to_bits() == s.to_bits())
                .expect("core speed is one of the machine's classes");
            class_of_core.push(k as u32);
            positions[k].push(c.0 as u32);
        }
        SpeedClasses {
            speeds,
            class_of_core,
            positions,
        }
    }

    /// `true` iff the machine has a single class.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.speeds.len() == 1
    }

    /// Number of classes (1 for homogeneous machines).
    #[inline]
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// `len() == 0` is impossible; provided for clippy symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Speed factor of a class.
    #[inline]
    pub fn speed(&self, class: usize) -> f64 {
        self.speeds[class]
    }

    /// Class of a core.
    #[inline]
    pub fn class_of(&self, core: CoreId) -> usize {
        if self.class_of_core.is_empty() {
            0
        } else {
            self.class_of_core[core.0] as usize
        }
    }

    /// The slowest (highest-index) class with a core in `lo..hi` — the
    /// class a *symbolic* candidate range must be priced at, since a
    /// data-parallel task finishes with its slowest core.  O(K log n).
    pub fn slowest_in_range(&self, lo: usize, hi: usize) -> usize {
        if self.class_of_core.is_empty() || lo >= hi {
            return 0;
        }
        for k in (0..self.positions.len()).rev() {
            let p = self.positions[k].partition_point(|&c| (c as usize) < lo);
            if p < self.positions[k].len() && (self.positions[k][p] as usize) < hi {
                return k;
            }
        }
        0
    }

    /// The slowest speed factor among the given cores (`1.0` when uniform).
    pub fn min_speed(&self, cores: &[CoreId]) -> f64 {
        if self.class_of_core.is_empty() {
            return 1.0;
        }
        let worst = cores.iter().map(|&c| self.class_of(c)).max().unwrap_or(0);
        self.speeds[worst]
    }
}

/// The mapping-aware cost model for one cluster.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    /// The platform.
    pub spec: &'a ClusterSpec,
    /// Allgather algorithm switch point (per-member block bytes).
    pub ring_threshold: f64,
    /// Precomputed core-speed classes of `spec`.
    classes: SpeedClasses,
    /// The link every symbolic cost charges (see
    /// [`task_time_symbolic`](Self::task_time_symbolic)), derived from
    /// `spec` once.
    pub(crate) symbolic_link: LinkParams,
}

impl<'a> CostModel<'a> {
    /// Model with default algorithm thresholds.
    pub fn new(spec: &'a ClusterSpec) -> Self {
        // Default mapping pattern `dmp`: slowest link for everything, with
        // worst-case NIC sharing (all cores of a node sending at once), so
        // the symbolic cost is an upper bound for *any* physical mapping.
        let mut symbolic_link = spec.slowest_link();
        symbolic_link.bytes_per_s = symbolic_link
            .bytes_per_s
            .min(spec.nic_bytes_per_s / spec.cores_per_node() as f64);
        CostModel {
            spec,
            ring_threshold: DEFAULT_RING_THRESHOLD,
            classes: SpeedClasses::build(spec),
            symbolic_link,
        }
    }

    /// The machine's speed classes.
    #[inline]
    pub fn classes(&self) -> &SpeedClasses {
        &self.classes
    }

    /// `true` iff every core of the machine runs at nominal speed (the
    /// paper's homogeneous setting — all the fast paths key off this).
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.classes.is_uniform()
    }

    /// Point-to-point transfer time between two cores under NIC contention.
    pub fn p2p(&self, ctx: &CommContext, a: CoreId, b: CoreId, bytes: f64) -> f64 {
        if a == b {
            return 0.0;
        }
        self.labelled_p2p(ctx, label(self.spec, a), label(self.spec, b), bytes)
    }

    /// [`p2p`](Self::p2p) between two distinct cores given their
    /// `(node, processor)` labels.
    pub(crate) fn labelled_p2p(
        &self,
        ctx: &CommContext,
        (na, pa): (u32, u32),
        (nb, pb): (u32, u32),
        bytes: f64,
    ) -> f64 {
        if na != nb {
            let link = self.spec.inter_node;
            let share = ctx.sharing(na as usize).max(ctx.sharing(nb as usize));
            let eff_bw = link.bytes_per_s.min(self.spec.nic_bytes_per_s / share);
            link.latency_s + bytes / eff_bw
        } else if pa != pb {
            self.spec.intra_node.transfer_time(bytes)
        } else {
            self.spec.intra_processor.transfer_time(bytes)
        }
    }

    /// Time of one communication step of `pattern` on the group, in which
    /// every rank pair transfers `bytes` simultaneously: the step's shape
    /// priced at `bytes`.  With `shapes`, each shape is worked out once per
    /// group and pattern; without, afresh (one operation never repeats a
    /// pattern, so one-off pricing keeps nothing).
    fn step(
        &self,
        g: &mut Group,
        shapes: Option<&mut GroupShapes>,
        pattern: Pattern,
        bytes: f64,
    ) -> f64 {
        let shape = match shapes {
            None => g.shape(self.spec, pattern),
            Some(shapes) => match shapes.0.iter().find(|(p, _)| *p == pattern) {
                Some(&(_, shape)) => shape,
                None => {
                    let shape = g.shape(self.spec, pattern);
                    shapes.0.push((pattern, shape));
                    shape
                }
            },
        };
        shape.time(self.spec, bytes)
    }

    /// One operation of `kind` moving `bytes` on a group: its steps,
    /// priced on the group's labels and, if given, the shapes already in
    /// `shapes`.
    fn group_op(
        &self,
        g: &mut Group,
        mut shapes: Option<&mut GroupShapes>,
        kind: CollectiveKind,
        bytes: f64,
    ) -> f64 {
        let q = g.cores.len();
        self.op_steps(kind, q, bytes, &mut |p, b| {
            self.step(g, shapes.as_deref_mut(), p, b)
        })
    }

    /// One operation of `kind` moving `bytes` on `cores`, labelled and
    /// shaped afresh.
    fn fresh_op(
        &self,
        ctx: &CommContext,
        cores: &[CoreId],
        kind: CollectiveKind,
        bytes: f64,
    ) -> f64 {
        self.group_op(&mut Group::new(ctx, cores), None, kind, bytes)
    }

    /// One operation of `kind` moving `bytes` over `q` ranks, as the sum
    /// of its steps, each priced by `step(pattern, bytes)`.
    fn op_steps(
        &self,
        kind: CollectiveKind,
        q: usize,
        bytes: f64,
        step: &mut impl FnMut(Pattern, f64) -> f64,
    ) -> f64 {
        match kind {
            CollectiveKind::Broadcast => self.bcast_steps(q, bytes, step),
            CollectiveKind::Allgather => self.allgather_steps(q, bytes, step),
            CollectiveKind::Allreduce => allreduce_steps(q, bytes, step),
            CollectiveKind::Barrier => allreduce_steps(q, 8.0, step),
            CollectiveKind::NeighborExchange => neighbor_steps(q, bytes, step),
        }
    }

    /// Broadcast of `bytes` from `cores[0]` to the whole group.
    ///
    /// Small messages use a binomial tree over rank distances (round `k`
    /// pairs rank `i` with `i + 2^k`); large messages use the van de Geijn
    /// scatter + allgather scheme real MPI libraries switch to, whose
    /// allgather phase inherits the ring's mapping sensitivity.
    pub fn bcast(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        self.fresh_op(ctx, cores, CollectiveKind::Broadcast, bytes)
    }

    fn bcast_steps(&self, q: usize, bytes: f64, step: &mut impl FnMut(Pattern, f64) -> f64) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        let mut time = 0.0;
        if bytes >= DEFAULT_SAG_BCAST_THRESHOLD && q > 4 {
            // Binomial scatter: the root first ships half the payload to
            // the far half, then the halves recurse (payload and reach
            // halve together).
            let mut reach = q.next_power_of_two() / 2;
            let mut chunk = bytes / 2.0;
            while reach >= 1 {
                time += step(Pattern::Scatter(reach), chunk);
                chunk /= 2.0;
                reach /= 2;
            }
            return time + self.allgather_steps(q, bytes, step);
        }
        let mut reach = 1usize;
        while reach < q {
            time += step(Pattern::Binomial(reach), bytes);
            reach *= 2;
        }
        time
    }

    /// Allgather (*multi-broadcast*) over the group; `total_bytes` is the
    /// gathered volume (each member contributes `total_bytes / q`).
    ///
    /// Large totals use the ring algorithm: `q−1` steps in which every rank
    /// sends its current block to the next rank in rank order — under a
    /// consecutive mapping these neighbour links are almost all intra-node.
    /// Small totals use recursive doubling (log-depth, distance-doubling
    /// partners).
    pub fn allgather(&self, ctx: &CommContext, cores: &[CoreId], total_bytes: f64) -> f64 {
        self.fresh_op(ctx, cores, CollectiveKind::Allgather, total_bytes)
    }

    fn allgather_steps(
        &self,
        q: usize,
        total_bytes: f64,
        step: &mut impl FnMut(Pattern, f64) -> f64,
    ) -> f64 {
        if q <= 1 {
            return 0.0;
        }
        let block = total_bytes / q as f64;
        if block >= self.ring_threshold && q > 2 {
            // All q−1 steps use the same neighbour links simultaneously;
            // each step moves one block per rank to its successor.
            return (q - 1) as f64 * step(Pattern::Ring, block);
        }
        // Recursive doubling on ⌈log2 q⌉ rounds; non-power-of-two groups pay
        // an extra fix-up round (as in MPI implementations).
        let mut time = 0.0;
        let mut dist = 1usize;
        let mut chunk = block;
        while dist < q {
            time += step(Pattern::Doubling(dist), chunk);
            chunk *= 2.0;
            dist *= 2;
        }
        if !q.is_power_of_two() {
            // Fix-up: one extra exchange of the remainder blocks.
            time += step(Pattern::Ring, block);
        }
        time
    }

    /// Allreduce over the group: recursive-doubling exchange of the full
    /// vector per round, ⌈log2 q⌉ rounds.  Round `r` always pairs rank 0
    /// with rank `2^r < q`, so no round is empty.
    pub fn allreduce(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        self.fresh_op(ctx, cores, CollectiveKind::Allreduce, bytes)
    }

    /// Pure synchronisation: an 8-byte allreduce.
    pub fn barrier(&self, ctx: &CommContext, cores: &[CoreId]) -> f64 {
        self.allreduce(ctx, cores, 8.0)
    }

    /// Halo exchange with both rank neighbours.
    pub fn neighbor_exchange(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        self.fresh_op(ctx, cores, CollectiveKind::NeighborExchange, bytes)
    }

    /// Time of a single internal communication operation on a group.
    pub fn comm_op(&self, ctx: &CommContext, cores: &[CoreId], op: &CommOp) -> f64 {
        self.fresh_op(ctx, cores, op.kind, op.bytes) * op.count
    }

    /// `T(M, q, mp)`: full execution time of an M-task on the given physical
    /// cores (the mapping pattern *is* the identity of those cores).
    pub fn task_time(&self, ctx: &CommContext, task: &MTask, cores: &[CoreId]) -> f64 {
        if useful_cores(task, cores).is_empty() {
            return 0.0;
        }
        self.compute_share(task, cores) + self.comm_share(ctx, task, cores, None)
    }

    /// The communication part of [`task_time`](Self::task_time): every
    /// internal operation of `task` on its useful cores, the group
    /// labelled at most once for all of them.
    ///
    /// A caller pricing many tasks on one group passes the same `shapes`
    /// for every call on those useful cores in that context, so each step
    /// pattern is worked out once; without, each is worked out afresh.
    pub fn comm_share(
        &self,
        ctx: &CommContext,
        task: &MTask,
        cores: &[CoreId],
        mut shapes: Option<&mut GroupShapes>,
    ) -> f64 {
        let useful = useful_cores(task, cores);
        if useful.len() < 2 {
            // A lone rank has no pairs: every operation takes no time, and
            // the sum is the one a step-by-step pricing returns.
            return task.comm.iter().map(|op| 0.0 * op.count).sum();
        }
        let mut g = Group::new(ctx, useful);
        task.comm
            .iter()
            .map(|op| self.group_op(&mut g, shapes.as_deref_mut(), op.kind, op.bytes) * op.count)
            .sum()
    }

    /// The compute part of [`task_time`](Self::task_time) on the same
    /// mapped cores: identical capping and slowest-core speed division, so
    /// simulators can subtract it from the total to report the
    /// communication share without re-deriving the speed logic.
    pub fn compute_share(&self, task: &MTask, cores: &[CoreId]) -> f64 {
        let useful = useful_cores(task, cores);
        if useful.is_empty() {
            return 0.0;
        }
        let mut compute = self.spec.compute_time(task.work) / useful.len() as f64;
        if !self.classes.is_uniform() {
            // Data-parallel work splits evenly, so the task finishes with
            // its slowest core.
            compute /= self.classes.min_speed(useful);
        }
        compute
    }

    /// Concurrent allgathers of several groups (the Multi-Allgather pattern
    /// of the Intel MPI benchmark, and the orthogonal exchange of the ODE
    /// solvers): every group runs its allgather at the same time, sharing
    /// node NICs.  Returns the slowest group's time.
    pub fn multi_allgather<G: AsRef<[CoreId]>>(&self, groups: &[G], total_bytes: f64) -> f64 {
        let ctx = CommContext::from_groups(self.spec, groups);
        groups
            .iter()
            .map(|g| self.allgather(&ctx, g.as_ref(), total_bytes))
            .fold(0.0, f64::max)
    }
}

/// The `(node, processor)` of a core, both machine-wide: two cores share
/// a node, or a processor, exactly when these labels match.
pub(crate) fn label(spec: &ClusterSpec, core: CoreId) -> (u32, u32) {
    let proc = div(core.0, spec.cores_per_processor);
    let node = div(proc, spec.processors_per_node);
    let fits = "a machine has fewer than 2^32 processors";
    (
        u32::try_from(node).expect(fits),
        u32::try_from(proc).expect(fits),
    )
}

/// `n / d`, by a shift when `d` is a power of two, as on every preset
/// machine.  Labelling is the per-rank work of pricing a wide group, and
/// plain division there made cold EPOL R = 8 plans at P = 4096 about a
/// fifth slower on a 2-vCPU VM.
#[inline]
fn div(n: usize, d: usize) -> usize {
    if d.is_power_of_two() {
        n >> d.trailing_zeros()
    } else {
        n / d
    }
}

/// The cores of a group that take part in `task`: all of them, or the
/// first `max_cores`.
fn useful_cores<'c>(task: &MTask, cores: &'c [CoreId]) -> &'c [CoreId] {
    match task.max_cores {
        Some(cap) => &cores[..cores.len().min(cap)],
        None => cores,
    }
}

/// Allreduce: a recursive-doubling exchange of the full vector per round.
fn allreduce_steps(q: usize, bytes: f64, step: &mut impl FnMut(Pattern, f64) -> f64) -> f64 {
    let mut time = 0.0;
    let mut dist = 1usize;
    while dist < q {
        time += step(Pattern::Doubling(dist), bytes);
        dist *= 2;
    }
    time
}

/// Halo exchange: one step with both rank neighbours, paid twice.
fn neighbor_steps(q: usize, bytes: f64, step: &mut impl FnMut(Pattern, f64) -> f64) -> f64 {
    if q <= 1 {
        return 0.0;
    }
    2.0 * step(Pattern::Neighbour, bytes)
}

/// Which rank pairs of a `q`-rank group transfer in one step.  Every
/// collective is a sequence of these, and a step's shape depends on its
/// pattern and the group only, never on the bytes moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    /// Every rank with its successor, both ways (the halo exchange).
    Neighbour,
    /// Every rank to its successor, the last to the first.
    Ring,
    /// Every recursive-doubling pair `(i, i + d)` with bit `d` of `i`
    /// clear, both ways.
    Doubling(usize),
    /// Ranks `0..min(r, q − r)` to the rank `r` above (a binomial
    /// broadcast round).
    Binomial(usize),
    /// Every rank below `q − r` with bit `r` clear to the rank `r` above
    /// (a binomial scatter round).
    Scatter(usize),
}

impl Pattern {
    fn both_ways(self) -> bool {
        matches!(self, Pattern::Neighbour | Pattern::Doubling(_))
    }

    /// Call `f(a, b)` for every pair, once.
    fn for_each_pair(self, q: usize, mut f: impl FnMut(usize, usize)) {
        match self {
            Pattern::Neighbour => (0..q - 1).for_each(|i| f(i, i + 1)),
            Pattern::Ring => (0..q).for_each(|i| f(i, if i + 1 == q { 0 } else { i + 1 })),
            // `d` and `r` are powers of two: the ranks with that bit clear
            // are the first halves of the aligned blocks of `2d`.
            Pattern::Doubling(d) | Pattern::Scatter(d) => {
                let mut base = 0;
                while base + d < q {
                    (base..(base + d).min(q - d)).for_each(|i| f(i, i + d));
                    base += 2 * d;
                }
            }
            Pattern::Binomial(r) => (0..r.min(q - r)).for_each(|i| f(i, i + r)),
        }
    }
}

/// What the time of one step depends on besides the bytes moved: which
/// tree levels its pairs cross, and the busiest sending and receiving NIC
/// load (`flows · sharers`) of its crossing pairs.
#[derive(Debug, Clone, Copy)]
struct StepShape {
    same_proc: bool,
    same_node: bool,
    cross: bool,
    hot_out: f64,
    hot_in: f64,
}

impl StepShape {
    /// The step's time when every pair moves `bytes`.
    ///
    /// Crossing flows that leave or enter the same node share that node's
    /// NIC: the effective bandwidth of a flow is
    /// `min(link, nic / (flows_on_src_nic · sharers), nic / (flows_on_dst_nic · sharers))`.
    /// This intra-collective contention is what makes a ring allgather over
    /// scattered cores slow — every rank sends cross-node at once — while a
    /// consecutive layout crosses each node boundary exactly once.
    ///
    /// The step lasts as long as its slowest pair.  A pair inside a node
    /// costs its level's constant.  A crossing pair costs
    /// `latency + bytes / eff`, which can only grow as `eff` shrinks, and
    /// `nic / x` can only shrink as `x` grows; IEEE rounding keeps both
    /// monotone.  So the slowest crossing pair is priced once, at the
    /// largest `flows · sharers` of any sending and of any receiving node,
    /// and that one evaluation equals the per-pair maximum to the bit.
    fn time(&self, spec: &ClusterSpec, bytes: f64) -> f64 {
        let mut worst = 0.0f64;
        if self.same_proc {
            worst = worst.max(spec.intra_processor.transfer_time(bytes));
        }
        if self.same_node {
            worst = worst.max(spec.intra_node.transfer_time(bytes));
        }
        if self.cross {
            let link = spec.inter_node;
            let nic = spec.nic_bytes_per_s;
            let eff = link
                .bytes_per_s
                .min(nic / self.hot_out)
                .min(nic / self.hot_in);
            worst = worst.max(link.latency_s + bytes / eff);
        }
        worst
    }
}

/// The step shapes of one mapped group in one communication context, by
/// pair pattern: a few words per pattern, kept by a caller that prices
/// many operations on the same useful cores (see
/// [`CostModel::comm_share`]).  A shape is exact for any message size, so
/// the group's ranks are labelled only when a new pattern comes up.
#[derive(Debug, Default)]
pub struct GroupShapes(Vec<(Pattern, StepShape)>);

/// Work done by the collective and Block-redistribution pricing on one
/// thread: exact counts that depend only on what was priced, not on the
/// host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PricingWork {
    /// Ranks of collective groups given their `(node, processor)` labels.
    pub ranks_labelled: u64,
    /// Step shapes worked out from a group's labels.
    pub step_shapes: u64,
    /// Block-redistribution rank pairs priced one by one: the partial
    /// blocks at either end of a narrower rank's band, and the whole
    /// blocks on its own node.
    pub block_pairs: u64,
    /// Node runs of whole blocks on a foreign node that a Block
    /// redistribution summed from one price.
    pub block_runs: u64,
}

thread_local! {
    static WORK: Cell<PricingWork> = const {
        Cell::new(PricingWork {
            ranks_labelled: 0,
            step_shapes: 0,
            block_pairs: 0,
            block_runs: 0,
        })
    };
    static NODE_TABLE: RefCell<NodeTable> = const {
        RefCell::new(NodeTable {
            stamp: 0,
            slots: Vec::new(),
            spare: Labels {
                ranks: Vec::new(),
                nodes: Vec::new(),
            },
        })
    };
}

/// A thread's labelling scratch: per machine node, its number within the
/// group being labelled, stamped with the labelling that set it.  An entry
/// of an earlier labelling reads as unset, so no labelling resets the
/// table, and one cut short by a panic leaves nothing a later one could
/// read.
struct NodeTable {
    stamp: u32,
    /// `(stamp, group-local node)` per machine node.
    slots: Vec<(u32, u32)>,
    /// The buffers of the last group's labels, emptied, for the next
    /// group's: labelling allocates only when a group outgrows them.
    spare: Labels,
}

impl NodeTable {
    /// Start a labelling on a machine of `nodes` nodes, with every entry
    /// unset; returns the labelling's stamp.
    fn begin(&mut self, nodes: usize) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped round: forget every earlier stamp.
            self.slots.fill((0, 0));
            self.stamp = 1;
        }
        if self.slots.len() < nodes {
            self.slots.resize(nodes, (0, 0));
        }
        self.stamp
    }
}

/// The pricing work done on the calling thread so far; the difference of
/// two readings counts the work between them.
pub fn pricing_work() -> PricingWork {
    WORK.with(Cell::get)
}

/// Add to the calling thread's [`PricingWork`].
pub(crate) fn count_work(add: impl FnOnce(&mut PricingWork)) {
    WORK.with(|w| {
        let mut work = w.get();
        add(&mut work);
        w.set(work);
    });
}

/// A group's ranks, labelled for pricing on the first step that needs it.
struct Group<'c> {
    cores: &'c [CoreId],
    ctx: &'c CommContext,
    labels: Option<Labels>,
    /// Step shapes worked out on the labels, counted into the thread's
    /// [`PricingWork`] when the group is dropped.
    shapes: u64,
}

/// The machine model prices a transfer only by the tree level it crosses
/// and, across nodes, by how many flows share each endpoint's NIC.  So a
/// rank needs two labels: its node, numbered within the group so that the
/// flow counters are as long as the group's node list rather than the
/// machine's, and its machine-wide processor.  A step then classifies each
/// pair by comparing labels.
#[derive(Default)]
struct Labels {
    /// `(group-local node, processor)` of every rank.
    ranks: Vec<(u32, u32)>,
    /// Per group-local node, in first-seen order: the context's sharing
    /// factor and the current step's crossing flows (zero between steps).
    nodes: Vec<NodeFlows>,
}

struct NodeFlows {
    share: f64,
    out: u32,
    inn: u32,
}

impl<'c> Group<'c> {
    fn new(ctx: &'c CommContext, cores: &'c [CoreId]) -> Group<'c> {
        Group {
            cores,
            ctx,
            labels: None,
            shapes: 0,
        }
    }

    /// The group's labels.  Its nodes are numbered through a per-thread
    /// table over the machine's nodes, so labelling costs O(q) for any
    /// machine.  First-seen numbering is safe: the busiest-NIC scans take
    /// a maximum.
    fn labels(&mut self, spec: &ClusterSpec) -> &mut Labels {
        let (cores, ctx) = (self.cores, self.ctx);
        self.labels.get_or_insert_with(|| {
            NODE_TABLE.with_borrow_mut(|table| {
                let stamp = table.begin(spec.nodes);
                let Labels {
                    mut ranks,
                    mut nodes,
                } = std::mem::take(&mut table.spare);
                ranks.extend(cores.iter().map(|&c| {
                    let (node, proc) = label(spec, c);
                    let slot = &mut table.slots[node as usize];
                    if slot.0 != stamp {
                        *slot = (stamp, nodes.len() as u32);
                        nodes.push(NodeFlows {
                            share: ctx.sharing(node as usize),
                            out: 0,
                            inn: 0,
                        });
                    }
                    (slot.1, proc)
                }));
                Labels { ranks, nodes }
            })
        })
    }

    /// The shape of one step of `pattern`: every pair classified by its
    /// labels, crossing flows counted per node, then the busiest NICs.
    fn shape(&mut self, spec: &ClusterSpec, pattern: Pattern) -> StepShape {
        let cores = self.cores;
        self.shapes += 1;
        let both_ways = pattern.both_ways();
        let Labels { ranks, nodes } = self.labels(spec);
        // Slices, so the pair loop holds their bounds in registers.
        let (ranks, nodes) = (ranks.as_slice(), nodes.as_mut_slice());
        let (mut same_proc, mut same_node, mut cross) = (false, false, false);
        pattern.for_each_pair(cores.len(), |a, b| {
            let ((na, pa), (nb, pb)) = (ranks[a], ranks[b]);
            if na != nb {
                nodes[na as usize].out += 1;
                nodes[nb as usize].inn += 1;
                if both_ways {
                    nodes[nb as usize].out += 1;
                    nodes[na as usize].inn += 1;
                }
                cross = true;
            } else if pa != pb {
                same_node = true;
            } else if cores[a] != cores[b] {
                same_proc = true;
            }
        });
        // The busiest NICs, clearing every count for the next step.  Idle
        // nodes contribute `0 · share`, which the max ignores.  Loads are
        // finite and non-negative, so plain comparisons give `f64::max`'s
        // bits without its NaN handling.
        let (mut hot_out, mut hot_in) = (0.0f64, 0.0f64);
        if cross {
            for n in nodes.iter_mut() {
                let out = f64::from(std::mem::take(&mut n.out)) * n.share;
                let inn = f64::from(std::mem::take(&mut n.inn)) * n.share;
                if out > hot_out {
                    hot_out = out;
                }
                if inn > hot_in {
                    hot_in = inn;
                }
            }
        }
        StepShape {
            same_proc,
            same_node,
            cross,
            hot_out,
            hot_in,
        }
    }
}

impl Drop for Group<'_> {
    /// Counts the group's work and hands its label buffers, emptied, to
    /// the next group on the thread.
    fn drop(&mut self) {
        if let Some(mut labels) = self.labels.take() {
            count_work(|work| {
                work.ranks_labelled += self.cores.len() as u64;
                work.step_shapes += self.shapes;
            });
            labels.ranks.clear();
            labels.nodes.clear();
            // While the thread's locals are torn down, the buffers are
            // freed instead.
            let _ = NODE_TABLE.try_with(|table| {
                if let Ok(mut table) = table.try_borrow_mut() {
                    table.spare = labels;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use pt_machine::platforms;

    fn cores(ids: &[usize]) -> Vec<CoreId> {
        ids.iter().map(|&i| CoreId(i)).collect()
    }

    #[test]
    fn p2p_levels_are_ordered() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let bytes = 1e6;
        let same_proc = m.p2p(&ctx, CoreId(0), CoreId(1), bytes);
        let same_node = m.p2p(&ctx, CoreId(0), CoreId(2), bytes);
        let cross = m.p2p(&ctx, CoreId(0), CoreId(4), bytes);
        assert!(same_proc < same_node && same_node < cross);
        assert_eq!(m.p2p(&ctx, CoreId(3), CoreId(3), bytes), 0.0);
    }

    #[test]
    fn contention_slows_cross_node_only() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let mut ctx = CommContext::uniform(&spec);
        let quiet = m.p2p(&ctx, CoreId(0), CoreId(4), 1e6);
        ctx.sharers[0] = 4.0;
        let busy = m.p2p(&ctx, CoreId(0), CoreId(4), 1e6);
        assert!(busy > quiet);
        let local_quiet = m.p2p(&ctx, CoreId(0), CoreId(1), 1e6);
        let ctx2 = CommContext::uniform(&spec);
        assert_eq!(local_quiet, m.p2p(&ctx2, CoreId(0), CoreId(1), 1e6));
    }

    #[test]
    fn collectives_are_zero_for_singletons() {
        let spec = platforms::chic();
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let g = cores(&[3]);
        assert_eq!(m.bcast(&ctx, &g, 1e6), 0.0);
        assert_eq!(m.allgather(&ctx, &g, 1e6), 0.0);
        assert_eq!(m.allreduce(&ctx, &g, 1e6), 0.0);
    }

    #[test]
    fn ring_allgather_prefers_consecutive_mapping() {
        // 16 cores on 4 CHiC nodes: consecutive = ranks fill nodes;
        // scattered = round-robin over nodes.
        let spec = platforms::chic().with_nodes(4);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let consecutive: Vec<CoreId> = (0..16).map(CoreId).collect();
        let scattered: Vec<CoreId> = (0..16).map(|i| CoreId((i % 4) * 4 + i / 4)).collect();
        let big = 4.0 * 1024.0 * 1024.0;
        let t_cons = m.allgather(&ctx, &consecutive, big);
        let t_scat = m.allgather(&ctx, &scattered, big);
        assert!(
            t_cons < t_scat,
            "consecutive {t_cons} should beat scattered {t_scat}"
        );
    }

    #[test]
    fn small_allgather_uses_log_depth() {
        let spec = platforms::chic().with_nodes(4);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let group: Vec<CoreId> = (0..16).map(CoreId).collect();
        // With tiny messages, time should be close to rounds × latency, far
        // below the ring's 15 × latency.
        let t = m.allgather(&ctx, &group, 64.0);
        let ring_floor = 15.0 * spec.inter_node.latency_s;
        assert!(t < ring_floor);
    }

    #[test]
    fn bcast_grows_with_group_span() {
        let spec = platforms::chic().with_nodes(8);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let node_local = cores(&[0, 1, 2, 3]);
        let spread: Vec<CoreId> = (0..4).map(|i| CoreId(i * 4)).collect();
        let b = 1e5;
        assert!(m.bcast(&ctx, &node_local, b) < m.bcast(&ctx, &spread, b));
    }

    #[test]
    fn multi_allgather_concurrent_groups_consecutive_vs_scattered() {
        // Fig 14 (right) shape: 4 groups × 16 cores on 16 CHiC nodes.
        let spec = platforms::chic().with_nodes(16);
        let m = CostModel::new(&spec);
        let big = 1024.0 * 1024.0;
        // Consecutive: group g = cores of nodes 4g..4g+4.
        let consecutive: Vec<Vec<CoreId>> = (0..4)
            .map(|g| (0..16).map(|i| CoreId(g * 16 + i)).collect())
            .collect();
        // Scattered: group g = core position g of every node slot.
        let scattered: Vec<Vec<CoreId>> = (0..4)
            .map(|g| (0..16).map(|n| CoreId(n * 4 + g)).collect())
            .collect();
        let t_cons = m.multi_allgather(&consecutive, big);
        let t_scat = m.multi_allgather(&scattered, big);
        assert!(
            t_cons < t_scat,
            "group-based comm must favour consecutive ({t_cons} vs {t_scat})"
        );
    }

    #[test]
    fn multi_allgather_orthogonal_sets_favour_scattered_app_mapping() {
        // 64 orthogonal sets of 4 cores each on 64 CHiC nodes (256 cores).
        // Under a scattered *application* mapping, each orthogonal set is
        // node-local; under a consecutive application mapping each set
        // spans 4 nodes.
        let spec = platforms::chic().with_nodes(64);
        let m = CostModel::new(&spec);
        let big = 256.0 * 1024.0;
        // Orthogonal sets when the app used scattered mapping of 4 groups:
        // set j = the 4 cores of node j.
        let sets_scat_app: Vec<Vec<CoreId>> = (0..64)
            .map(|n| (0..4).map(|c| CoreId(n * 4 + c)).collect())
            .collect();
        // Orthogonal sets when the app used consecutive mapping of 4 groups
        // of 64 cores: set j = {j, j+64, j+128, j+192}.
        let sets_cons_app: Vec<Vec<CoreId>> = (0..64)
            .map(|j| (0..4).map(|g| CoreId(g * 64 + j)).collect())
            .collect();
        let t_scat_app = m.multi_allgather(&sets_scat_app, big);
        let t_cons_app = m.multi_allgather(&sets_cons_app, big);
        assert!(
            t_scat_app < t_cons_app,
            "orthogonal comm must favour scattered app mapping ({t_scat_app} vs {t_cons_app})"
        );
    }

    #[test]
    fn allreduce_non_power_of_two_is_bit_equal_to_per_pair_rounds() {
        // Rebuild the recursive-doubling rounds with the code's own
        // ⌈log2 q⌉ round count, price each round pair by pair, and assert
        // the labelled, folded allreduce is bit-equal on non-power-of-two
        // groups, consecutive and scattered, under asymmetric NIC sharing.
        // Every round has a pair: the old worst-link fallback for an empty
        // round was unreachable.
        let spec = platforms::chic().with_nodes(8);
        let m = CostModel::new(&spec);
        let mut ctx = CommContext::uniform(&spec);
        ctx.sharers[2] = 5.0;
        ctx.sharers[6] = 3.0;
        let rounds_by_pair = |group: &[CoreId], bytes: f64| -> f64 {
            let q = group.len();
            if q <= 1 {
                return 0.0;
            }
            let rounds = (q as f64).log2().ceil() as usize;
            let mut time = 0.0;
            let mut dist = 1usize;
            for _ in 0..rounds {
                let mut pairs = Vec::new();
                for i in 0..q {
                    let j = i ^ dist;
                    if j < q && j > i {
                        pairs.push((group[i], group[j]));
                        pairs.push((group[j], group[i]));
                    }
                }
                assert!(!pairs.is_empty(), "round with distance {dist} of q={q}");
                time += oracle::step_time(&m, &ctx, &pairs, bytes);
                dist *= 2;
            }
            time
        };
        for q in [3usize, 5, 6, 7, 12, 17, 24] {
            let consecutive: Vec<CoreId> = (0..q).map(CoreId).collect();
            let scattered: Vec<CoreId> = (0..q).map(|i| CoreId((i % 8) * 4 + i / 8)).collect();
            for group in [&consecutive, &scattered] {
                for bytes in [8.0, 4096.0, 1e6] {
                    let fast = m.allreduce(&ctx, group, bytes);
                    let slow = rounds_by_pair(group, bytes);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "allreduce {fast} != per-pair rounds {slow} for q={q} @ {bytes}B"
                    );
                }
            }
        }
    }

    #[test]
    fn a_labelling_cut_short_by_a_panic_leaves_nothing_behind() {
        // Pricing a wide machine first sizes this thread's node table past
        // the small machine's nodes.  A group whose last core lies outside
        // the small machine then panics in the context's sharing lookup,
        // after its first three nodes are numbered.  Every later price on
        // the thread must still equal the per-pair oracle: a node numbered
        // by the cut-short labelling would merge with another group's.
        let wide = platforms::chic().with_nodes(64);
        let all: Vec<CoreId> = (0..wide.total_cores()).map(CoreId).collect();
        CostModel::new(&wide).allgather(&CommContext::uniform(&wide), &all, 1e6);
        let spec = platforms::chic().with_nodes(4);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let stray = cores(&[0, 4, 8, 160]);
        let priced = std::panic::catch_unwind(|| m.allgather(&ctx, &stray, 1e6));
        assert!(priced.is_err(), "a core outside the machine must panic");
        for group in [cores(&[4, 0]), cores(&[8, 5, 0, 12]), cores(&[0, 1, 4, 9])] {
            for bytes in [64.0, 1e6] {
                let fast = m.allgather(&ctx, &group, bytes);
                let slow = oracle::allgather(&m, &ctx, &group, bytes);
                assert_eq!(fast.to_bits(), slow.to_bits(), "{group:?} @ {bytes}B");
            }
        }
    }

    #[test]
    fn speed_classes_partition_the_machine() {
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5);
        let m = CostModel::new(&spec);
        assert!(!m.is_uniform());
        assert_eq!(m.classes().len(), 2);
        assert_eq!(m.classes().speed(0), 1.0);
        assert_eq!(m.classes().speed(1), 0.5);
        // Nodes 0..6 fast (cores 0..24), nodes 6..8 slow (cores 24..32).
        assert_eq!(m.classes().class_of(CoreId(0)), 0);
        assert_eq!(m.classes().class_of(CoreId(23)), 0);
        assert_eq!(m.classes().class_of(CoreId(24)), 1);
        assert_eq!(m.classes().slowest_in_range(0, 24), 0);
        assert_eq!(m.classes().slowest_in_range(0, 25), 1);
        assert_eq!(m.classes().slowest_in_range(24, 32), 1);
        assert_eq!(m.classes().min_speed(&[CoreId(0), CoreId(1)]), 1.0);
        assert_eq!(m.classes().min_speed(&[CoreId(0), CoreId(31)]), 0.5);
    }

    #[test]
    fn task_time_pays_for_the_slowest_core() {
        let spec = platforms::chic().with_nodes(2).with_slow_nodes(1, 0.5);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let task = pt_mtask::MTask::compute("t", 5.2e9); // 1 s nominal
                                                         // Two fast cores: 0.5 s.  One fast + one slow: the slow core halves
                                                         // throughput, so the even split finishes in 1.0 s.
        let fast = m.task_time(&ctx, &task, &[CoreId(0), CoreId(1)]);
        let mixed = m.task_time(&ctx, &task, &[CoreId(0), CoreId(4)]);
        assert!((fast - 0.5).abs() < 1e-9);
        assert!((mixed - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allgather_time_increases_with_bytes() {
        let spec = platforms::juropa().with_nodes(4);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let g: Vec<CoreId> = (0..32).map(CoreId).collect();
        let mut prev = 0.0;
        for kb in [1.0, 16.0, 64.0, 512.0, 4096.0] {
            let t = m.allgather(&ctx, &g, kb * 1024.0);
            assert!(t > prev, "allgather time must grow with message size");
            prev = t;
        }
    }
}

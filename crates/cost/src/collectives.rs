//! Collective communication and task execution cost model.

use crate::context::CommContext;
use pt_machine::{ClusterSpec, CoreId, LinkParams};
use pt_mtask::{CollectiveKind, CommOp, MTask};

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

    /// Number of speed classes (1 for homogeneous machines).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
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

    /// Time of one communication *step* in which every rank pair of
    /// `pairs` transfers `bytes` simultaneously — both ways when
    /// `both_ways`, as in an exchange.
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
    fn step(
        &self,
        g: &mut Group,
        pairs: impl Iterator<Item = (usize, usize)>,
        both_ways: bool,
        bytes: f64,
    ) -> f64 {
        if g.ranks.is_empty() {
            g.label(self.spec);
        }
        let (mut same_proc, mut same_node, mut cross) = (false, false, false);
        for (a, b) in pairs {
            let ((na, pa), (nb, pb)) = (g.ranks[a], g.ranks[b]);
            if na != nb {
                g.nodes[na as usize].out += 1;
                g.nodes[nb as usize].inn += 1;
                if both_ways {
                    g.nodes[nb as usize].out += 1;
                    g.nodes[na as usize].inn += 1;
                }
                cross = true;
            } else if pa != pb {
                same_node = true;
            } else if g.cores[a] != g.cores[b] {
                same_proc = true;
            }
        }
        let mut worst = 0.0f64;
        if same_proc {
            worst = worst.max(self.spec.intra_processor.transfer_time(bytes));
        }
        if same_node {
            worst = worst.max(self.spec.intra_node.transfer_time(bytes));
        }
        if cross {
            // The busiest NICs, clearing every count for the next step.
            // Idle nodes contribute `0 · share`, which the max ignores.
            let (mut hot_out, mut hot_in) = (0.0f64, 0.0f64);
            for n in &mut g.nodes {
                hot_out = hot_out.max(f64::from(std::mem::take(&mut n.out)) * n.share);
                hot_in = hot_in.max(f64::from(std::mem::take(&mut n.inn)) * n.share);
            }
            let link = self.spec.inter_node;
            let nic = self.spec.nic_bytes_per_s;
            let eff = link.bytes_per_s.min(nic / hot_out).min(nic / hot_in);
            worst = worst.max(link.latency_s + bytes / eff);
        }
        worst
    }

    /// Broadcast of `bytes` from `cores[0]` to the whole group.
    ///
    /// Small messages use a binomial tree over rank distances (round `k`
    /// pairs rank `i` with `i + 2^k`); large messages use the van de Geijn
    /// scatter + allgather scheme real MPI libraries switch to, whose
    /// allgather phase inherits the ring's mapping sensitivity.
    pub fn bcast(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        self.group_bcast(&mut Group::new(ctx, cores), bytes)
    }

    fn group_bcast(&self, g: &mut Group, bytes: f64) -> f64 {
        let q = g.cores.len();
        if q <= 1 {
            return 0.0;
        }
        let mut time = 0.0;
        if bytes >= DEFAULT_SAG_BCAST_THRESHOLD && q > 4 {
            // Binomial scatter: the root first ships half the payload to
            // the far half, then the halves recurse (payload and reach
            // halve together).  The senders of a round are the ranks whose
            // `reach` bit is clear.
            let mut reach = q.next_power_of_two() / 2;
            let mut chunk = bytes / 2.0;
            while reach >= 1 {
                let senders = (0..q - reach).filter(|src| (src & reach) == 0);
                time += self.step(g, senders.map(|src| (src, src + reach)), false, chunk);
                chunk /= 2.0;
                reach /= 2;
            }
            return time + self.group_allgather(g, bytes);
        }
        let mut reach = 1usize;
        while reach < q {
            let senders = 0..reach.min(q - reach);
            time += self.step(g, senders.map(|src| (src, src + reach)), false, bytes);
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
        self.group_allgather(&mut Group::new(ctx, cores), total_bytes)
    }

    fn group_allgather(&self, g: &mut Group, total_bytes: f64) -> f64 {
        let q = g.cores.len();
        if q <= 1 {
            return 0.0;
        }
        let block = total_bytes / q as f64;
        if block >= self.ring_threshold && q > 2 {
            // All q−1 steps use the same neighbour links simultaneously;
            // each step moves one block per rank to its successor.
            return (q - 1) as f64 * self.step(g, ring_pairs(q), false, block);
        }
        // Recursive doubling on ⌈log2 q⌉ rounds; non-power-of-two groups pay
        // an extra fix-up round (as in MPI implementations).
        let mut time = 0.0;
        let mut dist = 1usize;
        let mut chunk = block;
        while dist < q {
            time += self.step(g, exchange_pairs(q, dist), true, chunk);
            chunk *= 2.0;
            dist *= 2;
        }
        if !q.is_power_of_two() {
            // Fix-up: one extra exchange of the remainder blocks.
            time += self.step(g, ring_pairs(q), false, block);
        }
        time
    }

    /// Allreduce over the group: recursive-doubling exchange of the full
    /// vector per round, ⌈log2 q⌉ rounds.  Round `r` always pairs rank 0
    /// with rank `2^r < q`, so no round is empty.
    pub fn allreduce(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        self.group_allreduce(&mut Group::new(ctx, cores), bytes)
    }

    fn group_allreduce(&self, g: &mut Group, bytes: f64) -> f64 {
        let q = g.cores.len();
        let mut time = 0.0;
        let mut dist = 1usize;
        while dist < q {
            time += self.step(g, exchange_pairs(q, dist), true, bytes);
            dist *= 2;
        }
        time
    }

    /// Pure synchronisation: an 8-byte allreduce.
    pub fn barrier(&self, ctx: &CommContext, cores: &[CoreId]) -> f64 {
        self.allreduce(ctx, cores, 8.0)
    }

    /// Halo exchange with both rank neighbours.
    pub fn neighbor_exchange(&self, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
        self.group_neighbor_exchange(&mut Group::new(ctx, cores), bytes)
    }

    fn group_neighbor_exchange(&self, g: &mut Group, bytes: f64) -> f64 {
        let q = g.cores.len();
        if q <= 1 {
            return 0.0;
        }
        2.0 * self.step(g, (0..q - 1).map(|i| (i, i + 1)), true, bytes)
    }

    /// Time of a single internal communication operation on a group.
    pub fn comm_op(&self, ctx: &CommContext, cores: &[CoreId], op: &CommOp) -> f64 {
        self.group_comm_op(&mut Group::new(ctx, cores), op)
    }

    fn group_comm_op(&self, g: &mut Group, op: &CommOp) -> f64 {
        let once = match op.kind {
            CollectiveKind::Broadcast => self.group_bcast(g, op.bytes),
            CollectiveKind::Allgather => self.group_allgather(g, op.bytes),
            CollectiveKind::Allreduce => self.group_allreduce(g, op.bytes),
            CollectiveKind::Barrier => self.group_allreduce(g, 8.0),
            CollectiveKind::NeighborExchange => self.group_neighbor_exchange(g, op.bytes),
        };
        once * op.count
    }

    /// `T(M, q, mp)`: full execution time of an M-task on the given physical
    /// cores (the mapping pattern *is* the identity of those cores).
    pub fn task_time(&self, ctx: &CommContext, task: &MTask, cores: &[CoreId]) -> f64 {
        if useful_cores(task, cores).is_empty() {
            return 0.0;
        }
        self.compute_share(task, cores) + self.comm_share(ctx, task, cores)
    }

    /// The communication part of [`task_time`](Self::task_time): every
    /// internal operation of `task` on its useful cores, with the group
    /// labelled once for all of them.
    pub fn comm_share(&self, ctx: &CommContext, task: &MTask, cores: &[CoreId]) -> f64 {
        let mut g = Group::new(ctx, useful_cores(task, cores));
        task.comm
            .iter()
            .map(|op| self.group_comm_op(&mut g, op))
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

/// Every rank to its successor, the last to the first.
fn ring_pairs(q: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..q).map(move |i| (i, if i + 1 == q { 0 } else { i + 1 }))
}

/// Every recursive-doubling pair `(i, i ^ dist)`, once; the exchange runs
/// it both ways.
fn exchange_pairs(q: usize, dist: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..q).filter_map(move |i| {
        let j = i ^ dist;
        (j > i && j < q).then_some((i, j))
    })
}

/// A group's ranks labelled once for pricing, with the flow counters its
/// collectives reuse step after step.
///
/// The machine model prices a transfer only by the tree level it crosses
/// and, across nodes, by how many flows share each endpoint's NIC.  So a
/// rank needs two labels: its node, numbered within the group so that the
/// flow counters are as long as the group's node list rather than the
/// machine's, and its machine-wide processor.  They are derived on the
/// first step, once per rank, and a step then classifies each pair by
/// comparing labels.  An operation that never steps (a lone rank, a task
/// without communication) labels nothing.
struct Group<'c> {
    cores: &'c [CoreId],
    ctx: &'c CommContext,
    /// `(group-local node, processor)` of every rank, once labelled.
    ranks: Vec<(u32, u32)>,
    /// Per group-local node, in machine order: the context's sharing
    /// factor and the current step's crossing flows (zero between steps).
    nodes: Vec<NodeFlows>,
}

struct NodeFlows {
    id: u32,
    share: f64,
    out: u32,
    inn: u32,
}

impl<'c> Group<'c> {
    fn new(ctx: &'c CommContext, cores: &'c [CoreId]) -> Group<'c> {
        Group {
            cores,
            ctx,
            ranks: Vec::new(),
            nodes: Vec::new(),
        }
    }

    fn label(&mut self, spec: &ClusterSpec) {
        self.ranks = self.cores.iter().map(|&c| label(spec, c)).collect();
        let flows = |id: u32| NodeFlows {
            id,
            share: self.ctx.sharing(id as usize),
            out: 0,
            inn: 0,
        };
        let lo = self.ranks.iter().map(|r| r.0).min().unwrap_or(0);
        let hi = self.ranks.iter().map(|r| r.0).max().unwrap_or(0);
        let span = (hi - lo) as usize + 1;
        if span <= 2 * self.ranks.len() {
            // The group's nodes are dense in the machine (every mapping
            // strategy makes them so for wide groups): number them through
            // a table over their id span, where absent nodes stay `MAX`.
            let mut local = vec![u32::MAX; span];
            for r in &self.ranks {
                local[(r.0 - lo) as usize] = 0;
            }
            for (id, l) in (lo..).zip(&mut local) {
                if *l == 0 {
                    *l = self.nodes.len() as u32;
                    self.nodes.push(flows(id));
                }
            }
            for r in &mut self.ranks {
                r.0 = local[(r.0 - lo) as usize];
            }
        } else {
            // Sparse: sort the node ids and search them, once per run of
            // ranks on one node.
            self.nodes = self.ranks.iter().map(|r| flows(r.0)).collect();
            self.nodes.sort_unstable_by_key(|n| n.id);
            self.nodes.dedup_by_key(|n| n.id);
            let mut last = (u32::MAX, 0u32);
            for r in &mut self.ranks {
                if r.0 != last.0 {
                    let local = self.nodes.binary_search_by_key(&r.0, |n| n.id);
                    last = (r.0, local.expect("node is labelled") as u32);
                }
                r.0 = last.1;
            }
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
    fn speed_classes_partition_the_machine() {
        let spec = platforms::chic().with_nodes(8).with_slow_nodes(2, 0.5);
        let m = CostModel::new(&spec);
        assert!(!m.is_uniform());
        assert_eq!(m.num_classes(), 2);
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

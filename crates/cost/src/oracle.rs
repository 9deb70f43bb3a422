//! Per-pair reference pricing: every pair of every step priced through
//! `ClusterSpec::level`/`label`, a step's time taken as the maximum over
//! its pairs, and every redistribution deciding residency by comparing
//! core lists — no group labels, step fold or caller-supplied overlap.
//!
//! Compiled for tests only, as the bit-equality oracle of the production
//! pricing.  pt-sim's simulator tests include this file too, so it names
//! the cost model through the public `pt_cost` paths only.

use pt_cost::collectives::DEFAULT_SAG_BCAST_THRESHOLD;
use pt_cost::{CommContext, CostModel};
use pt_machine::{ClusterSpec, CommLevel, CoreId};
use pt_mtask::dist::redistribution_volumes;
use pt_mtask::{CollectiveKind, CommOp, Distribution, EdgeData, MTask, RedistPattern};

/// Point-to-point transfer time, from the two cores' tree level.
pub fn p2p(m: &CostModel, ctx: &CommContext, a: CoreId, b: CoreId, bytes: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let level = m.spec.level(a, b);
    let link = m.spec.link_at(level);
    if level == CommLevel::CrossNode {
        let na = m.spec.label(a).node;
        let nb = m.spec.label(b).node;
        let share = ctx.sharing(na).max(ctx.sharing(nb));
        let eff_bw = link.bytes_per_s.min(m.spec.nic_bytes_per_s / share);
        link.latency_s + bytes / eff_bw
    } else {
        link.transfer_time(bytes)
    }
}

/// One communication step, pair by pair: the maximum over all pairs of
/// their transfer time under the step's own NIC flows.
pub fn step_time(m: &CostModel, ctx: &CommContext, pairs: &[(CoreId, CoreId)], bytes: f64) -> f64 {
    let spec = m.spec;
    let mut out_flows = vec![0.0f64; spec.nodes];
    let mut in_flows = vec![0.0f64; spec.nodes];
    for &(a, b) in pairs {
        if spec.level(a, b) == CommLevel::CrossNode {
            out_flows[spec.label(a).node] += 1.0;
            in_flows[spec.label(b).node] += 1.0;
        }
    }
    let mut worst = 0.0f64;
    for &(a, b) in pairs {
        if a == b {
            continue;
        }
        let level = spec.level(a, b);
        let link = spec.link_at(level);
        let t = if level == CommLevel::CrossNode {
            let na = spec.label(a).node;
            let nb = spec.label(b).node;
            let nic = spec.nic_bytes_per_s;
            let eff = link
                .bytes_per_s
                .min(nic / (out_flows[na] * ctx.sharing(na)))
                .min(nic / (in_flows[nb] * ctx.sharing(nb)));
            link.latency_s + bytes / eff
        } else {
            link.transfer_time(bytes)
        };
        worst = worst.max(t);
    }
    worst
}

pub fn bcast(m: &CostModel, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
    let q = cores.len();
    if q <= 1 {
        return 0.0;
    }
    if bytes >= DEFAULT_SAG_BCAST_THRESHOLD && q > 4 {
        let mut time = 0.0;
        let mut reach = q.next_power_of_two() / 2;
        let mut chunk = bytes / 2.0;
        while reach >= 1 {
            let pairs: Vec<(CoreId, CoreId)> = (0..q)
                .filter_map(|src| {
                    let dst = src + reach;
                    ((src / reach).is_multiple_of(2) && dst < q).then(|| (cores[src], cores[dst]))
                })
                .collect();
            if !pairs.is_empty() {
                time += step_time(m, ctx, &pairs, chunk);
            }
            chunk /= 2.0;
            reach /= 2;
        }
        return time + allgather(m, ctx, cores, bytes);
    }
    let mut time = 0.0;
    let mut reach = 1usize;
    while reach < q {
        let pairs: Vec<(CoreId, CoreId)> = (0..reach.min(q))
            .filter_map(|src| {
                let dst = src + reach;
                (dst < q).then(|| (cores[src], cores[dst]))
            })
            .collect();
        time += step_time(m, ctx, &pairs, bytes);
        reach *= 2;
    }
    time
}

pub fn allgather(m: &CostModel, ctx: &CommContext, cores: &[CoreId], total_bytes: f64) -> f64 {
    let q = cores.len();
    if q <= 1 {
        return 0.0;
    }
    let block = total_bytes / q as f64;
    let ring: Vec<(CoreId, CoreId)> = (0..q).map(|i| (cores[i], cores[(i + 1) % q])).collect();
    if block >= m.ring_threshold && q > 2 {
        return (q - 1) as f64 * step_time(m, ctx, &ring, block);
    }
    let mut time = 0.0;
    let mut dist = 1usize;
    let mut chunk = block;
    while dist < q {
        time += step_time(m, ctx, &exchange_pairs(cores, dist), chunk);
        chunk *= 2.0;
        dist *= 2;
    }
    if !q.is_power_of_two() {
        time += step_time(m, ctx, &ring, block);
    }
    time
}

pub fn allreduce(m: &CostModel, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
    let q = cores.len();
    if q <= 1 {
        return 0.0;
    }
    let rounds = (q as f64).log2().ceil() as usize;
    let mut time = 0.0;
    let mut dist = 1usize;
    for _ in 0..rounds {
        time += step_time(m, ctx, &exchange_pairs(cores, dist), bytes);
        dist *= 2;
    }
    time
}

/// Both directions of every recursive-doubling pair at distance `dist`.
fn exchange_pairs(cores: &[CoreId], dist: usize) -> Vec<(CoreId, CoreId)> {
    let q = cores.len();
    let mut pairs = Vec::new();
    for i in 0..q {
        let j = i ^ dist;
        if j < q && j > i {
            pairs.push((cores[i], cores[j]));
            pairs.push((cores[j], cores[i]));
        }
    }
    pairs
}

pub fn neighbor_exchange(m: &CostModel, ctx: &CommContext, cores: &[CoreId], bytes: f64) -> f64 {
    let q = cores.len();
    if q <= 1 {
        return 0.0;
    }
    let mut pairs = Vec::with_capacity(2 * (q - 1));
    for i in 0..q - 1 {
        pairs.push((cores[i], cores[i + 1]));
        pairs.push((cores[i + 1], cores[i]));
    }
    2.0 * step_time(m, ctx, &pairs, bytes)
}

pub fn comm_op(m: &CostModel, ctx: &CommContext, cores: &[CoreId], op: &CommOp) -> f64 {
    let once = match op.kind {
        CollectiveKind::Broadcast => bcast(m, ctx, cores, op.bytes),
        CollectiveKind::Allgather => allgather(m, ctx, cores, op.bytes),
        CollectiveKind::Allreduce => allreduce(m, ctx, cores, op.bytes),
        CollectiveKind::Barrier => allreduce(m, ctx, cores, 8.0),
        CollectiveKind::NeighborExchange => neighbor_exchange(m, ctx, cores, op.bytes),
    };
    once * op.count
}

pub fn task_time(m: &CostModel, ctx: &CommContext, task: &MTask, cores: &[CoreId]) -> f64 {
    let useful = match task.max_cores {
        Some(cap) => &cores[..cores.len().min(cap)],
        None => cores,
    };
    if useful.is_empty() {
        return 0.0;
    }
    let comm: f64 = task.comm.iter().map(|op| comm_op(m, ctx, useful, op)).sum();
    m.compute_share(task, cores) + comm
}

/// True if both lists hold the same cores.
pub fn same_set(a: &[CoreId], b: &[CoreId]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut aa: Vec<CoreId> = a.to_vec();
    let mut bb: Vec<CoreId> = b.to_vec();
    aa.sort_unstable();
    bb.sort_unstable();
    aa == bb
}

/// True if every core of `a` is also in `b`.
pub fn subset(a: &[CoreId], b: &[CoreId]) -> bool {
    let b: std::collections::HashSet<usize> = b.iter().map(|c| c.0).collect();
    a.iter().all(|c| b.contains(&c.0))
}

pub fn redist_time(
    m: &CostModel,
    ctx: &CommContext,
    edge: &EdgeData,
    src: &[CoreId],
    dst: &[CoreId],
) -> f64 {
    if edge.pattern == RedistPattern::None || edge.bytes == 0.0 || same_set(src, dst) {
        return 0.0;
    }
    match edge.pattern {
        RedistPattern::None => 0.0,
        RedistPattern::Replicated => {
            if subset(dst, src) {
                return 0.0;
            }
            let mut group = vec![src[0]];
            group.extend(dst.iter().copied().filter(|c| *c != src[0]));
            bcast(m, ctx, &group, edge.bytes)
        }
        RedistPattern::Block => block_redist_dense(m, ctx, edge.bytes, src, dst),
        RedistPattern::Orthogonal => {
            let per = edge.bytes / dst.len() as f64;
            let mut worst = 0.0f64;
            for (j, d) in dst.iter().enumerate() {
                worst = worst.max(p2p(m, ctx, src[j * src.len() / dst.len()], *d, per));
            }
            worst
        }
    }
}

/// Block → block re-partitioning over the dense `qs × qd` overlap matrix.
pub fn block_redist_dense(
    m: &CostModel,
    ctx: &CommContext,
    bytes: f64,
    src: &[CoreId],
    dst: &[CoreId],
) -> f64 {
    let qs = src.len();
    let qd = dst.len();
    let elems = 1 << 20;
    let per_elem = bytes / elems as f64;
    let vol = redistribution_volumes(elems, Distribution::Block, qs, Distribution::Block, qd);
    let mut send_time = vec![0.0f64; qs];
    let mut recv_time = vec![0.0f64; qd];
    for (s, row) in vol.iter().enumerate() {
        for (d, &v) in row.iter().enumerate() {
            if v == 0 || src[s] == dst[d] {
                continue;
            }
            let t = p2p(m, ctx, src[s], dst[d], v as f64 * per_elem);
            send_time[s] += t;
            recv_time[d] += t;
        }
    }
    let worst_send = send_time.iter().copied().fold(0.0, f64::max);
    let worst_recv = recv_time.iter().copied().fold(0.0, f64::max);
    worst_send.max(worst_recv)
}

/// Per-node sharer counts with one `nodes`-long scan per group.
pub fn from_groups<G: AsRef<[CoreId]>>(spec: &ClusterSpec, groups: &[G]) -> CommContext {
    let mut counts = vec![0u32; spec.nodes];
    for g in groups {
        let mut seen = vec![false; spec.nodes];
        for &c in g.as_ref() {
            seen[spec.label(c).node] = true;
        }
        for (n, s) in seen.iter().enumerate() {
            if *s {
                counts[n] += 1;
            }
        }
    }
    CommContext {
        sharers: counts.iter().map(|&c| f64::from(c.max(1))).collect(),
    }
}

/// Node-interleaved canonical order of an exchange set: the sorted cores
/// bucketed by node, then the buckets emitted round-robin.
pub fn node_interleaved(spec: &ClusterSpec, mut cores: Vec<CoreId>) -> Vec<CoreId> {
    cores.sort_unstable();
    let mut buckets: Vec<Vec<CoreId>> = vec![Vec::new(); spec.nodes];
    for c in cores {
        buckets[spec.label(c).node].push(c);
    }
    let rounds = buckets.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|r| buckets.iter().filter_map(move |b| b.get(r).copied()))
        .collect()
}

pub fn orthogonal_exchange<G: AsRef<[CoreId]>>(
    m: &CostModel,
    groups: &[G],
    total_bytes: f64,
) -> f64 {
    if groups.len() <= 1 {
        return 0.0;
    }
    let min_q = groups.iter().map(|g| g.as_ref().len()).min().unwrap_or(0);
    if min_q == 0 {
        return 0.0;
    }
    let sets: Vec<Vec<CoreId>> = (0..min_q)
        .map(|j| {
            let cores: Vec<CoreId> = groups
                .iter()
                .map(|g| g.as_ref()[j * g.as_ref().len() / min_q])
                .collect();
            node_interleaved(m.spec, cores)
        })
        .collect();
    let ctx = from_groups(m.spec, &sets);
    sets.iter()
        .map(|s| allgather(m, &ctx, s, total_bytes))
        .fold(0.0, f64::max)
}

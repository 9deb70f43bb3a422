//! Data re-distribution costs between cooperating M-tasks
//! (`TRe(M1, M2, q1, q2, mp1, mp2)` of paper §3.1).

use crate::collectives::{count_work, label, CostModel};
use crate::context::CommContext;
use pt_machine::CoreId;
use pt_mtask::{EdgeData, RedistPattern};

/// How the consumer group of an edge sits relative to its producer group.
///
/// A mapping never repeats a physical core, so the simulators read this
/// off the groups' symbolic core sets — in O(1) for the contiguous ranges
/// of a layered schedule — instead of comparing physical core lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// Both groups are the same set of cores.
    Same,
    /// Every consumer core is also a producer core.
    Inside,
    /// Anything else.
    Other,
}

impl CostModel<'_> {
    /// Re-distribution time for the datum of `edge` moving from the group
    /// that executed the producer (`src`) to the group executing the
    /// consumer (`dst`), where `overlap` says how the two core sets relate.
    ///
    /// If both tasks ran on the same set of cores the data is already
    /// resident and the cost is zero — this is what linear-chain contraction
    /// guarantees for chain members (§3.2 step 1).
    ///
    /// `wide_runs` are the [`NodeRuns`] of the longer of `src` and `dst`
    /// (`dst` on a tie) in `ctx`, from a caller that prices several edges
    /// onto or from that group; only a Block edge reads them, and with
    /// `None` it builds them itself.
    pub fn redist_time(
        &self,
        ctx: &CommContext,
        edge: &EdgeData,
        src: &[CoreId],
        dst: &[CoreId],
        overlap: Overlap,
        wide_runs: Option<&NodeRuns>,
    ) -> f64 {
        if edge.pattern == RedistPattern::None || edge.bytes == 0.0 || overlap == Overlap::Same {
            return 0.0;
        }
        match edge.pattern {
            RedistPattern::None => 0.0,
            RedistPattern::Replicated => {
                // The producer group holds a full copy on every core; if the
                // consumers are a subset of those cores the data is already
                // resident.
                if overlap == Overlap::Inside {
                    return 0.0;
                }
                // Otherwise: broadcast from one producer core into the
                // consumer group.
                let mut bcast_group = Vec::with_capacity(dst.len() + 1);
                bcast_group.push(src[0]);
                bcast_group.extend(dst.iter().copied().filter(|c| *c != src[0]));
                self.bcast(ctx, &bcast_group, edge.bytes)
            }
            RedistPattern::Block => self.block_redist(ctx, edge.bytes, src, dst, wide_runs),
            RedistPattern::Orthogonal => {
                // Positional exchange: consumer core j receives its share
                // from the positionally matching producer core.  The
                // aggregated multi-group orthogonal allgather is handled by
                // the simulator via [`CostModel::orthogonal_exchange`]; this
                // is the single-edge view.
                let qd = dst.len();
                let qs = src.len();
                let per = edge.bytes / qd as f64;
                let mut worst = 0.0f64;
                for (j, d) in dst.iter().enumerate() {
                    let s = src[j * qs / qd];
                    worst = worst.max(self.p2p(ctx, s, *d, per));
                }
                worst
            }
        }
    }

    /// The node runs of a mapped group in `ctx`: maximal spans of
    /// consecutive ranks whose cores share a node, each with that node's
    /// NIC cap.  O(q) labels.
    pub fn node_runs(&self, ctx: &CommContext, cores: &[CoreId]) -> NodeRuns {
        let mut runs: Vec<NodeRun> = Vec::new();
        for (j, &c) in cores.iter().enumerate() {
            let node = label(self.spec, c).0;
            let end = u32::try_from(j + 1).expect("a group has fewer than 2^32 ranks");
            match runs.last_mut() {
                Some(run) if run.node == node => run.end = end,
                _ => runs.push(NodeRun {
                    end,
                    node,
                    cap: self.nic_cap(ctx, node),
                }),
            }
        }
        NodeRuns(runs)
    }

    /// The bandwidth a crossing flow gets at `node`'s end:
    /// `min(link, nic / sharers)`.
    fn nic_cap(&self, ctx: &CommContext, node: u32) -> f64 {
        let nic = self.spec.nic_bytes_per_s / ctx.sharing(node as usize);
        self.spec.inter_node.bytes_per_s.min(nic)
    }

    /// Block → block re-partitioning: the element-overlap volume of every
    /// rank pair is computed symbolically, every core pays its serialised
    /// send and receive time, and the result is the slowest core.
    ///
    /// The dense formulation (the test oracle's `block_redist_dense`)
    /// sums `send[s]` over ascending `d` and `recv[d]` over ascending `s`.
    /// Block distributions are contiguous partitions, and no block of the
    /// wider group is longer than one of the narrower, so each narrower
    /// rank overlaps a band of consecutive wider ranks and each wider rank
    /// overlaps at most two narrower ranks.  The walk takes the narrower
    /// ranks in order and each one's band in order, which keeps both
    /// sums in the dense order, widening or narrowing:
    /// - the two end pairs of a band overlap partially and are priced
    ///   directly; a wider rank split between two bands starts its sum in
    ///   the second from the first's term (the carry);
    /// - every pair in between moves one whole wider block and is that
    ///   wider rank's only term.  These pairs are taken one node run of
    ///   the wider group at a time.  On a foreign node they all move the
    ///   same bytes at the same caps, so one price is added `k` times to
    ///   the narrower rank's sum, as the dense loop adds it; on the
    ///   narrower rank's own node each pair is priced by its processor,
    ///   and skipped where the cores coincide.
    ///
    /// Per-node caps `min(link, nic / sharers[n])` stand in for the pair's
    /// `min(link, nic / max(sa, sb))` exactly, since correctly rounded
    /// division is monotone: `nic / max(sa, sb) = min(nic / sa, nic / sb)`.
    /// Every price is finite and non-negative, so the maxima use plain
    /// comparisons, a carried partial sum never exceeds its final value,
    /// and no sum is below any of its terms: a whole block's wider rank,
    /// whose sum `0.0 + t` is its narrower rank's term `t`, never raises
    /// the maximum, and only the end pairs are compared.  Every term is
    /// the dense loop's, added in its order, so the result is
    /// bit-identical, in O(qn + runs walked) labels and divisions instead
    /// of one of each per overlapping pair.
    ///
    /// `runs` are the wider group's (see [`CostModel::redist_time`]).
    fn block_redist(
        &self,
        ctx: &CommContext,
        bytes: f64,
        src: &[CoreId],
        dst: &[CoreId],
        runs: Option<&NodeRuns>,
    ) -> f64 {
        let (narrow, wide) = if src.len() <= dst.len() {
            (src, dst)
        } else {
            (dst, src)
        };
        let fresh;
        let runs = match runs {
            Some(runs) => runs.0.as_slice(),
            None => {
                fresh = self.node_runs(ctx, wide);
                fresh.0.as_slice()
            }
        };
        debug_assert_eq!(
            runs.last().map_or(0, |r| r.end as usize),
            wide.len(),
            "node runs of another group"
        );
        // The run holding wider rank `j`, which never decreases.
        let mut at = 0;
        let mut seek = |j: usize| {
            while runs[at].end as usize <= j {
                at += 1;
            }
            runs[at]
        };
        let spec = self.spec;
        let latency = spec.inter_node.latency_s;
        // Work with a virtual element count so volumes become byte shares.
        let elems: usize = 1 << 20;
        let per_elem = bytes / elems as f64;
        let cn = elems.div_ceil(narrow.len());
        let cw = elems.div_ceil(wide.len());
        // A whole wider block, and its price inside a node.
        let whole = cw as f64 * per_elem;
        let same_node = spec.intra_node.transfer_time(whole);
        let same_proc = spec.intra_processor.transfer_time(whole);
        let (mut worst_narrow, mut worst_wide) = (0.0f64, 0.0f64);
        // The wider rank the last band ended on, and its sum so far.
        let mut carry = (usize::MAX, 0.0f64);
        let (mut pairs, mut summed) = (0u64, 0u64);
        for (i, &a) in narrow.iter().enumerate() {
            let lo = (i * cn).min(elems);
            let hi = ((i + 1) * cn).min(elems);
            if lo >= hi {
                break; // later narrower ranks own nothing either
            }
            let (na, pa) = label(spec, a);
            let cap_a = self.nic_cap(ctx, na);
            // The pair with wider rank `j` in `run`, priced from its
            // overlap; `None` where the cores coincide.
            let price = |j: usize, run: NodeRun| -> Option<f64> {
                let b = wide[j];
                let bytes = (((j + 1) * cw).min(hi) - (j * cw).max(lo)) as f64 * per_elem;
                if run.node != na {
                    Some(latency + bytes / cap_a.min(run.cap))
                } else if label(spec, b).1 != pa {
                    Some(spec.intra_node.transfer_time(bytes))
                } else {
                    (a != b).then(|| spec.intra_processor.transfer_time(bytes))
                }
            };
            let (first, last) = (lo / cw, (hi - 1) / cw);
            let mut sum = 0.0f64;
            let mut wide_sum = if carry.0 == first { carry.1 } else { 0.0 };
            if let Some(t) = price(first, seek(first)) {
                sum += t;
                wide_sum += t;
                pairs += 1;
            }
            raise(&mut worst_wide, wide_sum);
            if last > first {
                let mut j = first + 1;
                while j < last {
                    let NodeRun { end, node, cap } = seek(j);
                    let end = (end as usize).min(last);
                    if node != na {
                        let t = latency + whole / cap_a.min(cap);
                        for _ in j..end {
                            sum += t;
                        }
                        summed += 1;
                    } else {
                        for &b in &wide[j..end] {
                            if b != a {
                                sum += if label(spec, b).1 != pa {
                                    same_node
                                } else {
                                    same_proc
                                };
                                pairs += 1;
                            }
                        }
                    }
                    j = end;
                }
                wide_sum = 0.0;
                if let Some(t) = price(last, seek(last)) {
                    sum += t;
                    wide_sum += t;
                    pairs += 1;
                }
                raise(&mut worst_wide, wide_sum);
            }
            carry = (last, wide_sum);
            raise(&mut worst_narrow, sum);
        }
        count_work(|work| {
            work.block_pairs += pairs;
            work.block_runs += summed;
        });
        worst_narrow.max(worst_wide)
    }

    /// The aggregated orthogonal exchange after a layer of `groups`
    /// concurrent M-tasks: position-`j` cores of all groups allgather their
    /// blocks (total volume `total_bytes` per orthogonal set), all positions
    /// concurrently (paper §4.2, the `{s1, s5, s9, s13}` example of Fig. 9).
    ///
    /// The solvers' schedules give every group the same size.  Groups of
    /// differing sizes contribute to set `j` the core at the proportional
    /// position `j · q / min_q` of their own group, where `min_q` is the
    /// smallest group size and so the number of sets.
    pub fn orthogonal_exchange<G: AsRef<[CoreId]>>(&self, groups: &[G], total_bytes: f64) -> f64 {
        if groups.len() <= 1 {
            return 0.0;
        }
        let min_q = groups.iter().map(|g| g.as_ref().len()).min().unwrap_or(0);
        if min_q == 0 {
            return 0.0;
        }
        let sets: Vec<Vec<CoreId>> = (0..min_q)
            .map(|j| {
                let set: Vec<CoreId> = groups
                    .iter()
                    .map(|g| {
                        let g = g.as_ref();
                        // Positional partner; uneven groups map position j
                        // proportionally.
                        g[j * g.len() / min_q]
                    })
                    .collect();
                // The exchange's rank order follows the orthogonal data
                // index (e.g. zone number), which is independent of
                // physical placement — the model must not reward
                // accidental adjacency between exchange neighbours, and
                // the caller's group order must not leak into the cost
                // (simulated makespans are cached content-addressed and
                // must be bit-identical across runs). Canonicalise to a
                // node-interleaved order: deterministic and
                // placement-oblivious.
                node_interleaved(self.spec, set)
            })
            .collect();
        self.multi_allgather(&sets, total_bytes)
    }
}

/// A mapped group's ranks in node runs: maximal spans of consecutive
/// ranks whose cores share a node, each with that node's NIC cap
/// `min(link, nic / sharers)` in one context.  A Block redistribution
/// walks the runs of the wider group; a caller pricing several such edges
/// onto or from one group in one context builds them once with
/// [`CostModel::node_runs`] and passes them to
/// [`CostModel::redist_time`].
#[derive(Debug)]
pub struct NodeRuns(Vec<NodeRun>);

#[derive(Debug, Clone, Copy)]
struct NodeRun {
    /// One past the run's last rank.
    end: u32,
    node: u32,
    cap: f64,
}

/// `*worst = max(*worst, x)` for prices, which are never NaN.
#[inline]
fn raise(worst: &mut f64, x: f64) {
    if x > *worst {
        *worst = x;
    }
}

/// Canonical placement-oblivious order for an exchange set: cores sorted,
/// then emitted round-robin across their nodes (the `r`-th core of every
/// node in round `r`, nodes in machine order), so ring neighbours land on
/// different nodes whenever the set spans more than one.  A node's cores
/// are one run of the sorted set, so the rounds walk the runs, dropping
/// each once it is spent: O(q log q) for any machine.
fn node_interleaved(spec: &pt_machine::ClusterSpec, mut cores: Vec<CoreId>) -> Vec<CoreId> {
    cores.sort_unstable();
    // `(next, end)` of every node's run in `cores`.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut last = None;
    for (i, &c) in cores.iter().enumerate() {
        let node = label(spec, c).0;
        if last == Some(node) {
            runs.last_mut().expect("a run is open").1 = i + 1;
        } else {
            runs.push((i, i + 1));
            last = Some(node);
        }
    }
    let mut out = Vec::with_capacity(cores.len());
    while !runs.is_empty() {
        runs.retain_mut(|(next, end)| {
            out.push(cores[*next]);
            *next += 1;
            next < end
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;
    use pt_machine::platforms;

    fn ids(r: std::ops::Range<usize>) -> Vec<CoreId> {
        r.map(CoreId).collect()
    }

    #[test]
    fn same_group_costs_nothing() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let g = ids(0..4);
        for pattern in [
            RedistPattern::Replicated,
            RedistPattern::Block,
            RedistPattern::Orthogonal,
        ] {
            let e = EdgeData {
                bytes: 1e6,
                pattern,
            };
            assert_eq!(
                m.redist_time(&ctx, &e, &g, &g, Overlap::Same, None),
                0.0,
                "{pattern:?}"
            );
        }
    }

    #[test]
    fn ordering_edges_are_free() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        assert_eq!(
            m.redist_time(
                &ctx,
                &EdgeData::ordering(),
                &ids(0..4),
                &ids(4..8),
                Overlap::Other,
                None
            ),
            0.0
        );
    }

    #[test]
    fn replicated_transfer_costs_a_broadcast() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let e = EdgeData::replicated(1e6);
        let t = m.redist_time(&ctx, &e, &ids(0..4), &ids(4..8), Overlap::Other, None);
        assert!(t > 0.0);
        // Must be at least one cross-node transfer.
        assert!(t >= spec.inter_node.transfer_time(1e6));
    }

    #[test]
    fn block_redist_cheaper_within_node() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let e = EdgeData {
            bytes: 1e6,
            pattern: RedistPattern::Block,
        };
        let within = m.redist_time(&ctx, &e, &ids(0..2), &ids(2..4), Overlap::Other, None);
        let across = m.redist_time(&ctx, &e, &ids(0..2), &ids(4..6), Overlap::Other, None);
        assert!(within < across);
    }

    #[test]
    fn block_redist_volume_conserved_shape() {
        // Doubling bytes roughly doubles time (affine in volume).
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let e1 = EdgeData {
            bytes: 1e6,
            pattern: RedistPattern::Block,
        };
        let e2 = EdgeData {
            bytes: 2e6,
            pattern: RedistPattern::Block,
        };
        let t1 = m.redist_time(&ctx, &e1, &ids(0..4), &ids(4..8), Overlap::Other, None);
        let t2 = m.redist_time(&ctx, &e2, &ids(0..4), &ids(4..8), Overlap::Other, None);
        assert!(t2 > 1.8 * t1 && t2 < 2.2 * t1);
    }

    #[test]
    fn orthogonal_exchange_prefers_scattered_groups() {
        let spec = platforms::chic().with_nodes(8);
        let m = CostModel::new(&spec);
        let bytes = 1e6;
        // 4 groups of 8 cores: consecutive (2 nodes per group)…
        let consecutive: Vec<Vec<CoreId>> = (0..4).map(|g| ids(g * 8..(g + 1) * 8)).collect();
        // …vs scattered (each group = same core slot of all 8 nodes).
        let scattered: Vec<Vec<CoreId>> = (0..4)
            .map(|g| (0..8).map(|n| CoreId(n * 4 + g)).collect())
            .collect();
        let t_cons = m.orthogonal_exchange(&consecutive, bytes);
        let t_scat = m.orthogonal_exchange(&scattered, bytes);
        assert!(
            t_scat < t_cons,
            "orthogonal exchange should favour scattered mapping ({t_scat} vs {t_cons})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The node-run walk against the dense all-pairs matrix, bit for
        /// bit, with the wider group's runs built inside and passed in.
        /// Cases draw
        /// - widening and narrowing sizes up to 600 ranks, most of which
        ///   leave a short last block; one case in eight widens a side
        ///   past 1 024 ranks, where the last blocks of 2^20 elements are
        ///   empty;
        /// - groups nested in one another, so that equal cores are
        ///   skipped, or windows of two core orders (consecutive,
        ///   scattered or mixed(2));
        /// - node widths of 1–9 cores and uneven sharers.
        ///
        /// One case in four makes the sides differ by 1–3 ranks, with the
        /// narrower group consecutive on quiet nodes and the wider one
        /// scattered.  Most wider blocks are then split between two
        /// narrower ranks, and a split block's two terms can make its rank
        /// the slowest, which a wider rank otherwise never is.
        #[test]
        fn block_walk_is_bit_equal_to_dense(
            shape in (1usize..4, 1usize..4),
            sharers in prop::collection::vec(1u32..6, 1..12),
            orders in (0usize..3, 0usize..3),
            sizes in (1usize..601, 1usize..601, 0usize..8),
            offsets in (0usize..4096, 0usize..4096),
            nested in any::<bool>(),
        ) {
            let (ppn, cpp) = shape;
            let spec = pt_machine::ClusterSpec {
                nodes: 1400usize.div_ceil(ppn * cpp),
                processors_per_node: ppn,
                cores_per_processor: cpp,
                ..platforms::chic()
            };
            let m = CostModel::new(&spec);
            let (mut qs, mut qd, mode) = sizes;
            let past = [1025, 1071, 1365][qs % 3];
            match mode {
                0 => qs = past,
                1 => qd = past,
                2 => qd = qs + 1 + qd % 3,
                3 => qs = qd + 1 + qs % 3,
                _ => {}
            }
            let near = mode == 2 || mode == 3;
            let orders = match mode {
                2 => (0, 1),
                3 => (1, 0),
                _ => orders,
            };
            let window = |seq: &[CoreId], at: usize, len: usize| -> Vec<CoreId> {
                let lo = at % (seq.len() - len + 1);
                seq[lo..lo + len].to_vec()
            };
            let seq_s = crate::tests::mapped_sequence(&spec, orders.0);
            let seq_d = crate::tests::mapped_sequence(&spec, orders.1);
            let (src, dst) = if nested && !near {
                // The narrower group is a window of the wider one.
                if qs <= qd {
                    let dst = window(&seq_d, offsets.1, qd);
                    (window(&dst, offsets.0, qs), dst)
                } else {
                    let src = window(&seq_s, offsets.0, qs);
                    let dst = window(&src, offsets.1, qd);
                    (src, dst)
                }
            } else {
                (window(&seq_s, offsets.0, qs), window(&seq_d, offsets.1, qd))
            };
            let mut ctx = CommContext::uniform(&spec);
            for (s, &f) in ctx.sharers.iter_mut().zip(sharers.iter().cycle()) {
                *s = f64::from(f);
            }
            if near {
                for c in if qs < qd { &src } else { &dst } {
                    ctx.sharers[spec.label(*c).node] = 1.0;
                }
            }
            let runs = m.node_runs(&ctx, if qs > qd { &src } else { &dst });
            for bytes in [8.0, 4096.0, 4e6] {
                let slow = oracle::block_redist_dense(&m, &ctx, bytes, &src, &dst);
                let fresh = m.block_redist(&ctx, bytes, &src, &dst, None);
                let kept = m.block_redist(&ctx, bytes, &src, &dst, Some(&runs));
                prop_assert_eq!(fresh.to_bits(), slow.to_bits(), "{}x{} @ {}B: {} vs {}", qs, qd, bytes, fresh, slow);
                prop_assert_eq!(kept.to_bits(), slow.to_bits(), "{}x{} @ {}B", qs, qd, bytes);
            }
        }
    }

    #[test]
    fn node_interleaved_matches_bucketed_order() {
        // Sets of distinct and repeated cores, on machines with power-of-two
        // and other node widths, spanning one node, a few, and many with
        // uneven runs: the run walk must emit the bucketed order exactly.
        for spec in [
            platforms::chic().with_nodes(16),
            pt_machine::ClusterSpec {
                nodes: 9,
                processors_per_node: 3,
                cores_per_processor: 2,
                ..platforms::chic()
            },
        ] {
            let p = spec.total_cores();
            let mut seed = 0x2545_f491_4f6c_dd1du64;
            for len in [0usize, 1, 2, 5, 17, 40, 3 * p] {
                for stride in [1usize, 3, 7] {
                    let set: Vec<CoreId> = (0..len)
                        .map(|i| {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            CoreId(if stride == 7 {
                                seed as usize % p
                            } else {
                                (i * stride) % p
                            })
                        })
                        .collect();
                    assert_eq!(
                        node_interleaved(&spec, set.clone()),
                        oracle::node_interleaved(&spec, set.clone()),
                        "{set:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn orthogonal_exchange_single_group_free() {
        let spec = platforms::chic().with_nodes(2);
        let m = CostModel::new(&spec);
        let groups = vec![ids(0..8)];
        assert_eq!(m.orthogonal_exchange(&groups, 1e6), 0.0);
    }
}

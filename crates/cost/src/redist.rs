//! Data re-distribution costs between cooperating M-tasks
//! (`TRe(M1, M2, q1, q2, mp1, mp2)` of paper §3.1).

use crate::collectives::{label, CostModel};
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
    pub fn redist_time(
        &self,
        ctx: &CommContext,
        edge: &EdgeData,
        src: &[CoreId],
        dst: &[CoreId],
        overlap: Overlap,
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
            RedistPattern::Block => self.block_redist(ctx, edge.bytes, src, dst),
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

    /// Block → block re-partitioning: the element-overlap volume matrix is
    /// computed symbolically; every core pays its serialised send/receive
    /// time; the result is the slowest core.
    ///
    /// Block distributions are contiguous partitions, so source rank `s`
    /// overlaps only the destination ranks whose blocks intersect
    /// `[s·cs, (s+1)·cs)` — a band of at most `⌈cs/cd⌉ + 1` ranks.  The
    /// pass walks exactly that band in the same s-major order the dense
    /// `redistribution_volumes` matrix would be traversed in, with the same
    /// overlap values, so the floating-point accumulation is bit-identical
    /// to the all-pairs formulation (the test oracle's `block_redist_dense`)
    /// while costing O(qs + qd) instead of O(qs · qd).  A pair is priced from
    /// its endpoints' labels, not by re-deriving their tree level.
    fn block_redist(&self, ctx: &CommContext, bytes: f64, src: &[CoreId], dst: &[CoreId]) -> f64 {
        let qs = src.len();
        let qd = dst.len();
        // Work with a virtual element count so volumes become byte shares.
        let elems: usize = 1 << 20;
        let per_elem = bytes / elems as f64;
        let cs = elems.div_ceil(qs);
        let cd = elems.div_ceil(qd);
        let mut send_time = vec![0.0f64; qs];
        let mut recv_time = vec![0.0f64; qd];
        for s in 0..qs {
            let slo = (s * cs).min(elems);
            let shi = ((s + 1) * cs).min(elems);
            if slo >= shi {
                break; // later source ranks own nothing either
            }
            let from = label(self.spec, src[s]);
            for d in slo / cd..=(shi - 1) / cd {
                let dlo = (d * cd).min(elems);
                let dhi = ((d + 1) * cd).min(elems);
                let v = shi.min(dhi).saturating_sub(slo.max(dlo));
                if v == 0 || src[s] == dst[d] {
                    continue;
                }
                let to = label(self.spec, dst[d]);
                let t = self.labelled_p2p(ctx, from, to, v as f64 * per_elem);
                send_time[s] += t;
                recv_time[d] += t;
            }
        }
        let worst_send = send_time.iter().copied().fold(0.0, f64::max);
        let worst_recv = recv_time.iter().copied().fold(0.0, f64::max);
        worst_send.max(worst_recv)
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
                m.redist_time(&ctx, &e, &g, &g, Overlap::Same),
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
                Overlap::Other
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
        let t = m.redist_time(&ctx, &e, &ids(0..4), &ids(4..8), Overlap::Other);
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
        let within = m.redist_time(&ctx, &e, &ids(0..2), &ids(2..4), Overlap::Other);
        let across = m.redist_time(&ctx, &e, &ids(0..2), &ids(4..6), Overlap::Other);
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
        let t1 = m.redist_time(&ctx, &e1, &ids(0..4), &ids(4..8), Overlap::Other);
        let t2 = m.redist_time(&ctx, &e2, &ids(0..4), &ids(4..8), Overlap::Other);
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

    #[test]
    fn banded_block_redist_is_bit_equal_to_dense() {
        let spec = platforms::chic().with_nodes(16); // 64 cores
        let m = CostModel::new(&spec);
        let mut ctx = CommContext::uniform(&spec);
        ctx.sharers[3] = 2.0;
        ctx.sharers[7] = 5.0;
        // Group-size pairs covering widening, narrowing, equal, uneven, and
        // prime splits; scattered core sets exercise the p2p level logic.
        for (qs, qd) in [
            (4, 4),
            (4, 16),
            (16, 4),
            (7, 13),
            (13, 7),
            (1, 8),
            (8, 1),
            (5, 5),
        ] {
            let src: Vec<CoreId> = (0..qs).map(|i| CoreId((i * 5) % 64)).collect();
            let dst: Vec<CoreId> = (0..qd).map(|i| CoreId((i * 11 + 1) % 64)).collect();
            for bytes in [8.0, 4096.0, 1e6] {
                let fast = m.block_redist(&ctx, bytes, &src, &dst);
                let slow = oracle::block_redist_dense(&m, &ctx, bytes, &src, &dst);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "banded {fast} != dense {slow} for {qs}x{qd} @ {bytes}B"
                );
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

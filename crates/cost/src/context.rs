//! Concurrency context: NIC sharing between concurrently communicating
//! groups.
//!
//! When several groups of cores communicate at the same time (concurrent
//! M-tasks of one layer, or the orthogonal exchanges between them), flows
//! leaving or entering the same node share that node's NIC.  The context
//! records, per node, how many concurrently active groups place cores on
//! the node; the effective inter-node bandwidth of a flow is divided by the
//! sharing factor of the more congested endpoint.
//!
//! Under a *consecutive* mapping each node hosts cores of (at most) one
//! group, so the factor is 1 everywhere; under a *scattered* mapping a node
//! hosts cores of up to `cores_per_node` different groups, so concurrent
//! group-internal communication is throttled — exactly the behaviour the
//! Intel-MPI Multi-Allgather benchmark exhibits in the paper's Fig. 14.

use pt_machine::{ClusterSpec, CoreId};

/// Per-node NIC sharing factors for one communication phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CommContext {
    /// `sharers[n]` = number of concurrently communicating groups with at
    /// least one core on node `n` (minimum 1).
    pub sharers: Vec<f64>,
}

impl CommContext {
    /// No concurrency: every node has a single communicating group.
    pub fn uniform(spec: &ClusterSpec) -> CommContext {
        CommContext {
            sharers: vec![1.0; spec.nodes],
        }
    }

    /// Build the context for a set of groups communicating concurrently.
    ///
    /// O(nodes + Σq): each node remembers the last group that counted it,
    /// so a group counts each of its nodes once.
    pub fn from_groups<G: AsRef<[CoreId]>>(spec: &ClusterSpec, groups: &[G]) -> CommContext {
        let mut counts = vec![0u32; spec.nodes];
        let mut counted_by = vec![usize::MAX; spec.nodes];
        for (i, g) in groups.iter().enumerate() {
            for &c in g.as_ref() {
                let n = spec.label(c).node;
                if counted_by[n] != i {
                    counted_by[n] = i;
                    counts[n] += 1;
                }
            }
        }
        CommContext {
            sharers: counts.iter().map(|&c| f64::from(c.max(1))).collect(),
        }
    }

    /// Sharing factor of a node.
    #[inline]
    pub fn sharing(&self, node: usize) -> f64 {
        self.sharers[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;

    #[test]
    fn uniform_is_all_ones() {
        let spec = platforms::example_4x2x2();
        let ctx = CommContext::uniform(&spec);
        assert!(ctx.sharers.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn consecutive_groups_do_not_share() {
        let spec = platforms::example_4x2x2(); // 4 nodes × 4 cores
                                               // Four groups of four consecutive cores: one node each.
        let groups: Vec<Vec<CoreId>> = (0..4)
            .map(|g| (0..4).map(|i| CoreId(g * 4 + i)).collect())
            .collect();
        let ctx = CommContext::from_groups(&spec, &groups);
        assert!(ctx.sharers.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn scattered_groups_share_every_node() {
        let spec = platforms::example_4x2x2();
        // Four groups, each taking one core per node (scattered).
        let groups: Vec<Vec<CoreId>> = (0..4)
            .map(|g| (0..4).map(|n| CoreId(n * 4 + g)).collect())
            .collect();
        let ctx = CommContext::from_groups(&spec, &groups);
        assert!(ctx.sharers.iter().all(|&s| s == 4.0));
    }

    #[test]
    fn factor_never_below_one() {
        let spec = platforms::example_4x2x2();
        let groups: Vec<Vec<CoreId>> = vec![vec![CoreId(0)]];
        let ctx = CommContext::from_groups(&spec, &groups);
        assert_eq!(ctx.sharing(3), 1.0);
    }
}

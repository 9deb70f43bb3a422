//! Architecture-aware mapping of symbolic to physical cores (paper §3.4).
//!
//! The scheduling step produced groups of *symbolic* cores; the mapping
//! step arranges the machine's physical cores into a sequence and assigns
//! the i-th symbolic core (in group order) to the i-th physical core of the
//! sequence — the mapping function `F_W`.  Three sequences are studied:
//!
//! * **consecutive** — cores of the same node are adjacent: a group fills
//!   whole nodes before touching the next, so group-internal communication
//!   stays inside nodes (best for group-based and global collectives),
//! * **scattered** — corresponding cores of different nodes alternate: a
//!   group takes one core per node round-robin, so *orthogonal*
//!   communication between concurrent groups becomes node-local,
//! * **mixed(d)** — `d` consecutive cores per node, then the next node;
//!   `d = 1` is scattered, `d = cores_per_node` is consecutive.

use pt_machine::{ClusterSpec, CoreId};
use serde::{Deserialize, Error, Serialize, Value};

/// The mapping strategy selecting the physical core sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingStrategy {
    /// Fill node after node (paper Fig. 9).
    Consecutive,
    /// Round-robin over nodes (paper Fig. 10).
    Scattered,
    /// `d` consecutive cores of a node, then the next node (paper Fig. 11).
    Mixed(usize),
}

impl MappingStrategy {
    /// All strategies meaningful on a platform: consecutive, scattered and
    /// every proper divisor `1 < d < cores_per_node`.
    pub fn all_for(spec: &ClusterSpec) -> Vec<MappingStrategy> {
        let cpn = spec.cores_per_node();
        let mut out = vec![MappingStrategy::Consecutive, MappingStrategy::Scattered];
        for d in 2..cpn {
            if cpn.is_multiple_of(d) {
                out.push(MappingStrategy::Mixed(d));
            }
        }
        out
    }

    /// Short display name (`consecutive`, `scattered`, `mixed(d=2)`).
    pub fn name(&self) -> String {
        match self {
            MappingStrategy::Consecutive => "consecutive".into(),
            MappingStrategy::Scattered => "scattered".into(),
            MappingStrategy::Mixed(d) => format!("mixed(d={d})"),
        }
    }

    /// The physical core sequence of this strategy on `spec`, containing
    /// every core exactly once.
    pub fn core_sequence(&self, spec: &ClusterSpec) -> Vec<CoreId> {
        let cpn = spec.cores_per_node();
        let n = spec.nodes;
        match *self {
            MappingStrategy::Consecutive => spec.all_cores().collect(),
            MappingStrategy::Scattered => {
                // Slot-major: for every within-node core slot, all nodes.
                let mut seq = Vec::with_capacity(n * cpn);
                for slot in 0..cpn {
                    for node in 0..n {
                        seq.push(CoreId(node * cpn + slot));
                    }
                }
                seq
            }
            MappingStrategy::Mixed(d) => {
                assert!(d >= 1, "mixed mapping needs d >= 1");
                let d = d.min(cpn);
                let mut seq = Vec::with_capacity(n * cpn);
                let mut base = 0;
                while base < cpn {
                    let width = d.min(cpn - base);
                    for node in 0..n {
                        for k in 0..width {
                            seq.push(CoreId(node * cpn + base + k));
                        }
                    }
                    base += width;
                }
                seq
            }
        }
    }

    /// Materialise the mapping function for `total` symbolic cores.
    pub fn mapping(&self, spec: &ClusterSpec, total: usize) -> Mapping {
        let seq = self.core_sequence(spec);
        assert!(
            total <= seq.len(),
            "need {total} cores but platform has {}",
            seq.len()
        );
        Mapping {
            sequence: seq[..total].to_vec(),
            strategy: *self,
        }
    }
}

impl std::fmt::Display for MappingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// The mapping function `F_W`: position `i` of the symbolic core sequence →
/// physical core `sequence()[i]`.
///
/// The sequence never repeats a core: every constructor takes a window of
/// a strategy's permutation of the machine, and deserialisation rejects
/// repeats.  So two symbolic ranges map to the same physical cores exactly
/// when they are the same range, and one range's cores lie inside
/// another's exactly when the range does.  The simulators decide set
/// relations between groups from their ranges on that guarantee.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mapping {
    /// Physical cores in sequence order (truncated to the scheduled core
    /// count).
    sequence: Vec<CoreId>,
    /// The strategy that produced the sequence.
    pub strategy: MappingStrategy,
}

impl Mapping {
    /// Physical cores in sequence order.
    pub fn sequence(&self) -> &[CoreId] {
        &self.sequence
    }

    /// Map a set of symbolic core indices to physical cores.
    pub fn map(&self, symbolic: &[usize]) -> Vec<CoreId> {
        symbolic.iter().map(|&s| self.sequence[s]).collect()
    }

    /// Map a contiguous symbolic range (a group).
    pub fn map_range(&self, range: std::ops::Range<usize>) -> Vec<CoreId> {
        self.sequence[range].to_vec()
    }

    /// Number of mapped symbolic cores.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True if no cores are mapped.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Rejects a sequence that repeats a core, so a deserialized mapping keeps
/// the guarantee every constructed one has.
impl Deserialize for Mapping {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let sequence = Vec::<CoreId>::deserialize(serde::field(v, "sequence")?)?;
        let strategy = MappingStrategy::deserialize(serde::field(v, "strategy")?)?;
        let mut sorted = sequence.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(Error::msg(format!("mapping repeats core {}", w[0].0)));
        }
        Ok(Mapping { sequence, strategy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;

    /// Paper Fig. 9–11 use 4 nodes × 2 processors × 2 cores.
    fn fig_platform() -> ClusterSpec {
        platforms::example_4x2x2()
    }

    fn labels(spec: &ClusterSpec, seq: &[CoreId]) -> Vec<String> {
        seq.iter().map(|&c| spec.label(c).to_string()).collect()
    }

    #[test]
    fn every_strategy_is_a_permutation() {
        let spec = fig_platform();
        for s in [
            MappingStrategy::Consecutive,
            MappingStrategy::Scattered,
            MappingStrategy::Mixed(2),
            MappingStrategy::Mixed(3),
        ] {
            let mut seq = s.core_sequence(&spec);
            assert_eq!(seq.len(), spec.total_cores(), "{s}");
            seq.sort_unstable();
            seq.dedup();
            assert_eq!(seq.len(), spec.total_cores(), "{s} repeats cores");
        }
    }

    #[test]
    fn consecutive_matches_fig9() {
        // Fig. 9: groups of 4 symbolic cores map to whole nodes.
        let spec = fig_platform();
        let m = MappingStrategy::Consecutive.mapping(&spec, 16);
        let g1 = m.map_range(0..4);
        assert!(g1.iter().all(|&c| spec.label(c).node == 0));
        let g3 = m.map_range(8..12);
        assert!(g3.iter().all(|&c| spec.label(c).node == 2));
    }

    #[test]
    fn scattered_matches_fig10() {
        // Fig. 10: each group of 4 takes one core of every node.
        let spec = fig_platform();
        let m = MappingStrategy::Scattered.mapping(&spec, 16);
        for g in 0..4 {
            let group = m.map_range(g * 4..(g + 1) * 4);
            let nodes: std::collections::HashSet<_> =
                group.iter().map(|&c| spec.label(c).node).collect();
            assert_eq!(nodes.len(), 4, "group {g} must span all nodes");
        }
        // First four sequence entries: core slot 0 of nodes 0..4.
        assert_eq!(
            labels(&spec, &m.sequence()[..4]),
            vec!["0.0.0", "1.0.0", "2.0.0", "3.0.0"]
        );
    }

    #[test]
    fn mixed_d2_matches_fig11() {
        // Fig. 11 (d = 2): two consecutive cores of node 0, two of node 1, …
        let spec = fig_platform();
        let m = MappingStrategy::Mixed(2).mapping(&spec, 16);
        assert_eq!(
            labels(&spec, &m.sequence()[..6]),
            vec!["0.0.0", "0.0.1", "1.0.0", "1.0.1", "2.0.0", "2.0.1"]
        );
        // A group of 4 symbolic cores = 2 cores each of 2 nodes.
        let group = m.map_range(0..4);
        let nodes: std::collections::HashSet<_> =
            group.iter().map(|&c| spec.label(c).node).collect();
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn mixed_extremes_equal_other_strategies() {
        let spec = fig_platform();
        assert_eq!(
            MappingStrategy::Mixed(1).core_sequence(&spec),
            MappingStrategy::Scattered.core_sequence(&spec)
        );
        assert_eq!(
            MappingStrategy::Mixed(spec.cores_per_node()).core_sequence(&spec),
            MappingStrategy::Consecutive.core_sequence(&spec)
        );
    }

    #[test]
    fn all_for_lists_proper_divisors() {
        let juropa = platforms::juropa(); // 8 cores per node
        let strategies = MappingStrategy::all_for(&juropa);
        assert!(strategies.contains(&MappingStrategy::Mixed(2)));
        assert!(strategies.contains(&MappingStrategy::Mixed(4)));
        assert!(!strategies.contains(&MappingStrategy::Mixed(3)));
    }

    #[test]
    fn groups_map_to_disjoint_physical_sets() {
        let spec = fig_platform();
        for s in MappingStrategy::all_for(&spec) {
            let m = s.mapping(&spec, 16);
            let g1 = m.map_range(0..8);
            let g2 = m.map_range(8..16);
            for c in &g1 {
                assert!(!g2.contains(c), "{s}: groups overlap");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need")]
    fn mapping_rejects_oversubscription() {
        let spec = fig_platform();
        let _ = MappingStrategy::Consecutive.mapping(&spec, 17);
    }
}

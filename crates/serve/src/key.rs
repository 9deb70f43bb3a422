//! Content addressing of schedule requests.
//!
//! The service caches schedules under a **structural signature** of every
//! input the scheduling pipeline reads: the task graph (works, internal
//! communication, core caps, edges), the machine description, the symbolic
//! core count `P`, the mapping strategy (it selects the simulated makespan
//! stored with the schedule) and the scheduler policy knobs.  Task *names*
//! are deliberately excluded — two graphs that differ only in labels
//! produce bit-identical schedules, so they share a cache entry.
//!
//! A signature is a 128-bit hash (two independent 64-bit streams), which
//! makes accidental collisions vanishingly unlikely — but the cache never
//! *relies* on that: every hash hit is verified with
//! [`ScheduleRequest::same_inputs`], a full structural comparison, so a
//! collision degrades into a second cache entry under the same hash, never
//! into the wrong schedule.

use pt_core::MappingStrategy;
use pt_machine::ClusterSpec;
use pt_mtask::TaskGraph;
use std::sync::Arc;

/// Scheduler policy knobs that change the produced schedule (the paper's
/// Algorithm 1 switches): the `g`-selection mode plus the two ablation
/// toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GPolicy {
    /// `None`: sweep `g = 1..P` per layer (the paper's default);
    /// `Some(g)`: force `g` groups per layer.
    pub fixed_groups: Option<usize>,
    /// Apply the group-adjustment step.
    pub adjust: bool,
    /// Contract maximal linear chains before layering.
    pub contract_chains: bool,
}

impl Default for GPolicy {
    fn default() -> Self {
        GPolicy {
            fixed_groups: None,
            adjust: true,
            contract_chains: true,
        }
    }
}

/// A fully specified schedule request — the preimage of the cache key.
#[derive(Debug, Clone)]
pub struct ScheduleRequest {
    /// The task graph to schedule.
    pub graph: Arc<TaskGraph>,
    /// The machine model (already sized to the requested partition).
    pub machine: Arc<ClusterSpec>,
    /// Symbolic cores `P` to schedule onto (≤ the machine's cores).
    pub total_cores: usize,
    /// Mapping strategy used for the simulated makespan in the reply.
    pub mapping: MappingStrategy,
    /// Scheduler policy.
    pub policy: GPolicy,
}

/// 128-bit content signature of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub u128);

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl ScheduleRequest {
    /// Request with the default policy, scheduling onto every core of the
    /// machine.
    pub fn new(graph: Arc<TaskGraph>, machine: Arc<ClusterSpec>, mapping: MappingStrategy) -> Self {
        let total_cores = machine.total_cores();
        ScheduleRequest {
            graph,
            machine,
            total_cores,
            mapping,
            policy: GPolicy::default(),
        }
    }

    /// Check the request against the invariants the scheduling pipeline
    /// would otherwise enforce by panicking; returns a user-facing message.
    pub fn validate(&self) -> Result<(), String> {
        if self.graph.is_empty() {
            return Err("task graph is empty".into());
        }
        if self.total_cores < 1 {
            return Err("need at least one symbolic core".into());
        }
        if self.total_cores > self.machine.total_cores() {
            return Err(format!(
                "requested {} symbolic cores but machine `{}` has {}",
                self.total_cores,
                self.machine.name,
                self.machine.total_cores()
            ));
        }
        if self.policy.fixed_groups == Some(0) {
            return Err("a fixed group count must be at least 1".into());
        }
        if let MappingStrategy::Mixed(d) = self.mapping {
            if d < 1 {
                return Err("mixed mapping needs d >= 1".into());
            }
        }
        Ok(())
    }

    /// The cache key: a structural hash of every schedule-relevant input.
    pub fn signature(&self) -> Signature {
        let mut h = Sig128::new(0x5CED_CA5E);
        hash_graph(&mut h, &self.graph);
        hash_machine(&mut h, &self.machine);
        h.write_u64(self.total_cores as u64);
        hash_mapping(&mut h, self.mapping);
        h.write_u64(match self.policy.fixed_groups {
            None => u64::MAX,
            Some(g) => g as u64,
        });
        h.write_u64(u64::from(self.policy.adjust));
        h.write_u64(u64::from(self.policy.contract_chains));
        Signature(h.finish())
    }

    /// Full structural equality of the inputs — the collision check behind
    /// every cache hit.  Exactly the relation refined by
    /// [`signature`](Self::signature): equal inputs always produce equal
    /// signatures, and a hash hit whose inputs differ is treated as a miss.
    pub fn same_inputs(&self, other: &ScheduleRequest) -> bool {
        self.total_cores == other.total_cores
            && self.mapping == other.mapping
            && self.policy == other.policy
            && (Arc::ptr_eq(&self.machine, &other.machine) || self.machine == other.machine)
            && (Arc::ptr_eq(&self.graph, &other.graph)
                || graphs_structurally_equal(&self.graph, &other.graph))
    }
}

/// Structural graph equality ignoring task names: same task count, same
/// per-task cost inputs (work, communication operations, core cap) in id
/// order, and the same edge set with equal payloads.
pub fn graphs_structurally_equal(a: &TaskGraph, b: &TaskGraph) -> bool {
    if a.len() != b.len() || a.edge_count() != b.edge_count() {
        return false;
    }
    for id in a.task_ids() {
        let (ta, tb) = (a.task(id), b.task(id));
        if ta.work.to_bits() != tb.work.to_bits()
            || ta.max_cores != tb.max_cores
            || ta.comm.len() != tb.comm.len()
        {
            return false;
        }
        for (oa, ob) in ta.comm.iter().zip(&tb.comm) {
            if oa.kind != ob.kind
                || oa.bytes.to_bits() != ob.bytes.to_bits()
                || oa.count.to_bits() != ob.count.to_bits()
            {
                return false;
            }
        }
    }
    // Counts are equal, so a ⊆ b suffices.
    a.edges().all(|(from, to, ea)| {
        b.edge(from, to)
            .is_some_and(|eb| ea.pattern == eb.pattern && ea.bytes.to_bits() == eb.bytes.to_bits())
    })
}

/// Two independent FxHash-style 64-bit streams combined into a 128-bit
/// digest.  Deterministic across processes (fixed multipliers, no
/// `RandomState`), cheap (one rotate-xor-multiply per word per stream).
struct Sig128 {
    a: u64,
    b: u64,
}

const MUL_A: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const MUL_B: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

impl Sig128 {
    fn new(seed: u64) -> Self {
        Sig128 {
            a: seed,
            b: seed ^ 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.a = (self.a.rotate_left(5) ^ v).wrapping_mul(MUL_A);
        self.b = (self.b.rotate_left(7) ^ v).wrapping_mul(MUL_B);
    }

    #[inline]
    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Fold in a value whose position in the stream must not matter (edge
    /// iteration order is an implementation detail of the graph's hash
    /// map): combine sub-digests commutatively.
    fn write_unordered(&mut self, (a, b): (u64, u64)) {
        self.a = self.a.wrapping_add(a);
        self.b = self.b.wrapping_add(b);
    }

    fn finish(self) -> u128 {
        // One more mix so trailing zero-writes still disperse.
        let a = (self.a ^ (self.a >> 31)).wrapping_mul(MUL_A);
        let b = (self.b ^ (self.b >> 29)).wrapping_mul(MUL_B);
        (u128::from(a) << 64) | u128::from(b)
    }
}

fn hash_graph(h: &mut Sig128, g: &TaskGraph) {
    h.write_u64(g.len() as u64);
    for id in g.task_ids() {
        let t = g.task(id);
        h.write_f64(t.work);
        h.write_u64(match t.max_cores {
            None => u64::MAX,
            Some(c) => c as u64,
        });
        h.write_u64(t.comm.len() as u64);
        for op in &t.comm {
            h.write_u64(op.kind as u64);
            h.write_f64(op.bytes);
            h.write_f64(op.count);
        }
    }
    h.write_u64(g.edge_count() as u64);
    for (from, to, e) in g.edges() {
        let mut eh = Sig128::new(0xED6E);
        eh.write_u64(from.0 as u64);
        eh.write_u64(to.0 as u64);
        eh.write_f64(e.bytes);
        eh.write_u64(e.pattern as u64);
        let digest = (eh.a, eh.b);
        h.write_unordered(digest);
    }
}

fn hash_machine(h: &mut Sig128, m: &ClusterSpec) {
    h.write_str(&m.name);
    h.write_u64(m.nodes as u64);
    h.write_u64(m.processors_per_node as u64);
    h.write_u64(m.cores_per_processor as u64);
    h.write_f64(m.core_flops);
    for link in [m.intra_processor, m.intra_node, m.inter_node] {
        h.write_f64(link.latency_s);
        h.write_f64(link.bytes_per_s);
    }
    h.write_f64(m.nic_bytes_per_s);
    h.write_u64(u64::from(m.shared_memory_across_nodes));
    // Speed profile: factors are normalized (trailing 1.0s dropped), so any
    // uniform construction hashes like the empty profile and het machines
    // can never collide with their homogeneous twin.
    h.write_u64(m.speed.node_factors().len() as u64);
    for &f in m.speed.node_factors() {
        h.write_f64(f);
    }
    h.write_u64(m.speed.core_factors().len() as u64);
    for &f in m.speed.core_factors() {
        h.write_f64(f);
    }
}

fn hash_mapping(h: &mut Sig128, m: MappingStrategy) {
    match m {
        MappingStrategy::Consecutive => h.write_u64(1),
        MappingStrategy::Scattered => h.write_u64(2),
        MappingStrategy::Mixed(d) => {
            h.write_u64(3);
            h.write_u64(d as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, EdgeData, MTask};

    fn toy_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::with_comm(
            "a",
            1e9,
            vec![CommOp::allgather(8e3, 1.0)],
        ));
        let b = g.add_task(MTask::compute("b", 2e9).max_cores(8));
        g.add_edge(a, b, EdgeData::replicated(4e3));
        g
    }

    fn base_request() -> ScheduleRequest {
        ScheduleRequest::new(
            Arc::new(toy_graph()),
            Arc::new(platforms::chic().with_nodes(4)),
            MappingStrategy::Consecutive,
        )
    }

    #[test]
    fn signature_is_deterministic_and_name_blind() {
        let r = base_request();
        assert_eq!(r.signature(), r.signature());
        // Same structure, different task names: same signature, equal inputs.
        let mut renamed = toy_graph();
        renamed.task_mut(pt_mtask::TaskId(0)).name = "zzz".into();
        let r2 = ScheduleRequest {
            graph: Arc::new(renamed),
            ..r.clone()
        };
        assert_eq!(r.signature(), r2.signature());
        assert!(r.same_inputs(&r2));
    }

    /// Every schedule-relevant input must perturb the signature — the
    /// bugfix-guard for key completeness.  Each variation also fails the
    /// structural equality check, so even a colliding hash could not alias
    /// two of these requests.
    #[test]
    fn every_input_perturbs_the_signature() {
        let base = base_request();
        let sig = base.signature();

        let mut variations: Vec<(&str, ScheduleRequest)> = Vec::new();

        // Machine: different platform, and same platform at another size.
        variations.push((
            "platform",
            ScheduleRequest {
                machine: Arc::new(platforms::juropa().with_nodes(4)),
                total_cores: base.total_cores,
                ..base.clone()
            },
        ));
        let bigger = platforms::chic().with_nodes(8);
        variations.push((
            "machine size",
            ScheduleRequest {
                machine: Arc::new(bigger.clone()),
                total_cores: base.total_cores,
                ..base.clone()
            },
        ));
        // P alone (same machine).
        variations.push((
            "total_cores",
            ScheduleRequest {
                machine: Arc::new(bigger.clone()),
                total_cores: bigger.total_cores(),
                ..base.clone()
            },
        ));
        // Mapping strategy.
        for m in [MappingStrategy::Scattered, MappingStrategy::Mixed(2)] {
            variations.push((
                "mapping",
                ScheduleRequest {
                    mapping: m,
                    ..base.clone()
                },
            ));
        }
        // Policy knobs.
        variations.push((
            "fixed_groups",
            ScheduleRequest {
                policy: GPolicy {
                    fixed_groups: Some(2),
                    ..base.policy
                },
                ..base.clone()
            },
        ));
        variations.push((
            "adjust",
            ScheduleRequest {
                policy: GPolicy {
                    adjust: false,
                    ..base.policy
                },
                ..base.clone()
            },
        ));
        variations.push((
            "contract_chains",
            ScheduleRequest {
                policy: GPolicy {
                    contract_chains: false,
                    ..base.policy
                },
                ..base.clone()
            },
        ));
        // Graph: work, comm bytes, comm count, core cap, edge payload,
        // extra edge, extra task.
        let mut g = toy_graph();
        g.task_mut(pt_mtask::TaskId(0)).work += 1.0;
        variations.push(("task work", with_graph(&base, g)));
        let mut g = toy_graph();
        g.task_mut(pt_mtask::TaskId(0)).comm[0].bytes += 1.0;
        variations.push(("comm bytes", with_graph(&base, g)));
        let mut g = toy_graph();
        g.task_mut(pt_mtask::TaskId(0)).comm[0].count += 1.0;
        variations.push(("comm count", with_graph(&base, g)));
        let mut g = toy_graph();
        g.task_mut(pt_mtask::TaskId(1)).max_cores = Some(4);
        variations.push(("max_cores", with_graph(&base, g)));
        let mut g = toy_graph();
        let extra = g.add_task(MTask::compute("c", 5e8));
        g.add_edge(pt_mtask::TaskId(1), extra, EdgeData::ordering());
        variations.push(("extra task", with_graph(&base, g)));
        // Machine speed profile: perturbing any single node's speed factor
        // must miss — the cache can never serve a homogeneous schedule for
        // a heterogeneous machine (or for a differently-het one).
        for node in 0..base.machine.nodes {
            let mut factors = vec![1.0; base.machine.nodes];
            factors[node] = 0.5;
            variations.push((
                "node speed factor",
                ScheduleRequest {
                    machine: Arc::new(
                        base.machine
                            .with_speed(pt_machine::SpeedProfile::with_node_factors(factors)),
                    ),
                    total_cores: base.total_cores,
                    ..base.clone()
                },
            ));
        }
        // A per-core-within-node slowdown likewise.
        let mut core_factors = vec![1.0; base.machine.cores_per_node()];
        *core_factors.last_mut().unwrap() = 0.25;
        variations.push((
            "core speed factor",
            ScheduleRequest {
                machine: Arc::new(
                    base.machine
                        .with_speed(pt_machine::SpeedProfile::with_core_factors(core_factors)),
                ),
                total_cores: base.total_cores,
                ..base.clone()
            },
        ));

        for (what, v) in variations {
            assert_ne!(sig, v.signature(), "{what} did not change the signature");
            assert!(!base.same_inputs(&v), "{what} still compares equal");
        }
    }

    fn with_graph(base: &ScheduleRequest, g: TaskGraph) -> ScheduleRequest {
        ScheduleRequest {
            graph: Arc::new(g),
            ..base.clone()
        }
    }

    #[test]
    fn edge_order_does_not_change_the_signature() {
        // Build the same diamond in two different edge insertion orders.
        let build = |order: &[usize]| {
            let mut g = TaskGraph::new();
            let ids: Vec<_> = (0..4)
                .map(|i| g.add_task(MTask::compute(format!("t{i}"), 1e9 + i as f64)))
                .collect();
            let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
            for &k in order {
                let (a, b) = edges[k];
                g.add_edge(ids[a], ids[b], EdgeData::replicated(64.0));
            }
            g
        };
        let r1 = with_graph(&base_request(), build(&[0, 1, 2, 3]));
        let r2 = with_graph(&base_request(), build(&[3, 2, 1, 0]));
        assert_eq!(r1.signature(), r2.signature());
        assert!(r1.same_inputs(&r2));
    }

    #[test]
    fn validate_rejects_out_of_range_requests() {
        let mut r = base_request();
        r.total_cores = r.machine.total_cores() + 1;
        assert!(r.validate().is_err());
        r.total_cores = 0;
        assert!(r.validate().is_err());
        let mut r = base_request();
        r.policy.fixed_groups = Some(0);
        assert!(r.validate().is_err());
        let mut r = base_request();
        r.graph = Arc::new(TaskGraph::new());
        assert!(r.validate().is_err());
        assert!(base_request().validate().is_ok());
    }
}

//! The ODE workloads' task graphs pinned as `ptsched` builds them: task
//! count, edge count and an FNV-1a hash over every task's and every edge's
//! bits in insertion order, at 1, 2, 10 and 100 unrolled time steps.
//!
//! The spec compiler derives these graphs from def/use declarations; a
//! change to how it tracks writers and readers must leave every task,
//! every edge and their insertion order as they are.  The constants were
//! computed with the compiler that still kept, after a `par`, the readers
//! recorded before it that a branch had written over.

use parallel_tasks::mtask::TaskGraph;
use parallel_tasks::ode::{Bruss2d, Diirk, Epol, Irk, Pab, Pabm};

/// (workload, steps, tasks, edges, hash).
type Pin = (&'static str, usize, usize, usize, u64);

#[rustfmt::skip]
const PINS: [Pin; 20] = [
    ("epol", 1, 39, 45, 0x05c3256319317f87),
    ("epol", 2, 76, 89, 0xb0ce8a68415debb7),
    ("epol", 10, 372, 441, 0x54705086dec56d5f),
    ("epol", 100, 3702, 4401, 0xe633fd0624c4de8f),
    ("irk", 1, 16, 42, 0xec99ffa9f3afe053),
    ("irk", 2, 30, 95, 0x83dd8046943158c0),
    ("irk", 10, 142, 519, 0x73c38f6379789290),
    ("irk", 100, 1402, 5289, 0xba91353c84c735b9),
    ("diirk", 1, 12, 26, 0x7092a62034ff53d2),
    ("diirk", 2, 22, 59, 0x2b54ee8266bbdf94),
    ("diirk", 10, 102, 323, 0x9fc649e478eb7ed4),
    ("diirk", 100, 1002, 3293, 0x715c6a2ad4ff3f6d),
    ("pab", 1, 10, 16, 0x6949888ea9b3e0b5),
    ("pab", 2, 18, 80, 0x1b2253de8b26c91d),
    ("pab", 10, 82, 592, 0xb99ffdfb6440395d),
    ("pab", 100, 802, 6352, 0x7e49b5344019d7ed),
    ("pabm", 1, 26, 88, 0x70df1033da7d7835),
    ("pabm", 2, 50, 224, 0xfc09b013b7bb7f5d),
    ("pabm", 10, 242, 1312, 0x999f2b892aba521d),
    ("pabm", 100, 2402, 13552, 0xadb0817b11916765),
];

/// The graph `ptsched` schedules for `name` at `steps` steps.
fn workload(name: &str, steps: usize) -> TaskGraph {
    let sparse = Bruss2d::new(250);
    match name {
        "epol" => Epol::new(8).step_graph(&sparse, steps),
        "irk" => Irk::new(4, 3).step_graph(&sparse, steps),
        "diirk" => Diirk::new(4, 2).step_graph(&Bruss2d::new(80), steps, 2.0),
        "pab" => Pab::new(8).step_graph(&sparse, steps),
        "pabm" => Pabm::new(8, 2).step_graph(&sparse, steps),
        other => panic!("unknown workload {other}"),
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of every task (name, work, operations, core cap) and every edge
/// (endpoints, bytes, pattern), in insertion order.
fn graph_hash(g: &TaskGraph) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for id in g.task_ids() {
        let t = g.task(id);
        for b in t.name.bytes() {
            h.word(u64::from(b));
        }
        h.word(t.work.to_bits());
        h.word(t.max_cores.map_or(u64::MAX, |c| c as u64));
        h.word(t.comm.len() as u64);
        for op in &t.comm {
            h.word(op.kind as u64);
            h.word(op.bytes.to_bits());
            h.word(op.count.to_bits());
        }
    }
    for (from, to, e) in g.edges() {
        h.word(from.0 as u64);
        h.word(to.0 as u64);
        h.word(e.bytes.to_bits());
        h.word(e.pattern as u64);
    }
    h.0
}

#[test]
fn ode_graphs_match_pinned_bits() {
    let mut failed = Vec::new();
    for &(name, steps, tasks, edges, hash) in &PINS {
        let g = workload(name, steps);
        let got = (g.len(), g.edge_count(), graph_hash(&g));
        if got != (tasks, edges, hash) {
            failed.push(format!(
                "(\"{name}\", {steps}, {}, {}, {:#018x}) pinned as ({tasks}, {edges}, {hash:#018x})",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

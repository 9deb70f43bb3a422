//! The heterogeneity-aware and baseline schedulers' output pinned to the
//! bit: CPA's and CPR's list schedules (every entry's task, cores and
//! start/finish bits), and AMTHA's, the heterogeneity-aware layer path's
//! and the speed-blind layer path's layered schedules (every layer's group
//! sizes and ordered assignments).
//!
//! The graphs are EPOL R = 8 on BRUSS2D 500 and `ptsched`'s `irk`, `pabm`
//! and `bt-mz` (class B), two time steps each.  The machines are a
//! two-class JuRoPA (32 nodes, the last 8 at half speed) and a CHiC whose
//! class 0 runs above nominal speed (16 nodes, the last 4 at 3×), where
//! the fastest class scales every price the schedulers compute.  Each
//! schedule is folded into one FNV-1a hash; a change that moves any core,
//! time or group fails here by case and scheduler name.

use parallel_tasks::core::{Amtha, Cpa, Cpr, LayerScheduler, LayeredSchedule, SymbolicSchedule};
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::{platforms, ClusterSpec};
use parallel_tasks::mtask::TaskGraph;
use parallel_tasks::nas::{bt_mz, Class};
use parallel_tasks::ode::{Bruss2d, Epol, Irk, Pabm};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn hash_list(s: &SymbolicSchedule) -> u64 {
    let mut h = Fnv::new();
    h.word(s.total_cores as u64);
    h.word(s.entries.len() as u64);
    for e in &s.entries {
        h.word(e.task.0 as u64);
        h.word(e.cores.len() as u64);
        for &c in &e.cores {
            h.word(c as u64);
        }
        h.word(e.est_start.to_bits());
        h.word(e.est_finish.to_bits());
    }
    h.0
}

fn hash_layered(s: &LayeredSchedule) -> u64 {
    let mut h = Fnv::new();
    h.word(s.total_cores as u64);
    h.word(s.layers.len() as u64);
    for layer in &s.layers {
        h.word(layer.group_sizes.len() as u64);
        for &size in &layer.group_sizes {
            h.word(size as u64);
        }
        for group in &layer.assignments {
            h.word(group.len() as u64);
            for t in group {
                h.word(t.0 as u64);
            }
        }
    }
    h.0
}

fn graph(name: &str) -> TaskGraph {
    let sparse = Bruss2d::new(250);
    match name {
        "epol" => Epol::new(8).step_graph(&Bruss2d::new(500), 2),
        "irk" => Irk::new(4, 3).step_graph(&sparse, 2),
        "pabm" => Pabm::new(8, 2).step_graph(&sparse, 2),
        "bt-mz" => bt_mz(Class::B).step_graph(2),
        other => unreachable!("no graph {other}"),
    }
}

fn machine(name: &str) -> ClusterSpec {
    match name {
        "juropa-32-slow8" => platforms::juropa().with_nodes(32).with_slow_nodes(8, 0.5),
        "chic-16-fast4" => platforms::chic().with_nodes(16).with_slow_nodes(4, 3.0),
        other => unreachable!("no machine {other}"),
    }
}

/// (machine, graph, CPA, CPR, AMTHA, het layer path, speed-blind layer
/// path) schedule hashes.
type Pin = (&'static str, &'static str, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const PINS: [Pin; 8] = [
    ("juropa-32-slow8", "epol", 0xd3db6960e7ba22a1, 0xc06faac2c9915542, 0x2b77f8795ec7f90f, 0x2d8f87fdaec32a3f, 0x3418faac19ffa4bf),
    ("juropa-32-slow8", "irk", 0x16ab64181d1e6fc3, 0xdc9d65132fc5d861, 0x49637f54508f4e40, 0x57795527daf86e7c, 0xda0e47e72a6b937c),
    ("juropa-32-slow8", "pabm", 0x0d74224b785b3666, 0x1b76ce3cb3bed016, 0xa34fa0055bc93eae, 0x891cae4ae27360ae, 0x58ad9b5e378474ae),
    ("juropa-32-slow8", "bt-mz", 0xf71f526fab337e78, 0x9f30cbc6a44ee22a, 0x60e5b3aaa3420d68, 0x4fca54d271d13cc8, 0x6756a59e6df39aa8),
    ("chic-16-fast4", "epol", 0x07e35f905dca3cbe, 0xdfc62ef734341ed1, 0x8363197042de2f80, 0xa994e8c3ebef25c0, 0xf3fe09cb7e38e3c0),
    ("chic-16-fast4", "irk", 0x4f1995a6896ad58f, 0x74388c7614d3bb89, 0xb0b345f50458ef0f, 0x02f8be947bcab50f, 0x6ff40e68d797ab0f),
    ("chic-16-fast4", "pabm", 0x772f87c59def048f, 0x5852afd3b26df803, 0xdf6c2ffd7a600ba1, 0xcc0bc0fb2ea379a1, 0x4c8b4980c194f1a1),
    ("chic-16-fast4", "bt-mz", 0xda4677b61cd6c874, 0xb06de717b411201f, 0xe334878666c66f27, 0x4681400e7f018b27, 0x0c8e86012be5c5a7),
];

#[test]
fn schedulers_match_pinned_bits() {
    let mut drift = Vec::new();
    for &(m, name, cpa, cpr, amtha, het, blind) in &PINS {
        let spec = machine(m);
        let model = CostModel::new(&spec);
        assert!(!model.is_uniform(), "{m} must have two speed classes");
        let g = graph(name);
        let got = [
            ("CPA", hash_list(&Cpa::new(&model).schedule(&g)), cpa),
            ("CPR", hash_list(&Cpr::new(&model).schedule(&g)), cpr),
            (
                "AMTHA",
                hash_layered(&Amtha::new(&model).schedule(&g)),
                amtha,
            ),
            (
                "het",
                hash_layered(&LayerScheduler::new(&model).schedule(&g)),
                het,
            ),
            (
                "blind",
                hash_layered(&LayerScheduler::new(&model).speed_blind().schedule(&g)),
                blind,
            ),
        ];
        for (what, value, pinned) in got {
            if value != pinned {
                drift.push(format!(
                    "{m} {name} {what}: {value:#018x}, pinned {pinned:#018x}"
                ));
            }
        }
    }
    assert!(drift.is_empty(), "schedules drifted:\n{}", drift.join("\n"));
}

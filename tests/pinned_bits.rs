//! The simulators' answers pinned to the bit: `simulate_layered`'s
//! makespan and total redistribution, and `simulate_flat`'s makespan, on
//! JuRoPA for the paper's EPOL R = 8 on BRUSS2D 500 and `ptsched`'s `irk`,
//! `pabm` and `bt-mz` graphs (two time steps each), under three mappings.
//!
//! The constants were computed with the per-pair, unmemoised pricing that
//! the label and memo paths replaced.  A change that moves any simulated
//! time fails here by case name; if the move is intended, recompute the
//! table and say why in the change log.

use parallel_tasks::core::{LayerScheduler, MappingStrategy};
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::platforms;
use parallel_tasks::mtask::TaskGraph;
use parallel_tasks::nas::{bt_mz, Class};
use parallel_tasks::ode::{Bruss2d, Epol, Irk, Pabm};
use parallel_tasks::sim::Simulator;

/// (graph, P, mapping, layered makespan bits, layered total_redist bits,
/// flat makespan bits at P = 64).
type Pin = (&'static str, usize, &'static str, u64, u64, Option<u64>);

#[rustfmt::skip]
const PINS: [Pin; 24] = [
    ("epol", 64, "consecutive", 0x3fb19399e2a358c2, 0x3f7178ed288ce704, Some(0x3fb5614761524dee)),
    ("epol", 64, "scattered", 0x3fd15e318f197af4, 0x3f70c6d6929001b2, Some(0x3fd19211f28c1a05)),
    ("epol", 64, "mixed2", 0x3fc23dd45e59916f, 0x3f70ebb6b414fe4e, Some(0x3fc5693a47eb5dbf)),
    ("epol", 4096, "consecutive", 0x3fbd6a3f8f90d362, 0x3f401c4c2cb7a759, None),
    ("epol", 4096, "scattered", 0x3fd2bf79652c6a22, 0x3f401c4c2cb7a759, None),
    ("epol", 4096, "mixed2", 0x3fc5c92251ab6616, 0x3f401c4c2cb7a759, None),
    ("irk", 64, "consecutive", 0x3f80fd910b13695a, 0x3f71180ea2e95cde, Some(0x3f723eda8b06310d)),
    ("irk", 64, "scattered", 0x3f9c9c2811e14664, 0x3f58a4cade6e6e2b, Some(0x3f9b42af88f1d765)),
    ("irk", 64, "mixed2", 0x3f8e040551c58dbe, 0x3f4fcfa9201f5a38, Some(0x3f8c68b309b287e0)),
    ("irk", 4096, "consecutive", 0x3f9b721153f868c3, 0x3f1c528db3231f30, None),
    ("irk", 4096, "scattered", 0x3f8553c086db1ede, 0x3f10273bf5c12972, None),
    ("irk", 4096, "mixed2", 0x3f93d3d59d215fec, 0x3f0791819d2391d6, None),
    ("pabm", 64, "consecutive", 0x3f82490ef3c28f9b, 0x3f7e09e827e3bb6d, Some(0x3f64eae3bea7f09e)),
    ("pabm", 64, "scattered", 0x3f8f0ffda1d24994, 0x3f4231fbfb8e8138, Some(0x3f909c7343c95dcc)),
    ("pabm", 64, "mixed2", 0x3f8e9bcddd77ca7c, 0x3f7e09e827e3bb6d, Some(0x3f84771c4d476630)),
    ("pabm", 4096, "consecutive", 0x3f905cb687535984, 0x3f214ae9c1888457, None),
    ("pabm", 4096, "scattered", 0x3f907ad15fd51ea4, 0x3ee1dad8ff0a36bb, None),
    ("pabm", 4096, "mixed2", 0x3f90758ba6d4ff0b, 0x3eff54bb8accbed2, None),
    ("bt-mz", 64, "consecutive", 0x3f9a57f84ded3174, 0x3f71986e4b622914, Some(0x3f963313a067601d)),
    ("bt-mz", 64, "scattered", 0x3f9a57f84ded3174, 0x3f71986e4b622914, Some(0x3f9612db7ff2d9c6)),
    ("bt-mz", 64, "mixed2", 0x3f9a57f84ded3174, 0x3f71986e4b622914, Some(0x3f960ce7977aad32)),
    ("bt-mz", 4096, "consecutive", 0x3f7be558e3f53784, 0x3f06d5b32e7dab93, None),
    ("bt-mz", 4096, "scattered", 0x3fab055dde0772dd, 0x3f06d5b32e7dab93, None),
    ("bt-mz", 4096, "mixed2", 0x3f9fb50e45059cc6, 0x3f06d5b32e7dab93, None),
];

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

fn mapping(name: &str) -> MappingStrategy {
    match name {
        "consecutive" => MappingStrategy::Consecutive,
        "scattered" => MappingStrategy::Scattered,
        "mixed2" => MappingStrategy::Mixed(2),
        other => unreachable!("no mapping {other}"),
    }
}

#[test]
fn simulated_times_match_pinned_bits() {
    let mut drift = Vec::new();
    for &(name, p, strategy, makespan, redist, flat) in &PINS {
        let g = graph(name);
        let spec = platforms::juropa().with_nodes(p / 8);
        let model = CostModel::new(&spec);
        let sched = LayerScheduler::new(&model).schedule(&g);
        let sim = Simulator::new(&model);
        let m = mapping(strategy).mapping(&spec, p);
        let rep = sim.simulate_layered(&g, &sched, &m);
        let mut got = vec![
            ("layered makespan", rep.makespan, makespan),
            ("layered total_redist", rep.total_redist, redist),
        ];
        if let Some(flat) = flat {
            let f = sim.simulate_flat(&g, &sched.to_symbolic(), &m).makespan;
            got.push(("flat makespan", f, flat));
        }
        for (what, value, pinned) in got {
            if value.to_bits() != pinned {
                drift.push(format!(
                    "{name} P={p} {strategy} {what}: {value:e} ({:#018x}), pinned {:e} ({pinned:#018x})",
                    value.to_bits(),
                    f64::from_bits(pinned)
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "simulated times drifted:\n{}",
        drift.join("\n")
    );
}

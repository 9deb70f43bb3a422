//! Ablation study of the design choices DESIGN.md calls out:
//!
//! 1. **Group adjustment** (Algorithm 1's third step) on/off — matters for
//!    layers with unequal work (EPOL's chains, BT-MZ's zones).
//! 2. **Chain contraction** (step 1) on/off — keeps chain members on one
//!    group, avoiding the re-distribution between micro steps.
//! 3. **Allgather algorithm threshold** — where the ring/recursive-doubling
//!    switch sits changes which mapping wins at a given message size.
//!
//! ```text
//! cargo run -p pt-bench --release --bin ablations
//! ```

use pt_bench::{cases, table};
use pt_core::{LayerScheduler, MappingStrategy};
use pt_cost::{CommContext, CostModel};
use pt_machine::platforms;
use pt_ode::Epol;
use pt_sim::Simulator;

fn main() {
    let chic = platforms::chic();
    let cores = 256usize;
    let spec = chic.with_cores(cores);
    let model = CostModel::new(&spec);
    let sim = Simulator::new(&model);
    let mapping = MappingStrategy::Consecutive.mapping(&spec, cores);

    // ---- 1 + 2: scheduler steps on EPOL ---------------------------------
    let sys = cases::bruss_sparse();
    let graph = Epol::new(8).step_graph(&sys, 2);
    let variants: Vec<(&str, LayerScheduler)> = vec![
        ("full Algorithm 1", LayerScheduler::new(&model)),
        (
            "without adjustment",
            LayerScheduler::new(&model).without_adjustment(),
        ),
        (
            "without chain contraction",
            LayerScheduler::new(&model).without_chain_contraction(),
        ),
        (
            "without both",
            LayerScheduler::new(&model)
                .without_adjustment()
                .without_chain_contraction(),
        ),
    ];
    let mut rows = Vec::new();
    for (label, sched) in &variants {
        let s = sched.schedule(&graph);
        let rep = sim.simulate_layered(&graph, &s, &mapping);
        rows.push((
            label.to_string(),
            vec![1e3 * rep.makespan / 2.0, 1e3 * rep.total_redist / 2.0],
        ));
    }
    table::print(
        "Ablation: scheduler steps — EPOL R=8 on 256 CHiC cores",
        &["time/step [ms]".into(), "redist/step [ms]".into()],
        &rows,
    );

    // ---- 1b: group adjustment on the compute-bound BT-MZ ----------------
    // The blocked assignment already balances *work* across groups (so the
    // adjustment has nothing to fix there); the step matters when the
    // assignment is work-oblivious: give every group the same *number* of
    // zones — BT-MZ's geometric sizes then load the later groups with up
    // to ~4x the work — and compare equal vs work-proportional core sizes.
    let mut mz = pt_nas::bt_mz(pt_nas::Class::C);
    // Compute-bound regime (the paper's BT solver does ~10x the work of
    // our Jacobi cost default per point).
    mz.flops_per_point = 20_000.0;
    let graph_bt = mz.step_graph(2);
    let g = 32usize;
    let per = mz.zones.len() / g;
    let assignment: Vec<Vec<usize>> = (0..g).map(|k| (k * per..(k + 1) * per).collect()).collect();
    let work: Vec<f64> = assignment
        .iter()
        .map(|zs| zs.iter().map(|&z| mz.zones[z].points() as f64).sum())
        .collect();
    let make_sched = |sizes: Vec<usize>| pt_core::LayeredSchedule {
        total_cores: cores,
        layers: (0..2)
            .map(|s| pt_core::LayerSchedule {
                group_sizes: sizes.clone(),
                assignments: assignment
                    .iter()
                    .map(|zs| {
                        zs.iter()
                            .map(|&z| pt_mtask::TaskId(s * mz.zones.len() + z))
                            .collect()
                    })
                    .collect(),
            })
            .collect(),
    };
    let adjusted = make_sched(pt_core::adjust_group_sizes(&work, cores));
    let equal = make_sched(vec![cores / g; g]);
    let rep_adj = sim.simulate_layered(&graph_bt, &adjusted, &mapping);
    let rep_eq = sim.simulate_layered(&graph_bt, &equal, &mapping);
    table::print(
        "Ablation: group adjustment — BT-MZ class C, 32 equal-count zone groups, 256 CHiC cores",
        &["time/step [ms]".into(), "idle fraction".into()],
        &[
            (
                "adjusted group sizes".into(),
                vec![
                    1e3 * rep_adj.makespan / 2.0,
                    rep_adj.layers[0].idle_fraction(),
                ],
            ),
            (
                "equal group sizes".into(),
                vec![
                    1e3 * rep_eq.makespan / 2.0,
                    rep_eq.layers[0].idle_fraction(),
                ],
            ),
        ],
    );

    // ---- 3: allgather algorithm threshold --------------------------------
    let ctx = CommContext::uniform(&spec);
    let mut rows = Vec::new();
    for threshold in [512.0, 4096.0, 65536.0] {
        let mut m = CostModel::new(&spec);
        m.ring_threshold = threshold;
        let cons = MappingStrategy::Consecutive.mapping(&spec, cores);
        let scat = MappingStrategy::Scattered.mapping(&spec, cores);
        let bytes = 8.0 * 1024.0 * cores as f64; // 8 KiB per core
        rows.push((
            format!("ring if block >= {} B", threshold as usize),
            vec![
                1e3 * m.allgather(&ctx, cons.sequence(), bytes),
                1e3 * m.allgather(&ctx, scat.sequence(), bytes),
            ],
        ));
    }
    table::print(
        "Ablation: allgather switch point — 8 KiB/core on 256 CHiC cores [ms]",
        &["consecutive".into(), "scattered".into()],
        &rows,
    );
}

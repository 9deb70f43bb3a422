//! Property-based integration tests over randomly generated task graphs,
//! platforms and schedules.

use parallel_tasks::core::{
    adjust_group_sizes, Cpa, Cpr, DataParallel, LayerScheduler, MappingStrategy,
};
use parallel_tasks::cost::{CommContext, CostModel};
use parallel_tasks::machine::{ClusterSpec, CoreId, LinkParams, SpeedProfile};
use parallel_tasks::mtask::{layers, ChainGraph, CommOp, EdgeData, MTask, TaskGraph, TaskId};
use parallel_tasks::sim::Simulator;
use proptest::prelude::*;

/// A random layered DAG: `width` tasks per rank, edges only forward.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (2usize..5, 1usize..5, any::<u64>()).prop_map(|(depth, width, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut g = TaskGraph::new();
        let mut ranks: Vec<Vec<TaskId>> = Vec::new();
        for d in 0..depth {
            let mut rank = Vec::new();
            for w in 0..width {
                let work = rng.gen_range(1e8..5e9);
                let comm = if rng.gen_bool(0.5) {
                    vec![CommOp::allgather(rng.gen_range(1e3..1e6), 1.0)]
                } else {
                    vec![]
                };
                rank.push(g.add_task(MTask::with_comm(format!("t{d}_{w}"), work, comm)));
            }
            if d > 0 {
                for &t in &rank {
                    // Every task depends on at least one earlier task.
                    let p = ranks[d - 1][rng.gen_range(0..ranks[d - 1].len())];
                    g.add_edge(p, t, EdgeData::replicated(rng.gen_range(8.0..1e6)));
                    if rng.gen_bool(0.3) {
                        let p2 = ranks[d - 1][rng.gen_range(0..ranks[d - 1].len())];
                        if p2 != p {
                            g.add_edge(p2, t, EdgeData::replicated(64.0));
                        }
                    }
                }
            }
            ranks.push(rank);
        }
        g
    })
}

fn toy_cluster(nodes: usize) -> ClusterSpec {
    ClusterSpec {
        name: "prop".into(),
        nodes,
        processors_per_node: 2,
        cores_per_processor: 2,
        core_flops: 1e9,
        speed: SpeedProfile::uniform(),
        intra_processor: LinkParams {
            latency_s: 1e-7,
            bytes_per_s: 8e9,
        },
        intra_node: LinkParams {
            latency_s: 5e-7,
            bytes_per_s: 4e9,
        },
        inter_node: LinkParams {
            latency_s: 4e-6,
            bytes_per_s: 1e9,
        },
        nic_bytes_per_s: 1e9,
        shared_memory_across_nodes: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn layer_schedule_is_always_valid(g in arb_graph(), nodes in 1usize..6) {
        let spec = toy_cluster(nodes);
        let model = CostModel::new(&spec);
        let sched = LayerScheduler::new(&model).schedule(&g);
        prop_assert!(sched.validate().is_ok());
        // Every non-structural task appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for l in &sched.layers {
            for t in l.assignments.iter().flatten() {
                prop_assert!(seen.insert(*t));
            }
        }
        for t in g.task_ids() {
            if !g.task(t).is_structural() {
                prop_assert!(seen.contains(&t), "missing {t:?}");
            }
        }
        // Flattened form passes the precedence check too.
        prop_assert!(sched.to_symbolic().validate(&g).is_ok());
    }

    #[test]
    fn baseline_schedules_are_always_valid(g in arb_graph(), nodes in 1usize..4) {
        let spec = toy_cluster(nodes);
        let model = CostModel::new(&spec);
        prop_assert!(Cpa::new(&model).schedule(&g).validate(&g).is_ok());
        prop_assert!(Cpr::new(&model).schedule(&g).validate(&g).is_ok());
    }

    #[test]
    fn mappings_are_bijections(nodes in 1usize..8) {
        let spec = toy_cluster(nodes);
        for s in MappingStrategy::all_for(&spec) {
            let mut seq = s.core_sequence(&spec);
            prop_assert_eq!(seq.len(), spec.total_cores());
            seq.sort_unstable();
            seq.dedup();
            prop_assert_eq!(seq.len(), spec.total_cores());
        }
    }

    #[test]
    fn adjustment_preserves_totals(work in prop::collection::vec(0.0f64..100.0, 1..10),
                                   extra in 0usize..64) {
        let total = work.len() + extra;
        let sizes = adjust_group_sizes(&work, total);
        prop_assert_eq!(sizes.iter().sum::<usize>(), total);
        // Positive-work groups never starve.
        for (w, s) in work.iter().zip(&sizes) {
            if *w > 0.0 {
                prop_assert!(*s >= 1);
            }
        }
    }

    #[test]
    fn chain_contraction_preserves_work_and_acyclicity(g in arb_graph()) {
        let cg = ChainGraph::contract(&g);
        let rel = (cg.graph.total_work() - g.total_work()).abs() / g.total_work().max(1.0);
        prop_assert!(rel < 1e-12, "relative work drift {rel}");
        prop_assert_eq!(cg.graph.topo_order().len(), cg.graph.len());
        let total: usize = (0..cg.chains.len())
            .map(|c| cg.chains.members(TaskId(c)).len())
            .sum();
        prop_assert_eq!(total, g.len());
    }

    #[test]
    fn layers_partition_topologically(g in arb_graph()) {
        let ls = layers(&g);
        let mut layer_of = std::collections::HashMap::new();
        for (k, layer) in ls.iter().enumerate() {
            for &t in layer {
                layer_of.insert(t, k);
            }
        }
        for (a, b, _) in g.edges() {
            prop_assert!(layer_of[&a] < layer_of[&b]);
        }
    }

    #[test]
    fn simulation_is_deterministic(g in arb_graph(), nodes in 1usize..5) {
        let spec = toy_cluster(nodes);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let sched = LayerScheduler::new(&model).schedule(&g);
        let map = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
        let a = sim.simulate_layered(&g, &sched, &map);
        let b = sim.simulate_layered(&g, &sched, &map);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn data_parallel_never_reorders_dependences(g in arb_graph(), nodes in 1usize..5) {
        let spec = toy_cluster(nodes);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let dp = DataParallel::schedule(&g, spec.total_cores());
        let map = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
        let rep = sim.simulate_layered(&g, &dp, &map);
        for (a, b, _) in g.edges() {
            if g.task(a).is_structural() || g.task(b).is_structural() {
                continue;
            }
            let ta = rep.task(a).unwrap();
            let tb = rep.task(b).unwrap();
            prop_assert!(tb.start >= ta.finish - 1e-12);
        }
    }

    #[test]
    fn makespan_bounded_below_by_critical_compute(g in arb_graph(), nodes in 1usize..5) {
        // No schedule can beat the critical path of pure compute at full
        // machine width.
        let spec = toy_cluster(nodes);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let p = spec.total_cores() as f64;
        let bound: f64 = {
            let tl = g.top_levels(|t| spec.compute_time(g.task(t).work) / p);
            tl.iter().copied().fold(0.0, f64::max)
        };
        let sched = LayerScheduler::new(&model).schedule(&g);
        let map = MappingStrategy::Consecutive.mapping(&spec, spec.total_cores());
        let rep = sim.simulate_layered(&g, &sched, &map);
        prop_assert!(rep.makespan >= bound * 0.999, "{} < {}", rep.makespan, bound);
    }

    #[test]
    fn unit_speed_profile_is_bit_identical_to_the_homogeneous_path(
        g in arb_graph(), nodes in 1usize..5
    ) {
        // A machine whose speed profile is *explicitly* all ones must be
        // indistinguishable — to the bit — from one that never mentions
        // speeds: same costs, same schedules, same simulated reports.
        // This pins the heterogeneity refactor to its contract that
        // homogeneous machines take the exact pre-refactor code path.
        let plain = toy_cluster(nodes);
        let cpn = plain.cores_per_node();
        let p = plain.total_cores();
        let m0 = CostModel::new(&plain);
        for explicit in [
            plain.with_speed(SpeedProfile::with_node_factors(vec![1.0; nodes])),
            plain.with_speed(SpeedProfile::with_core_factors(vec![1.0; cpn])),
        ] {
            prop_assert!(explicit.is_uniform());
            let m1 = CostModel::new(&explicit);
            prop_assert_eq!(m1.classes().len(), 1);
            // Costs, bit for bit, at several widths.
            let ctx = CommContext::uniform(&plain);
            for t in g.task_ids() {
                let task = g.task(t);
                for q in [1usize, cpn, p] {
                    let cores: Vec<CoreId> = (0..q).map(CoreId).collect();
                    prop_assert_eq!(
                        m0.task_time(&ctx, task, &cores).to_bits(),
                        m1.task_time(&ctx, task, &cores).to_bits()
                    );
                }
            }
            // Schedules and simulated reports across every mapping.
            let s0 = LayerScheduler::new(&m0).schedule(&g);
            let s1 = LayerScheduler::new(&m1).schedule(&g);
            prop_assert_eq!(&s0, &s1);
            for strategy in MappingStrategy::all_for(&plain) {
                let map = strategy.mapping(&plain, p);
                let r0 = Simulator::new(&m0).simulate_layered(&g, &s0, &map);
                let r1 = Simulator::new(&m1).simulate_layered(&g, &s1, &map);
                prop_assert_eq!(r0, r1);
            }
        }
    }
}

//! Integration tests for the scheduling service: cache-key completeness
//! (every schedule-relevant input change must miss) and reply correctness
//! (a cached hit is bit-identical to a freshly computed schedule) over
//! randomly generated task graphs.

use parallel_tasks::core::{LayerScheduler, LayeredSchedule, MappingStrategy};
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::{ClusterSpec, LinkParams, SpeedProfile};
use parallel_tasks::mtask::{CommOp, EdgeData, MTask, TaskGraph, TaskId};
use parallel_tasks::serve::{CacheStatus, GPolicy, SchedService, ScheduleRequest, ServeConfig};
use parallel_tasks::sim::Simulator;
use proptest::prelude::*;
use std::sync::Arc;

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
            latency_s: 2e-6,
            bytes_per_s: 1e9,
        },
        nic_bytes_per_s: 1.2e9,
        shared_memory_across_nodes: false,
    }
}

/// A random layered DAG (same shape as `tests/properties.rs`).
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
                    let p = ranks[d - 1][rng.gen_range(0..ranks[d - 1].len())];
                    g.add_edge(p, t, EdgeData::replicated(rng.gen_range(8.0..1e6)));
                }
            }
            ranks.push(rank);
        }
        g
    })
}

fn service() -> SchedService {
    SchedService::new(ServeConfig {
        workers: 2,
        cache_capacity: 128,
        ..ServeConfig::default()
    })
}

/// The service-free reference: schedule and simulate cold.
fn fresh_compute(req: &ScheduleRequest) -> (LayeredSchedule, f64) {
    let model = CostModel::new(&req.machine);
    let mut scheduler = LayerScheduler::new(&model);
    if let Some(g) = req.policy.fixed_groups {
        scheduler = scheduler.with_fixed_groups(g);
    }
    if !req.policy.adjust {
        scheduler = scheduler.without_adjustment();
    }
    if !req.policy.contract_chains {
        scheduler = scheduler.without_chain_contraction();
    }
    let schedule = scheduler.schedule_on(&req.graph, req.total_cores);
    let mapping = req.mapping.mapping(&req.machine, req.total_cores);
    let makespan = Simulator::new(&model)
        .simulate_layered(&req.graph, &schedule, &mapping)
        .makespan;
    (schedule, makespan)
}

/// Changing any schedule-relevant input must miss the cache: a hit after a
/// change would mean the key ignores an input the scheduler reads.
#[test]
fn changed_inputs_always_miss_the_cache() {
    let svc = service();
    let mut g = TaskGraph::new();
    let a = g.add_task(MTask::compute("a", 2e9));
    let b = g.add_task(MTask::compute("b", 3e9));
    g.add_edge(a, b, EdgeData::replicated(1e4));
    let base = ScheduleRequest::new(
        Arc::new(g.clone()),
        Arc::new(toy_cluster(4)),
        MappingStrategy::Consecutive,
    );
    let (_, s) = svc.schedule(base.clone()).expect("base request");
    assert_eq!(s, CacheStatus::Miss);
    let (_, s) = svc.schedule(base.clone()).expect("repeat request");
    assert_eq!(s, CacheStatus::Hit, "unchanged request must hit");

    // Different machine.
    let other_machine = ScheduleRequest::new(
        base.graph.clone(),
        Arc::new(toy_cluster(8)),
        MappingStrategy::Consecutive,
    );
    // Different P on the same machine.
    let mut smaller_p = base.clone();
    smaller_p.total_cores = 8;
    // Different mapping.
    let mut scattered = base.clone();
    scattered.mapping = MappingStrategy::Scattered;
    // Different policy.
    let mut fixed = base.clone();
    fixed.policy = GPolicy {
        fixed_groups: Some(2),
        ..fixed.policy
    };
    // Different graph (one task's work perturbed).
    let mut g2 = g.clone();
    g2.task_mut(a).work += 1.0;
    let mut perturbed = base.clone();
    perturbed.graph = Arc::new(g2);

    for (what, req) in [
        ("machine", other_machine),
        ("total_cores", smaller_p),
        ("mapping", scattered),
        ("policy", fixed),
        ("graph", perturbed),
    ] {
        let (_, status) = svc.schedule(req).expect("changed request");
        assert_eq!(
            status,
            CacheStatus::Miss,
            "changing {what} must miss the schedule cache"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A cached hit is bit-identical to a freshly computed schedule: same
    /// layered structure, same simulated makespan to the last bit.
    #[test]
    fn cached_hit_is_bit_identical_to_fresh_computation(
        graph in arb_graph(),
        nodes in 1usize..5,
        scattered in any::<bool>(),
    ) {
        let mapping = if scattered {
            MappingStrategy::Scattered
        } else {
            MappingStrategy::Consecutive
        };
        let req = ScheduleRequest::new(
            Arc::new(graph),
            Arc::new(toy_cluster(nodes)),
            mapping,
        );
        let svc = service();
        let (computed, s1) = svc.schedule(req.clone()).expect("request");
        prop_assert_eq!(s1, CacheStatus::Miss);
        let (hit, s2) = svc.schedule(req.clone()).expect("request again");
        prop_assert_eq!(s2, CacheStatus::Hit);
        let (fresh_schedule, fresh_makespan) = fresh_compute(&req);
        prop_assert_eq!(&hit.schedule, &computed.schedule);
        prop_assert_eq!(&hit.schedule, &fresh_schedule);
        prop_assert_eq!(hit.makespan.to_bits(), computed.makespan.to_bits());
        prop_assert_eq!(hit.makespan.to_bits(), fresh_makespan.to_bits());
    }
}

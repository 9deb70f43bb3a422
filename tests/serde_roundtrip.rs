//! Serde round-trips for the persistable types: schedules, reports,
//! platform specs and workloads survive JSON serialisation unchanged, so
//! experiment artefacts can be stored and reloaded.

use parallel_tasks::core::{DataParallel, LayerScheduler, MappingStrategy};
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::platforms;
use parallel_tasks::nas::{bt_mz, Class};
use parallel_tasks::ode::Epol;
use parallel_tasks::sim::Simulator;

#[test]
fn cluster_spec_roundtrip() {
    for spec in [platforms::chic(), platforms::altix(), platforms::juropa()] {
        let json = serde_json::to_string(&spec).unwrap();
        let back: parallel_tasks::machine::ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}

#[test]
fn task_graph_roundtrip() {
    let sys = parallel_tasks::ode::Bruss2d::new(10);
    let graph = Epol::new(4).step_graph(&sys, 1);
    let json = serde_json::to_string(&graph).unwrap();
    let back: parallel_tasks::mtask::TaskGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), graph.len());
    assert_eq!(back.edge_count(), graph.edge_count());
    for t in graph.task_ids() {
        assert_eq!(back.task(t), graph.task(t));
    }
}

#[test]
fn schedule_roundtrip() {
    let sys = parallel_tasks::ode::Bruss2d::new(10);
    let graph = Epol::new(4).step_graph(&sys, 1);
    let spec = platforms::chic().with_cores(16);
    let model = CostModel::new(&spec);
    let sched = LayerScheduler::new(&model).schedule(&graph);
    let json = serde_json::to_string(&sched).unwrap();
    let back: parallel_tasks::core::LayeredSchedule = serde_json::from_str(&json).unwrap();
    assert_eq!(sched, back);

    let flat = sched.to_symbolic();
    let json = serde_json::to_string(&flat).unwrap();
    let back: parallel_tasks::core::SymbolicSchedule = serde_json::from_str(&json).unwrap();
    assert_eq!(flat, back);
}

#[test]
fn sim_report_roundtrip() {
    let sys = parallel_tasks::ode::Bruss2d::new(10);
    let graph = Epol::new(4).step_graph(&sys, 1);
    let spec = platforms::chic().with_cores(16);
    let model = CostModel::new(&spec);
    let sched = DataParallel::schedule(&graph, 16);
    let map = MappingStrategy::Consecutive.mapping(&spec, 16);
    let report = Simulator::new(&model).simulate_layered(&graph, &sched, &map);
    let json = serde_json::to_string(&report).unwrap();
    let back: parallel_tasks::sim::SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn multizone_roundtrip() {
    let mz = bt_mz(Class::B);
    let json = serde_json::to_string(&mz).unwrap();
    let back: parallel_tasks::nas::MultiZone = serde_json::from_str(&json).unwrap();
    assert_eq!(mz, back);
}

#[test]
fn mapping_roundtrip() {
    let spec = platforms::chic().with_cores(32);
    for s in MappingStrategy::all_for(&spec) {
        let m = s.mapping(&spec, 32);
        let json = serde_json::to_string(&m).unwrap();
        let back: parallel_tasks::core::Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
    // A mapping never repeats a core; the simulators rely on it.
    let repeated = r#"{"sequence":[0,1,4,1],"strategy":{"Mixed":2}}"#;
    assert!(serde_json::from_str::<parallel_tasks::core::Mapping>(repeated).is_err());
}

//! Discrete-event simulation of M-task programs on modelled clusters.
//!
//! The paper evaluates on three real machines (CHiC, SGI Altix, JuRoPA);
//! this crate substitutes a deterministic simulator driven by the
//! mapping-aware cost model of [`pt_cost`]: given a task graph, a schedule
//! over symbolic cores and a mapping to physical cores, it derives the
//! execution timeline — per-task start/finish, per-layer group times,
//! re-distribution phases (including the aggregated orthogonal exchanges
//! and NIC contention between concurrent groups) and the overall makespan.
//!
//! Two schedule forms are supported:
//!
//! * [`Simulator::simulate_layered`] — the native form of the paper's
//!   layer-based scheduler: layers execute one after another (barrier
//!   semantics, §3.2), groups of one layer run concurrently and share NICs,
//!   re-distribution happens at layer boundaries.
//! * [`Simulator::simulate_flat`] — dependency/occupancy-driven execution
//!   of a flat [`pt_core::SymbolicSchedule`] (the CPA/CPR output form).

pub mod flat;
pub mod layered;
pub mod render;
pub mod report;
pub mod trace;

pub use render::{render_gantt, render_layers};
pub use report::{GroupTiming, LayerTiming, SimReport, TaskTiming};
pub use trace::{chrome_events, chrome_trace, reconcile_samples, SIM_PID_BASE};

use pt_core::hybrid::HybridConfig;
use pt_cost::CostModel;

/// The cost model's per-pair reference pricing, the oracle of the
/// simulators' bit-identity tests (pt-cost's own tests use the same file).
#[cfg(test)]
#[path = "../../cost/src/oracle.rs"]
mod cost_oracle;

/// The simulator: cost model plus optional hybrid execution scheme.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    /// Mapping-aware cost model of the target platform.
    pub model: &'a CostModel<'a>,
    /// If set, groups execute as hybrid MPI+OpenMP layouts (paper §4.7).
    pub hybrid: Option<HybridConfig>,
}

impl<'a> Simulator<'a> {
    /// Pure-MPI simulator.
    pub fn new(model: &'a CostModel<'a>) -> Self {
        Simulator {
            model,
            hybrid: None,
        }
    }

    /// Enable the hybrid execution scheme.
    pub fn with_hybrid(mut self, cfg: HybridConfig) -> Self {
        self.hybrid = Some(cfg);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{DataParallel, LayerScheduler, MappingStrategy};
    use pt_machine::platforms;
    use pt_mtask::{CommOp, DataRef, MTask, Spec};

    fn stage_graph(k: usize, work: f64, bytes: f64) -> pt_mtask::TaskGraph {
        Spec::seq(vec![
            Spec::parfor(0..k, |i| {
                Spec::task(MTask::with_comm(
                    format!("stage{i}"),
                    work,
                    vec![CommOp::allgather(bytes, 2.0)],
                ))
                .defines([DataRef::orthogonal(format!("X{i}"), bytes)])
            }),
            Spec::task(MTask::with_comm(
                "update",
                work / 8.0,
                vec![CommOp::allgather(bytes, 1.0)],
            ))
            .uses((0..k).map(|i| format!("X{i}")))
            .defines([DataRef::replicated("eta", bytes)]),
        ])
        .compile_flat()
    }

    #[test]
    fn task_parallel_beats_data_parallel_for_comm_heavy_stages() {
        let spec = platforms::chic().with_nodes(32); // 128 cores
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let g = stage_graph(4, 2e10, 8e6);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 128);

        let tp = LayerScheduler::new(&model)
            .with_fixed_groups(4)
            .schedule(&g);
        let dp = DataParallel::schedule(&g, 128);
        let t_tp = sim.simulate_layered(&g, &tp, &mapping).makespan;
        let t_dp = sim.simulate_layered(&g, &dp, &mapping).makespan;
        assert!(
            t_tp < t_dp,
            "task parallel ({t_tp}) should beat data parallel ({t_dp})"
        );
    }

    #[test]
    fn consecutive_mapping_beats_scattered_for_group_collectives() {
        let spec = platforms::chic().with_nodes(32);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let g = stage_graph(4, 1e9, 8e6);
        let tp = LayerScheduler::new(&model)
            .with_fixed_groups(4)
            .schedule(&g);
        let m_cons = MappingStrategy::Consecutive.mapping(&spec, 128);
        let m_scat = MappingStrategy::Scattered.mapping(&spec, 128);
        let t_cons = sim.simulate_layered(&g, &tp, &m_cons).makespan;
        let t_scat = sim.simulate_layered(&g, &tp, &m_scat).makespan;
        assert!(
            t_cons < t_scat,
            "consecutive ({t_cons}) should beat scattered ({t_scat}) for group-based comm"
        );
    }

    #[test]
    fn layered_and_flat_agree_for_a_single_task() {
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        let sim = Simulator::new(&model);
        let mut g = pt_mtask::TaskGraph::new();
        g.add_task(MTask::compute("only", 5.2e9));
        let sched = DataParallel::schedule(&g, 16);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 16);
        let layered = sim.simulate_layered(&g, &sched, &mapping).makespan;
        let flat = sim
            .simulate_flat(&g, &sched.to_symbolic(), &mapping)
            .makespan;
        assert!((layered - flat).abs() < 1e-12);
        assert!((layered - 1.0 / 16.0).abs() < 1e-9);
    }
}

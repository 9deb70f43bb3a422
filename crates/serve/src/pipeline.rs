//! The one path from a [`ScheduleRequest`] to a plan: the paper's layer
//! scheduler (Algorithm 1) under the request's [`GPolicy`](crate::GPolicy),
//! priced through a [`TableStore`], then the request's mapping and the
//! layered simulation.  The service's workers, the `ptsched` one-shot and
//! the Chrome-trace writer all run it.

use crate::key::ScheduleRequest;
use pt_core::{LayerScheduler, LayeredSchedule};
use pt_cost::{CostModel, CostTable, TableStore};
use pt_obs::{keys, Recorder, TraceRecorder};
use pt_sim::{SimReport, Simulator};
use std::sync::Arc;

/// What [`plan`] produced for one request.
#[derive(Debug)]
pub struct Plan {
    /// The layered schedule over `0..total_cores` symbolic cores.
    pub schedule: LayeredSchedule,
    /// The schedule simulated under the request's mapping.
    pub report: SimReport,
    /// Cost-function evaluations this plan added to its table store.
    pub cost_evaluations: usize,
}

/// An empty table store for `request`'s table key, sized for every width
/// of its machine.  Contracted task ids are bounded by the uncontracted
/// graph's length, so sizing to the graph covers any contraction; the
/// speed-class count comes from the machine, which the key includes.
pub fn table_store(request: &ScheduleRequest) -> Arc<TableStore> {
    Arc::new(TableStore::with_classes(
        request.graph.len(),
        request.machine.total_cores(),
        request.machine.speed_classes().len(),
    ))
}

/// Schedule, map and simulate `request`, pricing through `store` (which
/// must hold only values of `request`'s table key).  `request` must pass
/// [`ScheduleRequest::validate`].  `sweep_workers` pins the g-sweep's
/// thread count (`None`: the scheduler's default); `recorder` receives the
/// scheduling-phase spans and the plan's cost evaluations.
pub fn plan(
    request: &ScheduleRequest,
    store: &Arc<TableStore>,
    sweep_workers: Option<usize>,
    recorder: Option<Arc<TraceRecorder>>,
) -> Plan {
    let model = CostModel::new(&request.machine);
    let mut scheduler = LayerScheduler::new(&model);
    scheduler.sweep_workers = sweep_workers;
    scheduler.recorder = recorder;
    scheduler.fixed_groups = request.policy.fixed_groups;
    scheduler.adjust = request.policy.adjust;
    scheduler.contract_chains = request.policy.contract_chains;
    let before = store.evaluations();
    let table = CostTable::shared(&model, store.clone());
    let schedule = scheduler.schedule_on_with(&table, &request.graph, request.total_cores);
    let cost_evaluations = store.evaluations() - before;
    if let Some(r) = scheduler.recorder.as_deref() {
        r.add(keys::COST_EVALUATIONS, cost_evaluations as u64);
    }
    let mapping = request
        .mapping
        .mapping(&request.machine, request.total_cores);
    let report = Simulator::new(&model).simulate_layered(&request.graph, &schedule, &mapping);
    Plan {
        schedule,
        report,
        cost_evaluations,
    }
}

/// Plan `request` from a cold table with a recorder attached and write a
/// Chrome-trace JSON of it to `path`: the scheduler's phase spans plus the
/// simulated node×core timeline under the request's mapping.  Open the
/// file at <https://ui.perfetto.dev>.  Returns the plan.
pub fn write_trace(request: &ScheduleRequest, path: &str) -> Result<Plan, String> {
    let recorder = Arc::new(TraceRecorder::new(1));
    let planned = plan(request, &table_store(request), None, Some(recorder.clone()));
    let mapping = request
        .mapping
        .mapping(&request.machine, request.total_cores);
    let mut trace = pt_sim::chrome_trace(
        &request.graph,
        &planned.schedule,
        &planned.report,
        &mapping,
        &request.machine,
    );
    trace.name_process(pt_core::SCHED_PID, "scheduler");
    trace.name_thread(pt_core::SCHED_PID, 0, "phases");
    let mut recorder =
        Arc::try_unwrap(recorder).expect("the scheduler released its recorder handle");
    trace.extend(recorder.drain());
    std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
    Ok(planned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::MappingStrategy;
    use pt_mtask::{CommOp, EdgeData, MTask, TaskGraph};

    #[test]
    fn recorded_plan_reports_its_cost_evaluations() {
        let mut graph = TaskGraph::new();
        let src = graph.add_task(MTask::compute("src", 1e8));
        for i in 0..4 {
            let t = graph.add_task(MTask::with_comm(
                format!("t{i}"),
                (1 + i) as f64 * 1e9,
                vec![CommOp::allgather(8e3, 1.0)],
            ));
            graph.add_edge(src, t, EdgeData::replicated(8e3));
        }
        let request = ScheduleRequest::new(
            Arc::new(graph),
            Arc::new(pt_machine::platforms::chic().with_nodes(2)),
            MappingStrategy::Consecutive,
        );
        let recorder = Arc::new(TraceRecorder::new(1));
        let planned = plan(
            &request,
            &table_store(&request),
            None,
            Some(recorder.clone()),
        );
        assert!(planned.cost_evaluations > 0);
        assert_eq!(
            recorder
                .metrics()
                .snapshot()
                .counter(keys::COST_EVALUATIONS),
            Some(planned.cost_evaluations as u64)
        );
    }
}

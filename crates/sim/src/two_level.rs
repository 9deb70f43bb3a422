//! Simulation of hierarchical two-level programs: the upper-level graph's
//! ordinary tasks run as usual; a loop node executes its lower-level
//! schedule `est_iters` times on the physical cores the upper schedule
//! assigned to it.

use crate::report::SimReport;
use crate::Simulator;
use pt_core::{Mapping, TwoLevelSchedule};
use pt_mtask::TwoLevelProgram;

impl Simulator<'_> {
    /// Simulate a two-level program under a hierarchical schedule.
    ///
    /// Returns the top-level report; `loop_reports` gives one *per
    /// iteration* report per loop node (multiply by `est_iters` for the
    /// loop's total contribution, which is what the returned makespan
    /// already includes).
    pub fn simulate_two_level(
        &self,
        prog: &TwoLevelProgram,
        sched: &TwoLevelSchedule,
        mapping: &Mapping,
    ) -> (SimReport, Vec<(pt_mtask::TaskId, SimReport)>) {
        // Per-iteration simulation of every loop body on its core slice.
        let mut loop_reports = Vec::new();
        let mut loop_time = std::collections::HashMap::new();
        for (&loop_id, (offset, inner)) in &sched.loops {
            let body = &prog.loops[&loop_id];
            let sub_mapping = mapping.slice(*offset..*offset + inner.total_cores);
            let rep = self.simulate_layered(&body.graph, inner, &sub_mapping);
            loop_time.insert(loop_id, rep.makespan * body.est_iters);
            loop_reports.push((loop_id, rep));
        }

        // Upper level: replace every loop node's duration with its measured
        // total by temporarily treating it as pure compute of equivalent
        // sequential work on its assigned cores.
        let mut upper_graph = prog.upper.clone();
        for (&loop_id, (_, inner)) in &sched.loops {
            let total = loop_time[&loop_id];
            let cores = inner.total_cores as f64;
            let node = upper_graph.task_mut(loop_id);
            node.comm.clear();
            // simulate_layered divides compute by the group size; scale so
            // the quotient equals the measured loop total.
            node.work = total * cores * self.model.spec.core_flops;
        }
        let report = self.simulate_layered(&upper_graph, &sched.upper, mapping);
        (report, loop_reports)
    }
}

#[cfg(test)]
mod tests {
    use crate::Simulator;
    use pt_core::{LayerScheduler, MappingStrategy};
    use pt_cost::CostModel;
    use pt_machine::platforms;
    use pt_mtask::{CommOp, DataRef, MTask, Spec};

    #[test]
    fn loop_iterations_dominate_the_makespan() {
        let iters = 25.0;
        let prog = Spec::seq(vec![
            Spec::task(MTask::compute("init", 1e6)).defines([DataRef::replicated("eta", 8e3)]),
            Spec::while_loop(
                "stepping",
                iters,
                Spec::seq(vec![
                    Spec::parfor(1..=4usize, |i| {
                        Spec::task(MTask::with_comm(
                            format!("stage{i}"),
                            5.2e8,
                            vec![CommOp::allgather(8e3, 1.0)],
                        ))
                        .uses(["eta"])
                        .defines([DataRef::block(format!("V{i}"), 8e3)])
                    }),
                    Spec::task(MTask::compute("combine", 1e6))
                        .uses((1..=4usize).map(|i| format!("V{i}")))
                        .defines([DataRef::replicated("eta", 8e3)]),
                ]),
            ),
        ])
        .compile();

        let spec = platforms::chic().with_nodes(8);
        let model = CostModel::new(&spec);
        let sched = LayerScheduler::new(&model).schedule_two_level(&prog);
        let mapping = MappingStrategy::Consecutive.mapping(&spec, 32);
        let sim = Simulator::new(&model);
        let (report, loop_reports) = sim.simulate_two_level(&prog, &sched, &mapping);
        assert_eq!(loop_reports.len(), 1);
        let per_iter = loop_reports[0].1.makespan;
        assert!(per_iter > 0.0);
        // The program's total is ≈ iters × per-iteration time (+ init).
        let ratio = report.makespan / (per_iter * iters);
        assert!(
            (0.95..1.25).contains(&ratio),
            "makespan {} vs {} x {per_iter}: ratio {ratio}",
            report.makespan,
            iters
        );
    }

    #[test]
    fn loop_runs_on_its_assigned_slice_only() {
        // Two parallel loops must land on disjoint core slices.
        let prog = Spec::par(vec![
            Spec::while_loop(
                "loop_a",
                5.0,
                Spec::task(MTask::compute("a", 1e9)).defines([DataRef::replicated("x", 8.0)]),
            ),
            Spec::while_loop(
                "loop_b",
                5.0,
                Spec::task(MTask::compute("b", 1e9)).defines([DataRef::replicated("y", 8.0)]),
            ),
        ])
        .compile();
        let spec = platforms::chic().with_nodes(4);
        let model = CostModel::new(&spec);
        // Force the task-parallel split (the g-sweep may tie-break to a
        // sequential execution for pure-compute loops).
        let sched = LayerScheduler::new(&model)
            .with_fixed_groups(2)
            .schedule_two_level(&prog);
        assert_eq!(sched.loops.len(), 2);
        let slices: Vec<(usize, usize)> = sched
            .loops
            .values()
            .map(|(off, inner)| (*off, *off + inner.total_cores))
            .collect();
        // Disjoint (possibly equal-size halves).
        let (a, b) = (slices[0], slices[1]);
        assert!(a.1 <= b.0 || b.1 <= a.0, "slices overlap: {slices:?}");
    }
}

//! ASCII rendering of simulation timelines — the textual analogue of the
//! paper's schedule illustrations (Fig. 1 right, Fig. 6).

use crate::report::SimReport;
use pt_mtask::TaskGraph;

/// Render the simulated tasks as a Gantt chart of `width` columns.
///
/// One row per task in start order; `█` marks execution, `·` idle time.
/// Rows are labelled with the task names from `graph`.
pub fn render_gantt(report: &SimReport, graph: &TaskGraph, width: usize) -> String {
    use std::fmt::Write as _;
    let width = width.max(10);
    let mut out = String::new();
    if report.makespan <= 0.0 || report.tasks.is_empty() {
        return "(empty timeline)\n".to_string();
    }
    let scale = width as f64 / report.makespan;
    let label_w = report
        .tasks
        .iter()
        .map(|t| graph.task(t.task).name.len())
        .max()
        .unwrap_or(4)
        .clamp(4, 24);
    let mut tasks = report.tasks.clone();
    tasks.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.0.cmp(&b.task.0)));
    for t in &tasks {
        let name = &graph.task(t.task).name;
        let name: String = name.chars().take(label_w).collect();
        // A task starting at the makespan still gets the last column.
        let lo = ((t.start * scale).round() as usize).min(width - 1);
        let hi = ((t.finish * scale).round() as usize).clamp(lo + 1, width);
        let _ = writeln!(
            out,
            "{name:<label_w$} |{}{}{}|",
            "·".repeat(lo),
            "█".repeat(hi - lo),
            "·".repeat(width - hi),
        );
    }
    let _ = writeln!(
        out,
        "{:<label_w$}  0{}{:.3} s",
        "",
        " ".repeat(width.saturating_sub(8)),
        report.makespan
    );
    out
}

/// Render the per-layer group utilisation of a layered report.
pub fn render_layers(report: &SimReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, l) in report.layers.iter().enumerate() {
        let _ = writeln!(
            out,
            "layer {i}: [{:.4}, {:.4}] s, redistribution {:.4} s, idle {:.0}%",
            l.start,
            l.finish,
            l.redist,
            l.idle_fraction() * 100.0
        );
        for g in &l.groups {
            let _ = writeln!(
                out,
                "  group {}: busy {:.4} s, {} tasks",
                g.group,
                g.busy,
                g.tasks.len()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use pt_core::{LayerScheduler, MappingStrategy};
    use pt_cost::CostModel;
    use pt_machine::platforms;
    use pt_mtask::{MTask, TaskGraph};

    fn simple_report() -> (SimReport, TaskGraph) {
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("alpha", 2.08e9));
        let b = g.add_task(MTask::compute("beta", 1.04e9));
        g.add_ordering_edge(a, b);
        let spec = platforms::chic().with_nodes(1);
        let model = CostModel::new(&spec);
        let sched = LayerScheduler::new(&model).schedule(&g);
        let map = MappingStrategy::Consecutive.mapping(&spec, 4);
        let rep = Simulator::new(&model).simulate_layered(&g, &sched, &map);
        (rep, g)
    }

    #[test]
    fn gantt_contains_all_task_names() {
        let (rep, g) = simple_report();
        let chart = render_gantt(&rep, &g, 40);
        assert!(chart.contains("alpha"));
        assert!(chart.contains("beta"));
        assert!(chart.contains('█'));
    }

    #[test]
    fn gantt_bars_reflect_durations() {
        let (rep, g) = simple_report();
        let chart = render_gantt(&rep, &g, 60);
        let bars: Vec<usize> = chart
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| l.chars().filter(|&c| c == '█').count())
            .collect();
        assert_eq!(bars.len(), 2);
        // alpha has 2x beta's work.
        assert!(bars[0] > bars[1], "{chart}");
    }

    #[test]
    fn zero_length_task_at_the_makespan_stays_inside_the_chart() {
        let (mut rep, mut g) = simple_report();
        let last = g.add_task(MTask::compute("tail", 0.0));
        rep.tasks.push(crate::report::TaskTiming {
            task: last,
            start: rep.makespan,
            finish: rep.makespan,
            comm_time: 0.0,
        });
        let chart = render_gantt(&rep, &g, 40);
        let row = chart
            .lines()
            .find(|l| l.starts_with("tail"))
            .expect("the tail task has a row");
        let bar: String = row.chars().skip_while(|&c| c != '|').collect();
        assert_eq!(bar, format!("|{}█|", "·".repeat(39)), "{chart}");
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let rep = SimReport::default();
        let g = TaskGraph::new();
        assert_eq!(render_gantt(&rep, &g, 40), "(empty timeline)\n");
    }

    #[test]
    fn layer_rendering_lists_groups() {
        let (rep, _) = simple_report();
        let text = render_layers(&rep);
        assert!(text.contains("layer 0"));
        assert!(text.contains("group 0"));
    }
}

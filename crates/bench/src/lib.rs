//! Shared helpers for the figure/table harness binaries
//! (`cargo run -p pt-bench --release --bin <figN>`) and the benchmark
//! gates.
//!
//! The central entry point is [`pipeline::time_per_step`]: graph →
//! schedule → map → simulate, returning the simulated seconds per time
//! step — the quantity every figure of the paper's evaluation plots.
//! [`replay::Replay`] is the one path from a workload graph to an executed,
//! reconciled replay of its plan on a live `Team` (`trace_run`,
//! `recon_gate`, `chaos_run`), and [`report::write`] is where every gate
//! writes its JSON report.

pub mod pipeline {
    use pt_core::hybrid::HybridConfig;
    use pt_core::{Cpa, Cpr, DataParallel, LayerScheduler, MappingStrategy};
    use pt_cost::CostModel;
    use pt_machine::ClusterSpec;
    use pt_mtask::TaskGraph;
    use pt_sim::Simulator;

    /// Which scheduling algorithm to run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Scheduler {
        /// The paper's layer-based scheduler (Algorithm 1) with the g-sweep.
        Layer,
        /// Layer-based with a fixed group count per layer.
        LayerFixed(usize),
        /// Pure data-parallel execution.
        DataParallel,
        /// CPA baseline.
        Cpa,
        /// CPR baseline.
        Cpr,
    }

    impl Scheduler {
        /// Display label.
        pub fn label(&self) -> String {
            match self {
                Scheduler::Layer => "layer".into(),
                Scheduler::LayerFixed(g) => format!("layer(g={g})"),
                Scheduler::DataParallel => "dp".into(),
                Scheduler::Cpa => "CPA".into(),
                Scheduler::Cpr => "CPR".into(),
            }
        }
    }

    /// Full pipeline: schedule `graph` (containing `steps` unrolled time
    /// steps) on `cores` cores of `machine`, map with `mapping`, simulate
    /// (optionally hybrid) and return seconds per time step.
    pub fn time_per_step(
        graph: &TaskGraph,
        machine: &ClusterSpec,
        cores: usize,
        scheduler: Scheduler,
        mapping: MappingStrategy,
        hybrid: Option<HybridConfig>,
        steps: usize,
    ) -> f64 {
        let spec = machine.with_cores(cores);
        let model = CostModel::new(&spec);
        let mut sim = Simulator::new(&model);
        if let Some(cfg) = hybrid {
            sim = sim.with_hybrid(cfg);
        }
        let map = mapping.mapping(&spec, cores);
        let makespan = match scheduler {
            Scheduler::Layer => {
                let s = LayerScheduler::new(&model).schedule(graph);
                sim.simulate_layered(graph, &s, &map).makespan
            }
            Scheduler::LayerFixed(g) => {
                let s = LayerScheduler::new(&model)
                    .with_fixed_groups(g)
                    .schedule(graph);
                sim.simulate_layered(graph, &s, &map).makespan
            }
            Scheduler::DataParallel => {
                let s = DataParallel::schedule(graph, cores);
                sim.simulate_layered(graph, &s, &map).makespan
            }
            Scheduler::Cpa => {
                let s = Cpa::new(&model).schedule(graph);
                sim.simulate_flat(graph, &s, &map).makespan
            }
            Scheduler::Cpr => {
                let s = Cpr::new(&model).schedule(graph);
                sim.simulate_flat(graph, &s, &map).makespan
            }
        };
        makespan / steps as f64
    }

    /// Sequential execution time of one time step (total work at one
    /// core's speed — the baseline of the paper's speedup plots).
    pub fn sequential_step(graph: &TaskGraph, machine: &ClusterSpec, steps: usize) -> f64 {
        machine.compute_time(graph.total_work()) / steps as f64
    }
}

/// The value following `name` on the command line (`--trace PATH` style),
/// if present.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

pub mod measure {
    //! Timing shared by the `bench_sched` and `bench_sim` gates: min and
    //! median over repeated samples, and retries in later time windows.

    use pt_machine::{platforms, ClusterSpec};
    use std::time::{Duration, Instant};

    /// JUROPA widened to exactly `p` cores (beyond 17664 this is a
    /// hypothetical scale-out of the same node architecture).
    pub fn juropa_p(p: usize) -> ClusterSpec {
        let cpn = 8;
        assert!(p.is_multiple_of(cpn));
        platforms::juropa().with_nodes(p / cpn)
    }

    /// `(median, min)` milliseconds per call of `f`, over `reps` samples
    /// of `batch` back-to-back calls each, after one untimed warm-up call.
    /// Microsecond-scale work needs `batch > 1`: a single 30 µs call is
    /// dominated by timer and scheduling jitter, so even the min over many
    /// one-call samples wobbles past a 1.0× gate; averaging inside each
    /// sample amortises that noise while the min across samples still
    /// rejects one-sided container load.
    pub fn median_min_ms<T>(reps: usize, batch: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
        std::hint::black_box(f());
        let mut times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
                t0.elapsed().as_secs_f64() * 1e3 / batch as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        (times[reps / 2], times[0])
    }

    /// The best of `min_ms` and up to four re-measurements, each taken
    /// after a 750 ms pause, stopping once the best is within `limit_ms`.
    /// The shared container sees multi-second load bursts that inflate
    /// every sample of one run: a regression fails all attempts, a tenant
    /// burst does not.
    pub fn retry_in_later_windows(
        min_ms: f64,
        limit_ms: f64,
        mut remeasure: impl FnMut() -> f64,
    ) -> f64 {
        let mut best = min_ms;
        for attempt in 0..4 {
            if best <= limit_ms {
                break;
            }
            println!("  gate retry {attempt}: min {best:.4} ms still over {limit_ms:.4} ms");
            std::thread::sleep(Duration::from_millis(750));
            best = best.min(remeasure());
        }
        best
    }
}

pub mod report {
    //! Where a gate writes its JSON report.  A full run writes the
    //! committed file at the repository root; a `--quick` run writes an
    //! untracked copy under the workspace's `target/quick/`, so a smoke run
    //! never overwrites the committed figures.

    use serde::Serialize;
    use std::path::PathBuf;

    /// `name` relative to the repository root.
    pub fn repo_path(name: &str) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name)
    }

    /// Write `report` as pretty JSON to `file`'s place for a full or
    /// `quick` run and print where it went.
    pub fn write(file: &str, quick: bool, report: &impl Serialize) {
        let path = if quick {
            repo_path("target/quick").join(file)
        } else {
            repo_path(file)
        };
        let dir = path.parent().expect("a report path has a directory");
        std::fs::create_dir_all(dir).expect("create the report directory");
        let json = serde_json::to_string_pretty(report).expect("report serialises");
        std::fs::write(&path, json + "\n").expect("write the report");
        println!("wrote {}", path.display());
    }
}

pub mod replay {
    //! The one path from a workload graph to a reconciled replay of its
    //! plan on a live [`Team`]: plan the graph through [`pt_serve::plan`]
    //! on a 2-node CHiC, scale each task's simulated time to a wall budget,
    //! run caller-supplied bodies that wait out those times with recording
    //! on, and join the recorded task spans back to [`TaskId`]s for
    //! [`Reconciliation`].  Because the bodies replay the simulator, the
    //! reconciliation's error is model-vs-simulator disagreement plus timer
    //! noise.

    use pt_core::{LayeredSchedule, MappingStrategy};
    use pt_cost::CostModel;
    use pt_exec::{DataStore, GroupPlan, Program, RunOptions, TaskFn, Team};
    use pt_machine::{platforms, ClusterSpec};
    use pt_mtask::{TaskGraph, TaskId};
    use pt_obs::{ArgValue, MetricsSnapshot, Reconciliation, TraceEvent, TraceRecorder};
    use pt_serve::{Plan, ScheduleRequest};
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    /// The replayed machine: 2 CHiC nodes × 4 cores, one `Team` worker per
    /// core.
    pub fn machine() -> ClusterSpec {
        platforms::chic().with_nodes(2)
    }

    /// A planned workload and the program that replays it.
    pub struct Replay {
        /// The planned request: graph, machine and mapping.
        pub request: ScheduleRequest,
        /// Its schedule and simulated report.
        pub plan: Plan,
        /// One caller body per scheduled task, grouped as the schedule is.
        pub program: Program,
        /// Wall seconds per simulated second.
        scale: f64,
        /// Scaled simulated time per task.
        durations: HashMap<TaskId, Duration>,
        /// Receives the plan's scheduler phases and cost evaluations, then
        /// the run's executor events.
        recorder: Arc<TraceRecorder>,
    }

    /// What one recorded run of a [`Replay`] left behind.
    pub struct Run {
        /// Wall-clock time of the run.
        pub wall: Duration,
        /// The store the bodies wrote.
        pub store: Arc<DataStore>,
        /// Every recorded event: the plan's, then the run's.
        pub events: Vec<TraceEvent>,
        /// Events the recorder dropped for lack of room.
        pub dropped: u64,
        /// Counters and histograms of the plan and the run.
        pub metrics: MetricsSnapshot,
        /// Predicted, simulated and measured task times, joined.
        pub reconciliation: Reconciliation,
    }

    impl Replay {
        /// Plan `graph` from a cold table and build its program: the body
        /// of task `t` is `body(t, self.duration(t))`.
        pub fn new(
            graph: TaskGraph,
            wall_budget: f64,
            body: impl Fn(TaskId, Duration) -> Arc<TaskFn>,
        ) -> Replay {
            let machine = machine();
            let recorder = Arc::new(TraceRecorder::for_team(machine.total_cores()));
            let request = ScheduleRequest::new(
                Arc::new(graph),
                Arc::new(machine),
                MappingStrategy::Consecutive,
            );
            let store = pt_serve::table_store(&request);
            let plan = pt_serve::plan(&request, &store, None, Some(recorder.clone()));
            let scale = wall_budget / plan.report.makespan.max(1e-9);
            let durations: HashMap<TaskId, Duration> = plan
                .report
                .tasks
                .iter()
                .map(|tt| {
                    let simulated = (tt.finish - tt.start).max(0.0);
                    (tt.task, Duration::from_secs_f64(simulated * scale))
                })
                .collect();
            let program = program(&plan.schedule, |t| {
                body(t, durations.get(&t).copied().unwrap_or_default())
            });
            Replay {
                request,
                plan,
                program,
                scale,
                durations,
                recorder,
            }
        }

        /// Simulated time of `t`, scaled so the simulated makespan fills
        /// the wall budget (zero for a task the simulation did not place).
        pub fn duration(&self, t: TaskId) -> Duration {
            self.durations.get(&t).copied().unwrap_or_default()
        }

        /// Run the program once on a fresh [`Team`], one worker per
        /// symbolic core, with recording on, and reconcile the measured task
        /// times against the plan.
        pub fn run(&mut self) -> Run {
            let team = Team::new(self.request.total_cores);
            let store = DataStore::new();
            let opts = RunOptions::default().with_recorder(self.recorder.clone());
            let wall = team
                .run_with(&self.program, &store, &opts)
                .expect("replay executes");
            drop((team, opts)); // workers join, releasing their recorder handles
            let recorder = Arc::get_mut(&mut self.recorder).expect("all recorder handles released");
            let events = recorder.drain();
            let measured = task_seconds(&self.plan.schedule, &events, self.scale);
            let model = CostModel::new(&self.request.machine);
            let samples = pt_sim::reconcile_samples(
                &self.request.graph,
                &self.plan.schedule,
                &self.plan.report,
                &model,
                &measured,
            );
            Run {
                wall,
                store,
                dropped: recorder.dropped(),
                metrics: recorder.metrics().snapshot(),
                events,
                reconciliation: Reconciliation::build(samples),
            }
        }
    }

    /// One group plan per scheduled group; each task's body is `body(t)`.
    fn program(schedule: &LayeredSchedule, body: impl Fn(TaskId) -> Arc<TaskFn>) -> Program {
        let layers = schedule
            .layers
            .iter()
            .map(|layer| {
                let groups = layer.assignments.iter().enumerate();
                groups
                    .map(|(g, tasks)| {
                        let bodies = tasks.iter().map(|&t| body(t)).collect();
                        GroupPlan::new(layer.group_range(g), bodies)
                    })
                    .collect()
            })
            .collect();
        Program { layers }
    }

    /// Measured body time per scheduled task, in simulated seconds
    /// (recorded microseconds divided by `scale`).  The executor's `task`
    /// spans carry `layer`/`group`/`task_index` args that index the
    /// schedule's assignments; events of other categories are skipped.  A
    /// task's time is its longest single-rank span: each rank's own wait
    /// stays accurate when the host runs the workers on fewer cores,
    /// whereas the envelope across a group's ranks would fold the host
    /// scheduler's skew between them into the measurement.
    fn task_seconds(
        schedule: &LayeredSchedule,
        events: &[TraceEvent],
        scale: f64,
    ) -> HashMap<TaskId, f64> {
        let mut longest: HashMap<TaskId, f64> = HashMap::new();
        for ev in events.iter().filter(|e| e.cat == "task") {
            let arg = |name: &str| {
                ev.args.iter().find_map(|(k, v)| match v {
                    ArgValue::U64(u) if *k == name => Some(*u as usize),
                    _ => None,
                })
            };
            let task = || {
                let layer = schedule.layers.get(arg("layer")?)?;
                let tasks = layer.assignments.get(arg("group")?)?;
                tasks.get(arg("task_index")?).copied()
            };
            if let Some(t) = task() {
                let seconds = ev.dur_us / 1e6 / scale;
                let e = longest.entry(t).or_insert(0.0);
                *e = e.max(seconds);
            }
        }
        longest
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use pt_core::LayerSchedule;
        use pt_exec::TaskCtx;

        #[test]
        fn task_seconds_measures_each_scheduled_task_once_as_its_longest_rank() {
            // Layer 0: tasks 0, 1 on workers 0..2 and task 2 on 2..4;
            // layer 1: task 3 on all four.
            let schedule = LayeredSchedule {
                total_cores: 4,
                layers: vec![
                    LayerSchedule {
                        group_sizes: vec![2, 2],
                        assignments: vec![vec![TaskId(0), TaskId(1)], vec![TaskId(2)]],
                    },
                    LayerSchedule {
                        group_sizes: vec![4],
                        assignments: vec![vec![TaskId(3)]],
                    },
                ],
            };
            // Rank r of a group waits (r + 1) ms, so the longest rank of a
            // group of n waits at least n ms.
            let program = program(&schedule, |_| {
                Arc::new(|ctx: &TaskCtx| {
                    std::thread::sleep(Duration::from_millis(ctx.rank as u64 + 1));
                })
            });
            let recorder = Arc::new(TraceRecorder::for_team(4));
            let team = Team::new(4);
            let opts = RunOptions::default().with_recorder(recorder.clone());
            team.run_with(&program, &DataStore::new(), &opts)
                .expect("replay executes");
            drop((team, opts));
            let mut recorder = Arc::try_unwrap(recorder).expect("recorder handles released");
            let mut events = recorder.drain();
            // A span of another category carrying a task's args is not a
            // task body.
            let mut other = events
                .iter()
                .find(|e| e.cat == "task")
                .expect("the run recorded task spans")
                .clone();
            other.cat = "barrier";
            other.dur_us = 1e9;
            events.push(other);

            let scale = 0.5;
            let measured = task_seconds(&schedule, &events, scale);
            let mut tasks: Vec<TaskId> = measured.keys().copied().collect();
            tasks.sort();
            assert_eq!(tasks, [TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
            for (l, layer) in schedule.layers.iter().enumerate() {
                for (g, assigned) in layer.assignments.iter().enumerate() {
                    for (k, t) in assigned.iter().enumerate() {
                        let name = format!("L{l}.g{g}.t{k}");
                        let spans: Vec<f64> = events
                            .iter()
                            .filter(|e| e.cat == "task" && e.name == name)
                            .map(|e| e.dur_us / 1e6 / scale)
                            .collect();
                        assert_eq!(spans.len(), layer.group_sizes[g], "{name}");
                        let longest = spans.iter().copied().fold(0.0, f64::max);
                        assert_eq!(measured[t], longest, "{name}");
                        let ranks = layer.group_sizes[g] as f64;
                        assert!(measured[t] >= ranks * 1e-3 / scale, "{name}");
                    }
                }
            }
        }
    }
}

pub mod zero_cost {
    //! Shared probe asserting the fail-slow machinery (heartbeat board,
    //! deadline monitor, hedging) is pay-for-what-you-use: a run with
    //! default [`RunOptions`] (no deadline policy) must spawn zero monitor
    //! threads.  Called from inside the `bench_sched` and `bench_sim`
    //! gates so a future change that silently turns the watchdog on by
    //! default fails the benchmark gates, not just a unit test.

    use pt_exec::{DataStore, GroupPlan, Program, RunOptions, TaskCtx, TaskFn, Team};
    use std::sync::Arc;

    /// Run a trivial many-layer program with default options and assert
    /// that no deadline monitor was spawned.  Returns the wall-clock
    /// microseconds per layer, for the gate binaries to print.
    pub fn assert_monitor_free(layers: usize) -> f64 {
        let team = Team::new(4);
        let store = DataStore::new();
        let task: Arc<TaskFn> = Arc::new(|_ctx: &TaskCtx| {});
        let mut program = Program::single_layer(vec![GroupPlan::new(0..4, vec![task.clone()])]);
        for _ in 1..layers {
            program.push_layer(vec![GroupPlan::new(0..4, vec![task.clone()])]);
        }
        let t0 = std::time::Instant::now();
        team.run_with(&program, &store, &RunOptions::default())
            .expect("trivial monitor-free run");
        let per_layer_us = t0.elapsed().as_secs_f64() * 1e6 / layers as f64;
        assert_eq!(
            team.monitors_spawned(),
            0,
            "default RunOptions must not spawn a deadline monitor: the \
             fail-slow path is opt-in and zero-cost when disabled"
        );
        per_layer_us
    }
}

pub mod table {
    //! Minimal aligned-column table printing for the harness binaries.

    /// Print a header line followed by rows; first column is the label.
    pub fn print(title: &str, columns: &[String], rows: &[(String, Vec<f64>)]) {
        println!("\n# {title}");
        print!("{:<24}", "series");
        for c in columns {
            print!(" {c:>14}");
        }
        println!();
        for (label, values) in rows {
            print!("{label:<24}");
            for v in values {
                if v.is_nan() {
                    print!(" {:>14}", "-");
                } else if *v != 0.0 && v.abs() < 0.1 {
                    print!(" {:>14.6}", v);
                } else {
                    print!(" {:>14.3}", v);
                }
            }
            println!();
        }
    }
}

pub mod cases {
    //! The concrete systems and solver parameters used by the figures.

    use pt_ode::{Bruss2d, Schroed};

    /// Sparse BRUSS2D instance used by the time-per-step figures
    /// (n = 2·250² = 125 000).
    pub fn bruss_sparse() -> Bruss2d {
        Bruss2d::new(250)
    }

    /// Larger BRUSS2D for high core counts (n = 2·500² = 500 000).
    pub fn bruss_large() -> Bruss2d {
        Bruss2d::new(500)
    }

    /// Dense SCHROED instance (n = 36 000, quadratic evaluation cost);
    /// large enough that the group allgathers of a 512-core run stay in
    /// the ring regime, as on the paper's testbeds.
    pub fn schroed_dense() -> Schroed {
        Schroed::new(36_000)
    }
}

#[cfg(test)]
mod tests {
    use super::pipeline::{sequential_step, time_per_step, Scheduler};
    use pt_core::MappingStrategy;
    use pt_machine::platforms;
    use pt_ode::{Epol, OdeSystem};

    #[test]
    fn pipeline_produces_positive_times() {
        let sys = pt_ode::Bruss2d::new(50);
        let g = Epol::new(4).step_graph(&sys, 1);
        let chic = platforms::chic();
        let t = time_per_step(
            &g,
            &chic,
            32,
            Scheduler::Layer,
            MappingStrategy::Consecutive,
            None,
            1,
        );
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn compute_bound_case_shows_speedup() {
        // The dense system makes evaluation cost quadratic, so the
        // parallel execution must beat the sequential one (this is the
        // regime of the paper's PABM speedup plots, Fig. 13/16).
        let sys = pt_ode::Schroed::new(800);
        let g = pt_ode::Irk::new(4, 3).step_graph(&sys, 1);
        let chic = platforms::chic();
        let t = time_per_step(
            &g,
            &chic,
            32,
            Scheduler::Layer,
            MappingStrategy::Consecutive,
            None,
            1,
        );
        let seq = sequential_step(&g, &chic, 1);
        assert!(
            seq / t > 4.0,
            "expected real speedup on 32 cores, got {}",
            seq / t
        );
    }

    #[test]
    fn schedulers_all_run() {
        let sys = pt_ode::Bruss2d::new(30);
        let g = Epol::new(4).step_graph(&sys, 1);
        let chic = platforms::chic();
        for s in [
            Scheduler::Layer,
            Scheduler::LayerFixed(2),
            Scheduler::DataParallel,
            Scheduler::Cpa,
            Scheduler::Cpr,
        ] {
            let t = time_per_step(&g, &chic, 16, s, MappingStrategy::Consecutive, None, 1);
            assert!(t > 0.0, "{s:?}");
        }
    }

    #[test]
    fn cases_have_expected_sizes() {
        use super::cases;
        assert_eq!(cases::bruss_sparse().dim(), 125_000);
        assert_eq!(cases::schroed_dense().dim(), 36_000);
    }
}

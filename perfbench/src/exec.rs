//! Executed EPOL macro steps, closed loop with one driver: EPOL R = 4 on
//! BRUSS2D 96 (n = 18432) on a `Team` of 2 workers.  A seeded sequence
//! picks, per step, the task-parallel program (2 groups of 1 worker, the
//! paired stage chains) or the data-parallel one (1 group of 2 workers).
//! The two layouts take different times, so the mix is uneven: with an even
//! one the median would sit on the gap between them and jump from run to
//! run.

use crate::gen::Rng;
use crate::stats::{geomean, Latencies};
use crate::trace::{self, Spans, Tracer, BENCH_PID, REQUEST};
use crate::{latency_metrics, setup_metrics, timed_setup, Outcome};
use pt_core::{LayerScheduler, MappingStrategy};
use pt_cost::CostModel;
use pt_exec::{DataStore, Program, RunOptions, Team, EXEC_PID};
use pt_machine::platforms;
use pt_obs::keys;
use pt_ode::{Bruss2d, Epol, OdeSystem};
use pt_sim::Simulator;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const GRID: usize = 96;
const R: usize = 4;
const H: f64 = 1e-4;
/// Initial-state components are scaled by a seeded factor in
/// `[1 - J, 1 + J]`.
const STATE_JITTER: f64 = 1e-3;
/// Layout index of the task-parallel and the data-parallel program.
const TP: usize = 0;
const DP: usize = 1;
/// Share of steps that run the task-parallel layout.
const TP_SHARE: f64 = 2.0 / 3.0;

/// Macro steps per episode: each episode starts from the seeded initial
/// state, so one sequential reference run checks every episode's end.
const EPISODE: usize = 500;

struct Setup {
    team: Team,
    store: Arc<DataStore>,
    programs: [Program; 2],
    sys: Arc<dyn OdeSystem>,
    y0: Vec<f64>,
    /// Simulated milliseconds per step of each layout on two JUROPA cores.
    sim_ms: [f64; 2],
}

/// The model's step time of each executed layout: the layer scheduler
/// with 2 and 1 fixed groups on two symbolic cores of one JUROPA node
/// (LPT pairs the stage chains {1, 4} and {2, 3} exactly as the program
/// does).
fn simulated_step_ms(sys: &dyn OdeSystem) -> [f64; 2] {
    let graph = Epol::new(R).step_graph(sys, 1);
    let spec = platforms::juropa().with_nodes(1);
    let model = CostModel::new(&spec);
    let mapping = MappingStrategy::Consecutive.mapping(&spec, WORKERS);
    [2, 1].map(|g| {
        let schedule = LayerScheduler::new(&model)
            .with_fixed_groups(g)
            .schedule_on(&graph, WORKERS);
        Simulator::new(&model)
            .simulate_layered(&graph, &schedule, &mapping)
            .makespan
            * 1e3
    })
}

fn setup(seed: u64) -> Setup {
    let concrete = Bruss2d::new(GRID);
    let mut rng = Rng::stream(seed, 5);
    let y0: Vec<f64> = concrete
        .initial_value()
        .into_iter()
        .map(|v| v * rng.jitter(STATE_JITTER))
        .collect();
    let sim_ms = simulated_step_ms(&concrete);
    let sys: Arc<dyn OdeSystem> = Arc::new(concrete);
    let epol = Epol::new(R);
    let half = WORKERS / 2;
    let programs = [
        epol.build_program(&sys, &[0..half, half..WORKERS]),
        epol.build_program(&sys, std::slice::from_ref(&(0..WORKERS))),
    ];
    let team = Team::new(WORKERS);
    let s = Setup {
        team,
        store: DataStore::new(),
        programs,
        sys,
        y0,
        sim_ms,
    };
    // Warm-up: one step of each layout.
    s.reset();
    for p in &s.programs {
        s.team.run(p, &s.store).expect("warm-up step");
    }
    s
}

impl Setup {
    /// Put the seeded initial state into the store.
    fn reset(&self) {
        self.store.put("t", vec![0.0]);
        self.store.put("h", vec![H]);
        self.store.put("eta", self.y0.clone());
    }
}

/// One timed macro step.
struct Step {
    layout: usize,
    /// Completion, seconds since the start of the timed part.
    done_s: f64,
    ms: f64,
    traced: bool,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

impl Setup {
    /// Time and state in the store, as bits.
    fn state_bits(&self) -> (u64, Vec<u64>) {
        let t = self.store.get("t").expect("time")[0];
        (
            t.to_bits(),
            bits(&self.store.get("eta").expect("state vector")),
        )
    }

    /// What every episode must end in, to the bit: as many sequential
    /// `Epol::step` calls from the initial state.
    fn reference_end(&self) -> (u64, Vec<u64>) {
        let epol = Epol::new(R);
        let (mut t, mut y) = (0.0, self.y0.clone());
        for _ in 0..EPISODE {
            y = epol.step(self.sys.as_ref(), t, &y, H);
            t += H;
        }
        (t.to_bits(), bits(&y))
    }
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let (s, setup_times) = timed_setup(|| setup(seed));
    let reference = s.reference_end();
    let mut order = Rng::stream(seed, 6);
    let rec = traced.then(|| trace::recorder(WORKERS + 1));
    let tracer = rec.as_ref().map(|r| Tracer {
        rec: r.clone(),
        lane: WORKERS as u32,
    });
    let plain = RunOptions::default();
    let recorded = rec
        .as_ref()
        .map(|r| RunOptions::default().with_recorder(r.clone()));
    let mut out = Outcome::default();
    let mut steps: Vec<Step> = Vec::new();
    let (mut episodes, mut wrong) = (0, 0);
    let start = Instant::now();
    while start.elapsed() < seconds {
        s.reset();
        let (mut counted, mut errored) = (0, false);
        for _ in 0..EPISODE {
            let layout = if order.unit() < TP_SHARE { TP } else { DP };
            if start.elapsed() >= seconds {
                // Past the deadline: finish the episode untimed, so that
                // its end state can still be checked.
                errored |= s.team.run(&s.programs[layout], &s.store).is_err();
                continue;
            }
            let id = out.attempted;
            let tr = tracer.as_ref().filter(|_| id % 2 == 1);
            let opts = match (tr, &recorded) {
                (Some(_), Some(r)) => r,
                _ => &plain,
            };
            let t_req = tr.map_or(0.0, Tracer::now);
            let t0 = Instant::now();
            let result = s.team.run_with(&s.programs[layout], &s.store, opts);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(t) = tr {
                let layout_name = if layout == TP {
                    "task_parallel"
                } else {
                    "data_parallel"
                };
                let end = t.now();
                t.span_between(
                    "Team::run_with",
                    t_req,
                    end,
                    id,
                    vec![("layout", layout_name.into())],
                );
                t.span_between(REQUEST, t_req, end, id, Vec::new());
            }
            out.attempted += 1;
            counted += 1;
            if let Err(e) = result {
                errored = true;
                out.notes.push(format!("step {id} failed: {e}"));
            }
            steps.push(Step {
                layout,
                done_s: start.elapsed().as_secs_f64(),
                ms,
                traced: tr.is_some(),
            });
        }
        episodes += 1;
        if errored || s.state_bits() != reference {
            wrong += 1;
            out.failed += counted;
        }
    }
    out.notes.push(format!(
        "{episodes} episodes of {EPISODE} steps checked against sequential Epol::step: {wrong} wrong"
    ));

    let lat = |pred: &dyn Fn(&Step) -> bool| {
        Latencies::new(steps.iter().filter(|x| pred(x)).map(|x| x.ms).collect())
    };
    match tracer {
        None => {
            out.metrics.insert(
                "sim_step_ms",
                geomean(steps.iter().map(|x| s.sim_ms[x.layout])),
            );
            let samples: Vec<(f64, f64)> = steps.iter().map(|x| (x.done_s, x.ms)).collect();
            latency_metrics(&mut out, &samples);
            setup_metrics(&mut out, setup_times, || setup(seed));
        }
        Some(t) => {
            // Team workers keep the recorder of their last run until they
            // are joined.
            drop((t, recorded));
            drop(s.team);
            let m = &mut out.metrics;
            let tp = lat(&|x| x.traced && x.layout == TP);
            let dp = lat(&|x| x.traced && x.layout == DP);
            m.insert("exec.step_ms_tp", tp.p(0.5));
            m.insert("exec.step_ms_dp", dp.p(0.5));
            let traced_steps: Vec<f64> = steps.iter().filter(|x| x.traced).map(|x| x.ms).collect();
            let n = traced_steps.len().max(1) as f64;
            let wall_s = traced_steps.iter().sum::<f64>() / 1e3;
            let (events, snap, dropped) = trace::drain(rec.expect("traced run has a recorder"));
            let hist_sum = |k: &str| snap.histogram(k).map_or(0.0, |h| h.sum);
            let task_s = hist_sum(keys::TASK_SECONDS);
            m.insert("exec.task_s", task_s / n);
            m.insert("exec.barrier_wait_s", hist_sum(keys::BARRIER_WAIT) / n);
            m.insert(
                "exec.redist_bytes",
                snap.counter(keys::REDIST_BYTES).unwrap_or(0) as f64 / n,
            );
            m.insert(
                "exec.tasks_run",
                snap.counter(keys::TASKS_RUN).unwrap_or(0) as f64,
            );
            m.insert("exec.busy_frac", task_s / (WORKERS as f64 * wall_s));
            let untraced = lat(&|x| !x.traced).p(0.5);
            let traced_p50 = Latencies::new(traced_steps).p(0.5);
            m.insert("obs.trace_overhead_frac", traced_p50 / untraced - 1.0);
            let spans = Spans::analyse(events);
            m.insert("bench.unaccounted_frac", spans.unaccounted_frac());
            out.notes.push(format!("recorder dropped {dropped} events"));
            out.notes.push(spans.save(
                "exec_epol",
                &[(BENCH_PID, "perfbench"), (EXEC_PID, "executor")],
            ));
        }
    }
    out
}

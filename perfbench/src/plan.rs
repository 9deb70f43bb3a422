//! Cold plan requests, closed loop with one client: every request builds a
//! fresh cost model, schedules with the default policy, maps and runs the
//! layered simulation — the path `SchedService` and `pt_bench::pipeline`
//! run for a request nothing is cached for.

use crate::gen::Rng;
use crate::stats::{geomean, Latencies};
use crate::trace::{self, Spans, Tracer, BENCH_PID, REQUEST};
use crate::{latency_metrics, setup_metrics, timed_setup, Outcome};
use pt_core::{LayerScheduler, LayeredSchedule, MappingStrategy};
use pt_cost::CostModel;
use pt_machine::{platforms, ClusterSpec};
use pt_mtask::TaskGraph;
use pt_sim::Simulator;
use std::time::{Duration, Instant};

/// Each task's work is scaled by a seeded factor in `[1 - J, 1 + J]`.
const WORK_JITTER: f64 = 0.005;
/// Request keys: the mapping strategy of a request is consecutive with
/// this probability, else scattered.  The two can take different times to
/// simulate; an uneven mix keeps the latency percentiles inside one of
/// the two modes instead of on the gap between them.
const STRATEGIES: [MappingStrategy; 2] = [MappingStrategy::Consecutive, MappingStrategy::Scattered];
const CONSECUTIVE_SHARE: f64 = 0.75;
/// Time steps unrolled in each graph.
const STEPS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub enum Graph {
    /// NAS BT-MZ class D on JUROPA widened to P = 16384.
    BtMzD,
    /// EPOL R = 8 on BRUSS2D 500 at P = 4096.
    EpolR8,
}

impl Graph {
    fn name(self) -> &'static str {
        match self {
            Graph::BtMzD => "plan_btmz",
            Graph::EpolR8 => "plan_epol",
        }
    }

    fn build(self) -> (TaskGraph, usize) {
        match self {
            Graph::BtMzD => (pt_nas::bt_mz(pt_nas::Class::D).step_graph(STEPS), 16384),
            Graph::EpolR8 => (
                pt_ode::Epol::new(8).step_graph(&pt_ode::Bruss2d::new(500), STEPS),
                4096,
            ),
        }
    }
}

/// One request key: a mapping strategy and its cold reference answer.
struct Key {
    strategy: MappingStrategy,
    schedule: LayeredSchedule,
    makespan: f64,
}

struct Case {
    graph: TaskGraph,
    spec: ClusterSpec,
    p: usize,
    keys: Vec<Key>,
}

/// The request's answer.
struct Plan {
    schedule: LayeredSchedule,
    makespan: f64,
}

/// Graph generation with seeded work jitter, then the cold reference
/// answer of every key and one warm-up request.
fn setup(graph: Graph, seed: u64) -> Case {
    let (mut g, p) = graph.build();
    let mut rng = Rng::stream(seed, 1);
    let ids: Vec<_> = g.task_ids().collect();
    for id in ids {
        g.task_mut(id).work *= rng.jitter(WORK_JITTER);
    }
    // JUROPA has 8 cores per node; beyond its 17664 cores this is a
    // widened machine of the same node type.
    let spec = platforms::juropa().with_nodes(p / 8);
    let keys = {
        let model = CostModel::new(&spec);
        let schedule = LayerScheduler::new(&model)
            .with_sweep_workers(1)
            .schedule_on(&g, p);
        let sim = Simulator::new(&model);
        STRATEGIES
            .into_iter()
            .map(|strategy| Key {
                strategy,
                schedule: schedule.clone(),
                makespan: sim
                    .simulate_layered(&g, &schedule, &strategy.mapping(&spec, p))
                    .makespan,
            })
            .collect()
    };
    let case = Case {
        graph: g,
        spec,
        p,
        keys,
    };
    std::hint::black_box(request(&case, 0, None));
    case
}

/// One cold plan request for key `k`; with a tracer, every public call
/// gets a span of request `id` and the scheduler records its phases.
fn request(case: &Case, k: usize, tr: Option<(&Tracer, u64)>) -> Plan {
    let now = || tr.map_or(0.0, |(t, _)| t.now());
    let span = |name: &str, t0: f64| {
        if let Some((t, id)) = tr {
            t.span(name, t0, id);
        }
    };
    let t_req = now();
    let t0 = now();
    let model = CostModel::new(&case.spec);
    span("CostModel::new", t0);
    let t0 = now();
    // One sweep thread, as `SchedService` runs every request (`ServeConfig`
    // defaults `sweep_workers` to 1).  The schedule is the same for any
    // thread count; on a 2-vCPU host the automatic two-thread sweep made
    // `plan_btmz` both slower (p50 89 vs 62 ms) and noisier.
    let mut scheduler = LayerScheduler::new(&model).with_sweep_workers(1);
    if let Some((t, _)) = tr {
        scheduler = scheduler.with_recorder(t.rec.clone());
    }
    let schedule = scheduler.schedule_on(&case.graph, case.p);
    span("LayerScheduler::schedule_on", t0);
    let t0 = now();
    let mapping = case.keys[k].strategy.mapping(&case.spec, case.p);
    span("MappingStrategy::mapping", t0);
    let t0 = now();
    let report = Simulator::new(&model).simulate_layered(&case.graph, &schedule, &mapping);
    span("Simulator::simulate_layered", t0);
    span(REQUEST, t_req);
    Plan {
        schedule,
        makespan: report.makespan,
    }
}

fn is_correct(case: &Case, k: usize, plan: &Plan) -> bool {
    let key = &case.keys[k];
    plan.schedule.validate().is_ok()
        && plan.schedule == key.schedule
        && plan.makespan.to_bits() == key.makespan.to_bits()
}

pub fn run(graph: Graph, seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let (case, setup_times) = timed_setup(|| setup(graph, seed));
    let mut rng = Rng::stream(seed, 2);
    let tracer = traced.then(|| Tracer {
        rec: trace::recorder(1),
        lane: 0,
    });
    let mut out = Outcome::default();
    // In the traced run every other request is traced, so the untraced
    // ones in between measure the tracing overhead under the same load.
    let (mut lat, mut lat_traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < seconds {
        let id = out.attempted;
        let k = usize::from(rng.unit() >= CONSECUTIVE_SHARE);
        let tr = tracer.as_ref().filter(|_| id % 2 == 1).map(|t| (t, id));
        let t0 = Instant::now();
        let plan = std::hint::black_box(request(&case, k, tr));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        if !is_correct(&case, k, &plan) {
            out.failed += 1;
        }
        let sample = (start.elapsed().as_secs_f64(), ms);
        if tr.is_some() {
            &mut lat_traced
        } else {
            &mut lat
        }
        .push(sample);
    }

    match tracer {
        None => {
            // Every correct reply equals its key's cold answer.
            out.metrics.insert(
                "sim_step_ms",
                geomean(case.keys.iter().map(|k| k.makespan / STEPS as f64 * 1e3)),
            );
            latency_metrics(&mut out, &lat);
            setup_metrics(&mut out, setup_times, || setup(graph, seed));
        }
        Some(t) => layer_metrics(&mut out, graph, &case, t, lat, lat_traced),
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    graph: Graph,
    case: &Case,
    tracer: Tracer,
    lat: Vec<(f64, f64)>,
    lat_traced: Vec<(f64, f64)>,
) {
    let n = lat_traced.len().max(1) as f64;
    let (events, snapshot, dropped) = trace::drain(tracer.rec);
    let spans = Spans::analyse(events);
    let ms = |name: &str| spans.total_us(name) / n / 1e3;
    let is_layer = |s: &str| {
        s.strip_prefix("layer")
            .is_some_and(|d| d.parse::<usize>().is_ok())
    };
    let m = &mut out.metrics;
    m.insert("mtask.contract_ms", ms("chain_contraction"));
    m.insert("mtask.layering_ms", ms("layer_partition"));
    m.insert(
        "cost.evaluations",
        snapshot
            .counter(pt_obs::keys::COST_EVALUATIONS)
            .unwrap_or(0) as f64
            / n,
    );
    m.insert("core.g_sweep_ms", ms("g_sweep"));
    m.insert(
        "core.g_candidates",
        spans.arg_sum("g_sweep", "candidates") as f64 / n,
    );
    m.insert("core.lpt_ms", ms("lpt"));
    m.insert("core.adjust_ms", spans.self_us_where(is_layer) / n / 1e3);
    m.insert("core.schedule_ms", ms("LayerScheduler::schedule_on"));
    m.insert("core.map_ms", ms("MappingStrategy::mapping"));
    let sim_ms = ms("Simulator::simulate_layered");
    m.insert("sim.layered_ms", sim_ms);
    m.insert("sim.us_per_task", sim_ms * 1e3 / case.graph.len() as f64);
    let p50 = |s: Vec<(f64, f64)>| Latencies::new(s.into_iter().map(|x| x.1).collect()).p(0.5);
    let (p50, p50_traced) = (p50(lat), p50(lat_traced));
    m.insert("obs.trace_overhead_frac", p50_traced / p50 - 1.0);
    m.insert("bench.unaccounted_frac", spans.unaccounted_frac());
    let request_ms = ms(REQUEST);
    out.notes.push(format!(
        "traced requests {n}, request {request_ms:.4} ms: g-sweep + LPT {:.1}%, simulation {:.1}%",
        100.0 * (m["core.g_sweep_ms"] + m["core.lpt_ms"]) / request_ms,
        100.0 * sim_ms / request_ms
    ));
    out.notes.push(format!("recorder dropped {dropped} events"));
    out.notes.push(spans.save(
        graph.name(),
        &[
            (BENCH_PID, "perfbench"),
            (pt_core::two_level::SCHED_PID, "scheduler"),
        ],
    ));
}

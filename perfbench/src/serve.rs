//! The scheduling service under an open loop: Poisson arrivals over
//! Zipf-popular request keys, issued by two generator threads against an
//! in-process `SchedService` whose cache holds fewer schedules than there
//! are keys.  The offered rate is fixed, so a seed fixes the whole request
//! stream; the traced run measures the saturation throughput and prints
//! the share of it that the rate offers.  Latency is timed from when each
//! request was due, so a call that stalls delays the requests queued
//! behind it.

use crate::gen::{poisson_arrivals, Rng, Zipf};
use crate::stats::{geomean, Latencies};
use crate::trace::{self, Spans, Tracer, BENCH_PID, REQUEST};
use crate::{latency_metrics, setup_metrics, timed_setup, Outcome};
use pt_core::{LayerScheduler, LayeredSchedule, MappingStrategy};
use pt_cost::CostModel;
use pt_machine::platforms;
use pt_obs::Recorder;
use pt_serve::{CacheStatus, GPolicy, SchedService, ScheduleReply, ScheduleRequest, ServeConfig};
use pt_sim::Simulator;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered requests per second: a quarter of the saturation throughput
/// the traced run measured on a 2-vCPU host (about 16 000/s).  At a
/// quarter the generators are mostly idle, so the median request is an
/// unqueued hit, while a miss still holds up the requests due behind it.
/// A constant, not measured per run: a measured rate would carry the
/// host's state into the offered load, the request count and the memory
/// the run holds.
const RATE: f64 = 4000.0;
/// Length of the closed-loop burst that measures saturation throughput.
const SATURATION_S: f64 = 2.0;
/// Zipf exponent of key popularity: 0.99, the default of YCSB's zipfian
/// request distribution (Cooper et al., "Benchmarking Cloud Serving
/// Systems with YCSB", SoCC 2010).
const ZIPF_S: f64 = 0.99;
/// Ready schedules the cache may hold: 5/8 of the 32 keys.  This share is
/// an assumption; all the workload needs is a cache below the key universe,
/// so that misses insert and evict.
const CACHE_CAPACITY: usize = 20;
/// Warm cost tables per worker: the keys span 8 table keys (4 graphs × 2
/// core counts), so every table stays warm even if all route to one worker.
const TABLES_PER_WORKER: usize = 8;
/// Load-generator threads.
const GENERATORS: usize = 2;
/// Time steps unrolled in each graph.
const STEPS: usize = 2;

struct Setup {
    service: SchedService,
    /// Request keys, most popular first.
    keys: Vec<ScheduleRequest>,
    /// Service-free cold answers, one per key.
    refs: Vec<(LayeredSchedule, f64)>,
}

/// The reference answer: the same request computed single-threaded with a
/// fresh cost table, bypassing the service.
fn cold_compute(req: &ScheduleRequest) -> (LayeredSchedule, f64) {
    let model = CostModel::new(&req.machine);
    let mut scheduler = LayerScheduler::new(&model).with_sweep_workers(1);
    if let Some(g) = req.policy.fixed_groups {
        scheduler = scheduler.with_fixed_groups(g);
    }
    let schedule = scheduler.schedule_on(&req.graph, req.total_cores);
    let mapping = req.mapping.mapping(&req.machine, req.total_cores);
    let makespan = Simulator::new(&model)
        .simulate_layered(&req.graph, &schedule, &mapping)
        .makespan;
    (schedule, makespan)
}

/// The key universe {epol_r8, irk, pabm, bt_mz_b} × P {64, 256} ×
/// {consecutive, scattered} × {g-sweep, fixed g = 2}, in a popularity order
/// that is fixed across seeds (a constant shuffle, so every workload, core
/// count and policy has popular and rare keys).
fn keys() -> Vec<ScheduleRequest> {
    let sparse = pt_ode::Bruss2d::new(250);
    let graphs = [
        pt_ode::Epol::new(8).step_graph(&sparse, STEPS),
        pt_ode::Irk::new(4, 3).step_graph(&sparse, STEPS),
        pt_ode::Pabm::new(8, 2).step_graph(&sparse, STEPS),
        pt_nas::bt_mz(pt_nas::Class::B).step_graph(STEPS),
    ]
    .map(Arc::new);
    let mut keys = Vec::new();
    for graph in &graphs {
        for p in [64usize, 256] {
            let machine = Arc::new(platforms::juropa().with_cores(p));
            for mapping in [MappingStrategy::Consecutive, MappingStrategy::Scattered] {
                for fixed_groups in [None, Some(2)] {
                    keys.push(ScheduleRequest {
                        policy: GPolicy {
                            fixed_groups,
                            ..GPolicy::default()
                        },
                        ..ScheduleRequest::new(graph.clone(), machine.clone(), mapping)
                    });
                }
            }
        }
    }
    let mut rng = Rng::new(0x5EED);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    keys
}

fn setup() -> Setup {
    let keys = keys();
    let refs = keys.iter().map(cold_compute).collect();
    let service = SchedService::new(ServeConfig {
        workers: 2,
        sweep_workers: 1,
        cache_capacity: CACHE_CAPACITY,
        tables_per_worker: TABLES_PER_WORKER,
        inject_compute_failures: 0,
    });
    // Warm-up: every key once, rarest first, so the stream starts with the
    // popular keys cached and every warm table built.
    for req in keys.iter().rev() {
        service.schedule(req.clone()).expect("warm-up request");
    }
    Setup {
        service,
        keys,
        refs,
    }
}

/// Saturation throughput in requests per second: the generator threads
/// issue the key mix back to back (a closed loop) for [`SATURATION_S`].
fn saturation(s: &Setup, seed: u64) -> f64 {
    let zipf = Zipf::new(s.keys.len(), ZIPF_S);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..GENERATORS {
            let (zipf, done) = (&zipf, &done);
            scope.spawn(move || {
                let mut rng = Rng::stream(seed, 7 + t as u64);
                while start.elapsed().as_secs_f64() < SATURATION_S {
                    s.service
                        .schedule(s.keys[zipf.sample(&mut rng)].clone())
                        .expect("saturation request");
                    // A count only; the scope's join publishes it.
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    done.into_inner() as f64 / start.elapsed().as_secs_f64()
}

/// One request of an open loop, timed from when it was due.
struct Sent<R> {
    /// Position in the arrival stream.
    i: usize,
    /// Index of the generator thread that issued it.
    thread: usize,
    /// Due → issued: how late the generator was.
    late_s: f64,
    /// Issued → answered.
    service_s: f64,
    /// Due → answered.
    latency_s: f64,
    out: R,
}

/// Sleep until shortly before `due`, then spin, so requests leave on time
/// without a timer-slack bias.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: `threads` generator threads take the requests in arrival
/// order and issue request `i` at `start + arrivals[i]`, or as soon as
/// their previous call returns.  Latency runs from the due time, so a call
/// that stalls delays the requests queued behind it.  `keep` turns each
/// answer into what is kept of it, after the call is timed.
fn open_loop<A, R: Send>(
    arrivals: &[f64],
    threads: usize,
    start: Instant,
    call: impl Fn(usize) -> A + Sync,
    keep: impl Fn(usize, A) -> R + Sync,
) -> Vec<Sent<R>> {
    let next = AtomicUsize::new(0);
    let generator = |thread: usize| {
        let mut sent = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&at) = arrivals.get(i) else {
                return sent;
            };
            let due = start + Duration::from_secs_f64(at);
            wait_until(due);
            let issue = Instant::now();
            let answer = call(i);
            let done = Instant::now();
            sent.push(Sent {
                i,
                thread,
                late_s: (issue - due).as_secs_f64(),
                service_s: (done - issue).as_secs_f64(),
                latency_s: (done - due).as_secs_f64(),
                out: keep(i, answer),
            });
        }
    };
    let mut all: Vec<Sent<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || generator(t)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    all.sort_by_key(|r| r.i);
    all
}

/// The seeded request stream at `rate` requests per second: arrival
/// offsets and key ranks.  The seed fixes the key sequence and the
/// unit-rate arrival process; `rate` only sets its pace.
fn stream(seed: u64, rate: f64, seconds: f64, keys: usize) -> (Vec<f64>, Vec<usize>) {
    let arrivals: Vec<f64> = poisson_arrivals(&mut Rng::stream(seed, 3), 1.0, seconds * rate)
        .into_iter()
        .map(|t| t / rate)
        .collect();
    let zipf = Zipf::new(keys, ZIPF_S);
    let mut rng = Rng::stream(seed, 4);
    let draws = arrivals.iter().map(|_| zipf.sample(&mut rng)).collect();
    (arrivals, draws)
}

type Reply = Option<(Arc<ScheduleReply>, CacheStatus)>;

/// What is kept of one reply: whether it was right, how the cache
/// answered, and whether it needed no new cost evaluation.
struct Checked {
    ok: bool,
    status: Option<CacheStatus>,
    warm: bool,
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Outcome {
    let (s, setup_times) = timed_setup(setup);
    let (arrivals, draws) = stream(seed, RATE, seconds.as_secs_f64(), s.keys.len());
    let rec = traced.then(|| trace::recorder(GENERATORS));
    let before = s.service.stats();
    let start = Instant::now();
    let start_us = rec.as_ref().map_or(0.0, |r| r.now_us());
    // Every reply must be bit-identical to the service-free answer.  Hits
    // share the cached reply, so each key remembers the last reply it
    // verified and compares only a new one: at most one reply per key is
    // held, so memory does not grow with the stream.
    let verified: Vec<Mutex<Option<Arc<ScheduleReply>>>> =
        s.keys.iter().map(|_| Mutex::new(None)).collect();
    let check = |i: usize, reply: Reply| {
        let Some((reply, status)) = reply else {
            return Checked {
                ok: false,
                status: None,
                warm: false,
            };
        };
        let key = draws[i];
        let mut seen = verified[key].lock().expect("no check panicked");
        let ok = seen.as_ref().is_some_and(|v| Arc::ptr_eq(v, &reply)) || {
            let (schedule, makespan) = &s.refs[key];
            let same =
                reply.schedule == *schedule && reply.makespan.to_bits() == makespan.to_bits();
            if same {
                *seen = Some(reply.clone());
            }
            same
        };
        Checked {
            ok,
            status: Some(status),
            warm: reply.cost_evaluations == 0,
        }
    };
    let mut records: Vec<Sent<Checked>> = open_loop(
        &arrivals,
        GENERATORS,
        start,
        |i| s.service.schedule(s.keys[draws[i]].clone()).ok(),
        check,
    );
    let after = s.service.stats();
    let mut out = Outcome {
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| !r.out.ok).count() as u64,
        ..Outcome::default()
    };
    records.retain(|r| r.out.status.is_some());
    let status = |r: &Sent<Checked>| r.out.status;
    out.notes.push(format!(
        "offered {RATE:.0}/s, {} keys, cache {CACHE_CAPACITY}",
        s.keys.len()
    ));

    let Some(rec) = rec else {
        // Every correct reply equals its key's cold answer.
        out.metrics.insert(
            "sim_step_ms",
            geomean(draws.iter().map(|&k| s.refs[k].1 / STEPS as f64 * 1e3)),
        );
        let samples: Vec<(f64, f64)> = records
            .iter()
            .map(|r| (arrivals[r.i] + r.latency_s, r.latency_s * 1e3))
            .collect();
        latency_metrics(&mut out, &samples);
        let misses = records
            .iter()
            .filter(|r| status(r) != Some(CacheStatus::Hit))
            .count();
        out.notes.push(format!("{misses} non-hits"));
        setup_metrics(&mut out, setup_times, setup);
        return out;
    };

    let m = &mut out.metrics;
    let d = |a: u64, b: u64| (a - b) as f64;
    let (hits, misses, followed) = (
        d(after.hits, before.hits),
        d(after.misses, before.misses),
        d(after.followed, before.followed),
    );
    m.insert("serve.hits", hits);
    m.insert("serve.misses", misses);
    m.insert("serve.followed", followed);
    m.insert(
        "serve.hit_rate",
        (hits + followed) / (hits + followed + misses).max(1.0),
    );
    m.insert("serve.computed", d(after.computed, before.computed));
    m.insert("serve.evictions", d(after.evictions, before.evictions));
    m.insert(
        "serve.evaluations",
        d(after.evaluations, before.evaluations),
    );
    let with = |want: CacheStatus| records.iter().filter(move |r| status(r) == Some(want));
    let warm = with(CacheStatus::Miss).filter(|r| r.out.warm).count();
    m.insert("serve.warm_miss_frac", warm as f64 / misses.max(1.0));
    let hit = Latencies::new(with(CacheStatus::Hit).map(|r| r.service_s * 1e6).collect());
    m.insert("serve.hit_us_p50", hit.p(0.5));
    let miss = Latencies::new(with(CacheStatus::Miss).map(|r| r.service_s * 1e3).collect());
    m.insert("serve.miss_ms_p50", miss.p(0.5));
    let late = Latencies::new(records.iter().map(|r| r.late_s * 1e3).collect());
    m.insert("serve.gen_late_ms_p99", late.p(0.99));
    // The service takes no recorder, so the benchmark's spans are written
    // from the timings after the stream: tracing adds nothing to the
    // measured path.
    m.insert("obs.trace_overhead_frac", 0.0);
    for r in &records {
        let t = Tracer {
            rec: rec.clone(),
            lane: r.thread as u32,
        };
        let due = start_us + arrivals[r.i] * 1e6;
        let (issue, done) = (due + r.late_s * 1e6, due + r.latency_s * 1e6);
        let cache = match status(r) {
            Some(CacheStatus::Hit) => "hit",
            Some(CacheStatus::Miss) => "miss",
            _ => "followed",
        };
        let id = r.i as u64;
        t.span_between("generator_wait", due, issue, id, Vec::new());
        t.span_between(
            "SchedService::schedule",
            issue,
            done,
            id,
            vec![("cache", cache.into())],
        );
        t.span_between(REQUEST, due, done, id, Vec::new());
    }
    let (events, _, dropped) = trace::drain(rec);
    let spans = Spans::analyse(events);
    m.insert("bench.unaccounted_frac", spans.unaccounted_frac());
    let saturated = saturation(&s, seed);
    out.notes.push(format!(
        "saturation {saturated:.0}/s after the stream: {RATE:.0}/s offers {:.3} of it",
        RATE / saturated
    ));
    out.notes.push(format!("recorder dropped {dropped} events"));
    out.notes
        .push(spans.save("serve_zipf", &[(BENCH_PID, "perfbench")]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time_so_a_stall_delays_the_queue() {
        // Four requests due 5 ms apart on one generator thread; the first
        // call stalls for 40 ms.
        let arrivals = [0.0, 0.005, 0.010, 0.015];
        let stall = Duration::from_millis(40);
        let call = |i| {
            if i == 0 {
                std::thread::sleep(stall);
            }
            i
        };
        let sent = open_loop(&arrivals, 1, Instant::now(), call, |_, r| r);
        assert_eq!(sent.iter().map(|r| r.out).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert!(sent.iter().all(|r| r.thread == 0));
        // Request 1 could only leave once call 0 returned (>= 40 ms), 5 ms
        // after it was due: its latency counts that wait although its own
        // call was instant.
        let r1 = &sent[1];
        assert!(r1.late_s >= 0.035, "late {}", r1.late_s);
        assert!(r1.latency_s >= r1.late_s + r1.service_s - 1e-9);
        assert!(r1.service_s < r1.late_s);
        for r in &sent[1..] {
            assert!(r.latency_s >= 0.040 - arrivals[r.i] - 1e-9, "{}", r.i);
        }
    }

    #[test]
    fn a_seed_fixes_the_request_stream_and_the_rate_only_its_pace() {
        let a = stream(7, 1000.0, 2.0, 32);
        assert_eq!(a, stream(7, 1000.0, 2.0, 32));
        let b = stream(8, 1000.0, 2.0, 32);
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert!(a.1.iter().all(|&k| k < 32));
        // At twice the rate: the same keys in the same order, due twice as
        // fast, so twice as many fit.
        let fast = stream(7, 2000.0, 2.0, 32);
        assert!(fast.1.len() > a.1.len());
        assert_eq!(fast.1[..a.1.len()], a.1[..]);
        assert!(a
            .0
            .iter()
            .zip(&fast.0)
            .all(|(x, y)| (x - 2.0 * y).abs() < 1e-12));
    }
}

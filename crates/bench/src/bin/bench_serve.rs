//! Scheduling-service benchmark gate (`ptsched serve`'s engine, the
//! `pt-serve` crate).
//!
//! Drives a mixed EPOL/BT-MZ request stream — 8 distinct request keys
//! (2 workloads x P ∈ {64, 256} on JUROPA x 2 mapping strategies), each
//! requested many times from several concurrent client threads — against a
//! [`SchedService`] and reports sustained schedules/sec, p50/p99 latency
//! and the cache hit rate into `BENCH_serve.json` at the repository root.
//!
//! Two hard gates:
//!
//! * **hit rate** — the content-addressed cache plus single-flight batching
//!   must serve at least 50% of the stream without computing (the stream
//!   has ~8x key reuse, so a healthy cache sits far above that);
//! * **bit-identical replies** — for every key, the reply observed during
//!   the concurrent run must equal a cold, single-threaded computation of
//!   the same request bit for bit (schedule structure and simulated
//!   makespan).  Caching and batching must never change an answer.
//!
//! `--quick` shrinks the stream for CI smoke runs; its JSON goes where
//! [`pt_bench::report::write`] puts quick runs.

use pt_core::{LayerScheduler, LayeredSchedule, MappingStrategy};
use pt_cost::CostModel;
use pt_machine::platforms;
use pt_serve::{SchedService, ScheduleRequest, ServeConfig};
use pt_sim::Simulator;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const CLIENTS: usize = 4;

#[derive(Serialize)]
struct KeyEntry {
    workload: &'static str,
    cores: usize,
    mapping: &'static str,
    signature: String,
    makespan_ms: f64,
    verified_bit_identical: bool,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    machine: &'static str,
    quick: bool,
    clients: usize,
    distinct_keys: usize,
    requests: usize,
    elapsed_s: f64,
    schedules_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    hit_rate: f64,
    stats: pt_serve::StatsSnapshot,
    keys: Vec<KeyEntry>,
}

/// Cold reference: the same request computed single-threaded with a fresh
/// cost table, bypassing the service entirely.
fn cold_compute(req: &ScheduleRequest) -> (LayeredSchedule, f64) {
    let model = CostModel::new(&req.machine);
    let mut scheduler = LayerScheduler::new(&model).with_sweep_workers(1);
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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reuse = if quick { 8 } else { 50 };

    // The request mix: every combination is one distinct cache key.
    let epol = Arc::new(pt_ode::Epol::new(8).step_graph(&pt_ode::Bruss2d::new(250), 2));
    let bt = Arc::new(pt_nas::bt_mz(pt_nas::Class::B).step_graph(2));
    let mut keys: Vec<(&'static str, &'static str, ScheduleRequest)> = Vec::new();
    for (wname, graph) in [("epol_r8", &epol), ("bt_mz_b", &bt)] {
        for p in [64usize, 256] {
            let machine = Arc::new(platforms::juropa().with_cores(p));
            for (mname, mapping) in [
                ("consecutive", MappingStrategy::Consecutive),
                ("scattered", MappingStrategy::Scattered),
            ] {
                keys.push((
                    wname,
                    mname,
                    ScheduleRequest::new(graph.clone(), machine.clone(), mapping),
                ));
            }
        }
    }
    let requests = keys.len() * reuse;

    let service = SchedService::new(ServeConfig {
        workers: 4,
        sweep_workers: 1,
        cache_capacity: 256,
        tables_per_worker: 16,
        inject_compute_failures: 0,
    });

    // One observed reply per key, for the bit-identical gate.
    let observed: Mutex<HashMap<u128, Arc<pt_serve::ScheduleReply>>> = Mutex::new(HashMap::new());

    let t0 = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let service = &service;
                let keys = &keys;
                let observed = &observed;
                s.spawn(move || {
                    let mut lats = Vec::new();
                    // Client `c` issues requests c, c+CLIENTS, ... of the
                    // stream; request i asks for key i mod |keys|, so all
                    // clients interleave over all keys concurrently.
                    let mut i = client;
                    while i < requests {
                        let (_, _, req) = &keys[i % keys.len()];
                        let t = Instant::now();
                        let (reply, _) = service.schedule(req.clone()).expect("request succeeds");
                        lats.push(t.elapsed().as_secs_f64() * 1e3);
                        observed
                            .lock()
                            .unwrap()
                            .entry(reply.signature.0)
                            .or_insert(reply);
                        i += CLIENTS;
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();

    latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: usize| latencies_ms[(latencies_ms.len() * p / 100).min(latencies_ms.len() - 1)];
    let stats = service.stats();
    let hit_rate = stats.hit_rate();

    // Gate 1: every concurrent reply is bit-identical to a cold, service-
    // free computation of its request.
    let observed = observed.into_inner().unwrap();
    let mut key_entries = Vec::new();
    for (wname, mname, req) in &keys {
        let sig = req.signature();
        let reply = observed
            .get(&sig.0)
            .expect("every key was requested at least once");
        let (cold_schedule, cold_makespan) = cold_compute(req);
        assert_eq!(
            reply.schedule, cold_schedule,
            "{wname}/{mname}/P={}: cached schedule differs from cold computation",
            req.total_cores
        );
        assert_eq!(
            reply.makespan.to_bits(),
            cold_makespan.to_bits(),
            "{wname}/{mname}/P={}: cached makespan differs from cold computation",
            req.total_cores
        );
        key_entries.push(KeyEntry {
            workload: wname,
            cores: req.total_cores,
            mapping: mname,
            signature: sig.to_string(),
            makespan_ms: reply.makespan * 1e3,
            verified_bit_identical: true,
        });
    }
    println!(
        "verified: {} keys bit-identical to cold computation",
        key_entries.len()
    );

    // Gate 2: the cache actually absorbs the stream's reuse.
    assert!(
        hit_rate >= 0.5,
        "cache hit rate {hit_rate:.3} below the 0.5 gate \
         (hits {} followed {} misses {})",
        stats.hits,
        stats.followed,
        stats.misses
    );

    // Sanity: the service computed each key at most a handful of times
    // (leads can race before the first publish, but reuse must dominate).
    assert!(
        (stats.computed as usize) < requests / 2,
        "computed {} of {requests} requests: batching is not working",
        stats.computed
    );

    let report = Report {
        benchmark: "scheduling service throughput (SchedService under a concurrent mixed stream)",
        machine: "juropa",
        quick,
        clients: CLIENTS,
        distinct_keys: keys.len(),
        requests,
        elapsed_s,
        schedules_per_sec: requests as f64 / elapsed_s,
        p50_ms: pct(50),
        p99_ms: pct(99),
        hit_rate,
        stats,
        keys: key_entries,
    };
    println!(
        "{} requests over {} keys in {:.2}s: {:.0} schedules/sec, \
         p50 {:.3} ms, p99 {:.3} ms, hit rate {:.1}%",
        report.requests,
        report.distinct_keys,
        report.elapsed_s,
        report.schedules_per_sec,
        report.p50_ms,
        report.p99_ms,
        report.hit_rate * 100.0
    );
    pt_bench::report::write("BENCH_serve.json", quick, &report);
}

//! Multi-tenant scenario benchmark gate (the `pt-tenant` crate).
//!
//! Two sections:
//!
//! * **Scenario suite** — deterministic online scenarios (Poisson mixed
//!   EPOL/IRK/BT-MZ streams and an all-at-once burst) simulated under the
//!   three policies.  Reported figures per (scenario, policy): makespan,
//!   mean/max stretch, platform utilization, resizes.  Hard gate, on every
//!   contended scenario: the malleable policy strictly beats FCFS-exclusive
//!   on **both** mean stretch and utilization.  These numbers are exactly
//!   reproducible (fluid simulation, seeded arrivals), so any diff in
//!   `BENCH_tenant.json` is a behavior change, not noise.
//!
//! * **Executor timeshare** — two real solver programs (EPOL and IRK on
//!   BRUSS2D) gang-timeshare one 4-worker pool in round-robin layer
//!   slices, with a shrink/regrow width schedule on one of them.  Hard
//!   gate: each job's final store is bit-identical to its exclusive
//!   fixed-width run.  Wall-clock per pass is reported as the min over
//!   repetitions (deterministic work, one-sided container noise — the PR 7
//!   methodology), but not gated: correctness is the contract here.
//!
//! `--quick` shrinks repetitions for CI smoke runs; gates run either way;
//! its JSON goes where [`pt_bench::report::write`] puts quick runs.

use pt_exec::DataStore;
use pt_machine::platforms;
use pt_ode::{Bruss2d, Epol, Irk, OdeSystem};
use pt_serve::{SchedService, ServeConfig};
use pt_tenant::{
    poisson_mixed, run_scenario, trace_jobs, AdmissionOracle, JobSpec, Policy, ScenarioReport,
    TenantExecutor, TenantJob, WorkloadKind,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct PolicyRow {
    policy: String,
    makespan_s: f64,
    mean_stretch: f64,
    max_stretch: f64,
    utilization: f64,
    resizes: usize,
}

#[derive(Serialize)]
struct ScenarioEntry {
    scenario: &'static str,
    cores: usize,
    jobs: usize,
    /// Malleable vs FCFS gates hold (always true when the binary exits 0).
    gated: bool,
    policies: Vec<PolicyRow>,
}

#[derive(Serialize)]
struct TimeshareEntry {
    jobs: usize,
    slices: usize,
    resizes: usize,
    /// Min over repetitions of one full interleaved pass (ms).
    interleaved_min_ms: f64,
    /// Min over repetitions of running the jobs back-to-back (ms).
    exclusive_min_ms: f64,
    verified_bit_identical: bool,
    reps: usize,
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    machine: &'static str,
    quick: bool,
    scenarios: Vec<ScenarioEntry>,
    timeshare: TimeshareEntry,
}

fn row(r: &ScenarioReport) -> PolicyRow {
    PolicyRow {
        policy: r.policy.clone(),
        makespan_s: r.makespan,
        mean_stretch: r.mean_stretch,
        max_stretch: r.max_stretch,
        utilization: r.utilization,
        resizes: r.resizes,
    }
}

/// Run one scenario under all three policies and gate malleable vs FCFS.
fn scenario(
    service: &SchedService,
    name: &'static str,
    nodes: usize,
    jobs: &[JobSpec],
) -> ScenarioEntry {
    let spec = Arc::new(platforms::chic().with_nodes(nodes));
    let oracle = AdmissionOracle::new(service, spec.clone());
    let fcfs = run_scenario(&oracle, jobs, Policy::FcfsExclusive);
    let equi = run_scenario(&oracle, jobs, Policy::Equi);
    let mall = run_scenario(&oracle, jobs, Policy::Malleable);
    println!(
        "{name}: P={}, {} jobs | stretch fcfs {:.3} equi {:.3} malleable {:.3} | \
         util fcfs {:.3} equi {:.3} malleable {:.3} | {} resizes",
        spec.total_cores(),
        jobs.len(),
        fcfs.mean_stretch,
        equi.mean_stretch,
        mall.mean_stretch,
        fcfs.utilization,
        equi.utilization,
        mall.utilization,
        mall.resizes,
    );
    assert!(
        mall.mean_stretch < fcfs.mean_stretch,
        "{name}: malleable mean stretch {} did not beat fcfs {}",
        mall.mean_stretch,
        fcfs.mean_stretch
    );
    assert!(
        mall.utilization > fcfs.utilization,
        "{name}: malleable utilization {} did not beat fcfs {}",
        mall.utilization,
        fcfs.utilization
    );
    ScenarioEntry {
        scenario: name,
        cores: spec.total_cores(),
        jobs: jobs.len(),
        gated: true,
        policies: vec![row(&fcfs), row(&equi), row(&mall)],
    }
}

fn concat_steps(step: &pt_exec::Program, steps: usize) -> pt_exec::Program {
    let mut p = pt_exec::Program::default();
    for _ in 0..steps {
        for layer in &step.layers {
            p.push_layer(layer.clone());
        }
    }
    p
}

fn epol_job() -> (pt_exec::Program, Arc<DataStore>) {
    let sys_c = Bruss2d::new(6);
    let y0 = sys_c.initial_value();
    let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
    let program = Epol::new(4).build_program(&sys, &[0..2, 2..4]);
    let store = DataStore::new();
    store.put("t", vec![0.0]);
    store.put("h", vec![2e-4]);
    store.put("eta", y0);
    (concat_steps(&program, 3), store)
}

fn irk_job() -> (pt_exec::Program, Arc<DataStore>) {
    let sys_c = Bruss2d::new(5);
    let y0 = sys_c.initial_value();
    let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
    let program = Irk::new(4, 3).build_program(&sys, &[0..2, 2..4]);
    let store = DataStore::new();
    store.put("t", vec![0.0]);
    store.put("h", vec![5e-4]);
    store.put("eta", y0);
    (concat_steps(&program, 2), store)
}

/// Two real programs timeshare one pool; bit-identical gate + min-of-reps
/// wall clock.
fn timeshare(quick: bool) -> TimeshareEntry {
    let reps = if quick { 3 } else { 9 };

    // Exclusive references (also timed: two back-to-back exclusive runs).
    let exec = TenantExecutor::new(4);
    let mut exclusive_min = f64::INFINITY;
    let mut reference = None;
    for _ in 0..reps {
        let (ep, es) = epol_job();
        let (ip, is) = irk_job();
        let t0 = Instant::now();
        exec.run(&[TenantJob::new("epol", ep, es.clone())])
            .expect("exclusive epol runs");
        exec.run(&[TenantJob::new("irk", ip, is.clone())])
            .expect("exclusive irk runs");
        exclusive_min = exclusive_min.min(t0.elapsed().as_secs_f64() * 1e3);
        reference = Some((es.snapshot(), is.snapshot()));
    }
    let (eta_epol, eta_irk) = reference.expect("at least one rep");

    // Interleaved, with a shrink/regrow schedule on the EPOL job: squeezed
    // to 2 workers at layer 2, regrown to 4 at layer 4.
    let mut interleaved_min = f64::INFINITY;
    let mut slices = 0;
    let mut resizes = 0;
    let mut verified = false;
    for _ in 0..reps {
        let (ep, es) = epol_job();
        let (ip, is) = irk_job();
        let t0 = Instant::now();
        let runs = exec
            .run(&[
                TenantJob::new("epol", ep, es.clone())
                    .resize_at(2, 2)
                    .resize_at(4, 4),
                TenantJob::new("irk", ip, is.clone()),
            ])
            .expect("interleaved pass runs");
        interleaved_min = interleaved_min.min(t0.elapsed().as_secs_f64() * 1e3);
        slices = runs.iter().map(|r| r.slices).sum();
        resizes = runs.iter().map(|r| r.resizes).sum();
        assert_eq!(
            es.snapshot(),
            eta_epol,
            "timeshared EPOL store differs from its exclusive run"
        );
        assert_eq!(
            is.snapshot(),
            eta_irk,
            "timeshared IRK store differs from its exclusive run"
        );
        verified = true;
    }
    println!(
        "timeshare: {slices} slices, {resizes} resizes, interleaved min {interleaved_min:.2} ms, \
         exclusive min {exclusive_min:.2} ms, stores bit-identical"
    );
    TimeshareEntry {
        jobs: 2,
        slices,
        resizes,
        interleaved_min_ms: interleaved_min,
        exclusive_min_ms: exclusive_min,
        verified_bit_identical: verified,
        reps,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Streams: jobs are milliseconds long, so contention needs arrivals a
    // few milliseconds apart.  The burst case is the batch extreme (all
    // jobs present at t = 0).
    let poisson_16 = poisson_mixed(24, 200.0, 2, 42);
    let poisson_64 = poisson_mixed(48, 400.0, 4, 7);
    let burst: Vec<_> = {
        let entries: Vec<(f64, WorkloadKind, usize)> =
            (0..9).map(|i| (0.0, WorkloadKind::ALL[i % 3], 2)).collect();
        trace_jobs(&entries)
    };

    let service = SchedService::new(ServeConfig::default());
    let scenarios = vec![
        scenario(&service, "poisson_p16", 4, &poisson_16),
        scenario(&service, "poisson_p64", 16, &poisson_64),
        scenario(&service, "burst_p16", 4, &burst),
    ];
    let timeshare = timeshare(quick);

    let report = Report {
        benchmark: "online multi-tenant scheduling (pt-tenant scenarios + gang timesharing)",
        machine: "chic",
        quick,
        scenarios,
        timeshare,
    };
    pt_bench::report::write("BENCH_tenant.json", quick, &report);
}

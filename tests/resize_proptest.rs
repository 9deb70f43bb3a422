#![allow(clippy::single_range_in_vec_init)] // worker-group layouts

//! Property test for malleable shrink/regrow: **any** schedule of width
//! changes applied at layer boundaries leaves every solver's store
//! bit-identical to the uninterrupted run.
//!
//! This is the correctness contract the multi-tenant layer leans on — a
//! tenant scheduler may squeeze or regrow a running job at any boundary
//! without perturbing the numerics.  It holds because the solvers' task
//! bodies are layout-independent (per-component arithmetic, allgather
//! assembly, no width-dependent reduction orders).  Widths change the one
//! way the executor offers: the [`TenantExecutor`] runs the job a layer at
//! a time and re-plans each layer onto the width in effect
//! (`pt_exec::replan`).  The schedules are drawn by proptest: a handful of
//! `(layer, width)` entries per run, including repeated layers (last
//! wins), entries matching the current width, and shrink-to-one.

use parallel_tasks::exec::{DataStore, Program, Team};
use parallel_tasks::ode::pab::{startup, state_to_store};
use parallel_tasks::ode::{Bruss2d, Diirk, Epol, Irk, OdeSystem, Pab, Pabm};
use parallel_tasks::tenant::{TenantExecutor, TenantJob};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

fn concat_steps(step: &Program, steps: usize) -> Program {
    let mut p = Program::default();
    for _ in 0..steps {
        for layer in &step.layers {
            p.push_layer(layer.clone());
        }
    }
    p
}

fn ode_store(y0: &[f64], h: f64) -> Arc<DataStore> {
    let store = DataStore::new();
    store.put("t", vec![0.0]);
    store.put("h", vec![h]);
    store.put("eta", y0.to_vec());
    store
}

/// One solver case: a program factory (fresh program per run — DIIRK's
/// inner counter must not leak between runs) and a store factory.
struct SolverCase {
    name: &'static str,
    width: usize,
    build: Box<dyn Fn() -> (Program, Arc<DataStore>)>,
}

fn solver_cases() -> Vec<SolverCase> {
    vec![
        SolverCase {
            name: "epol",
            width: 4,
            build: Box::new(|| {
                let sys_c = Bruss2d::new(6);
                let y0 = sys_c.initial_value();
                let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
                let step = Epol::new(4).build_program(&sys, &[0..2, 2..4]);
                (concat_steps(&step, 3), ode_store(&y0, 2e-4))
            }),
        },
        SolverCase {
            name: "irk",
            width: 3,
            build: Box::new(|| {
                let sys_c = Bruss2d::new(5);
                let y0 = sys_c.initial_value();
                let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
                let step = Irk::new(4, 3).build_program(&sys, &[0..2, 2..3]);
                (concat_steps(&step, 2), ode_store(&y0, 5e-4))
            }),
        },
        SolverCase {
            name: "diirk",
            width: 3,
            build: Box::new(|| {
                let sys_c = Bruss2d::new(4);
                let y0 = sys_c.initial_value();
                let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
                let counter = Arc::new(AtomicUsize::new(0));
                let step = Diirk::new(3, 2).build_program(&sys, &[0..1, 1..2, 2..3], counter);
                (concat_steps(&step, 2), ode_store(&y0, 5e-4))
            }),
        },
        SolverCase {
            name: "pab",
            width: 4,
            build: Box::new(|| {
                let sys_c = Bruss2d::new(4);
                let y0 = sys_c.initial_value();
                let st0 = startup(&sys_c, 0.0, &y0, 4e-4, 4);
                let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
                let step = Pab::new(4).build_program(&sys, &[0..2, 2..4]);
                let store = DataStore::new();
                state_to_store(&st0, &store);
                (concat_steps(&step, 2), store)
            }),
        },
        SolverCase {
            name: "pabm",
            width: 4,
            build: Box::new(|| {
                let sys_c = Bruss2d::new(4);
                let y0 = sys_c.initial_value();
                let st0 = startup(&sys_c, 0.0, &y0, 4e-4, 4);
                let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
                let step = Pabm::new(4, 2).build_program(&sys, &[0..1, 1..2, 2..3, 3..4]);
                let store = DataStore::new();
                state_to_store(&st0, &store);
                (concat_steps(&step, 2), store)
            }),
        },
    ]
}

/// Derive a resize schedule from the proptest-drawn seed: `n`
/// `(layer, width)` entries anywhere in the program, any width in
/// `1..=team width` (no-ops and duplicates included on purpose).
fn schedule(seed: u64, n: usize, layers: usize, width: usize) -> Vec<(usize, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen_range(0..layers), rng.gen_range(1..=width)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any boundary shrink/regrow schedule is invisible in the results,
    /// for all five solvers.
    #[test]
    fn resize_schedules_never_change_solver_results(
        seed in any::<u64>(),
        n in 1usize..5,
    ) {
        for case in solver_cases() {
            // Uninterrupted baseline.
            let (program, baseline) = (case.build)();
            Team::new(case.width).run(&program, &baseline).unwrap();

            // Same program, re-planned between layers under the schedule.
            let (program, store) = (case.build)();
            let plan = schedule(seed, n, program.layers.len(), case.width);
            let job = plan
                .iter()
                .fold(TenantJob::new(case.name, program, store.clone()), |job, &(layer, width)| {
                    job.resize_at(layer, width)
                });
            TenantExecutor::new(case.width).run(&[job]).unwrap();

            prop_assert_eq!(
                store.snapshot(),
                baseline.snapshot(),
                "{}: resize schedule {:?} changed the results",
                case.name,
                plan
            );
        }
    }
}

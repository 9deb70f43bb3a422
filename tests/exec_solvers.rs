#![allow(clippy::single_range_in_vec_init)] // worker-group layouts

//! Integration tests of the shared-memory runtime: every solver's SPMD
//! implementation must reproduce its sequential reference bit-for-bit
//! (same arithmetic, different workers), across group layouts.

use parallel_tasks::exec::{DataStore, Team};
use parallel_tasks::ode::pab::{startup, state_to_store, store_to_state};
use parallel_tasks::ode::{max_err, Bruss2d, Diirk, Epol, Irk, OdeSystem, Pab, Pabm};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

fn store_with_state(y0: &[f64], h: f64) -> Arc<DataStore> {
    let store = DataStore::new();
    store.put("t", vec![0.0]);
    store.put("h", vec![h]);
    store.put("eta", y0.to_vec());
    store
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn epol_spmd_equals_sequential_across_layouts() {
    // On the 6×6 grid (n = 72) every 4-worker block ends on a row end.  On
    // the 7×7 grid (n = 98) the 3-worker blocks 0..33, 33..66 and 66..98
    // start mid-row, and the middle one crosses from u to v at 49.
    let cases = [
        (
            6,
            4,
            vec![vec![0..4], vec![0..2, 2..4], vec![0..1, 1..2, 2..3, 3..4]],
        ),
        (7, 3, vec![vec![0..3], vec![0..1, 1..3]]),
    ];
    let e = Epol::new(4);
    let h = 2e-4;
    for (grid, workers, layouts) in cases {
        let sys_c = Bruss2d::new(grid);
        let y0 = sys_c.initial_value();
        let mut seq = y0.clone();
        let mut t = 0.0;
        for _ in 0..3 {
            seq = e.step(&sys_c, t, &seq, h);
            t += h;
        }
        let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
        for layout in layouts {
            let team = Team::new(workers);
            let store = store_with_state(&y0, h);
            e.run_spmd(&team, &sys, &layout, &store, 3).unwrap();
            let eta = store.get("eta").unwrap();
            assert_eq!(
                bits(&eta),
                bits(&seq),
                "{grid}x{grid} grid, layout {layout:?}: err {}",
                max_err(&eta, &seq)
            );
            assert_eq!(store.get("t").unwrap()[0].to_bits(), t.to_bits());
        }
    }
}

#[test]
fn irk_spmd_equals_sequential_across_layouts() {
    let sys_c = Bruss2d::new(5);
    let y0 = sys_c.initial_value();
    let irk = Irk::new(4, 3);
    let h = 5e-4;
    let mut seq = y0.clone();
    let mut t = 0.0;
    for _ in 0..2 {
        seq = irk.step(&sys_c, t, &seq, h);
        t += h;
    }
    let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
    for layout in [vec![0..3], vec![0..2, 2..3]] {
        let team = Team::new(3);
        let store = store_with_state(&y0, h);
        irk.run_spmd(&team, &sys, &layout, &store, 2).unwrap();
        assert!(max_err(&store.get("eta").unwrap(), &seq) < 1e-12);
    }
}

#[test]
fn diirk_spmd_equals_sequential() {
    let sys_c = Bruss2d::new(4);
    let y0 = sys_c.initial_value();
    let d = Diirk::new(3, 2);
    let h = 5e-4;
    let mut seq = y0.clone();
    let mut t = 0.0;
    for _ in 0..2 {
        seq = d.step(&sys_c, t, &seq, h);
        t += h;
    }
    let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
    let team = Team::new(3);
    let store = store_with_state(&y0, h);
    let counter = Arc::new(AtomicUsize::new(0));
    let program = d.build_program(&sys, &[0..1, 1..2, 2..3], counter);
    for _ in 0..2 {
        team.run(&program, &store).unwrap();
    }
    assert!(max_err(&store.get("eta").unwrap(), &seq) < 1e-11);
}

#[test]
fn pab_and_pabm_spmd_equal_sequential() {
    let sys_c = Bruss2d::new(4);
    let y0 = sys_c.initial_value();
    let h = 4e-4;
    let sys: Arc<dyn OdeSystem> = Arc::new(sys_c.clone());

    let pab = Pab::new(4);
    let st0 = startup(&sys_c, 0.0, &y0, h, 4);
    let mut seq = st0.clone();
    for _ in 0..2 {
        seq = pab.step(&sys_c, &seq);
    }
    let team = Team::new(4);
    let store = DataStore::new();
    state_to_store(&st0, &store);
    pab.run_spmd(&team, &sys, &[0..2, 2..4], &store, 2).unwrap();
    let got = store_to_state(&store, 4);
    assert!(
        max_err(&got.y, &seq.y) < 1e-12,
        "PAB err {}",
        max_err(&got.y, &seq.y)
    );

    let pabm = Pabm::new(4, 2);
    let mut seq = st0.clone();
    for _ in 0..2 {
        seq = pabm.step(&sys_c, &seq);
    }
    let store = DataStore::new();
    state_to_store(&st0, &store);
    pabm.run_spmd(&team, &sys, &[0..1, 1..2, 2..3, 3..4], &store, 2)
        .unwrap();
    let got = store_to_state(&store, 4);
    assert!(
        max_err(&got.y, &seq.y) < 1e-12,
        "PABM err {}",
        max_err(&got.y, &seq.y)
    );
    for j in 0..4 {
        assert!(max_err(&got.f_prev[j], &seq.f_prev[j]) < 1e-12);
    }
}

#[test]
fn all_solvers_agree_with_each_other_on_smooth_problem() {
    // Cross-validation: five independent methods must converge to the same
    // trajectory on a smooth problem with small steps.
    let sys = Bruss2d::new(5);
    let y0 = sys.initial_value();
    let t_end = 4e-3;
    let h = 1e-3;

    let e = Epol::new(5).integrate(&sys, 0.0, &y0, t_end, h);
    let i = Irk::new(3, 6).integrate(&sys, 0.0, &y0, t_end, h);
    let (d, _) = Diirk::new(3, 5).integrate(&sys, 0.0, &y0, t_end, h);
    let (_, p) = Pab::new(4).integrate(&sys, 0.0, &y0, t_end, h);
    let (_, pm) = Pabm::new(4, 2).integrate(&sys, 0.0, &y0, t_end, h);

    assert!(max_err(&e, &i) < 1e-8, "EPOL vs IRK: {}", max_err(&e, &i));
    assert!(max_err(&i, &d) < 1e-8, "IRK vs DIIRK: {}", max_err(&i, &d));
    assert!(max_err(&e, &p) < 1e-6, "EPOL vs PAB: {}", max_err(&e, &p));
    assert!(
        max_err(&e, &pm) < 1e-7,
        "EPOL vs PABM: {}",
        max_err(&e, &pm)
    );
}

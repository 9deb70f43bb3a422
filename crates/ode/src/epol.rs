//! EPOL — the explicit extrapolation method (paper §2.2.3, Fig. 3–6).
//!
//! One macro step of size `H` computes `R` approximations of `y(t+H)`: the
//! `i`-th performs `i` explicit Euler micro steps of size `H/i`.  The
//! approximations are combined by Aitken–Neville extrapolation to order
//! `R`.  The micro steps of one approximation form a linear chain; the `R`
//! chains are independent — exactly the task structure the scheduler's
//! chain contraction and layering exploit (Fig. 5/6).

use crate::spmd_util::block_counts;
use crate::system::OdeSystem;
use pt_exec::{DataStore, GroupPlan, Program, TaskCtx, TaskFn};
use pt_mtask::{CommOp, DataRef, MTask, Spec, TaskGraph};
use std::ops::Range;
use std::sync::Arc;

/// The extrapolation solver.
#[derive(Debug, Clone)]
pub struct Epol {
    /// Number of approximations `R` (order of the method).
    pub r: usize,
}

impl Epol {
    /// Extrapolation with `R` approximations.
    pub fn new(r: usize) -> Epol {
        assert!(r >= 1, "need at least one approximation");
        Epol { r }
    }

    /// One macro step: returns the extrapolated `y(t + h)`.
    pub fn step(&self, sys: &dyn OdeSystem, t: f64, y: &[f64], h: f64) -> Vec<f64> {
        self.step_with_error(sys, t, y, h).0
    }

    /// One macro step plus the embedded error estimate (difference of the
    /// last two extrapolation diagonal entries).
    pub fn step_with_error(
        &self,
        sys: &dyn OdeSystem,
        t: f64,
        y: &[f64],
        h: f64,
    ) -> (Vec<f64>, f64) {
        let r = self.r;
        // Approximations: table[i] = (i+1) Euler micro steps.
        let mut table: Vec<Vec<f64>> = (1..=r).map(|i| euler_chain(sys, t, y, h, i)).collect();
        // Aitken–Neville towards h → 0 (order-1 base method → expansion in
        // h, nodes h_i = h/(i+1)); the embedded error estimate is the
        // difference between the last two diagonal entries.
        let mut err = 0.0;
        for k in 1..r {
            let before_last = (k == r - 1).then(|| table[r - 1].clone());
            for i in (k..r).rev() {
                let ratio = (i + 1) as f64 / (i + 1 - k) as f64;
                let denom = ratio - 1.0;
                let (lo, hi_rows) = table.split_at_mut(i);
                let below = &lo[i - 1];
                let cur = &mut hi_rows[0];
                for (c, b) in cur.iter_mut().zip(below.iter()) {
                    *c += (*c - *b) / denom;
                }
            }
            if let Some(prev) = before_last {
                err = table[r - 1]
                    .iter()
                    .zip(prev.iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
            }
        }
        let result = table.pop().expect("r >= 1");
        (result, err)
    }

    /// Fixed-step integration over `[t0, t_end]`.
    pub fn integrate(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        h: f64,
    ) -> Vec<f64> {
        let mut t = t0;
        let mut y = y0.to_vec();
        while t < t_end - 1e-14 {
            let step = h.min(t_end - t);
            y = self.step(sys, t, &y, step);
            t += step;
        }
        y
    }

    /// Adaptive integration with simple step-size control on the embedded
    /// error estimate; returns `(y(t_end), accepted_steps)`.
    pub fn integrate_adaptive(
        &self,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        h0: f64,
        tol: f64,
    ) -> (Vec<f64>, usize) {
        let mut t = t0;
        let mut h = h0;
        let mut y = y0.to_vec();
        let mut accepted = 0;
        while t < t_end - 1e-14 {
            let step = h.min(t_end - t);
            let (y_new, err) = self.step_with_error(sys, t, &y, step);
            if err <= tol || step < 1e-12 {
                y = y_new;
                t += step;
                accepted += 1;
                // Grow cautiously.
                let grow = (tol / err.max(1e-300)).powf(1.0 / self.r as f64);
                h = step * grow.clamp(0.5, 2.0);
            } else {
                h = step * (tol / err).powf(1.0 / self.r as f64).clamp(0.1, 0.9);
            }
        }
        (y, accepted)
    }

    /// The M-task specification of one time step (the body of the
    /// time-stepping loop of the paper's Fig. 3), with cost annotations
    /// for a given system.
    pub fn step_spec(&self, sys: &dyn OdeSystem) -> Spec {
        let r = self.r;
        let n = sys.dim() as f64;
        let vec_bytes = 8.0 * n;
        let micro_work = n * (2.0 + sys.flops_per_component());
        Spec::seq(vec![
            Spec::parfor(1..=r, |i| {
                Spec::for_loop(1..=i, |j| {
                    let mut s = Spec::task(MTask::with_comm(
                        format!("step({j},{i})"),
                        micro_work,
                        vec![CommOp::allgather(vec_bytes, 1.0)],
                    ));
                    if j == 1 {
                        // Only the chain head consumes the re-distributed
                        // data; later micro steps receive everything
                        // through the chain (paper Fig. 4).
                        s = s.uses(["t", "h", "eta_k"]);
                    } else {
                        s = s.uses([format!("V{i}")]);
                    }
                    // The approximation vectors stay block-distributed
                    // within their group and are re-blocked onto the
                    // combine task's cores (EPOL has no orthogonal
                    // communication, Table 1).
                    s.defines([DataRef::block(format!("V{i}"), vec_bytes)])
                })
            }),
            Spec::task(MTask::with_comm(
                "combine",
                1.5 * (r * r) as f64 * n,
                vec![CommOp::bcast(vec_bytes, 1.0)],
            ))
            .uses((1..=r).map(|i| format!("V{i}")))
            .defines([
                DataRef::replicated("eta_k", vec_bytes),
                DataRef::replicated("t", 8.0),
                DataRef::replicated("h", 8.0),
            ]),
        ])
    }

    /// The task graph of `steps` unrolled time steps, ready for
    /// scheduling.
    pub fn step_graph(&self, sys: &dyn OdeSystem, steps: usize) -> TaskGraph {
        let body = self.step_spec(sys);
        Spec::for_loop(0..steps, |_| body.clone()).compile_flat()
    }

    /// SPMD program for one macro step on the thread runtime.
    ///
    /// `groups` are the worker ranges; group `g` computes the
    /// approximations `{g+1, R−g}` (the paper's pairing, §4.2) — pass
    /// `R/2` groups for the schedule of Fig. 6 (middle), or one group for
    /// the data-parallel version.  The store must hold `t` (scalar), `h`
    /// (scalar) and `eta` (state); the program updates `eta` and `t`.
    pub fn build_program(&self, sys: &Arc<dyn OdeSystem>, groups: &[Range<usize>]) -> Program {
        let r = self.r;
        let n = sys.dim();
        // Assign approximations to groups with the balanced pairing.
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        for i in 1..=r {
            // Pair i with R+1-i: both land in the same slot.
            let slot = (i - 1).min(r - i) % groups.len();
            assignment[slot].push(i);
        }

        let mut layer1 = Vec::new();
        for (g, range) in groups.iter().enumerate() {
            let approxs = assignment[g].clone();
            let sys = sys.clone();
            let task: Arc<TaskFn> = Arc::new(move |ctx: &TaskCtx| {
                let t = scalar(ctx, "t");
                let h = scalar(ctx, "h");
                for &i in &approxs {
                    // Copied under the read lock, which is released before
                    // the chain computes.
                    let eta = ctx.store.read("eta", <[f64]>::to_vec).expect("eta");
                    let v = euler_chain_spmd(sys.as_ref(), t, eta, h, i, ctx);
                    if ctx.rank == 0 {
                        ctx.store.put(format!("V{i}"), v);
                    }
                }
            });
            layer1.push(GroupPlan::new(range.clone(), vec![task]));
        }

        // Combine layer: all workers extrapolate data-parallel.
        let all = groups.iter().map(|g| g.start).min().unwrap_or(0)
            ..groups.iter().map(|g| g.end).max().unwrap_or(1);
        let sys2 = sys.clone();
        let r2 = r;
        let combine: Arc<TaskFn> = Arc::new(move |ctx: &TaskCtx| {
            let n = sys2.dim();
            // Only this rank's block of each approximation is read.
            let range = ctx.block_range(n);
            let mut table: Vec<Vec<f64>> = (1..=r2)
                .map(|i| {
                    let name = format!("V{i}");
                    ctx.store
                        .read(&name, |v| v[range.clone()].to_vec())
                        .expect("V_i")
                })
                .collect();
            for k in 1..r2 {
                for i in (k..r2).rev() {
                    let (hi, hk) = (1.0 / (i + 1) as f64, 1.0 / (i + 1 - k) as f64);
                    let denom = hk / hi - 1.0;
                    let (lo, hi_rows) = table.split_at_mut(i);
                    let below = &lo[i - 1];
                    for (c, b) in hi_rows[0].iter_mut().zip(below) {
                        *c += (*c - *b) / denom;
                    }
                }
            }
            // Assemble the result block-wise.
            let local = table.pop().expect("r >= 1");
            let mut full = vec![0.0; n];
            ctx.comm
                .allgatherv(ctx.rank, &local, &block_counts(n, ctx.size), &mut full);
            if ctx.rank == 0 {
                let (t, h) = (scalar(ctx, "t"), scalar(ctx, "h"));
                ctx.store.put("eta", full);
                ctx.store.put("t", vec![t + h]);
            }
        });
        debug_assert!(n > 0);
        let mut program = Program::single_layer(layer1);
        program.push_layer(vec![GroupPlan::new(all, vec![combine])]);
        program
    }

    /// Run `steps` macro steps of the SPMD program on a team, mutating the
    /// store.  Convenience wrapper used by tests and benches.
    pub fn run_spmd(
        &self,
        team: &pt_exec::Team,
        sys: &Arc<dyn OdeSystem>,
        groups: &[Range<usize>],
        store: &Arc<DataStore>,
        steps: usize,
    ) -> Result<(), pt_exec::ExecError> {
        let program = self.build_program(sys, groups);
        for _ in 0..steps {
            team.run(&program, store)?;
        }
        Ok(())
    }
}

/// `i` explicit Euler micro steps of size `h/i` from `(t, y)`.
fn euler_chain(sys: &dyn OdeSystem, t: f64, y: &[f64], h: f64, i: usize) -> Vec<f64> {
    let n = sys.dim();
    let micro = h / i as f64;
    let mut cur = y.to_vec();
    let mut f = vec![0.0; n];
    for j in 0..i {
        sys.eval(t + j as f64 * micro, &cur, &mut f);
        for (c, fi) in cur.iter_mut().zip(&f) {
            *c += micro * fi;
        }
    }
    cur
}

/// A scalar (`t` or `h`) from the store.
fn scalar(ctx: &TaskCtx, name: &str) -> f64 {
    ctx.store.read(name, |v| v[0]).expect(name)
}

/// SPMD variant of [`euler_chain`] from the state `cur`, which serves as
/// the chain's working vector: each micro step evaluates the local block,
/// advances it in place and allgathers the full vector within the group.
/// The chain allocates its other two buffers once.
fn euler_chain_spmd(
    sys: &dyn OdeSystem,
    t: f64,
    mut cur: Vec<f64>,
    h: f64,
    i: usize,
    ctx: &TaskCtx,
) -> Vec<f64> {
    let n = sys.dim();
    let micro = h / i as f64;
    let range = ctx.block_range(n);
    let counts = block_counts(n, ctx.size);
    let mut full = vec![0.0; n];
    let mut local = vec![0.0; range.len()];
    for j in 0..i {
        sys.eval_range(t + j as f64 * micro, &cur, range.clone(), &mut local);
        for (l, c) in local.iter_mut().zip(&cur[range.clone()]) {
            *l = c + micro * *l;
        }
        ctx.comm.allgatherv(ctx.rank, &local, &counts, &mut full);
        std::mem::swap(&mut cur, &mut full);
    }
    cur
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // worker-group layouts
mod tests {
    use super::*;
    use crate::system::{max_err, LinearTest};
    use crate::Bruss2d;
    use pt_exec::Team;

    #[test]
    fn single_approximation_is_euler() {
        let sys = LinearTest::scalar(-1.0);
        let e = Epol::new(1);
        let y = e.step(&sys, 0.0, &[1.0], 0.1);
        assert!((y[0] - 0.9).abs() < 1e-15);
    }

    #[test]
    fn extrapolation_improves_with_r() {
        let sys = LinearTest::scalar(-1.0);
        let exact = sys.exact(&[1.0], 0.1);
        let mut prev = f64::INFINITY;
        for r in 1..=5 {
            let y = Epol::new(r).step(&sys, 0.0, &[1.0], 0.1);
            let err = max_err(&y, &exact);
            assert!(err < prev, "R={r}: error {err} should beat {prev}");
            prev = err;
        }
        assert!(prev < 1e-8, "R=5 error too large: {prev}");
    }

    #[test]
    fn order_increases_with_r() {
        let sys = LinearTest::scalar(1.0);
        let exact = sys.exact(&[1.0], 1.0);
        let r = 3;
        let e = Epol::new(r);
        let e1 = max_err(&e.integrate(&sys, 0.0, &[1.0], 1.0, 0.1), &exact);
        let e2 = max_err(&e.integrate(&sys, 0.0, &[1.0], 1.0, 0.05), &exact);
        let order = (e1 / e2).log2();
        assert!(order > r as f64 - 0.7, "observed order {order} for R={r}");
    }

    #[test]
    fn adaptive_integration_meets_tolerance() {
        let sys = LinearTest::scalar(-2.0);
        let e = Epol::new(4);
        let (y, steps) = e.integrate_adaptive(&sys, 0.0, &[1.0], 1.0, 0.2, 1e-8);
        let exact = sys.exact(&[1.0], 1.0);
        assert!(max_err(&y, &exact) < 1e-6, "err {}", max_err(&y, &exact));
        assert!(steps >= 5);
    }

    #[test]
    fn brusselator_step_matches_rk4_closely() {
        let sys = Bruss2d::new(6);
        let y0 = sys.initial_value();
        let e = Epol::new(4);
        let h = 1e-3;
        let y_epol = e.step(&sys, 0.0, &y0, h);
        let rk = crate::reference::rk4_integrate(&sys, 0.0, &y0, h, h / 4.0);
        assert!(max_err(&y_epol, &rk) < 1e-8);
    }

    #[test]
    fn step_graph_has_expected_shape() {
        let sys = LinearTest::diagonal(100, -1.0, 0.0);
        let e = Epol::new(4);
        let g = e.step_graph(&sys, 1);
        // 10 micro steps + combine + start/stop.
        assert_eq!(g.len(), 13);
        let cg = pt_mtask::ChainGraph::contract(&g);
        assert_eq!(cg.graph.len(), 4 + 1 + 2);
    }

    #[test]
    fn multi_step_graph_chains_steps() {
        let sys = LinearTest::diagonal(100, -1.0, 0.0);
        let e = Epol::new(3);
        let g = e.step_graph(&sys, 2);
        // 2 × (6 micro + combine) + start/stop.
        assert_eq!(g.len(), 2 * 7 + 2);
        // Layers: micro-chains, combine, micro-chains, combine.
        let cg = pt_mtask::ChainGraph::contract(&g);
        let layers = pt_mtask::layers(&cg.graph);
        assert_eq!(layers.len(), 4);
    }

    #[test]
    fn spmd_matches_sequential() {
        let sys_concrete = Bruss2d::new(5);
        let y0 = sys_concrete.initial_value();
        let e = Epol::new(4);
        let h = 5e-4;
        // Step manually so the sequential reference takes bit-identical
        // steps (integrate's end-point clamping could alter the last one).
        let mut seq = y0.clone();
        let mut t_seq = 0.0;
        for _ in 0..3 {
            seq = e.step(&sys_concrete, t_seq, &seq, h);
            t_seq += h;
        }

        let sys: Arc<dyn OdeSystem> = Arc::new(sys_concrete);
        let team = Team::new(4);
        let store = DataStore::new();
        store.put("t", vec![0.0]);
        store.put("h", vec![h]);
        store.put("eta", y0);
        e.run_spmd(&team, &sys, &[0..2, 2..4], &store, 3).unwrap();
        let eta = store.get("eta").unwrap();
        assert!(
            max_err(&eta, &seq) < 1e-12,
            "SPMD diverges from sequential: {}",
            max_err(&eta, &seq)
        );
        assert!((store.get("t").unwrap()[0] - 3.0 * h).abs() < 1e-15);
    }

    #[test]
    fn spmd_data_parallel_single_group_matches() {
        let sys_concrete = LinearTest::diagonal(37, -1.5, -0.1);
        let y0 = sys_concrete.initial_value();
        let e3 = Epol::new(3);
        let mut exact_seq = y0.clone();
        let mut t_seq = 0.0;
        for _ in 0..2 {
            exact_seq = e3.step(&sys_concrete, t_seq, &exact_seq, 0.01);
            t_seq += 0.01;
        }
        let sys: Arc<dyn OdeSystem> = Arc::new(sys_concrete);
        let team = Team::new(3);
        let store = DataStore::new();
        store.put("t", vec![0.0]);
        store.put("h", vec![0.01]);
        store.put("eta", y0);
        Epol::new(3)
            .run_spmd(&team, &sys, &[0..3], &store, 2)
            .unwrap();
        let eta = store.get("eta").unwrap();
        assert!(max_err(&eta, &exact_seq) < 1e-12);
    }
}

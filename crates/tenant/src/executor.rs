//! Gang timesharing of real programs on one shared worker pool.
//!
//! A [`pt_exec::Team`] runs one program at a time, so multi-tenancy on a
//! live team is *time*-sharing at layer granularity: the executor deals
//! round-robin slices — one layer of one job's program, then one of the
//! next — with every job keeping its own private [`DataStore`].  Width
//! changes (shrink to admit a newcomer, regrow when one leaves) happen
//! between slices: each slice is re-planned onto the width in effect
//! ([`pt_exec::replan`] — the same mechanism `ResizeHandle` applies at
//! layer boundaries inside a run).
//!
//! Because the solvers' task bodies are layout-independent (same
//! per-component arithmetic at any `ctx.size` — the property the
//! `exec_solvers` suite checks bit-for-bit), a job's final store contents
//! are identical whether it ran exclusively or interleaved with others,
//! and at any width schedule.  The tests below assert exactly that.

use pt_exec::{replan, DataStore, ExecError, Program, Team};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tenant of the executor: a program, its private store, and the width
/// plan the policy decided.
pub struct TenantJob {
    /// Display name.
    pub name: String,
    /// Full program (all remaining layers) at its build width.
    pub program: Program,
    /// The job's private store.
    pub store: Arc<DataStore>,
    /// Width changes: `(layer, width)` — from `layer` on, run on `width`
    /// workers.  Unsorted entries are honored; the last entry at or before
    /// a layer wins.  Empty = run at the program's build width throughout.
    pub width_plan: Vec<(usize, usize)>,
}

impl TenantJob {
    /// A job running at its program's build width throughout.
    pub fn new(name: impl Into<String>, program: Program, store: Arc<DataStore>) -> TenantJob {
        TenantJob {
            name: name.into(),
            program,
            store,
            width_plan: Vec::new(),
        }
    }

    /// Add a width change taking effect at `layer`.
    pub fn resize_at(mut self, layer: usize, width: usize) -> TenantJob {
        assert!(width >= 1, "cannot resize to zero workers");
        self.width_plan.push((layer, width));
        self
    }

    /// The width in effect at `layer`.
    fn width_at(&self, layer: usize, default: usize) -> usize {
        self.width_plan
            .iter()
            .filter(|&&(l, _)| l <= layer)
            .max_by_key(|&&(l, _)| l)
            .map_or(default, |&(_, w)| w)
    }
}

/// Per-job timesharing outcome.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// Gang slices the job was dealt.
    pub slices: usize,
    /// Width changes applied between slices.
    pub resizes: usize,
    /// Wall clock the job's slices consumed.
    pub wall: Duration,
}

/// Round-robin gang timesharing executor over one team.
pub struct TenantExecutor {
    team: Team,
    workers: usize,
}

impl TenantExecutor {
    /// An executor owning a team of `workers` threads, dealing one layer
    /// per slice.
    pub fn new(workers: usize) -> TenantExecutor {
        TenantExecutor {
            team: Team::new(workers),
            workers,
        }
    }

    /// Run all jobs to completion, round-robin.  Each pass deals every
    /// unfinished job one slice — its next layer — re-planned onto the
    /// job's current width.  Returns per-job outcomes in input order.
    pub fn run(&self, jobs: &[TenantJob]) -> Result<Vec<TenantRun>, ExecError> {
        let mut cursors = vec![0usize; jobs.len()];
        let mut out: Vec<TenantRun> = jobs
            .iter()
            .map(|_| TenantRun {
                slices: 0,
                resizes: 0,
                wall: Duration::ZERO,
            })
            .collect();
        let mut last_width: Vec<Option<usize>> = vec![None; jobs.len()];
        loop {
            let mut progressed = false;
            for (i, job) in jobs.iter().enumerate() {
                let cur = cursors[i];
                let Some(layer) = job.program.layers.get(cur) else {
                    continue;
                };
                progressed = true;
                let default_w = job.program.required_workers().min(self.workers).max(1);
                let width = job.width_at(cur, default_w).min(self.workers);
                let slice = Program {
                    layers: vec![layer.clone()],
                };
                // Re-plan the slice onto the width in effect; a no-op when
                // the width matches the build width.
                let slice = if slice.required_workers() == width {
                    slice
                } else {
                    replan(&slice, width)
                };
                if let Some(prev) = last_width[i] {
                    if prev != width {
                        out[i].resizes += 1;
                    }
                }
                last_width[i] = Some(width);
                let t0 = Instant::now();
                self.team.run(&slice, &job.store)?;
                out[i].wall += t0.elapsed();
                out[i].slices += 1;
                cursors[i] = cur + 1;
            }
            if !progressed {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ode::pab::{startup, state_to_store};
    use pt_ode::{Bruss2d, Epol, Irk, OdeSystem, Pab};

    fn concat_steps(step: &Program, steps: usize) -> Program {
        let mut p = Program::default();
        for _ in 0..steps {
            for layer in &step.layers {
                p.push_layer(layer.clone());
            }
        }
        p
    }

    fn epol_job(steps: usize) -> (Program, Arc<DataStore>) {
        let sys_c = Bruss2d::new(6);
        let y0 = sys_c.initial_value();
        let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
        let program = Epol::new(4).build_program(&sys, &[0..2, 2..4]);
        let store = DataStore::new();
        store.put("t", vec![0.0]);
        store.put("h", vec![2e-4]);
        store.put("eta", y0);
        (concat_steps(&program, steps), store)
    }

    fn irk_job(steps: usize) -> (Program, Arc<DataStore>) {
        let sys_c = Bruss2d::new(5);
        let y0 = sys_c.initial_value();
        let sys: Arc<dyn OdeSystem> = Arc::new(sys_c);
        let program = Irk::new(4, 3).build_program(&sys, &[0..2, 2..4]);
        let store = DataStore::new();
        store.put("t", vec![0.0]);
        store.put("h", vec![5e-4]);
        store.put("eta", y0);
        (concat_steps(&program, steps), store)
    }

    fn pab_job(steps: usize) -> (Program, Arc<DataStore>) {
        let sys_c = Bruss2d::new(4);
        let y0 = sys_c.initial_value();
        let sys: Arc<dyn OdeSystem> = Arc::new(sys_c.clone());
        let st0 = startup(&sys_c, 0.0, &y0, 4e-4, 4);
        let program = Pab::new(4).build_program(&sys, &[0..2, 2..4]);
        let store = DataStore::new();
        state_to_store(&st0, &store);
        (concat_steps(&program, steps), store)
    }

    /// The tentpole's executor acceptance test: two real solver programs
    /// timeshare one 4-worker pool, and each job's store is bit-identical
    /// to an exclusive run of the same program.
    #[test]
    fn two_programs_timeshare_one_pool_bit_identically() {
        // Exclusive reference runs, one team each.
        let exclusive = TenantExecutor::new(4);
        let (ep, es) = epol_job(3);
        let (ip, is) = irk_job(2);
        exclusive
            .run(&[TenantJob::new("epol", ep.clone(), es.clone())])
            .unwrap();
        exclusive
            .run(&[TenantJob::new("irk", ip.clone(), is.clone())])
            .unwrap();
        let eta_epol = es.snapshot();
        let eta_irk = is.snapshot();

        // Interleaved on one shared pool.
        let shared = TenantExecutor::new(4);
        let (ep2, es2) = epol_job(3);
        let (ip2, is2) = irk_job(2);
        let runs = shared
            .run(&[
                TenantJob::new("epol", ep2, es2.clone()),
                TenantJob::new("irk", ip2, is2.clone()),
            ])
            .unwrap();
        assert!(runs[0].slices > 1 && runs[1].slices > 1, "actually sliced");
        assert_eq!(
            es2.snapshot(),
            eta_epol,
            "epol store differs from exclusive run"
        );
        assert_eq!(
            is2.snapshot(),
            eta_irk,
            "irk store differs from exclusive run"
        );
    }

    /// Shrink/regrow between slices (the malleable path) leaves results
    /// bit-identical: a job squeezed to 2 workers mid-run and regrown to 4
    /// matches its fixed-width exclusive run.
    #[test]
    fn width_schedule_between_slices_is_bit_identical() {
        let (bp, bs) = epol_job(4); // 8 layers
        TenantExecutor::new(4)
            .run(&[TenantJob::new("base", bp.clone(), bs.clone())])
            .unwrap();
        let baseline = bs.snapshot();

        let (rp, rs) = epol_job(4);
        let (other_p, other_s) = pab_job(2);
        let runs = TenantExecutor::new(4)
            .run(&[
                // Shrink to 2 at layer 2 (a newcomer needs room), regrow to
                // 3 at layer 5, back to 4 at layer 7.
                TenantJob::new("resized", rp, rs.clone())
                    .resize_at(2, 2)
                    .resize_at(5, 3)
                    .resize_at(7, 4),
                TenantJob::new("newcomer", other_p, other_s),
            ])
            .unwrap();
        assert_eq!(runs[0].resizes, 3, "three width changes applied");
        assert_eq!(
            rs.snapshot(),
            baseline,
            "resized run differs from uninterrupted baseline"
        );
    }
}

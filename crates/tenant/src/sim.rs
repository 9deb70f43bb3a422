//! Event-driven scenario simulation of an online job stream under a
//! [`Policy`].
//!
//! Jobs are fluid: a job allotted `w` cores progresses at rate `1/T(w)`
//! per second, with `T(w)` from the [`AdmissionOracle`] (the oracle *is*
//! the world model here — what the scenario compares is policies, not
//! prediction error).  Allotments are recomputed at every arrival and
//! completion; a width change of a running job charges
//! [`RESIZE_PENALTY_S`] seconds of paused progress, the modeled cost of the
//! executor's boundary shrink/regrow (re-planning the next layer with
//! [`pt_exec::replan`] and re-entering the team).
//!
//! Reported figures:
//! * **makespan** — last finish time of the batch;
//! * **stretch** — per job, `(finish − arrival) / T(P)`: response time in
//!   units of the job's exclusive whole-machine run;
//! * **utilization** — `Σ_j T_j(1) / (P × makespan)`: useful sequential
//!   core-seconds over available core-seconds.  The numerator is
//!   policy-invariant, so utilization ranks policies exactly by batch span
//!   — a policy wins by finishing the same work earlier, never by padding.

use crate::job::JobSpec;
use crate::oracle::AdmissionOracle;
use crate::policy::Policy;
use serde::Serialize;

/// Seconds of paused progress charged to a running job whose width
/// changes (the boundary snapshot + replan + re-entry cost).
pub const RESIZE_PENALTY_S: f64 = 1e-3;

/// One job's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct JobOutcome {
    /// Stream id.
    pub id: usize,
    /// Display name.
    pub name: String,
    /// Arrival time (s).
    pub arrival: f64,
    /// First time the job held cores (s).
    pub start: f64,
    /// Completion time (s).
    pub finish: f64,
    /// Exclusive whole-machine running time T(P) (s).
    pub t_exclusive: f64,
    /// Sequential running time T(1) (s).
    pub t_serial: f64,
    /// `(finish − arrival) / t_exclusive`.
    pub stretch: f64,
    /// Width changes applied while running.
    pub resizes: usize,
}

/// Aggregate scenario outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Policy display name.
    pub policy: String,
    /// Machine width the scenario ran on.
    pub total_cores: usize,
    /// Last finish time (s).
    pub makespan: f64,
    /// Mean of per-job stretches.
    pub mean_stretch: f64,
    /// Worst per-job stretch.
    pub max_stretch: f64,
    /// `Σ T(1) / (P × makespan)`.
    pub utilization: f64,
    /// Total width changes applied to running jobs.
    pub resizes: usize,
    /// Per-job rows, by id.
    pub jobs: Vec<JobOutcome>,
}

/// Completion tolerance on the unit of work.
const EPS: f64 = 1e-9;

struct Live {
    /// Index into the sorted job list.
    job: usize,
    /// Work left, 1.0 → 0.0.
    remaining: f64,
    width: usize,
    started: Option<f64>,
    /// Progress is frozen until this instant (resize penalty).
    paused_until: f64,
    resizes: usize,
}

/// Run `jobs` under `policy` and report.  Deterministic: identical inputs
/// give a bit-identical report.
pub fn run_scenario(
    oracle: &AdmissionOracle<'_>,
    jobs: &[JobSpec],
    policy: Policy,
) -> ScenarioReport {
    let total = oracle.total_cores();
    // Arrival order, stable on id.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival
            .total_cmp(&jobs[b].arrival)
            .then(jobs[a].id.cmp(&jobs[b].id))
    });

    let mut t = 0.0f64;
    let mut next_arrival = 0usize; // index into `order`
    let mut active: Vec<Live> = Vec::new();
    let mut outcomes: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();

    while next_arrival < order.len() || !active.is_empty() {
        // Nothing running: jump to the next arrival.
        if active.is_empty() {
            let j = order[next_arrival];
            t = t.max(jobs[j].arrival);
            while next_arrival < order.len() && jobs[order[next_arrival]].arrival <= t {
                active.push(Live {
                    job: order[next_arrival],
                    remaining: 1.0,
                    width: 0,
                    started: None,
                    paused_until: 0.0,
                    resizes: 0,
                });
                next_arrival += 1;
            }
        }

        // Decide allotments for the present jobs.
        let refs: Vec<&JobSpec> = active.iter().map(|l| &jobs[l.job]).collect();
        let widths = policy.allocate(&refs, oracle, total);
        for (l, &w) in active.iter_mut().zip(&widths) {
            if w != l.width {
                if l.width > 0 && w > 0 {
                    // A running job changed width: boundary resize.
                    l.resizes += 1;
                    l.paused_until = t + RESIZE_PENALTY_S;
                }
                l.width = w;
            }
            if w > 0 && l.started.is_none() {
                l.started = Some(t);
            }
        }

        // Earliest next event: an arrival or a completion.
        let mut t_next = (next_arrival < order.len()).then(|| jobs[order[next_arrival]].arrival);
        for l in &active {
            if l.width == 0 {
                continue;
            }
            let t_w = oracle.predict(&jobs[l.job], l.width);
            let resume = l.paused_until.max(t);
            let fin = resume + l.remaining * t_w;
            t_next = Some(t_next.map_or(fin, |x: f64| x.min(fin)));
        }
        let t_next = t_next.expect("active or pending jobs imply a next event");

        // Advance fluid progress to t_next.
        for l in active.iter_mut() {
            if l.width == 0 {
                continue;
            }
            let t_w = oracle.predict(&jobs[l.job], l.width);
            let eff = (t_next - l.paused_until.max(t)).max(0.0);
            l.remaining -= eff / t_w;
        }
        t = t_next;

        // Record completions.
        active.retain(|l| {
            if l.remaining > EPS {
                return true;
            }
            let job = &jobs[l.job];
            let t_exclusive = oracle.predict(job, total);
            let t_serial = oracle.predict(job, 1);
            outcomes[l.job] = Some(JobOutcome {
                id: job.id,
                name: job.name.clone(),
                arrival: job.arrival,
                start: l.started.unwrap_or(job.arrival),
                finish: t,
                t_exclusive,
                t_serial,
                stretch: (t - job.arrival) / t_exclusive,
                resizes: l.resizes,
            });
            false
        });

        // Admit arrivals at t.
        while next_arrival < order.len() && jobs[order[next_arrival]].arrival <= t {
            active.push(Live {
                job: order[next_arrival],
                remaining: 1.0,
                width: 0,
                started: None,
                paused_until: 0.0,
                resizes: 0,
            });
            next_arrival += 1;
        }
    }

    let jobs_out: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every job finishes"))
        .collect();
    let makespan = jobs_out.iter().fold(0.0f64, |m, j| m.max(j.finish));
    let n = jobs_out.len().max(1) as f64;
    let mean_stretch = jobs_out.iter().map(|j| j.stretch).sum::<f64>() / n;
    let max_stretch = jobs_out.iter().fold(0.0f64, |m, j| m.max(j.stretch));
    let serial: f64 = jobs_out.iter().map(|j| j.t_serial).sum();
    ScenarioReport {
        policy: policy.name().to_string(),
        total_cores: total,
        makespan,
        mean_stretch,
        max_stretch,
        utilization: if makespan > 0.0 {
            serial / (total as f64 * makespan)
        } else {
            0.0
        },
        resizes: jobs_out.iter().map(|j| j.resizes).sum(),
        jobs: jobs_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::poisson_mixed;
    use pt_machine::platforms;
    use pt_serve::{SchedService, ServeConfig};
    use std::sync::Arc;

    /// The tentpole's acceptance gate, at test scale: on a Poisson mixed
    /// stream the malleable policy strictly beats FCFS-exclusive on mean
    /// stretch AND on platform utilization.
    #[test]
    fn malleable_beats_fcfs_on_stretch_and_utilization() {
        let spec = platforms::chic().with_nodes(4); // 16 cores
        let svc = SchedService::new(ServeConfig::default());
        let oracle = AdmissionOracle::new(&svc, Arc::new(spec));
        // Jobs are milliseconds long (small graphs keep tests fast), so a
        // contended stream needs arrivals a few milliseconds apart.
        let jobs = poisson_mixed(12, 200.0, 2, 42);

        let fcfs = run_scenario(&oracle, &jobs, Policy::FcfsExclusive);
        let equi = run_scenario(&oracle, &jobs, Policy::Equi);
        let mall = run_scenario(&oracle, &jobs, Policy::Malleable);

        assert!(
            mall.mean_stretch < fcfs.mean_stretch,
            "mean stretch: malleable {} vs fcfs {}",
            mall.mean_stretch,
            fcfs.mean_stretch
        );
        assert!(
            mall.utilization > fcfs.utilization,
            "utilization: malleable {} vs fcfs {}",
            mall.utilization,
            fcfs.utilization
        );
        // Equi is a real contender; just sanity-check it ran.
        assert_eq!(equi.jobs.len(), jobs.len());
        assert!(mall.resizes > 0, "malleable scenarios exercise resizing");
    }

    #[test]
    fn scenarios_are_deterministic_and_conservative() {
        let spec = platforms::chic().with_nodes(2); // 8 cores
        let svc = SchedService::new(ServeConfig::default());
        let oracle = AdmissionOracle::new(&svc, Arc::new(spec));
        let jobs = poisson_mixed(6, 150.0, 1, 7);
        let a = run_scenario(&oracle, &jobs, Policy::Malleable);
        let b = run_scenario(&oracle, &jobs, Policy::Malleable);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.mean_stretch.to_bits(), b.mean_stretch.to_bits());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.finish.to_bits(), y.finish.to_bits());
        }
        // Physical sanity on every policy.
        for policy in [Policy::FcfsExclusive, Policy::Equi, Policy::Malleable] {
            let r = run_scenario(&oracle, &jobs, policy);
            assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
            for j in &r.jobs {
                assert!(j.finish >= j.arrival);
                assert!(j.start >= j.arrival);
                assert!(j.finish >= j.start);
            }
        }
    }

    #[test]
    fn fcfs_serializes_jobs() {
        let spec = platforms::chic().with_nodes(2);
        let svc = SchedService::new(ServeConfig::default());
        let oracle = AdmissionOracle::new(&svc, Arc::new(spec));
        // Two jobs arriving together: under FCFS the second starts when the
        // first finishes.
        let jobs = crate::arrivals::trace_jobs(&[
            (0.0, crate::arrivals::WorkloadKind::Epol, 1),
            (0.0, crate::arrivals::WorkloadKind::Epol, 1),
        ]);
        let r = run_scenario(&oracle, &jobs, Policy::FcfsExclusive);
        let t_excl = r.jobs[0].t_exclusive;
        assert!((r.jobs[0].finish - t_excl).abs() < 1e-9);
        assert!((r.jobs[1].finish - 2.0 * t_excl).abs() < 1e-9);
        assert_eq!(r.resizes, 0, "exclusive runs never resize");
    }
}

//! Allotment policies: how the live platform is divided among the jobs
//! present at a decision point.
//!
//! Policies are *pure*: given the present jobs (arrival order), the machine
//! width and the oracle, they return one allotment per job (0 = queued).
//! The mechanism that realizes a decision — shrink/regrow at layer
//! boundaries, [`pt_exec::replan`] between slices — lives in the
//! [`executor`](crate::executor); the scenario simulator charges a resize
//! penalty instead.

use crate::job::JobSpec;
use crate::oracle::AdmissionOracle;

/// The scheduling policy of a tenant scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First-come-first-served, exclusive: the earliest unfinished job owns
    /// the whole machine; everyone else queues.  The classic space-sharing
    /// baseline.
    FcfsExclusive,
    /// Equipartition: every present job gets an equal share (earliest jobs
    /// take the remainder); jobs beyond one core each queue.
    Equi,
    /// Malleable: admit in arrival order while the malleable floors
    /// (`JobSpec::min_width`) fit — shrinking incumbents to their floors to
    /// admit newcomers — then water-fill the leftover cores greedily onto
    /// the job with the best marginal speedup per core (doubling ladder,
    /// priced through the oracle's service).
    Malleable,
}

impl Policy {
    /// Display name (stable; used in reports and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            Policy::FcfsExclusive => "fcfs-exclusive",
            Policy::Equi => "equi",
            Policy::Malleable => "malleable",
        }
    }

    /// Allotments for `jobs` (in arrival order) on `total` cores; entry `i`
    /// is job `i`'s width, 0 meaning queued.  Deterministic: ties break to
    /// the earliest arrival.
    pub fn allocate(
        self,
        jobs: &[&JobSpec],
        oracle: &AdmissionOracle<'_>,
        total: usize,
    ) -> Vec<usize> {
        assert!(total >= 1);
        match self {
            Policy::FcfsExclusive => {
                let mut widths = vec![0; jobs.len()];
                if let Some(w) = widths.first_mut() {
                    *w = total;
                }
                widths
            }
            Policy::Equi => {
                let k = jobs.len().min(total);
                let mut widths = vec![0; jobs.len()];
                if k == 0 {
                    return widths;
                }
                let (base, extra) = (total / k, total % k);
                for (i, w) in widths.iter_mut().take(k).enumerate() {
                    *w = base + usize::from(i < extra);
                }
                widths
            }
            Policy::Malleable => malleable_widths(jobs, oracle, total),
        }
    }
}

/// Floors-first admission plus greedy marginal-gain water-filling.
fn malleable_widths(jobs: &[&JobSpec], oracle: &AdmissionOracle<'_>, total: usize) -> Vec<usize> {
    let mut widths = vec![0usize; jobs.len()];
    let mut used = 0usize;
    let mut admitted: Vec<usize> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let floor = job.min_width.min(total);
        if used + floor <= total {
            widths[i] = floor;
            used += floor;
            admitted.push(i);
        }
    }
    // Water-fill the rest: repeatedly grow the job whose next ladder step
    // (double, capped by the free pool) buys the most rate per core.  Each
    // probe schedules the job's whole graph, so a job keeps its last two
    // `(width, T(width))` probes and a round re-probes only a width that
    // moved: the grown job's next step, or a step the shrinking pool caps.
    let mut probes = vec![[(0usize, f64::NAN); 2]; jobs.len()];
    loop {
        let free = total - used;
        if free == 0 || admitted.is_empty() {
            break;
        }
        let mut best: Option<(f64, usize, usize)> = None;
        for &i in &admitted {
            let w = widths[i];
            let next = (w * 2).min(w + free).min(total);
            if next <= w {
                continue;
            }
            let probe = |width: usize| match probes[i].iter().find(|p| p.0 == width) {
                Some(&(_, t)) => t,
                None => oracle.predict(jobs[i], width),
            };
            let (t_now, t_next) = (probe(w), probe(next));
            probes[i] = [(w, t_now), (next, t_next)];
            let gain = (1.0 / t_next - 1.0 / t_now) / (next - w) as f64;
            if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, i, next));
            }
        }
        let Some((_, i, next)) = best else { break };
        used += next - widths[i];
        widths[i] = next;
    }
    widths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::WorkloadKind;
    use pt_machine::platforms;
    use pt_serve::{SchedService, ServeConfig};
    use std::sync::Arc;

    fn jobs3() -> Vec<JobSpec> {
        vec![
            JobSpec::new(0, "epol#0", WorkloadKind::Epol.graph(), 0.0).with_min_width(4),
            JobSpec::new(1, "bt#1", WorkloadKind::BtMz.graph(), 0.1).with_min_width(4),
            JobSpec::new(2, "irk#2", WorkloadKind::Irk.graph(), 0.2).with_min_width(4),
        ]
    }

    #[test]
    fn fcfs_and_equi_shapes() {
        let spec = platforms::chic().with_nodes(4); // 16 cores
        let svc = SchedService::new(ServeConfig::default());
        let oracle = AdmissionOracle::new(&svc, Arc::new(spec));
        let jobs = jobs3();
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        assert_eq!(
            Policy::FcfsExclusive.allocate(&refs, &oracle, 16),
            vec![16, 0, 0]
        );
        assert_eq!(Policy::Equi.allocate(&refs, &oracle, 16), vec![6, 5, 5]);
        assert_eq!(Policy::Equi.allocate(&refs[..2], &oracle, 16), vec![8, 8]);
    }

    #[test]
    fn malleable_respects_floors_and_spends_every_core() {
        let spec = platforms::chic().with_nodes(4);
        let svc = SchedService::new(ServeConfig::default());
        let oracle = AdmissionOracle::new(&svc, Arc::new(spec));
        let jobs = jobs3();
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let widths = Policy::Malleable.allocate(&refs, &oracle, 16);
        assert!(widths.iter().all(|&w| w >= 4), "floors hold: {widths:?}");
        assert!(
            widths.iter().sum::<usize>() <= 16,
            "no oversubscription: {widths:?}"
        );
        // Water-filling is deterministic.
        assert_eq!(widths, Policy::Malleable.allocate(&refs, &oracle, 16));
    }

    #[test]
    fn malleable_probes_only_widths_that_moved() {
        // The first round probes two widths per job and each later one
        // only the widths that moved, so the probes are bounded by the jobs
        // and the cores granted above the floors.
        let spec = platforms::chic().with_nodes(64); // 256 cores
        let svc = SchedService::new(ServeConfig::default());
        let oracle = AdmissionOracle::new(&svc, Arc::new(spec));
        let jobs: Vec<JobSpec> = (0..16)
            .map(|i| {
                let kind = WorkloadKind::ALL[i % WorkloadKind::ALL.len()];
                JobSpec::new(i, format!("{}#{i}", kind.name()), kind.graph(), 0.0)
                    .with_min_width(1 + i % 4)
            })
            .collect();
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let requests = |s: pt_serve::StatsSnapshot| s.hits + s.misses + s.followed;
        let before = requests(svc.stats());
        let widths = Policy::Malleable.allocate(&refs, &oracle, 256);
        let probes = requests(svc.stats()) - before;
        let floors: usize = jobs.iter().map(|j| j.min_width).sum();
        let granted = widths.iter().sum::<usize>() - floors;
        assert!(
            probes <= 2 * (jobs.len() + granted) as u64,
            "{probes} probes for {} jobs and {granted} cores above the floors",
            jobs.len()
        );
    }

    #[test]
    fn malleable_queues_when_floors_do_not_fit() {
        let spec = platforms::chic().with_nodes(1); // 4 cores
        let svc = SchedService::new(ServeConfig::default());
        let oracle = AdmissionOracle::new(&svc, Arc::new(spec));
        let jobs = jobs3(); // floors of 4 each
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let widths = Policy::Malleable.allocate(&refs, &oracle, 4);
        assert_eq!(widths[0], 4);
        assert_eq!(&widths[1..], &[0, 0], "later jobs queue: {widths:?}");
    }
}

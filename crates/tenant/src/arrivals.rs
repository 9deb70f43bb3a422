//! Arrival processes for online scenarios: seeded Poisson streams of mixed
//! workloads, and explicit trace-driven submissions.

use crate::job::JobSpec;
use pt_mtask::TaskGraph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::sync::OnceLock;

/// The workload kinds a mixed tenant stream draws from — the paper's two
/// application families (extrapolation / implicit RK solvers) plus NAS
/// BT-MZ as the irregular-zone representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Extrapolation solver, R = 4 stage chains on BRUSS2D.
    Epol,
    /// Implicit Runge-Kutta, K = 4 stages on BRUSS2D.
    Irk,
    /// NAS BT-MZ class A (16 zones, skewed sizes).
    BtMz,
}

impl WorkloadKind {
    /// All kinds, in the order the mixed stream cycles them.
    pub const ALL: [WorkloadKind; 3] = [WorkloadKind::Epol, WorkloadKind::Irk, WorkloadKind::BtMz];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Epol => "epol",
            WorkloadKind::Irk => "irk",
            WorkloadKind::BtMz => "bt-mz",
        }
    }

    /// The kind's one-step task graph.  Graphs are built once per process
    /// and shared by `Arc`: every job of a kind points at the same graph,
    /// so the scheduling service checks a width probe against its cached
    /// entry by pointer equality.
    pub fn graph(self) -> Arc<TaskGraph> {
        static GRAPHS: OnceLock<[Arc<TaskGraph>; 3]> = OnceLock::new();
        let graphs = GRAPHS.get_or_init(|| {
            let sys = pt_ode::Bruss2d::new(100);
            [
                Arc::new(pt_ode::Epol::new(4).step_graph(&sys, 1)),
                Arc::new(pt_ode::Irk::new(4, 3).step_graph(&sys, 1)),
                Arc::new(pt_nas::bt_mz(pt_nas::Class::A).step_graph(1)),
            ]
        });
        match self {
            WorkloadKind::Epol => graphs[0].clone(),
            WorkloadKind::Irk => graphs[1].clone(),
            WorkloadKind::BtMz => graphs[2].clone(),
        }
    }
}

/// `n` arrival times of a Poisson process with `rate` arrivals per second
/// (exponential inter-arrival gaps), deterministic per `seed`.
pub fn poisson_arrivals(rate: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // Inverse-CDF sampling; 1-u keeps the argument in (0, 1].
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// A mixed stream of `n` jobs arriving Poisson(`rate`), cycling workload
/// kinds pseudo-randomly, each with malleable floor `min_width`.
/// Deterministic per `seed`.
pub fn poisson_mixed(n: usize, rate: f64, min_width: usize, seed: u64) -> Vec<JobSpec> {
    let arrivals = poisson_arrivals(rate, n, seed);
    // Kind choice draws from an independent stream so changing `n` does not
    // reshuffle earlier jobs' kinds.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let kind = WorkloadKind::ALL[rng.gen_range(0usize..WorkloadKind::ALL.len())];
            JobSpec::new(i, format!("{}#{i}", kind.name()), kind.graph(), arrival)
                .with_min_width(min_width)
        })
        .collect()
}

/// Trace-driven stream: one job per `(arrival, kind, min_width)` entry, in
/// the given order (arrivals need not be sorted; the simulator sorts).
pub fn trace_jobs(entries: &[(f64, WorkloadKind, usize)]) -> Vec<JobSpec> {
    entries
        .iter()
        .enumerate()
        .map(|(i, &(arrival, kind, min_width))| {
            JobSpec::new(i, format!("{}#{i}", kind.name()), kind.graph(), arrival)
                .with_min_width(min_width)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_sorted_and_rate_matched() {
        let a = poisson_arrivals(2.0, 400, 7);
        let b = poisson_arrivals(2.0, 400, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t > 0.0));
        // Mean inter-arrival of a rate-2 process is 0.5s; 400 samples keep
        // the estimate within a loose factor.
        let mean = a.last().unwrap() / a.len() as f64;
        assert!((0.3..0.7).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn mixed_stream_shares_graph_arcs_per_kind() {
        let jobs = poisson_mixed(30, 1.0, 2, 3);
        assert_eq!(jobs.len(), 30);
        for job in &jobs {
            let kind = WorkloadKind::ALL
                .into_iter()
                .find(|k| job.name.starts_with(k.name()))
                .expect("job names start with their kind");
            assert!(Arc::ptr_eq(&job.graph, &kind.graph()), "{}", job.name);
        }
        assert!(jobs.iter().all(|j| j.min_width == 2));
        // Seed determinism extends to kinds and names.
        let again = poisson_mixed(30, 1.0, 2, 3);
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.arrival.to_bits(), b.arrival.to_bits());
        }
    }

    #[test]
    fn trace_jobs_preserve_entries() {
        let jobs = trace_jobs(&[(0.0, WorkloadKind::Epol, 4), (1.5, WorkloadKind::BtMz, 2)]);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "epol#0");
        assert_eq!(jobs[1].min_width, 2);
        assert_eq!(jobs[1].arrival, 1.5);
    }
}

//! The admission / sizing oracle: predicted running time T(w) of a job on
//! a `w`-core allotment, answered by the scheduling service.
//!
//! A width probe is an ordinary [`ScheduleRequest`] with `total_cores = w`
//! (consecutive mapping, default policy), and T(w) is the simulated
//! makespan of the reply — the paper's own pipeline (layer scheduler →
//! mapping → simulator).  The oracle keeps no state: the service's
//! schedule cache memoizes the T(w) curve.

use crate::job::JobSpec;
use pt_core::MappingStrategy;
use pt_machine::ClusterSpec;
use pt_serve::{GPolicy, SchedService, ScheduleRequest};
use std::sync::Arc;

/// Predicts T(job, width) on one machine through a [`SchedService`].
pub struct AdmissionOracle<'a> {
    service: &'a SchedService,
    machine: Arc<ClusterSpec>,
}

impl<'a> AdmissionOracle<'a> {
    /// Oracle for jobs on `machine`, probing widths through `service`.
    pub fn new(service: &'a SchedService, machine: Arc<ClusterSpec>) -> AdmissionOracle<'a> {
        AdmissionOracle { service, machine }
    }

    /// The machine's total core count (the widest allotment).
    pub fn total_cores(&self) -> usize {
        self.machine.total_cores()
    }

    /// Predicted running time of `job` on `width` cores (seconds): the
    /// simulated makespan of the graph scheduled onto `width` symbolic
    /// cores and mapped consecutively.
    pub fn predict(&self, job: &JobSpec, width: usize) -> f64 {
        let total = self.total_cores();
        assert!(
            width >= 1 && width <= total,
            "width {width} outside 1..={total}"
        );
        let request = ScheduleRequest {
            graph: job.graph.clone(),
            machine: self.machine.clone(),
            total_cores: width,
            mapping: MappingStrategy::Consecutive,
            policy: GPolicy::default(),
        };
        match self.service.schedule(request) {
            Ok((reply, _)) => reply.makespan,
            Err(e) => panic!("T({}, {width}) failed: {e}", job.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::WorkloadKind;
    use pt_core::LayerScheduler;
    use pt_cost::CostModel;
    use pt_machine::platforms;
    use pt_serve::ServeConfig;
    use pt_sim::Simulator;

    fn service() -> SchedService {
        SchedService::new(ServeConfig {
            workers: 2,
            cache_capacity: 1024,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn repeat_probes_hit_the_service_cache() {
        let svc = service();
        let oracle = AdmissionOracle::new(&svc, Arc::new(platforms::chic().with_nodes(4)));
        let job = JobSpec::new(0, "epol#0", WorkloadKind::Epol.graph(), 0.0);

        let t8 = oracle.predict(&job, 8);
        assert!(t8 > 0.0 && t8.is_finite());
        let computed = svc.stats().computed;
        // Same (graph, width) again, and a different job of the same kind:
        // both answered from the cache.
        let job2 = JobSpec::new(1, "epol#1", WorkloadKind::Epol.graph(), 3.0);
        assert_eq!(t8.to_bits(), oracle.predict(&job, 8).to_bits());
        assert_eq!(t8.to_bits(), oracle.predict(&job2, 8).to_bits());
        assert_eq!(svc.stats().computed, computed);
    }

    #[test]
    fn more_cores_never_hurt_much() {
        let svc = service();
        let oracle = AdmissionOracle::new(&svc, Arc::new(platforms::chic().with_nodes(4)));
        let job = JobSpec::new(0, "bt#0", WorkloadKind::BtMz.graph(), 0.0);
        let t1 = oracle.predict(&job, 1);
        let t16 = oracle.predict(&job, 16);
        assert!(
            t16 < t1,
            "16 cores ({t16}s) should beat 1 core ({t1}s) on BT-MZ"
        );
    }

    /// Every width of every workload kind, on two machine sizes: T(w) is
    /// bit-identical to a cold, service-free computation, and the service
    /// counts exactly the task prices of those cold schedules.
    #[test]
    fn width_sweep_matches_cold_runs() {
        for nodes in [4, 16] {
            let machine = Arc::new(platforms::chic().with_nodes(nodes));
            let model = CostModel::new(&machine);
            let total = machine.total_cores();
            let svc = service();
            let oracle = AdmissionOracle::new(&svc, machine.clone());
            let mut cold_prices = 0;
            for kind in WorkloadKind::ALL {
                let job = JobSpec::new(0, kind.name(), kind.graph(), 0.0);
                for w in 1..=total {
                    let scheduler = LayerScheduler::new(&model);
                    let (cold, prices) = scheduler.schedule_counted(&job.graph, w);
                    cold_prices += prices as u64;
                    let mapping = MappingStrategy::Consecutive.mapping(&machine, w);
                    let t_cold = Simulator::new(&model)
                        .simulate_layered(&job.graph, &cold, &mapping)
                        .makespan;
                    assert_eq!(
                        oracle.predict(&job, w).to_bits(),
                        t_cold.to_bits(),
                        "{} at w = {w} of {total}",
                        kind.name()
                    );
                }
            }
            let stats = svc.stats();
            assert_eq!(stats.computed, 3 * total as u64);
            assert_eq!(stats.evaluations, cold_prices);
        }
    }
}

//! Job identity for the multi-tenant layer: an M-task graph plus the
//! tenancy metadata the policies decide over.

use pt_mtask::TaskGraph;
use std::sync::Arc;

/// One submitted job: a moldable M-task application arriving at a point in
/// time, malleable between `min_width` and the whole machine.
///
/// The graph is shared by `Arc` on purpose: jobs built from the same
/// workload template point at the *same* graph, so the scheduling service
/// verifies their width probes by pointer equality, and every job of that
/// kind reuses the cached running-time curve and warm cost tables (a mixed
/// Poisson stream has a handful of kinds and many jobs).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Stream-unique id (assigned by the arrival generator / caller).
    pub id: usize,
    /// Display name, e.g. `epol#3`.
    pub name: String,
    /// The application's M-task graph.
    pub graph: Arc<TaskGraph>,
    /// Arrival time in seconds since scenario start.
    pub arrival: f64,
    /// Smallest allotment the job accepts (malleable floor, ≥ 1).
    pub min_width: usize,
    /// Stretch weight (1.0 = unweighted).
    pub weight: f64,
}

impl JobSpec {
    /// A job with defaults (`min_width` 1, `weight` 1).
    pub fn new(id: usize, name: impl Into<String>, graph: Arc<TaskGraph>, arrival: f64) -> JobSpec {
        JobSpec {
            id,
            name: name.into(),
            graph,
            arrival,
            min_width: 1,
            weight: 1.0,
        }
    }

    /// Set the malleable floor.
    pub fn with_min_width(mut self, w: usize) -> JobSpec {
        assert!(w >= 1, "min_width must be at least 1");
        self.min_width = w;
        self
    }
}

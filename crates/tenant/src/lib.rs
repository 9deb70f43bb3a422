//! Online multi-tenant scheduling over the M-task stack.
//!
//! The paper schedules one application onto a dedicated machine.  This
//! crate models the operational setting around that: jobs — mixed
//! EPOL/IRK/BT-MZ M-task applications — *arrive over time* (Poisson or
//! trace-driven, [`arrivals`]), a policy decides admission and core
//! allotments against the live platform ([`policy`]), and running jobs are
//! **malleable**: shrunk to admit newcomers and regrown when capacity
//! frees, with the width change applied at a layer boundary by
//! [`pt_exec::replan`] between gang slices.
//!
//! Components:
//!
//! * [`JobSpec`] — a job: graph + arrival + malleable floor.
//! * [`AdmissionOracle`] — predicted T(job, width) as a
//!   [`pt_serve::SchedService`] request at `total_cores = width`, so width
//!   probes share the service's schedule cache with every other request
//!   on the same machine.
//! * [`Policy`] — FCFS-exclusive and equipartition baselines, and the
//!   malleable floors-plus-water-filling policy.
//! * [`run_scenario`] — deterministic event-driven scenario simulation
//!   producing makespan / stretch / utilization figures per policy.
//! * [`TenantExecutor`] — real execution: round-robin gang timesharing of
//!   several programs on one worker pool, each with a private store,
//!   widths re-planned between slices.

pub mod arrivals;
pub mod executor;
pub mod job;
pub mod oracle;
pub mod policy;
pub mod sim;

pub use arrivals::{poisson_arrivals, poisson_mixed, trace_jobs, WorkloadKind};
pub use executor::{TenantExecutor, TenantJob, TenantRun};
pub use job::JobSpec;
pub use oracle::AdmissionOracle;
pub use policy::Policy;
pub use sim::{run_scenario, JobOutcome, ScenarioReport};

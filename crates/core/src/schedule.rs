//! Schedule representations.
//!
//! Schedules are expressed over **symbolic cores** `0..P` (paper §3.2,
//! assumption (b)): the scheduling step never sees physical cores; the
//! separate mapping step ([`crate::mapping`]) later assigns each symbolic
//! core to a physical one.
//!
//! Two forms exist:
//!
//! * [`LayeredSchedule`] — the structured output of the layer-based
//!   algorithm: consecutive layers, each with disjoint groups of symbolic
//!   cores and per-group ordered task lists.
//! * [`SymbolicSchedule`] — a flat list of `(task, symbolic core set)`
//!   entries in dispatch order, general enough for CPA/CPR-style schedules;
//!   the simulator consumes this form.

use pt_mtask::TaskId;
use serde::{Deserialize, Serialize};

/// One scheduled task with its symbolic core set and estimated timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledTask {
    /// The task (an id of the *original* task graph).
    pub task: TaskId,
    /// Symbolic cores executing the task (indices in `0..total_cores`).
    pub cores: Vec<usize>,
    /// Estimated start time under the symbolic cost model (seconds).
    pub est_start: f64,
    /// Estimated finish time under the symbolic cost model (seconds).
    pub est_finish: f64,
}

/// A flat schedule: entries in dispatch order.
///
/// Invariants (checked by [`SymbolicSchedule::validate`]):
/// entries appear in a topological-compatible order, core indices are in
/// range and every core set is non-empty and duplicate-free.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SymbolicSchedule {
    /// Total symbolic cores `P`.
    pub total_cores: usize,
    /// Scheduled tasks in dispatch order.
    pub entries: Vec<ScheduledTask>,
}

impl SymbolicSchedule {
    /// Estimated makespan (max finish over entries).
    pub fn makespan(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.est_finish)
            .fold(0.0, f64::max)
    }

    /// Entry for a task, if scheduled.
    ///
    /// Linear scan — for repeated lookups build an [`index`](Self::index)
    /// once instead.
    pub fn entry(&self, task: TaskId) -> Option<&ScheduledTask> {
        self.entries.iter().find(|e| e.task == task)
    }

    /// Map from task to its dispatch position (index into `entries`),
    /// built in one pass.  If a task appears twice — invalid, caught by
    /// [`validate`](Self::validate) — the last occurrence wins.
    pub fn index(&self) -> std::collections::HashMap<TaskId, usize> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.task, i))
            .collect()
    }

    /// Check structural invariants; returns a description of the first
    /// violation.
    pub fn validate(&self, graph: &pt_mtask::TaskGraph) -> Result<(), String> {
        let mut position = std::collections::HashMap::with_capacity(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            if e.cores.is_empty() {
                return Err(format!("entry {i}: empty core set"));
            }
            let mut sorted = e.cores.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != e.cores.len() {
                return Err(format!("entry {i}: duplicate symbolic cores"));
            }
            if *sorted.last().unwrap() >= self.total_cores {
                return Err(format!("entry {i}: core index out of range"));
            }
            if position.insert(e.task, i).is_some() {
                return Err(format!("task {:?} scheduled twice", e.task));
            }
        }
        // Precedence: every scheduled predecessor must appear earlier.
        for (i, e) in self.entries.iter().enumerate() {
            for p in graph.preds(e.task) {
                if let Some(&pi) = position.get(p) {
                    if pi >= i {
                        return Err(format!(
                            "task {:?} dispatched before its predecessor {:?}",
                            e.task, p
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One layer of a layered schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSchedule {
    /// Sizes of the disjoint symbolic-core groups; sums to `P`.
    /// Group `l` occupies the symbolic cores
    /// `[Σ_{k<l} sizes[k], Σ_{k≤l} sizes[k])`.
    pub group_sizes: Vec<usize>,
    /// Per group, the tasks it executes, in order.
    pub assignments: Vec<Vec<TaskId>>,
}

impl LayerSchedule {
    /// The symbolic core range of a group.
    pub fn group_range(&self, group: usize) -> std::ops::Range<usize> {
        let lo: usize = self.group_sizes[..group].iter().sum();
        lo..lo + self.group_sizes[group]
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.group_sizes.len()
    }
}

/// The structured output of the layer-based scheduling algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayeredSchedule {
    /// Total symbolic cores `P`.
    pub total_cores: usize,
    /// Layers in execution order.
    pub layers: Vec<LayerSchedule>,
}

impl LayeredSchedule {
    /// Flatten into dispatch order (layer by layer, groups side by side,
    /// per-group tasks in sequence).  Estimated times are left at zero; use
    /// a simulator or the symbolic estimator to fill them.
    pub fn to_symbolic(&self) -> SymbolicSchedule {
        let mut entries = Vec::new();
        for layer in &self.layers {
            for (g, tasks) in layer.assignments.iter().enumerate() {
                let cores: Vec<usize> = layer.group_range(g).collect();
                for &t in tasks {
                    entries.push(ScheduledTask {
                        task: t,
                        cores: cores.clone(),
                        est_start: 0.0,
                        est_finish: 0.0,
                    });
                }
            }
        }
        SymbolicSchedule {
            total_cores: self.total_cores,
            entries,
        }
    }

    /// Check layered invariants: group sizes positive and summing to `P`
    /// in every layer, no task in two places.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for (li, layer) in self.layers.iter().enumerate() {
            if layer.group_sizes.len() != layer.assignments.len() {
                return Err(format!("layer {li}: group/assignment count mismatch"));
            }
            let sum: usize = layer.group_sizes.iter().sum();
            if sum != self.total_cores {
                return Err(format!(
                    "layer {li}: group sizes sum to {sum}, expected {}",
                    self.total_cores
                ));
            }
            for (g, &size) in layer.group_sizes.iter().enumerate() {
                if size == 0 {
                    return Err(format!("layer {li}: group {g} is empty"));
                }
            }
            for tasks in &layer.assignments {
                for t in tasks {
                    if !seen.insert(*t) {
                        return Err(format!("task {t:?} scheduled twice"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_mtask::{MTask, TaskGraph};

    fn two_layer_schedule() -> LayeredSchedule {
        LayeredSchedule {
            total_cores: 8,
            layers: vec![
                LayerSchedule {
                    group_sizes: vec![4, 4],
                    assignments: vec![vec![TaskId(0)], vec![TaskId(1)]],
                },
                LayerSchedule {
                    group_sizes: vec![8],
                    assignments: vec![vec![TaskId(2)]],
                },
            ],
        }
    }

    #[test]
    fn group_ranges_are_disjoint_and_cover() {
        let s = two_layer_schedule();
        let l = &s.layers[0];
        assert_eq!(l.group_range(0), 0..4);
        assert_eq!(l.group_range(1), 4..8);
    }

    #[test]
    fn to_symbolic_flattens_in_order() {
        let s = two_layer_schedule();
        let flat = s.to_symbolic();
        assert_eq!(flat.entries.len(), 3);
        assert_eq!(flat.entries[0].task, TaskId(0));
        assert_eq!(flat.entries[2].task, TaskId(2));
        assert_eq!(flat.entries[2].cores.len(), 8);
    }

    #[test]
    fn validate_catches_bad_sums() {
        let mut s = two_layer_schedule();
        s.layers[0].group_sizes = vec![4, 3];
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_catches_duplicate_tasks() {
        let mut s = two_layer_schedule();
        s.layers[1].assignments[0].push(TaskId(0));
        assert!(s.validate().is_err());
    }

    #[test]
    fn symbolic_validate_checks_precedence() {
        let mut g = TaskGraph::new();
        let a = g.add_task(MTask::compute("a", 1.0));
        let b = g.add_task(MTask::compute("b", 1.0));
        g.add_ordering_edge(a, b);
        let bad = SymbolicSchedule {
            total_cores: 2,
            entries: vec![
                ScheduledTask {
                    task: b,
                    cores: vec![0],
                    est_start: 0.0,
                    est_finish: 1.0,
                },
                ScheduledTask {
                    task: a,
                    cores: vec![1],
                    est_start: 0.0,
                    est_finish: 1.0,
                },
            ],
        };
        assert!(bad.validate(&g).is_err());
    }

    #[test]
    fn symbolic_validate_checks_core_ranges() {
        let g = {
            let mut g = TaskGraph::new();
            g.add_task(MTask::compute("a", 1.0));
            g
        };
        let bad = SymbolicSchedule {
            total_cores: 2,
            entries: vec![ScheduledTask {
                task: TaskId(0),
                cores: vec![5],
                est_start: 0.0,
                est_finish: 1.0,
            }],
        };
        assert!(bad.validate(&g).is_err());
    }

    #[test]
    fn index_maps_every_task_to_its_position() {
        let s = two_layer_schedule().to_symbolic();
        let idx = s.index();
        assert_eq!(idx.len(), s.entries.len());
        for (i, e) in s.entries.iter().enumerate() {
            assert_eq!(idx[&e.task], i);
            assert_eq!(s.entry(e.task).map(|x| x.task), Some(e.task));
        }
    }

    #[test]
    fn makespan_is_max_finish() {
        let s = SymbolicSchedule {
            total_cores: 2,
            entries: vec![
                ScheduledTask {
                    task: TaskId(0),
                    cores: vec![0],
                    est_start: 0.0,
                    est_finish: 2.5,
                },
                ScheduledTask {
                    task: TaskId(1),
                    cores: vec![1],
                    est_start: 0.0,
                    est_finish: 1.5,
                },
            ],
        };
        assert_eq!(s.makespan(), 2.5);
    }
}

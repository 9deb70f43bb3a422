//! Coordination specification DSL, built from the operators of the CM-task
//! specification language of the paper's Fig. 3.
//!
//! A [`Spec`] composes M-tasks with the operators of the paper:
//!
//! * `seq { … }` — execution one after another due to input–output relations,
//! * `par { … }` / `parfor` — independent branches (no relations between
//!   them),
//! * `for` — a loop *with* loop-carried input–output relations, eagerly
//!   unrolled (like the CM-task compiler's loop unrolling, Fig. 4).
//!
//! A time-stepping program unrolls its steps with `for` and compiles to one
//! flat graph, which is how every figure of the evaluation schedules it.
//! The paper's `while` loop with hierarchical two-level scheduling
//! (§2.2.3) is not reproduced.
//!
//! Tasks declare which named data they *use* and *define*; the compiler
//! derives the coordination edges from those declarations exactly as the
//! CM-task compiler does: a read-after-write relation becomes a data edge
//! (annotated with the datum's size and movement pattern), write-after-write
//! and write-after-read become pure ordering edges.

use crate::graph::{EdgeData, RedistPattern, TaskGraph, TaskId};
use crate::task::MTask;
use std::collections::HashMap;

/// A named datum produced by a task, with the information the re-distribution
/// cost model needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DataRef {
    /// Name of the datum (the "variable" of the specification program).
    pub name: String,
    /// Total size in bytes.
    pub bytes: f64,
    /// How the datum moves to a consumer executing on a different group.
    pub pattern: RedistPattern,
}

impl DataRef {
    /// A replicated datum (every core of the consumer group needs a copy).
    pub fn replicated(name: impl Into<String>, bytes: f64) -> Self {
        DataRef {
            name: name.into(),
            bytes,
            pattern: RedistPattern::Replicated,
        }
    }

    /// A datum exchanged via the *orthogonal* pattern (same-position cores of
    /// concurrent groups).
    pub fn orthogonal(name: impl Into<String>, bytes: f64) -> Self {
        DataRef {
            name: name.into(),
            bytes,
            pattern: RedistPattern::Orthogonal,
        }
    }

    /// A block-distributed datum re-partitioned between groups.
    pub fn block(name: impl Into<String>, bytes: f64) -> Self {
        DataRef {
            name: name.into(),
            bytes,
            pattern: RedistPattern::Block,
        }
    }
}

/// A task declaration inside a [`Spec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpecTask {
    /// The M-task itself.
    pub task: MTask,
    /// Names of data this task reads.
    pub uses: Vec<String>,
    /// Data this task (re)defines.
    pub defines: Vec<DataRef>,
}

/// A coordination expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// A single M-task activation.
    Task(SpecTask),
    /// Children execute one after another (input–output relations allowed).
    Seq(Vec<Spec>),
    /// Children are independent and may execute concurrently.
    Par(Vec<Spec>),
}

impl Spec {
    /// A task with no declared data (pure compute node).
    pub fn task(task: MTask) -> Spec {
        Spec::Task(SpecTask {
            task,
            uses: Vec::new(),
            defines: Vec::new(),
        })
    }

    /// Declare data read by this task (only valid on `Spec::Task`).
    pub fn uses<I, S>(mut self, names: I) -> Spec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        match &mut self {
            Spec::Task(t) => t.uses.extend(names.into_iter().map(Into::into)),
            _ => panic!("`uses` applies to task specs only"),
        }
        self
    }

    /// Declare data defined by this task (only valid on `Spec::Task`).
    pub fn defines<I>(mut self, refs: I) -> Spec
    where
        I: IntoIterator<Item = DataRef>,
    {
        match &mut self {
            Spec::Task(t) => t.defines.extend(refs),
            _ => panic!("`defines` applies to task specs only"),
        }
        self
    }

    /// `seq { … }`.
    pub fn seq(children: Vec<Spec>) -> Spec {
        Spec::Seq(children)
    }

    /// `par { … }`.
    pub fn par(children: Vec<Spec>) -> Spec {
        Spec::Par(children)
    }

    /// `for (i = range) { f(i) }` — loop *with* dependencies between
    /// iterations, eagerly unrolled into a `seq`.
    pub fn for_loop(range: impl IntoIterator<Item = usize>, f: impl FnMut(usize) -> Spec) -> Spec {
        Spec::Seq(range.into_iter().map(f).collect())
    }

    /// `parfor (i = range) { f(i) }` — loop *without* dependencies between
    /// iterations, eagerly unrolled into a `par`.
    pub fn parfor(range: impl IntoIterator<Item = usize>, f: impl FnMut(usize) -> Spec) -> Spec {
        Spec::Par(range.into_iter().map(f).collect())
    }

    /// Compile into a flat task graph with unique start/stop nodes.
    pub fn compile_flat(&self) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut env = Env::default();
        compile_into(self, &mut g, &mut env);
        g.add_start_stop();
        g
    }
}

/// Def/use environment threaded through compilation.
#[derive(Debug, Clone, Default, PartialEq)]
struct Env {
    /// Current writers per datum (several after a `par` in which multiple
    /// branches wrote disjoint parts — the spec writer guarantees
    /// independence, as `parfor` does in the CM-task language).
    writers: HashMap<String, Vec<(TaskId, DataRef)>>,
    /// Readers since the last write, per datum.
    readers: HashMap<String, Vec<TaskId>>,
}

fn compile_into(spec: &Spec, g: &mut TaskGraph, env: &mut Env) {
    match spec {
        Spec::Task(st) => {
            let id = g.add_task(st.task.clone());
            for name in &st.uses {
                if let Some(ws) = env.writers.get(name) {
                    for (w, dref) in ws.clone() {
                        g.add_edge(
                            w,
                            id,
                            EdgeData {
                                bytes: dref.bytes,
                                pattern: dref.pattern,
                            },
                        );
                    }
                }
                env.readers.entry(name.clone()).or_default().push(id);
            }
            for dref in &st.defines {
                // WAW ordering after previous writers… (skipped when the
                // ordering already follows transitively — this keeps the
                // graphs identical to the paper's Fig. 4, where e.g. the
                // write-after-read relations of the EPOL combine task are
                // subsumed by the micro-step chains).
                if let Some(ws) = env.writers.get(&dref.name) {
                    for (w, _) in ws.clone() {
                        if w != id && !g.has_path(w, id) {
                            g.add_edge(w, id, EdgeData::ordering());
                        }
                    }
                }
                // …and WAR ordering after previous readers.
                if let Some(rs) = env.readers.get(&dref.name) {
                    for r in rs.clone() {
                        if r != id && !g.has_path(r, id) {
                            g.add_edge(r, id, EdgeData::ordering());
                        }
                    }
                }
                env.writers
                    .insert(dref.name.clone(), vec![(id, dref.clone())]);
                env.readers.insert(dref.name.clone(), Vec::new());
            }
        }
        Spec::Seq(children) => {
            for c in children {
                compile_into(c, g, env);
            }
        }
        Spec::Par(children) => {
            let snapshot = env.clone();
            let mut merged = snapshot.clone();
            for c in children {
                let mut branch = snapshot.clone();
                compile_into(c, g, &mut branch);
                merge_env(&snapshot, &branch, &mut merged);
            }
            // A branch that wrote a datum ordered its writer after every
            // reader recorded before the `par` (a WAR edge or a path), and
            // that writer precedes every later definer (a WAW edge or a
            // path), so no later WAR check against those readers can add
            // an edge.  Dropping them keeps each reader list one step long
            // however many steps are unrolled.
            for (name, readers) in &mut merged.readers {
                if merged.writers.get(name) != snapshot.writers.get(name) {
                    if let Some(before) = snapshot.readers.get(name) {
                        readers.retain(|r| !before.contains(r));
                    }
                }
            }
            *env = merged;
        }
    }
}

/// Merge a branch environment produced from `snapshot` into `merged`.
fn merge_env(snapshot: &Env, branch: &Env, merged: &mut Env) {
    for (name, ws) in &branch.writers {
        if snapshot.writers.get(name) != Some(ws) {
            let entry = merged.writers.entry(name.clone()).or_default();
            if snapshot.writers.get(name) == Some(entry) || entry.is_empty() {
                *entry = ws.clone();
            } else if merged.writers.get(name) != Some(ws) {
                // Another branch also wrote: union the writer sets.
                let entry = merged.writers.entry(name.clone()).or_default();
                for w in ws {
                    if !entry.contains(w) {
                        entry.push(w.clone());
                    }
                }
            }
        }
    }
    for (name, rs) in &branch.readers {
        let snap = snapshot.readers.get(name);
        if snap != Some(rs) {
            let entry = merged.readers.entry(name.clone()).or_default();
            for r in rs {
                if !entry.contains(r) {
                    entry.push(*r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::CommOp;

    /// One time step of the extrapolation method of the paper's Fig. 3,
    /// with parameter `R`.
    fn epol_step_spec(r: usize, step_work: f64) -> Spec {
        let n_bytes = 800.0; // size of an approximation vector in bytes
        Spec::seq(vec![
            Spec::parfor(1..=r, |i| {
                Spec::for_loop(1..=i, |j| {
                    let mut s = Spec::task(MTask::with_comm(
                        format!("step({j},{i})"),
                        step_work,
                        vec![CommOp::allgather(n_bytes, 1.0)],
                    ))
                    .uses(["t", "h", "eta_k"]);
                    if j > 1 {
                        s = s.uses([format!("V{i}")]);
                    }
                    s.defines([DataRef::orthogonal(format!("V{i}"), n_bytes)])
                })
            }),
            Spec::task(MTask::with_comm(
                "combine",
                2.0 * r as f64,
                vec![CommOp::bcast(n_bytes, 1.0)],
            ))
            .uses((1..=r).map(|i| format!("V{i}")))
            .defines([
                DataRef::replicated("eta_k", n_bytes),
                DataRef::replicated("t", 8.0),
                DataRef::replicated("h", 8.0),
            ]),
        ])
    }

    #[test]
    fn simple_seq_creates_raw_edges() {
        let spec = Spec::seq(vec![
            Spec::task(MTask::compute("m1", 1.0)).defines([
                DataRef::replicated("A", 100.0),
                DataRef::replicated("B", 200.0),
            ]),
            Spec::task(MTask::compute("m2", 1.0)).uses(["A"]),
            Spec::task(MTask::compute("m3", 1.0)).uses(["B"]),
        ]);
        let g = spec.compile_flat();
        // 3 tasks + start + stop
        assert_eq!(g.len(), 5);
        let (m1, m2, m3) = (TaskId(0), TaskId(1), TaskId(2));
        assert_eq!(g.edge(m1, m2).unwrap().bytes, 100.0);
        assert_eq!(g.edge(m1, m3).unwrap().bytes, 200.0);
        assert!(g.edge(m2, m3).is_none(), "m2 and m3 are independent");
        assert!(g.independent(m2, m3));
    }

    #[test]
    fn war_and_waw_ordering() {
        let spec = Spec::seq(vec![
            Spec::task(MTask::compute("w1", 1.0)).defines([DataRef::replicated("A", 8.0)]),
            Spec::task(MTask::compute("r1", 1.0)).uses(["A"]),
            Spec::task(MTask::compute("w2", 1.0)).defines([DataRef::replicated("A", 8.0)]),
        ]);
        let g = spec.compile_flat();
        let (w1, r1, w2) = (TaskId(0), TaskId(1), TaskId(2));
        assert!(g.edge(w1, r1).is_some());
        // WAR: w2 after r1; WAW: w2 after w1.
        assert!(g.edge(r1, w2).is_some());
        assert!(g.edge(w1, w2).is_some());
        assert_eq!(g.edge(r1, w2).unwrap().pattern, RedistPattern::None);
    }

    #[test]
    fn par_branches_are_independent() {
        let spec = Spec::seq(vec![
            Spec::task(MTask::compute("src", 1.0)).defines([DataRef::replicated("X", 8.0)]),
            Spec::parfor(0..4, |i| {
                Spec::task(MTask::compute(format!("p{i}"), 1.0))
                    .uses(["X"])
                    .defines([DataRef::replicated(format!("Y{i}"), 8.0)])
            }),
            Spec::task(MTask::compute("join", 1.0)).uses((0..4).map(|i| format!("Y{i}"))),
        ]);
        let g = spec.compile_flat();
        let branches: Vec<TaskId> = (1..=4).map(TaskId).collect();
        for (i, &a) in branches.iter().enumerate() {
            for &b in &branches[i + 1..] {
                assert!(g.independent(a, b));
            }
        }
        let join = TaskId(5);
        for &b in &branches {
            assert!(g.edge(b, join).is_some());
        }
    }

    #[test]
    fn par_then_write_orders_after_all_readers() {
        // Two parallel readers of A, then a writer of A: WAR edges from both.
        let spec = Spec::seq(vec![
            Spec::task(MTask::compute("w", 1.0)).defines([DataRef::replicated("A", 8.0)]),
            Spec::par(vec![
                Spec::task(MTask::compute("r1", 1.0)).uses(["A"]),
                Spec::task(MTask::compute("r2", 1.0)).uses(["A"]),
            ]),
            Spec::task(MTask::compute("w2", 1.0)).defines([DataRef::replicated("A", 8.0)]),
        ]);
        let g = spec.compile_flat();
        let (r1, r2, w2) = (TaskId(1), TaskId(2), TaskId(3));
        assert!(g.edge(r1, w2).is_some());
        assert!(g.edge(r2, w2).is_some());
    }

    #[test]
    fn par_rewrite_keeps_the_siblings_readers() {
        // One branch reads A while its sibling rewrites it: a later writer
        // of A still needs a WAR edge from that reader, while the reader
        // from before the `par` precedes it through the rewrite.
        let spec = Spec::seq(vec![
            Spec::task(MTask::compute("w0", 1.0)).defines([DataRef::replicated("A", 8.0)]),
            Spec::task(MTask::compute("r0", 1.0)).uses(["A"]),
            Spec::par(vec![
                Spec::task(MTask::compute("r1", 1.0)).uses(["A"]),
                Spec::task(MTask::compute("w1", 1.0)).defines([DataRef::replicated("A", 8.0)]),
            ]),
            Spec::task(MTask::compute("w2", 1.0)).defines([DataRef::replicated("A", 8.0)]),
        ]);
        let g = spec.compile_flat();
        let (r0, r1, w1, w2) = (TaskId(1), TaskId(2), TaskId(3), TaskId(4));
        assert!(g.edge(r0, w1).is_some());
        assert!(g.edge(r1, w2).is_some());
        assert!(g.edge(r0, w2).is_none() && g.has_path(r0, w2));
    }

    #[test]
    fn epol_body_micro_steps_form_chains() {
        let r = 4;
        let body = epol_step_spec(r, 10.0).compile_flat();
        // R*(R+1)/2 micro steps + combine + start/stop.
        assert_eq!(body.len(), r * (r + 1) / 2 + 3);
        let cg = crate::chain::ChainGraph::contract(&body);
        // After contraction: R chain nodes + combine + start + stop.
        assert_eq!(cg.graph.len(), r + 3);
    }

    #[test]
    fn epol_body_layers() {
        let r = 4;
        let body = epol_step_spec(r, 10.0).compile_flat();
        let cg = crate::chain::ChainGraph::contract(&body);
        let layers = crate::layer::layers(&cg.graph);
        // Layer 1: the R approximation chains; layer 2: combine (Fig. 5).
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), r);
        assert_eq!(layers[1].len(), 1);
    }

    /// The longest reader list left after compiling `spec`.
    fn longest_reader_list(spec: &Spec) -> usize {
        let mut g = TaskGraph::new();
        let mut env = Env::default();
        compile_into(spec, &mut g, &mut env);
        env.readers.values().map(Vec::len).max().unwrap_or(0)
    }

    #[test]
    fn reader_lists_stay_bounded_over_unrolled_steps() {
        let k = 4;
        // IRK-shaped: m sweeps of K stages that read every F and each
        // write their own, then an update that reads them all.
        let irk_step = Spec::seq(vec![
            Spec::task(MTask::compute("init", 1.0))
                .uses(["eta"])
                .defines([DataRef::replicated("F0", 8.0)]),
            Spec::for_loop(1..=3, |j| {
                Spec::parfor(1..=k, |i| {
                    let s =
                        Spec::task(MTask::compute(format!("stage({i},{j})"), 1.0)).uses(["eta"]);
                    let s = if j == 1 {
                        s.uses(["F0"])
                    } else {
                        s.uses((1..=k).map(|l| format!("F{l}")))
                    };
                    s.defines([DataRef::orthogonal(format!("F{i}"), 8.0)])
                })
            }),
            Spec::task(MTask::compute("update", 1.0))
                .uses((1..=k).map(|l| format!("F{l}")))
                .defines([DataRef::replicated("eta", 8.0)]),
        ]);
        // PAB-shaped: K points that read every F and the base value and
        // write their own F, the last also the base value.
        let pab_step = Spec::parfor(1..=k, |i| {
            let s = Spec::task(MTask::compute(format!("point({i})"), 1.0))
                .uses((1..=k).map(|l| format!("F{l}")))
                .uses(["y"])
                .defines([DataRef::orthogonal(format!("F{i}"), 8.0)]);
            if i == k {
                s.defines([DataRef::orthogonal("y", 8.0)])
            } else {
                s
            }
        });
        for step in [irk_step, pab_step] {
            let one = longest_reader_list(&step);
            let hundred = longest_reader_list(&Spec::for_loop(0..100, |_| step.clone()));
            // No datum keeps more readers than one step gives it.
            assert!(one <= k, "{one} readers after one step");
            assert_eq!(hundred, one, "reader lists grew over 100 steps");
        }
    }

    #[test]
    #[should_panic(expected = "task specs only")]
    fn uses_on_seq_panics() {
        let _ = Spec::seq(vec![]).uses(["x"]);
    }
}

//! Traced-run tooling: the benchmark's own spans, request ids, self time,
//! span coverage and the Chrome-trace file.
//!
//! The program's layers record into a shared [`TraceRecorder`] (scheduler
//! phases, executor tasks and barriers); the benchmark adds one span per
//! public call it makes, tagged with the request id.  After the run every
//! span is attributed to a request and each span's self time is its
//! duration minus the part of it that its child spans cover.

use pt_obs::{ArgValue, ChromeTrace, Phase, Recorder, TraceEvent, TraceRecorder};
use std::sync::Arc;

/// Chrome-trace process row of the benchmark's own spans.
pub const BENCH_PID: u32 = 3;

/// Name of the span enclosing one whole request.
pub const REQUEST: &str = "request";

/// Timestamps of nested spans come from one clock, but a span's end is
/// stored as start + duration; allow for the rounding.
const EPS_US: f64 = 1e-3;

/// The benchmark's handle on the recorder for one thread (lane).
pub struct Tracer {
    pub rec: Arc<TraceRecorder>,
    pub lane: u32,
}

impl Tracer {
    pub fn now(&self) -> f64 {
        self.rec.now_us()
    }

    /// Record a span of request `req` from `start_us` until now.
    pub fn span(&self, name: &str, start_us: f64, req: u64) {
        self.rec
            .span_args(BENCH_PID, self.lane, name, "bench", start_us, req_arg(req));
    }

    /// Record a span of request `req` with explicit bounds and extra
    /// arguments.
    pub fn span_between(
        &self,
        name: &str,
        start_us: f64,
        end_us: f64,
        req: u64,
        extra: Vec<pt_obs::Arg>,
    ) {
        let mut args = req_arg(req);
        args.extend(extra);
        let ev = TraceEvent::span(
            name,
            "bench",
            BENCH_PID,
            self.lane,
            start_us,
            end_us - start_us,
            args,
        );
        self.rec.push(self.lane as usize, ev);
    }
}

/// A recorder with `lanes` lanes, each large enough for one traced run.
pub fn recorder(lanes: usize) -> Arc<TraceRecorder> {
    Arc::new(TraceRecorder::with_capacity(lanes, 1 << 17))
}

/// Take the recorder back once every other handle is gone and drain it.
pub fn drain(rec: Arc<TraceRecorder>) -> (Vec<TraceEvent>, pt_obs::MetricsSnapshot, u64) {
    let mut rec = Arc::try_unwrap(rec).expect("every recorder handle is released after the run");
    let events = rec.drain();
    (events, rec.metrics().snapshot(), rec.dropped())
}

/// Where a traced run writes its Chrome trace.
fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.json"))
}

fn req_arg(req: u64) -> Vec<pt_obs::Arg> {
    vec![("req", req.into())]
}

/// A span's interval in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iv {
    pub start: f64,
    pub end: f64,
}

impl Iv {
    fn of(ev: &TraceEvent) -> Iv {
        Iv {
            start: ev.ts_us,
            end: ev.end_us(),
        }
    }

    fn contains(&self, other: &Iv) -> bool {
        other.start >= self.start - EPS_US && other.end <= self.end + EPS_US
    }
}

/// Length of the union of `ivs`, clipped to `[lo, hi]`.
pub fn covered(ivs: &[Iv], lo: f64, hi: f64) -> f64 {
    let mut v: Vec<Iv> = ivs
        .iter()
        .map(|i| Iv {
            start: i.start.max(lo),
            end: i.end.min(hi),
        })
        .filter(|i| i.end > i.start)
        .collect();
    v.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut total = 0.0;
    let mut cur: Option<Iv> = None;
    for i in v {
        cur = match cur {
            Some(c) if i.start <= c.end => Some(Iv {
                start: c.start,
                end: c.end.max(i.end),
            }),
            Some(c) => {
                total += c.end - c.start;
                Some(i)
            }
            None => Some(i),
        };
    }
    total + cur.map_or(0.0, |c| c.end - c.start)
}

/// Span indices with every span before the spans it encloses: by start,
/// the longer first on ties.
fn nesting_order(ivs: &[Iv]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ivs.len()).collect();
    order.sort_by(|&a, &b| {
        ivs[a]
            .start
            .total_cmp(&ivs[b].start)
            .then(ivs[b].end.total_cmp(&ivs[a].end))
    });
    order
}

/// The innermost enclosing span of each span, among spans of one thread.
pub fn parents(ivs: &[Iv]) -> Vec<Option<usize>> {
    let mut parent = vec![None; ivs.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in nesting_order(ivs) {
        while let Some(&top) = stack.last() {
            if ivs[top].contains(&ivs[i]) {
                break;
            }
            stack.pop();
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    parent
}

/// Each span's duration minus the part of it its direct children cover.
pub fn self_times(ivs: &[Iv]) -> Vec<f64> {
    let parent = parents(ivs);
    let mut children: Vec<Vec<Iv>> = vec![Vec::new(); ivs.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push(ivs[i]);
        }
    }
    ivs.iter()
        .zip(&children)
        .map(|(iv, ch)| (iv.end - iv.start) - covered(ch, iv.start, iv.end))
        .collect()
}

fn req_of(ev: &TraceEvent) -> Option<u64> {
    ev.args.iter().find_map(|(k, v)| match (k, v) {
        (&"req", ArgValue::U64(id)) => Some(*id),
        _ => None,
    })
}

/// The spans of a traced run, each with its self time and request id.
pub struct Spans {
    pub events: Vec<TraceEvent>,
    pub self_us: Vec<f64>,
}

impl Spans {
    /// Analyse drained recorder events: nest spans per thread row, compute
    /// self times, and tag every span with its request id — inherited from
    /// the enclosing span on its own row, else from the request span whose
    /// interval holds its start (executor workers run on their own rows).
    pub fn analyse(events: Vec<TraceEvent>) -> Spans {
        let mut events: Vec<TraceEvent> = events
            .into_iter()
            .filter(|e| e.phase == Phase::Complete)
            .collect();
        let mut self_us = vec![0.0; events.len()];
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let idx: Vec<usize> = (0..events.len())
                .filter(|&i| events[i].tid == tid)
                .collect();
            let ivs: Vec<Iv> = idx.iter().map(|&i| Iv::of(&events[i])).collect();
            let parent = parents(&ivs);
            for (k, s) in self_times(&ivs).into_iter().enumerate() {
                self_us[idx[k]] = s;
            }
            // Tag each parent before its children.
            for k in nesting_order(&ivs) {
                if req_of(&events[idx[k]]).is_none() {
                    if let Some(id) = parent[k].and_then(|p| req_of(&events[idx[p]])) {
                        events[idx[k]].args.push(("req", id.into()));
                    }
                }
            }
        }
        let mut requests: Vec<(Iv, u64)> = events
            .iter()
            .filter(|e| e.name == REQUEST)
            .filter_map(|e| Some((Iv::of(e), req_of(e)?)))
            .collect();
        requests.sort_by(|a, b| a.0.start.total_cmp(&b.0.start));
        for ev in events.iter_mut().filter(|e| req_of(e).is_none()) {
            let at = requests.partition_point(|(iv, _)| iv.start <= ev.ts_us);
            if let Some((iv, id)) = at.checked_sub(1).map(|i| requests[i]) {
                if iv.contains(&Iv::of(ev)) {
                    ev.args.push(("req", id.into()));
                }
            }
        }
        Spans { events, self_us }
    }

    fn select<'a>(
        &'a self,
        pred: impl Fn(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.events.len()).filter(move |&i| pred(&self.events[i]))
    }

    /// Total duration (µs) of spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.select(|e| e.name == name)
            .map(|i| self.events[i].dur_us)
            .sum()
    }

    /// Total self time (µs) of spans whose name satisfies `pred`.
    pub fn self_us_where(&self, pred: impl Fn(&str) -> bool) -> f64 {
        self.select(move |e| pred(&e.name))
            .map(|i| self.self_us[i])
            .sum()
    }

    /// Sum of the integer argument `arg` over spans named `name`.
    pub fn arg_sum(&self, name: &str, arg: &str) -> u64 {
        self.select(|e| e.name == name)
            .filter_map(|i| {
                self.events[i].args.iter().find_map(|(k, v)| match v {
                    ArgValue::U64(u) if *k == arg => Some(*u),
                    _ => None,
                })
            })
            .sum()
    }

    /// Share of the request spans' wall time that no layer span of the
    /// same request covers.  Layer spans are the program's own spans plus
    /// the benchmark spans around calls that record nothing inside.  A
    /// benchmark span that encloses program spans is left out, so the
    /// part of its call that no program span names counts as unaccounted.
    pub fn unaccounted_frac(&self) -> f64 {
        use std::collections::HashMap;
        let (mut program, mut bench): (HashMap<u64, Vec<Iv>>, HashMap<u64, Vec<Iv>>) =
            Default::default();
        for ev in self.events.iter().filter(|e| e.name != REQUEST) {
            if let Some(id) = req_of(ev) {
                let side = if ev.pid == BENCH_PID {
                    &mut bench
                } else {
                    &mut program
                };
                side.entry(id).or_default().push(Iv::of(ev));
            }
        }
        let (mut wall, mut cov) = (0.0, 0.0);
        for ev in self.events.iter().filter(|e| e.name == REQUEST) {
            let iv = Iv::of(ev);
            wall += iv.end - iv.start;
            let Some(id) = req_of(ev) else { continue };
            let inner = program.get(&id).map_or(&[][..], Vec::as_slice);
            let mut layer = inner.to_vec();
            layer.extend(
                bench
                    .get(&id)
                    .into_iter()
                    .flatten()
                    .filter(|b| !inner.iter().any(|p| b.contains(p))),
            );
            cov += covered(&layer, iv.start, iv.end);
        }
        if wall > 0.0 {
            1.0 - cov / wall
        } else {
            0.0
        }
    }

    /// Write the spans as Chrome-trace JSON (open in Perfetto) to
    /// `perfbench/out/<workload>.trace.json`, naming the process rows;
    /// returns a note saying where it went.
    pub fn save(&self, workload: &str, rows: &[(u32, &str)]) -> String {
        let mut trace = ChromeTrace::new();
        for &(pid, name) in rows {
            trace.name_process(pid, name);
        }
        trace.extend(self.events.iter().cloned());
        let path = trace_path(workload);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace.to_json()));
        match written {
            Ok(()) => format!("trace written to {}", path.display()),
            Err(e) => format!("trace not written to {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: f64, end: f64) -> Iv {
        Iv { start, end }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // request [0,100] ⊃ schedule [10,70] ⊃ {sweep [12,40], lpt [45,60]},
        // and simulate [75,95].
        let ivs = [
            iv(0.0, 100.0),
            iv(10.0, 70.0),
            iv(12.0, 40.0),
            iv(45.0, 60.0),
            iv(75.0, 95.0),
        ];
        assert_eq!(
            parents(&ivs),
            vec![None, Some(0), Some(1), Some(1), Some(0)]
        );
        let s = self_times(&ivs);
        assert_eq!(
            s,
            vec![100.0 - 60.0 - 20.0, 60.0 - 28.0 - 15.0, 28.0, 15.0, 20.0]
        );
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let ivs = [iv(0.0, 10.0), iv(5.0, 15.0), iv(20.0, 30.0), iv(-5.0, 1.0)];
        assert_eq!(covered(&ivs, 0.0, 25.0), 15.0 + 5.0);
        assert_eq!(covered(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn spans_inherit_request_ids_and_report_unaccounted_time() {
        let span = |name: &str, pid, tid, ts, dur, req: Option<u64>| {
            let args = req.map(req_arg).unwrap_or_default();
            TraceEvent::span(name, "t", pid, tid, ts, dur, args)
        };
        let events = vec![
            span(REQUEST, BENCH_PID, 0, 0.0, 100.0, Some(7)),
            span("CostModel::new", BENCH_PID, 0, 2.0, 5.0, Some(7)),
            span("schedule_on", BENCH_PID, 0, 10.0, 80.0, Some(7)),
            // A scheduler phase on the same row, and a worker task on
            // another row inside the request's window.
            span("g_sweep", 2, 0, 20.0, 30.0, None),
            span("L0.g0.t0", 1, 5, 40.0, 10.0, None),
        ];
        let s = Spans::analyse(events);
        assert!(s.events.iter().all(|e| req_of(e) == Some(7)));
        // Covered: the leaf benchmark span [2, 7] and the program spans
        // [20, 50].  `schedule_on` encloses program spans, so the rest of
        // it is unaccounted.
        assert!((s.unaccounted_frac() - 0.65).abs() < 1e-12);
        assert_eq!(s.total_us("g_sweep"), 30.0);
        assert_eq!(s.self_us_where(|n| n == "schedule_on"), 50.0);
    }
}

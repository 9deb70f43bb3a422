//! The lock-free trace recorder and the `Recorder` no-op contract.

use crate::event::{Arg, TraceEvent};
use crate::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default per-lane event capacity.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// The recording contract instrumented code programs against.
///
/// Every method has a no-op default, so a [`NullRecorder`] (or any stub in
/// tests) costs nothing; [`TraceRecorder`] overrides them all.  Instrumented
/// hot paths hold an `Option<&TraceRecorder>` (or an `Option<Arc<...>>`) and
/// branch on it — with `None` the only disabled-mode overhead is that
/// branch, no trait object, no allocation, no clock read.
pub trait Recorder: Send + Sync {
    /// Microseconds since the recorder's epoch (0 when not recording).
    fn now_us(&self) -> f64 {
        0.0
    }

    /// Record a complete span that started at `start_us` and ends now.
    fn span(&self, _pid: u32, _tid: u32, _name: &str, _cat: &'static str, _start_us: f64) {}

    /// Record a complete span with arguments.
    fn span_args(
        &self,
        _pid: u32,
        _tid: u32,
        _name: &str,
        _cat: &'static str,
        _start_us: f64,
        _args: Vec<Arg>,
    ) {
    }

    /// Record a point event.
    fn instant(&self, _pid: u32, _tid: u32, _name: &str, _cat: &'static str, _args: Vec<Arg>) {}

    /// Add to a named monotonic counter.
    fn add(&self, _counter: &'static str, _delta: u64) {}

    /// Record one observation of a named histogram.
    fn observe(&self, _histogram: &'static str, _value: f64) {}
}

/// The always-disabled recorder: every method keeps its no-op default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// One worker's append-only event buffer.
///
/// Producers claim a slot with a relaxed `fetch_add` and publish the event
/// through the slot's `OnceLock` — both lock-free; a lane is usually owned
/// by one thread (its worker), but nothing breaks if several threads share
/// one, they just interleave slots.  Overflowing events are counted and
/// dropped, never blocked on.
struct Lane {
    len: AtomicUsize,
    slots: Box<[OnceLock<TraceEvent>]>,
}

impl Lane {
    fn with_capacity(cap: usize) -> Lane {
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, OnceLock::new);
        Lane {
            len: AtomicUsize::new(0),
            slots: slots.into_boxed_slice(),
        }
    }
}

/// The lock-free event/span recorder (see the [crate docs](crate)).
///
/// Lanes map to Chrome-trace thread rows by convention: lane `i` belongs to
/// worker `i`, with one extra lane for the driver thread when the
/// constructor is asked for it ([`TraceRecorder::for_team`]).  Out-of-range
/// lanes drop the event (counted in [`dropped`](Self::dropped)) rather than
/// panicking, so a recorder sized for one team can be passed to a larger
/// one without UB or aborts.
pub struct TraceRecorder {
    epoch: Instant,
    lanes: Box<[Lane]>,
    dropped: AtomicU64,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("lanes", &self.lanes.len())
            .field("events", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceRecorder {
    /// Recorder with `lanes` lanes of [`DEFAULT_LANE_CAPACITY`] events each.
    pub fn new(lanes: usize) -> TraceRecorder {
        TraceRecorder::with_capacity(lanes, DEFAULT_LANE_CAPACITY)
    }

    /// Recorder sized for a team of `workers`: one lane per worker plus one
    /// for the driver thread (lane index = `workers`).
    pub fn for_team(workers: usize) -> TraceRecorder {
        TraceRecorder::new(workers + 1)
    }

    /// Recorder with an explicit per-lane capacity.
    pub fn with_capacity(lanes: usize, capacity: usize) -> TraceRecorder {
        assert!(lanes >= 1, "a recorder needs at least one lane");
        assert!(capacity >= 1, "lanes need capacity for at least one event");
        let lanes: Vec<Lane> = (0..lanes).map(|_| Lane::with_capacity(capacity)).collect();
        TraceRecorder {
            epoch: Instant::now(),
            lanes: lanes.into_boxed_slice(),
            dropped: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Events recorded so far across all lanes.
    pub fn len(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.len.load(Ordering::Relaxed).min(l.slots.len()))
            .sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because a lane overflowed or the lane index was out
    /// of range.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The metrics registry bundled with this recorder.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Append an event to `lane` (lock-free: one atomic increment claims
    /// the slot).
    pub fn push(&self, lane: usize, ev: TraceEvent) {
        let Some(lane) = self.lanes.get(lane) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let i = lane.len.fetch_add(1, Ordering::Relaxed);
        match lane.slots.get(i) {
            Some(slot) => {
                let _ = slot.set(ev);
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drain every lane into one list, sorted by `(pid, tid, start, end)`.
    ///
    /// Requires exclusive access: all recording threads must have quiesced
    /// (the executor guarantees this — workers report completion before the
    /// run returns).  The recorder is reusable afterwards; the epoch is
    /// **not** reset, so a later run's events sort after this one's.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len());
        for lane in self.lanes.iter_mut() {
            let n = lane.len.swap(0, Ordering::Relaxed).min(lane.slots.len());
            for slot in lane.slots[..n].iter_mut() {
                if let Some(ev) = slot.take() {
                    out.push(ev);
                }
            }
        }
        out.sort_by(|a, b| {
            (a.pid, a.tid)
                .cmp(&(b.pid, b.tid))
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(a.end_us().total_cmp(&b.end_us()))
        });
        out
    }
}

impl Recorder for TraceRecorder {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn span(&self, pid: u32, tid: u32, name: &str, cat: &'static str, start_us: f64) {
        self.span_args(pid, tid, name, cat, start_us, Vec::new());
    }

    fn span_args(
        &self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &'static str,
        start_us: f64,
        args: Vec<Arg>,
    ) {
        let dur = self.now_us() - start_us;
        self.push(
            tid as usize,
            TraceEvent::span(name, cat, pid, tid, start_us, dur, args),
        );
    }

    fn instant(&self, pid: u32, tid: u32, name: &str, cat: &'static str, args: Vec<Arg>) {
        let ts = self.now_us();
        self.push(
            tid as usize,
            TraceEvent::instant(name, cat, pid, tid, ts, args),
        );
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.metrics.counter(counter).add(delta);
    }

    fn observe(&self, histogram: &'static str, value: f64) {
        self.metrics.histogram(histogram).observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_roundtrip() {
        let mut r = TraceRecorder::new(2);
        r.push(0, TraceEvent::span("a", "t", 0, 0, 1.0, 2.0, vec![]));
        r.push(1, TraceEvent::span("b", "t", 0, 1, 0.5, 1.0, vec![]));
        assert_eq!(r.len(), 2);
        let evs = r.drain();
        assert_eq!(evs.len(), 2);
        // Sorted by (pid, tid, ts).
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[1].name, "b");
        assert!(r.is_empty());
        // Reusable after a drain.
        r.push(0, TraceEvent::instant("c", "t", 0, 0, 3.0, vec![]));
        assert_eq!(r.drain().len(), 1);
    }

    #[test]
    fn overflow_and_bad_lane_are_counted_not_fatal() {
        let mut r = TraceRecorder::with_capacity(1, 2);
        for _ in 0..4 {
            r.push(0, TraceEvent::instant("x", "t", 0, 0, 0.0, vec![]));
        }
        r.push(9, TraceEvent::instant("y", "t", 0, 9, 0.0, vec![]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.drain().len(), 2);
    }

    #[test]
    fn concurrent_pushes_from_many_threads() {
        let mut r = TraceRecorder::with_capacity(4, 1 << 12);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let r = &r;
                s.spawn(move || {
                    for i in 0..1000 {
                        r.push(
                            t,
                            TraceEvent::span(
                                format!("e{i}"),
                                "t",
                                0,
                                t as u32,
                                i as f64,
                                1.0,
                                vec![],
                            ),
                        );
                    }
                });
            }
        });
        assert_eq!(r.dropped(), 0);
        let evs = r.drain();
        assert_eq!(evs.len(), 4000);
        // Per lane, slot claims are ordered, so per-tid starts ascend.
        for w in evs.windows(2) {
            if w[0].tid == w[1].tid {
                assert!(w[0].ts_us <= w[1].ts_us);
            }
        }
    }

    #[test]
    fn recorder_trait_records_spans_and_metrics() {
        let mut r = TraceRecorder::new(2);
        let t0 = r.now_us();
        r.span_args(0, 1, "work", "test", t0, vec![("k", 7usize.into())]);
        r.add("c", 3);
        r.observe("h", 0.5);
        let evs = r.drain();
        assert_eq!(evs.len(), 1);
        assert!(evs[0].dur_us >= 0.0);
        assert_eq!(evs[0].tid, 1);
        let snap = r.metrics().snapshot();
        assert_eq!(snap.counter("c"), Some(3));
    }

    #[test]
    fn null_recorder_is_inert() {
        let n = NullRecorder;
        assert_eq!(n.now_us(), 0.0);
        n.span(0, 0, "x", "t", 0.0);
        n.add("c", 1);
        n.observe("h", 1.0);
    }
}

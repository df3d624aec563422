//! Span tracer: the events behind a chrome://tracing "trace event"
//! export.
//!
//! Spans are recorded as paired `Begin`/`End` events carrying the
//! recording thread's id and a microsecond timestamp from the shared
//! process clock. Events land in one of a fixed set of sharded
//! buffers keyed by thread id, so concurrent workers almost never
//! contend on the same lock ("lock-free-ish": one uncontended mutex
//! acquisition per event, no allocation beyond the event itself).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{elapsed_micros, thread_id};

/// Number of event-buffer shards; a power of two so the thread-id
/// residue is a cheap mask. Threads map to shards by id, so a worker
/// always appends to "its" shard.
const SHARDS: usize = 16;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span opened (`"ph": "B"`).
    Begin,
    /// A span closed (`"ph": "E"`).
    End,
    /// A zero-duration marker (`"ph": "i"`, thread-scoped).
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span or marker name.
    pub name: &'static str,
    /// Recording thread (see [`crate::thread_id`]).
    pub tid: u64,
    /// Microseconds since the process epoch.
    pub ts_us: u64,
    /// Begin / end / instant.
    pub phase: TracePhase,
    /// Global record order — total order across threads, used to keep
    /// the export stable when timestamps tie.
    seq: u64,
}

/// Collects spans and instant markers from any number of threads.
///
/// Create one per run (the CLI creates one per `--trace-out`
/// invocation), share it by reference or `Arc`, and read
/// [`Tracer::events`] at the end (`blasys_core::report::chrome_json`
/// renders them as chrome-trace JSON). Nesting is expressed purely by
/// `Begin`/`End` order per thread, exactly as the chrome trace format
/// expects.
pub struct Tracer {
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    seq: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            seq: AtomicU64::new(0),
        }
    }

    fn record(&self, name: &'static str, phase: TracePhase) {
        let tid = thread_id();
        let ev = TraceEvent {
            name,
            tid,
            ts_us: elapsed_micros(),
            phase,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        self.shards[tid as usize % SHARDS].lock().unwrap().push(ev);
    }

    /// Record a span begin. Prefer [`Tracer::span`] where the open and
    /// close share a scope; use explicit begin/end when they live in
    /// separate callbacks (they must still run on the same thread).
    pub fn begin(&self, name: &'static str) {
        self.record(name, TracePhase::Begin);
    }

    /// Record a span end, closing the most recent open span with the
    /// same thread.
    pub fn end(&self, name: &'static str) {
        self.record(name, TracePhase::End);
    }

    /// Record a zero-duration, thread-scoped marker.
    pub fn instant(&self, name: &'static str) {
        self.record(name, TracePhase::Instant);
    }

    /// Open a span closed automatically when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.record(name, TracePhase::Begin);
        SpanGuard {
            tracer: self,
            name,
            _not_send: std::marker::PhantomData,
        }
    }

    /// All events recorded so far, in global record order, balanced
    /// per thread: an end with no open span on its thread (a recorder
    /// attached mid-span) is dropped, and a span still open (e.g. a
    /// flow aborted mid-stage) gets a closing event at the last
    /// timestamp, so every `Begin` has its `End`.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap().iter().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|e| e.seq);
        // Per-thread open-span stacks, in first-seen thread order.
        let mut open: Vec<(u64, Vec<&'static str>)> = Vec::new();
        let mut last_ts = 0u64;
        all.retain(|e| {
            last_ts = last_ts.max(e.ts_us);
            let idx = match open.iter().position(|(tid, _)| *tid == e.tid) {
                Some(i) => i,
                None => {
                    open.push((e.tid, Vec::new()));
                    open.len() - 1
                }
            };
            let stack = &mut open[idx].1;
            match e.phase {
                TracePhase::Begin => {
                    stack.push(e.name);
                    true
                }
                TracePhase::End => stack.pop().is_some(),
                TracePhase::Instant => true,
            }
        });
        let mut seq = all.last().map_or(0, |e| e.seq + 1);
        for (tid, stack) in open {
            for name in stack.into_iter().rev() {
                all.push(TraceEvent {
                    name,
                    tid,
                    ts_us: last_ts,
                    phase: TracePhase::End,
                    seq,
                });
                seq += 1;
            }
        }
        all
    }
}

/// Closes its span when dropped. Not `Send`: a span must end on the
/// thread that opened it (chrome-trace pairs `B`/`E` per thread).
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.record(self.name, TracePhase::End);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases(t: &Tracer) -> Vec<(String, TracePhase)> {
        t.events()
            .into_iter()
            .map(|e| (e.name.to_string(), e.phase))
            .collect()
    }

    #[test]
    fn spans_nest_in_record_order() {
        let t = Tracer::new();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
            }
            t.instant("mark");
        }
        use TracePhase::*;
        assert_eq!(
            phases(&t),
            vec![
                ("outer".into(), Begin),
                ("inner".into(), Begin),
                ("inner".into(), End),
                ("mark".into(), Instant),
                ("outer".into(), End),
            ]
        );
    }

    #[test]
    fn events_carry_the_recording_thread() {
        let t = Tracer::new();
        {
            let _main = t.span("main-side");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = t.span("worker-side");
            });
        });
        let events = t.events();
        assert_eq!(events.len(), 4);
        let main_tid = events[0].tid;
        let worker = events.iter().find(|e| e.name == "worker-side").unwrap();
        assert_ne!(worker.tid, main_tid);
        // Both pairs balance on their own threads.
        for tid in [main_tid, worker.tid] {
            let (b, e) =
                events
                    .iter()
                    .filter(|ev| ev.tid == tid)
                    .fold((0, 0), |(b, e), ev| match ev.phase {
                        TracePhase::Begin => (b + 1, e),
                        TracePhase::End => (b, e + 1),
                        TracePhase::Instant => (b, e),
                    });
            assert_eq!(b, e, "tid {tid}");
        }
    }

    #[test]
    fn export_closes_dangling_spans() {
        let t = Tracer::new();
        t.begin("outer");
        t.begin("inner");
        t.instant("mark");
        use TracePhase::*;
        assert_eq!(
            phases(&t),
            vec![
                ("outer".into(), Begin),
                ("inner".into(), Begin),
                ("mark".into(), Instant),
                ("inner".into(), End),
                ("outer".into(), End),
            ]
        );
        let events = t.events();
        let mark_ts = events[2].ts_us;
        assert!(events[3..].iter().all(|e| e.ts_us >= mark_ts));
    }

    #[test]
    fn export_drops_unmatched_ends() {
        let t = Tracer::new();
        t.end("never-opened");
        {
            let _g = t.span("kept");
        }
        use TracePhase::*;
        assert_eq!(
            phases(&t),
            vec![("kept".into(), Begin), ("kept".into(), End)]
        );
    }

    #[test]
    fn timestamps_are_monotone_per_thread() {
        let t = Tracer::new();
        for _ in 0..10 {
            let _g = t.span("tick");
        }
        let events = t.events();
        for w in events.windows(2) {
            assert!(w[1].ts_us >= w[0].ts_us);
        }
    }
}

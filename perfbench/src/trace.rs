//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public API (and, for profiling windows, from a
//! [`FlowObserver`](blasys_core::FlowObserver) on the worker threads).
//! Each span has a name, start, end, parent and an operation id (one
//! per circuit flow, walk or request). A disabled tracer records
//! nothing and only calls through.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blasys_core::{FlowObserver, SubcircuitProfile};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    /// Run `f` inside a span named `name` (nested under the innermost
    /// open span of the driving thread).
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.ns(Instant::now());
        let idx = {
            let mut st = self.state();
            let parent = st.stack.last().copied();
            st.spans.push(Span {
                name,
                op,
                parent,
                start_ns: start,
                end_ns: start,
            });
            let idx = st.spans.len() - 1;
            st.stack.push(idx);
            idx
        };
        let out = f();
        let end = self.ns(Instant::now());
        let mut st = self.state();
        st.spans[idx].end_ns = end;
        st.stack.pop();
        out
    }

    /// Record a finished span from another thread under the driving
    /// thread's innermost open span.
    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut st = self.state();
        let parent = st.stack.last().copied();
        st.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Total duration of every span named `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Longest span named `name`, ms.
    pub fn max_ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .fold(0.0, f64::max)
    }

    /// Self time per span name, ms: each span's duration minus the part
    /// of its interval covered by the union of its children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let mut ivs = children.remove(&i).unwrap_or_default();
            ivs.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in ivs {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines (`{"id", "name", "op", "parent",
    /// "start_ns", "end_ns"}`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Records one `window` span per profiled window, from the worker that
/// profiled it (`on_window_start` and `on_window_profiled` arrive on
/// the same thread).
pub struct WindowSpans {
    tracer: Arc<Tracer>,
    op: u64,
    starts: Mutex<HashMap<usize, Instant>>,
}

impl WindowSpans {
    pub fn new(tracer: Arc<Tracer>, op: u64) -> WindowSpans {
        WindowSpans {
            tracer,
            op,
            starts: Mutex::new(HashMap::new()),
        }
    }
}

impl FlowObserver for WindowSpans {
    fn on_window_start(&self, cluster: usize) {
        let mut starts = self.starts.lock().expect("window map lock");
        starts.insert(cluster, Instant::now());
    }

    fn on_window_profiled(&self, profile: &SubcircuitProfile, _total: usize) {
        let end = Instant::now();
        let start = self
            .starts
            .lock()
            .expect("window map lock")
            .remove(&profile.cluster);
        if let Some(start) = start {
            self.tracer.record("window", self.op, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_union() {
        let t = Tracer::new(true);
        t.span("outer", 0, || {
            t.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let selfs = t.self_ms();
        let outer_total = t.total_ms("outer");
        let inner_total = t.total_ms("inner");
        assert!((selfs["outer"] - (outer_total - inner_total)).abs() < 1e-6);
        assert!((selfs["inner"] - inner_total).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 5), 5);
        assert!(t.spans().is_empty());
    }
}

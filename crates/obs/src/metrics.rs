//! Named counters, gauges, and fixed-bucket histograms.
//!
//! Instruments are plain atomics behind `Arc` handles: registration
//! takes a lock once, after which every update is a single relaxed
//! atomic operation — cheap enough for per-probe accounting in the
//! packed QoR engine. [`Registry::snapshot`] produces a name-sorted,
//! stable [`Snapshot`] that callers can embed in report JSON.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A free-standing counter (usually obtained via
    /// [`Registry::counter`] instead).
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed level (e.g. a queue depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A free-standing gauge (usually obtained via [`Registry::gauge`]).
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Replace the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed upper-bound buckets plus an overflow bucket.
///
/// `bounds` are inclusive upper bounds in ascending order; a value `v`
/// lands in the first bucket with `v <= bound`, or in the overflow
/// bucket past the last bound. Bucket scans are linear — bounds sets
/// are small (tens at most).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A free-standing histogram (usually obtained via
    /// [`Registry::histogram`]).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (self.bounds.get(i).copied(), b.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

#[derive(Debug)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A flat namespace of instruments, looked up (and lazily created) by
/// name. Lookups lock; the returned handles do not.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Vec<(String, Instrument)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, inst)) = inner.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Counter(c) => return Arc::clone(c),
                _ => panic!("metric {name:?} is not a counter"),
            }
        }
        let c = Arc::new(Counter::new());
        inner.push((name.to_string(), Instrument::Counter(Arc::clone(&c))));
        c
    }

    /// The gauge registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, inst)) = inner.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Gauge(g) => return Arc::clone(g),
                _ => panic!("metric {name:?} is not a gauge"),
            }
        }
        let g = Arc::new(Gauge::new());
        inner.push((name.to_string(), Instrument::Gauge(Arc::clone(&g))));
        g
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (later calls ignore `bounds`).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or
    /// on invalid `bounds` (see [`Histogram::new`]).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, inst)) = inner.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Histogram(h) => return Arc::clone(h),
                _ => panic!("metric {name:?} is not a histogram"),
            }
        }
        let h = Arc::new(Histogram::new(bounds));
        inner.push((name.to_string(), Instrument::Histogram(Arc::clone(&h))));
        h
    }

    /// A stable point-in-time view of every instrument, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let mut entries: Vec<SnapshotEntry> = inner
            .iter()
            .map(|(name, inst)| SnapshotEntry {
                name: name.clone(),
                value: match inst {
                    Instrument::Counter(c) => SnapshotValue::Counter(c.get()),
                    Instrument::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { entries }
    }
}

/// One instrument's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Registered name.
    pub name: String,
    /// Captured value.
    pub value: SnapshotValue,
}

/// A captured instrument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's level.
    Gauge(i64),
    /// A histogram's buckets.
    Histogram(HistogramSnapshot),
}

/// A captured histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(upper_bound, count)` per bucket; `None` is the overflow
    /// bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
}

/// A point-in-time view of a [`Registry`], sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Captured instruments in name order.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// The value of a counter entry, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| {
            if let SnapshotValue::Counter(v) = e.value {
                Some(v)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("flow.probes");
        c.inc();
        c.add(4);
        let g = r.gauge("pool.queue_depth");
        g.set(7);
        g.add(-2);
        assert_eq!(r.counter("flow.probes").get(), 5, "same handle by name");
        let snap = r.snapshot();
        assert_eq!(snap.counter("flow.probes"), Some(5));
        assert_eq!(
            snap.entries
                .iter()
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>(),
            vec!["flow.probes", "pool.queue_depth"],
            "snapshot is name-sorted"
        );
        match snap.entries[1].value {
            SnapshotValue::Gauge(v) => assert_eq!(v, 5),
            ref v => panic!("expected gauge, got {v:?}"),
        }
    }

    #[test]
    fn histogram_buckets_values_by_upper_bound() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10, 11, 100, 500, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 5621);
        assert_eq!(
            s.buckets,
            vec![
                (Some(10), 2),   // 0, 10 (bounds are inclusive)
                (Some(100), 2),  // 11, 100
                (Some(1000), 1), // 500
                (None, 1),       // 5000 overflows
            ]
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[10, 5]);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_is_rejected() {
        let r = Registry::new();
        let _ = r.gauge("x");
        let _ = r.counter("x");
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let r = Registry::new();
        let c = r.counter("n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}

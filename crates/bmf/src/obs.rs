//! `bmf.*` metrics: factorization cost made visible next to the
//! engine's `qor.*` counters.
//!
//! All three instruments are attached to a
//! [`Factorizer`](crate::Factorizer) via
//! [`Factorizer::with_counters`](crate::Factorizer::with_counters) and
//! shared across its clones, so a whole profiling stage accumulates
//! into one block.
//!
//! # Counter determinism
//!
//! `bmf.windows_factorized` and `bmf.candidates_scored` are
//! **deterministic**: factorization is serial, and every candidate
//! column (and every exhaustive basis combination) is scored exactly
//! once per greedy round, so the totals are bit-identical whichever
//! worker profiles a window. `bmf.factorize_wall_ns` is a wall-clock
//! observation and makes no such promise.

use std::sync::Arc;

use blasys_obs::{Counter, Histogram, Registry};

/// Upper bounds (ns) for the factorize wall-time histogram: 1 µs to
/// 1 s, one decade per bucket.
const FACTORIZE_NS_BOUNDS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// The factorization counter block, registered under stable `bmf.*`
/// names. See the [module docs](self#counter-determinism) for which
/// counters are deterministic.
#[derive(Debug)]
pub struct FactorizeCounters {
    /// Windows profiled end to end (`bmf.windows_factorized`).
    /// Deterministic.
    pub windows: Arc<Counter>,
    /// ASSO candidate columns (and exhaustive basis combinations)
    /// scored (`bmf.candidates_scored`). Deterministic.
    pub candidates_scored: Arc<Counter>,
    /// Wall time of each
    /// [`Factorizer::factorize`](crate::Factorizer::factorize) call,
    /// in nanoseconds (`bmf.factorize_wall_ns`).
    pub factorize_ns: Arc<Histogram>,
}

impl FactorizeCounters {
    /// Create (or re-attach to) the `bmf.*` instruments of `registry`.
    pub fn register(registry: &Registry) -> FactorizeCounters {
        FactorizeCounters {
            windows: registry.counter("bmf.windows_factorized"),
            candidates_scored: registry.counter("bmf.candidates_scored"),
            factorize_ns: registry.histogram("bmf.factorize_wall_ns", &FACTORIZE_NS_BOUNDS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_under_stable_names() {
        let registry = Registry::default();
        let c = FactorizeCounters::register(&registry);
        c.windows.inc();
        c.candidates_scored.add(5);
        c.factorize_ns.observe(42_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("bmf.windows_factorized"), Some(1));
        assert_eq!(snap.counter("bmf.candidates_scored"), Some(5));
    }

    #[test]
    fn counters_shared_across_registrations() {
        let registry = Registry::default();
        let a = FactorizeCounters::register(&registry);
        let b = FactorizeCounters::register(&registry);
        a.windows.inc();
        b.windows.inc();
        assert_eq!(
            registry.snapshot().counter("bmf.windows_factorized"),
            Some(2)
        );
    }
}

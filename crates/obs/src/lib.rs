//! Observability primitives for the BLASYS flow (std-only).
//!
//! Three independent pieces, all hand-rolled on `std` atomics and
//! mutexes (the build environment has no access to crates.io):
//!
//! * [`Tracer`] — nestable timed spans with per-thread attribution,
//!   recorded into sharded buffers (`blasys_core::report::chrome_json`
//!   exports them as chrome://tracing "trace event" JSON, so a whole
//!   `run`/`sweep`/`batch` opens in Perfetto or `chrome://tracing`);
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s behind cheap atomic handles, snapshotted to a
//!   stable sorted [`Snapshot`] for JSON embedding;
//! * [`FlightRecorder`] — a bounded ring of recent events, dumpable on
//!   panic or flow errors for post-mortem context.
//!
//! Everything is instance-based: a flow that wants observability
//! creates the handles and threads them through; a flow that does not
//! pays a single `Option` check per hook site and allocates nothing.
//!
//! All timestamps come from one process-wide monotonic clock
//! ([`elapsed`]), so spans, progress lines, and flight events are
//! mutually comparable.

#![warn(missing_docs)]

mod flight;
mod metrics;
mod trace;

pub use flight::{install_panic_dump, FlightEvent, FlightRecorder};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, SnapshotEntry, SnapshotValue,
};
pub use trace::{SpanGuard, TraceEvent, TracePhase, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The process-wide monotonic epoch: fixed on first use, shared by the
/// tracer, the flight recorder, and the CLI progress stream.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic time since the process epoch (first clock use).
pub fn elapsed() -> Duration {
    epoch().elapsed()
}

/// [`elapsed`] in whole microseconds — the unit chrome-trace uses.
pub fn elapsed_micros() -> u64 {
    elapsed().as_micros() as u64
}

/// A small dense id for the calling thread, assigned on first use.
/// Used as the `tid` of trace and flight events (stable within the
/// process, unlike the opaque [`std::thread::ThreadId`]).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert_eq!(here, thread_id(), "same thread, same id");
        let there = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, there, "distinct threads get distinct ids");
    }

    #[test]
    fn clock_is_monotone() {
        let a = elapsed_micros();
        let b = elapsed_micros();
        assert!(b >= a);
    }
}

//! A bounded, thread-safe memo of [`minimize_column`] results.
//!
//! Profiling minimizes the same `(k, onset)` column many times: the
//! exact resynthesis of a window and its compressors share columns,
//! B columns repeat across rungs and candidates, and identical windows
//! (adder slices) repeat whole tables. [`minimize_column`] is a pure
//! function — its iteration count and literal orders are constants and
//! nothing is seeded — so a memoized cover is exactly the cover a fresh
//! call returns, whichever thread stored it first.
//!
//! The memo holds at most [`MinimizeMemo::BOUND_BYTES`] of keys and
//! covers; once full it stops storing and keeps answering what it
//! holds. It is meant to live for one profiling pass and be dropped
//! with it.

use std::collections::HashMap;
use std::mem::size_of_val;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::cube::Sop;
use crate::espresso::minimize_column;

/// Estimated bytes per entry beyond its key words and cubes: the hash
/// slot, the key and cover headers, and allocator slack.
const ENTRY_OVERHEAD: usize = 96;

/// Memoized [`minimize_column`], keyed by `(k, onset words)`.
#[derive(Debug)]
pub struct MinimizeMemo {
    state: Mutex<MemoState>,
    bound: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct MemoState {
    covers: HashMap<(usize, Box<[u64]>), Sop>,
    bytes: usize,
}

impl Default for MinimizeMemo {
    fn default() -> MinimizeMemo {
        MinimizeMemo::with_bound(MinimizeMemo::BOUND_BYTES)
    }
}

impl MinimizeMemo {
    /// Estimated bytes of keys and covers one memo holds at most.
    pub const BOUND_BYTES: usize = 4 << 20;

    /// An empty memo bounded by [`BOUND_BYTES`](Self::BOUND_BYTES).
    pub fn new() -> MinimizeMemo {
        MinimizeMemo::default()
    }

    fn with_bound(bound: usize) -> MinimizeMemo {
        MinimizeMemo {
            state: Mutex::default(),
            bound,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// [`minimize_column`]`(k, onset)`, from the memo when an earlier
    /// call already minimized the same column. The lock is not held
    /// while minimizing, so two threads may both miss on one key; both
    /// compute the same cover and the memo keeps one.
    pub fn minimize_column(&self, k: usize, onset: &[u64]) -> Sop {
        let key = (k, Box::<[u64]>::from(onset));
        let lock = || self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(sop) = lock().covers.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return sop.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let sop = minimize_column(k, onset);
        let cost = ENTRY_OVERHEAD + size_of_val(onset) + size_of_val(sop.cubes());
        let mut state = lock();
        if state.bytes + cost <= self.bound && !state.covers.contains_key(&key) {
            state.bytes += cost;
            state.covers.insert(key, sop.clone());
        }
        sop
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the minimizer.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64 onsets: deterministic without a rand dep.
    fn onsets(seed: u64, k: usize, count: usize) -> Vec<Vec<u64>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let rows = 1usize << k;
        let mask = if rows >= 64 { !0 } else { (1u64 << rows) - 1 };
        (0..count)
            .map(|_| {
                // Sparse-to-dense mixes, so covers range from a few
                // cubes to many.
                let density = next() % 4;
                (0..rows.div_ceil(64))
                    .map(|_| (0..=density).fold(!0, |acc, _| acc & next()) & mask)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn memoized_covers_equal_minimize_column() {
        let memo = MinimizeMemo::new();
        let mut calls = 0;
        for k in 1..=10 {
            let distinct = onsets(k as u64, k, 4);
            let want: Vec<Sop> = distinct.iter().map(|o| minimize_column(k, o)).collect();
            // Every onset twice, the second round answered by the memo.
            for (onset, want) in distinct.iter().zip(&want).cycle().take(8) {
                assert_eq!(&memo.minimize_column(k, onset), want, "k={k}");
                calls += 1;
            }
        }
        assert_eq!(memo.hits() + memo.misses(), calls);
        assert!(memo.hits() >= calls / 2, "repeats hit: {}", memo.hits());
    }

    #[test]
    fn a_full_memo_stops_storing_and_stays_exact() {
        // Room for about two small entries.
        let memo = MinimizeMemo::with_bound(2 * (ENTRY_OVERHEAD + 64));
        for k in 1..=10 {
            let distinct = onsets(0xb0_0d + k as u64, k, 3);
            let want: Vec<Sop> = distinct.iter().map(|o| minimize_column(k, o)).collect();
            for (onset, want) in distinct.iter().zip(&want).cycle().take(6) {
                assert_eq!(&memo.minimize_column(k, onset), want, "k={k}");
            }
        }
        let state = memo.state.lock().unwrap();
        assert!(state.bytes <= memo.bound);
        assert!(
            state.covers.len() < 30,
            "bound reached: {} entries",
            state.covers.len()
        );
        assert!(memo.misses() > state.covers.len() as u64);
    }
}

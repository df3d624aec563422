//! The content-addressed session cache: a bounded LRU from
//! [`Netlist::content_hash_hex`](blasys_logic::Netlist::content_hash_hex)
//! keys to profiled [`FlowSession`]s. The expensive profile stage is
//! paid once per *function* (the hash is functional, so structurally
//! different netlists computing the same function share an entry);
//! every later exploration replays against the cached profile,
//! bit-identical to a fresh one-shot flow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use blasys_core::session::Profiled;
use blasys_core::FlowSession;

/// Immutable facts about a cached circuit, captured at ingest.
#[derive(Debug, Clone)]
pub struct CircuitMeta {
    /// The content hash, as it appears in URLs.
    pub hash: String,
    /// BLIF model name.
    pub circuit: String,
    /// Primary input count.
    pub num_inputs: usize,
    /// Primary output count.
    pub num_outputs: usize,
    /// Gate count of the ingested netlist.
    pub gates: usize,
    /// Number of k×m windows the decomposition produced.
    pub clusters: usize,
    /// Wall time the one-off profile stage took, nanoseconds.
    pub profile_wall_ns: u64,
}

/// One cached circuit: its profiled session plus bookkeeping.
pub struct CacheEntry {
    /// Ingest-time facts.
    pub meta: CircuitMeta,
    /// The profiled session every explore replays against.
    pub session: FlowSession<Profiled>,
    /// How many explorations this entry has served.
    pub explores: AtomicU64,
}

impl CacheEntry {
    /// Count one served exploration.
    pub fn record_explore(&self) {
        self.explores.fetch_add(1, Ordering::Relaxed);
    }
}

/// A bounded LRU keyed by content hash. Entries are `Arc`-shared, so
/// eviction never invalidates a request already holding the session;
/// the entry is dropped when its last in-flight user finishes.
pub struct SessionCache {
    capacity: usize,
    /// Most recently used first. Linear scans are fine: the capacity
    /// is a handful of profiled sessions, each worth megabytes.
    entries: Mutex<Vec<(String, Arc<CacheEntry>)>>,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (minimum 1).
    pub fn new(capacity: usize) -> SessionCache {
        SessionCache {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count (never exceeds the capacity).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Look up a hash, refreshing its recency on hit.
    pub fn get(&self, hash: &str) -> Option<Arc<CacheEntry>> {
        let mut entries = self.lock();
        let pos = entries.iter().position(|(k, _)| k == hash)?;
        let entry = entries.remove(pos);
        let found = entry.1.clone();
        entries.insert(0, entry);
        Some(found)
    }

    /// Insert (or refresh) an entry; returns the evicted entry when
    /// the bound forced one out.
    pub fn insert(&self, entry: Arc<CacheEntry>) -> Option<Arc<CacheEntry>> {
        let hash = entry.meta.hash.clone();
        let mut entries = self.lock();
        if let Some(pos) = entries.iter().position(|(k, _)| k == &hash) {
            entries.remove(pos);
        }
        entries.insert(0, (hash, entry));
        if entries.len() > self.capacity {
            entries.pop().map(|(_, e)| e)
        } else {
            None
        }
    }

    /// Hashes currently cached, most recently used first.
    pub fn hashes(&self) -> Vec<String> {
        self.lock().iter().map(|(k, _)| k.clone()).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(String, Arc<CacheEntry>)>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_circuits::adder;
    use blasys_core::FlowConfig;

    fn entry_for(bits: usize) -> Arc<CacheEntry> {
        let nl = adder(bits);
        let cfg = FlowConfig::new().samples(256).seed(7).limits(4, 2);
        let session = FlowSession::open(&nl, cfg)
            .and_then(FlowSession::profile)
            .expect("profile");
        Arc::new(CacheEntry {
            meta: CircuitMeta {
                hash: nl.content_hash_hex(),
                circuit: nl.name().to_string(),
                num_inputs: nl.num_inputs(),
                num_outputs: nl.num_outputs(),
                gates: nl.gate_count(),
                clusters: 0,
                profile_wall_ns: 0,
            },
            session,
            explores: AtomicU64::new(0),
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = SessionCache::new(2);
        let (a, b, c) = (entry_for(2), entry_for(3), entry_for(4));
        let (ha, hb, hc) = (
            a.meta.hash.clone(),
            b.meta.hash.clone(),
            c.meta.hash.clone(),
        );
        assert!(cache.insert(a).is_none());
        assert!(cache.insert(b).is_none());
        assert_eq!(cache.len(), 2);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&ha).is_some());
        let evicted = cache.insert(c).expect("over capacity");
        assert_eq!(evicted.meta.hash, hb);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&hb).is_none());
        assert!(cache.get(&ha).is_some());
        assert!(cache.get(&hc).is_some());
        assert_eq!(cache.hashes().len(), 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let cache = SessionCache::new(2);
        let a = entry_for(2);
        let ha = a.meta.hash.clone();
        assert!(cache.insert(a.clone()).is_none());
        assert!(cache.insert(a).is_none());
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&ha).is_some());
    }
}

//! `blasys-serve`: the BLASYS flow as a long-running service.
//!
//! The paper's pipeline — decompose into k×m windows, profile each
//! window's factorization ladder once, then explore degree
//! assignments against the cached profiles — is exactly the shape of
//! a query service: the profile is the expensive part, and every
//! error/area question after it is cheap. This crate serves that
//! split over a hand-rolled HTTP/1.1 daemon (std-only, matching the
//! no-registry-deps constraint):
//!
//! * `POST /circuits` ingests a BLIF circuit: lint pre-flight (400
//!   with JSON diagnostics on rejection), then `open` + `profile`
//!   once into a bounded LRU cache keyed by
//!   [`Netlist::content_hash_hex`](blasys_logic::Netlist::content_hash_hex)
//!   — a *functional* content hash, so resubmitting the same circuit
//!   (even after a BLIF round trip that rewrites its gate structure)
//!   is a cache hit that does zero profile work.
//! * `POST /circuits/{hash}/explore` replays one exploration against
//!   the cached session — any metric/threshold/explorer — and
//!   returns the same `FlowReport` JSON an offline `blasys run`
//!   produces, bit-identically. Budget-truncated requests are 200s
//!   with a `stop_reason`, not errors; `"stream": true` upgrades to
//!   chunked ndjson progress events.
//! * `GET /circuits/{hash}`, `GET /metrics`, `GET /healthz`, and
//!   `POST /admin/shutdown` (graceful drain) round out the surface.
//!
//! Admission control (429 past `max_inflight`), a body-size cap
//! (413), and a read timeout (408) protect the daemon; `serve.*`
//! metrics flow through the shared [`blasys_obs::Registry`].
//!
//! ```no_run
//! use blasys_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::new().addr("127.0.0.1:0"))?;
//! eprintln!("listening on http://{}", server.local_addr());
//! server.run()?; // blocks until POST /admin/shutdown drains
//! # std::io::Result::Ok(())
//! ```

use std::time::Duration;

use blasys_core::{Explorer, QorMetric};
use blasys_par::Parallelism;

pub mod cache;
pub mod http;
pub mod json;
mod server;

pub use cache::{CacheEntry, CircuitMeta, SessionCache};
pub use server::Server;

/// Everything a [`Server`] can be tuned with. The flow-side defaults
/// (samples, seed, window limits, metric, threshold, explorer) match
/// the `blasys` CLI defaults, so a service answer and an offline
/// `blasys run` on the same circuit agree bit-for-bit out of the box.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Bound on cached profiled sessions (LRU beyond it; min 1).
    pub cache_capacity: usize,
    /// Max concurrently admitted requests; excess gets 429.
    pub max_inflight: usize,
    /// Request body cap in bytes; larger gets 413.
    pub max_body_bytes: usize,
    /// Socket read timeout; a stalled sender gets 408.
    pub read_timeout: Duration,
    /// Wall budget for the ingest-time profile stage (`None` =
    /// unlimited; exceeding it answers 503).
    pub profile_wall: Option<Duration>,
    /// Server-wide cap on per-request exploration wall budgets
    /// (`None` = requests may run unbudgeted).
    pub explore_wall_cap: Option<Duration>,
    /// Monte-Carlo sample count per session.
    pub samples: usize,
    /// Monte-Carlo seed.
    pub seed: u64,
    /// Decomposition window limits `(k, m)`.
    pub limits: (usize, usize),
    /// Worker parallelism inside the flow stages (default `Auto`).
    /// Every cached session runs on the process-wide pool for this
    /// worker count, so the cache size does not multiply threads.
    pub parallelism: Parallelism,
    /// Default metric when an explore request names none.
    pub metric: QorMetric,
    /// Default error threshold.
    pub threshold: f64,
    /// Default search engine.
    pub explorer: Explorer,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            cache_capacity: 8,
            max_inflight: 4,
            max_body_bytes: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            profile_wall: None,
            explore_wall_cap: None,
            // CLI defaults (see `blasys run --help`): 10k samples,
            // the fixed default seed, 10×10 windows.
            samples: 10_000,
            seed: 0xB1A5_1234,
            limits: (10, 10),
            // Every core; replies are identical at any worker count.
            parallelism: Parallelism::Auto,
            metric: QorMetric::AvgRelative,
            threshold: 0.05,
            explorer: Explorer::Greedy,
        }
    }
}

impl ServerConfig {
    /// The defaults above.
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> ServerConfig {
        self.addr = addr.into();
        self
    }

    /// Bound on cached profiled sessions.
    pub fn cache_capacity(mut self, capacity: usize) -> ServerConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Max concurrently admitted requests.
    pub fn max_inflight(mut self, max_inflight: usize) -> ServerConfig {
        self.max_inflight = max_inflight;
        self
    }

    /// Request body cap in bytes.
    pub fn max_body_bytes(mut self, max_body_bytes: usize) -> ServerConfig {
        self.max_body_bytes = max_body_bytes;
        self
    }

    /// Socket read timeout.
    pub fn read_timeout(mut self, read_timeout: Duration) -> ServerConfig {
        self.read_timeout = read_timeout;
        self
    }

    /// Wall budget for ingest-time profiling.
    pub fn profile_wall(mut self, profile_wall: Duration) -> ServerConfig {
        self.profile_wall = Some(profile_wall);
        self
    }

    /// Server-wide cap on per-request exploration wall budgets.
    pub fn explore_wall_cap(mut self, cap: Duration) -> ServerConfig {
        self.explore_wall_cap = Some(cap);
        self
    }

    /// Monte-Carlo sample count per session.
    pub fn samples(mut self, samples: usize) -> ServerConfig {
        self.samples = samples;
        self
    }

    /// Monte-Carlo seed.
    pub fn seed(mut self, seed: u64) -> ServerConfig {
        self.seed = seed;
        self
    }

    /// Decomposition window limits `(k, m)`.
    pub fn limits(mut self, k: usize, m: usize) -> ServerConfig {
        self.limits = (k, m);
        self
    }

    /// Worker parallelism inside the flow stages.
    pub fn parallelism(mut self, parallelism: Parallelism) -> ServerConfig {
        self.parallelism = parallelism;
        self
    }

    /// Default metric for explore requests.
    pub fn metric(mut self, metric: QorMetric) -> ServerConfig {
        self.metric = metric;
        self
    }

    /// Default error threshold.
    pub fn threshold(mut self, threshold: f64) -> ServerConfig {
        self.threshold = threshold;
        self
    }

    /// Default search engine.
    pub fn explorer(mut self, explorer: Explorer) -> ServerConfig {
        self.explorer = explorer;
        self
    }
}

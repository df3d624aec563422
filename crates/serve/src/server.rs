//! The daemon: accept loop, admission control, worker pool, routing,
//! and the request handlers that bridge HTTP onto the staged
//! [`FlowSession`] API.
//!
//! Threading model: one accept thread (the caller of [`Server::run`])
//! plus `max_inflight` worker threads sharing an [`mpsc`] channel.
//! Admission is exact — the accept thread counts in-flight requests
//! on the `serve.inflight` gauge and answers 429 inline once the
//! bound is reached, so a worker is always available for an admitted
//! connection. A request gives its slot back (see `Slot`) just before
//! the last write of its reply. A streaming response adds one writer
//! thread of its own (see `StreamBridge`). Graceful shutdown (`POST
//! /admin/shutdown`) sets a flag and wakes the accept loop with a
//! loopback connection; queued and in-flight requests drain before
//! [`Server::run`] returns.

use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blasys_core::report::{
    diagnostics_json, explorer_name, metric_name, parse_explorer, parse_metric, snapshot_json,
    stop_reason_name, FlowReport,
};
use blasys_core::{
    CancelToken, ExploreSpec, FlowConfig, FlowError, FlowObserver, FlowSession, FlowStage, Json,
    SubcircuitProfile, TrajectoryPoint,
};
use blasys_lint::{run_error_lints, LintTarget};
use blasys_logic::blif::parse_blif_doc;
use blasys_obs::{Counter, Gauge, Histogram, Registry};

use crate::cache::{CacheEntry, CircuitMeta, SessionCache};
use crate::http::{read_request, write_json, ChunkedWriter, HttpError, Request};
use crate::json::{self, JsonExt};
use crate::ServerConfig;

/// The `serve.*` instruments, created once at bind time so `GET
/// /metrics` shows every counter from the first request on.
struct ServeMetrics {
    requests: Arc<Counter>,
    rejected: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    inflight: Arc<Gauge>,
    request_wall: Arc<Histogram>,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> ServeMetrics {
        // Decade buckets from 1µs to 1000s, in nanoseconds.
        const BOUNDS: [u64; 9] = [
            1_000,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
            1_000_000_000,
            10_000_000_000,
            100_000_000_000,
        ];
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            rejected: registry.counter("serve.rejected"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_evictions: registry.counter("serve.cache.evictions"),
            inflight: registry.gauge("serve.inflight"),
            request_wall: registry.histogram("serve.request.wall_ns", &BOUNDS),
        }
    }
}

/// Everything the workers share.
struct Shared {
    cfg: ServerConfig,
    registry: Arc<Registry>,
    cache: Arc<SessionCache>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    metrics: ServeMetrics,
}

/// A bound but not yet running service. [`Server::run`] consumes it
/// and blocks until graceful shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the configured address (use port 0 for an ephemeral port)
    /// and set up the cache and metrics. No requests are served until
    /// [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        let metrics = ServeMetrics::register(&registry);
        let cache = Arc::new(SessionCache::new(cfg.cache_capacity));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                registry,
                cache,
                shutdown: Arc::new(AtomicBool::new(false)),
                addr,
                metrics,
            }),
        })
    }

    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The metrics registry backing `GET /metrics` — clone it before
    /// [`Server::run`] to inspect counters after shutdown.
    pub fn registry(&self) -> Arc<Registry> {
        self.shared.registry.clone()
    }

    /// Serve until a graceful shutdown drains the last request.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let max_inflight = shared.cfg.max_inflight.max(1);
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            mpsc::sync_channel(max_inflight);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..max_inflight)
            .map(|i| {
                let rx = rx.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
            })
            .collect::<std::io::Result<_>>()?;

        for conn in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let conn = match conn {
                Ok(c) => c,
                Err(_) => continue,
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Exact admission: the gauge counts admitted-but-unfinished
            // requests; at the bound, reject inline so no connection
            // ever waits behind a long exploration.
            if shared.metrics.inflight.get() >= max_inflight as i64 {
                shared.metrics.rejected.add(1);
                let mut conn = conn;
                let _ = conn.set_write_timeout(Some(Duration::from_secs(5)));
                let _ = write_json(
                    &mut conn,
                    429,
                    "Too Many Requests",
                    &Json::obj([
                        ("error", Json::str("overloaded")),
                        ("max_inflight", Json::UInt(max_inflight as u64)),
                    ])
                    .to_string(),
                );
                continue;
            }
            shared.metrics.inflight.add(1);
            if tx.send(conn).is_err() {
                break;
            }
        }
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// An admitted request's hold on one `serve.inflight` slot.
struct Slot {
    inflight: Arc<Gauge>,
    held: AtomicBool,
}

impl Slot {
    fn new(inflight: Arc<Gauge>) -> Slot {
        Slot {
            inflight,
            held: AtomicBool::new(true),
        }
    }

    /// Give the slot back (once): just before the last write of the
    /// reply, since a client that reads by `Content-Length` sends its
    /// next request as soon as it has the last byte, and that request
    /// must not find this one still counted.
    fn release(&self) {
        if self.held.swap(false, Ordering::SeqCst) {
            self.inflight.add(-1);
        }
    }
}

/// A complete `Content-Length` reply; the worker writes it after
/// giving back the request's slot.
struct Reply {
    status: u16,
    reason: &'static str,
    body: String,
}

impl Reply {
    /// A compact JSON reply.
    fn json(status: u16, reason: &'static str, body: &Json) -> Option<Reply> {
        Some(Reply {
            status,
            reason,
            body: body.to_string(),
        })
    }

    /// `{"error": error}` plus `fields`.
    fn error(
        status: u16,
        reason: &'static str,
        error: &'static str,
        fields: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> Option<Reply> {
        let mut body = vec![("error", Json::str(error))];
        body.extend(fields);
        Reply::json(status, reason, &Json::obj(body))
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Take the lock only to receive: handling happens unlocked so
        // the other workers keep draining the queue.
        let conn = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match conn {
            Ok(mut conn) => {
                let t0 = Instant::now();
                let slot = Arc::new(Slot::new(shared.metrics.inflight.clone()));
                let reply = handle_connection(shared, &mut conn, &slot);
                slot.release();
                if let Some(reply) = reply {
                    let _ = write_json(&mut conn, reply.status, reply.reason, &reply.body);
                }
                shared
                    .metrics
                    .request_wall
                    .observe(t0.elapsed().as_nanos() as u64);
            }
            Err(_) => break, // accept loop gone and queue drained
        }
    }
}

/// Read and route one request. `None` when there is nothing left to
/// write: the client hung up, or a streamed reply already went out.
fn handle_connection(shared: &Shared, conn: &mut TcpStream, slot: &Arc<Slot>) -> Option<Reply> {
    let _ = conn.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(30)));
    let _ = conn.set_nodelay(true);
    shared.metrics.requests.add(1);
    match read_request(conn, shared.cfg.max_body_bytes) {
        Ok(req) => route(shared, &req, conn, slot),
        Err(HttpError::Disconnected) => None,
        Err(e) => {
            let (status, reason) = e.status();
            let message = match e {
                HttpError::Timeout => "request read timed out".to_string(),
                HttpError::TooLarge => "request larger than the configured cap".to_string(),
                HttpError::Malformed(m) => m,
                HttpError::Disconnected => unreachable!("handled above"),
            };
            Reply::json(
                status,
                reason,
                &Json::obj([
                    (
                        "error",
                        Json::str(reason.to_ascii_lowercase().replace(' ', "-")),
                    ),
                    ("message", Json::str(message)),
                ]),
            )
        }
    }
}

fn route(shared: &Shared, req: &Request, conn: &mut TcpStream, slot: &Arc<Slot>) -> Option<Reply> {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Reply::json(
            200,
            "OK",
            &Json::obj([
                ("status", Json::str("ok")),
                ("cached_circuits", Json::UInt(shared.cache.len() as u64)),
            ]),
        ),
        ("GET", ["metrics"]) => Some(Reply {
            status: 200,
            reason: "OK",
            body: snapshot_json(&shared.registry.snapshot()).pretty(),
        }),
        ("POST", ["admin", "shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            wake_accept_loop(shared.addr);
            Reply::json(200, "OK", &Json::obj([("status", Json::str("draining"))]))
        }
        ("POST", ["circuits"]) => handle_ingest(shared, req, conn, slot),
        ("GET", ["circuits", hash]) => handle_status(shared, hash),
        ("POST", ["circuits", hash, "explore"]) => handle_explore(shared, req, hash, conn, slot),
        ("GET" | "POST", ["healthz" | "metrics" | "circuits" | "admin", ..]) => {
            Reply::error(405, "Method Not Allowed", "method-not-allowed", [])
        }
        _ => Reply::error(404, "Not Found", "not-found", []),
    }
}

/// The accept loop blocks in `accept()`; after setting the shutdown
/// flag, poke it with a throwaway loopback connection so it notices.
fn wake_accept_loop(addr: SocketAddr) {
    let ip = match addr.ip() {
        ip if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), Duration::from_secs(1));
}

/// The JSON body describing one cached circuit.
fn circuit_json(meta: &CircuitMeta, cached: bool, explores: u64) -> Json {
    Json::obj([
        ("hash", Json::str(meta.hash.clone())),
        ("cached", Json::Bool(cached)),
        ("circuit", Json::str(meta.circuit.clone())),
        ("num_inputs", Json::UInt(meta.num_inputs as u64)),
        ("num_outputs", Json::UInt(meta.num_outputs as u64)),
        ("gates", Json::UInt(meta.gates as u64)),
        ("clusters", Json::UInt(meta.clusters as u64)),
        ("profile_wall_ns", Json::UInt(meta.profile_wall_ns)),
        ("explores", Json::UInt(explores)),
    ])
}

fn bad_request(message: impl Into<String>) -> Option<Reply> {
    Reply::error(
        400,
        "Bad Request",
        "bad-request",
        [("message", Json::str(message.into()))],
    )
}

fn unknown_circuit(hash: &str) -> Option<Reply> {
    Reply::error(
        404,
        "Not Found",
        "unknown-circuit",
        [("hash", Json::str(hash.to_string()))],
    )
}

fn flow_error_response(err: &FlowError) -> Option<Reply> {
    match err {
        FlowError::InvalidNetlist(diags) => Reply::error(
            400,
            "Bad Request",
            "invalid-netlist",
            [("diagnostics", diagnostics_json(diags))],
        ),
        FlowError::BudgetExhausted => Reply::error(
            503,
            "Service Unavailable",
            "profile-budget-exhausted",
            [(
                "message",
                Json::str("profiling exceeded the server's wall budget"),
            )],
        ),
        other => bad_request(format!("{other}")),
    }
}

/// `POST /circuits` — lint pre-flight, content hash, then profile
/// into the cache (or answer from it). `?stream=1` upgrades to a
/// chunked ndjson response with decompose/profile progress events
/// before the final summary.
fn handle_ingest(
    shared: &Shared,
    req: &Request,
    conn: &mut TcpStream,
    slot: &Arc<Slot>,
) -> Option<Reply> {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) if !t.trim().is_empty() => t,
        Ok(_) => return bad_request("empty body; POST the BLIF source"),
        Err(_) => return bad_request("body is not UTF-8 BLIF text"),
    };
    // The same pre-flight the CLI runs: syntax, then error-level
    // lints over the *document* (carrying source locations), then
    // netlist construction.
    let doc = match parse_blif_doc(text) {
        Ok(doc) => doc,
        Err(e) => return bad_request(format!("BLIF parse error: {e}")),
    };
    let diags = run_error_lints(&LintTarget::new().with_doc(&doc));
    if !diags.is_empty() {
        return flow_error_response(&FlowError::InvalidNetlist(diags));
    }
    let nl = match doc.build() {
        Ok(nl) => nl,
        Err(e) => return bad_request(format!("BLIF build error: {e}")),
    };
    let hash = nl.content_hash_hex();

    if let Some(entry) = shared.cache.get(&hash) {
        shared.metrics.cache_hits.add(1);
        let body = circuit_json(&entry.meta, true, entry.explores.load(Ordering::Relaxed));
        return Reply::json(200, "OK", &body);
    }
    shared.metrics.cache_misses.add(1);

    let mut flow_cfg = FlowConfig::new()
        .samples(shared.cfg.samples)
        .seed(shared.cfg.seed)
        .limits(shared.cfg.limits.0, shared.cfg.limits.1)
        .parallelism(shared.cfg.parallelism)
        .metrics(shared.registry.clone());
    if let Some(wall) = shared.cfg.profile_wall {
        flow_cfg = flow_cfg.wall_budget(wall);
    }

    // Streaming: attach a disarmable observer bridge so decompose /
    // profile progress flows down the chunked response while the
    // session is being built. The bridge stays attached to the cached
    // session but is disarmed before the handler returns, so later
    // explorations see a no-op session observer.
    let bridge = if req.query_flag("stream") {
        match conn
            .try_clone()
            .and_then(|c| ChunkedWriter::start(c, 201, "Created", "application/x-ndjson"))
            .and_then(|writer| StreamBridge::start(writer, slot.clone(), None))
        {
            Ok(bridge) => {
                let bridge = Arc::new(bridge);
                flow_cfg = flow_cfg.observer_shared(bridge.clone());
                Some(bridge)
            }
            Err(_) => return None,
        }
    } else {
        None
    };

    let t0 = Instant::now();
    let session = FlowSession::open(&nl, flow_cfg).and_then(FlowSession::profile);
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            if let Some(bridge) = &bridge {
                bridge.error(&format!("{e}"));
                return None;
            }
            return flow_error_response(&e);
        }
    };
    let profile_wall_ns = t0.elapsed().as_nanos() as u64;

    let entry = Arc::new(CacheEntry {
        meta: CircuitMeta {
            hash: hash.clone(),
            circuit: nl.name().to_string(),
            num_inputs: nl.num_inputs(),
            num_outputs: nl.num_outputs(),
            gates: nl.gate_count(),
            clusters: session.clusters(),
            profile_wall_ns,
        },
        session,
        explores: std::sync::atomic::AtomicU64::new(0),
    });
    if shared.cache.insert(entry.clone()).is_some() {
        shared.metrics.cache_evictions.add(1);
    }

    let body = circuit_json(&entry.meta, false, 0);
    match bridge {
        Some(bridge) => {
            bridge.done(body);
            None
        }
        None => Reply::json(201, "Created", &body),
    }
}

/// `GET /circuits/{hash}` — cache status for one hash.
fn handle_status(shared: &Shared, hash: &str) -> Option<Reply> {
    match shared.cache.get(hash) {
        Some(entry) => {
            let body = circuit_json(&entry.meta, true, entry.explores.load(Ordering::Relaxed));
            Reply::json(200, "OK", &body)
        }
        None => unknown_circuit(hash),
    }
}

/// The parsed body of an explore request.
struct ExploreRequest {
    spec: ExploreSpec,
    metric: blasys_core::QorMetric,
    threshold: f64,
    explorer: blasys_core::Explorer,
    stream: bool,
}

fn parse_explore_request(shared: &Shared, body: &[u8]) -> Result<ExploreRequest, String> {
    let mut metric = shared.cfg.metric;
    let mut threshold = shared.cfg.threshold;
    let mut explorer = shared.cfg.explorer;
    let mut exhaust = false;
    let mut prune = true;
    let mut max_probes = None;
    let mut max_wall_ms = None;
    let mut stream = false;

    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if !text.trim().is_empty() {
        let parsed = json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
        let fields = match parsed {
            Json::Obj(fields) => fields,
            _ => return Err("body must be a JSON object".to_string()),
        };
        for (key, value) in &fields {
            match key.as_str() {
                "metric" => {
                    let name = value.as_str().ok_or("`metric` must be a string")?;
                    metric =
                        parse_metric(name).ok_or_else(|| format!("unknown metric `{name}`"))?;
                }
                "threshold" => {
                    threshold = value.as_f64().ok_or("`threshold` must be a number")?;
                    if threshold.is_nan() || threshold < 0.0 {
                        return Err("`threshold` must be >= 0".to_string());
                    }
                }
                "exhaust" => exhaust = value.as_bool().ok_or("`exhaust` must be a boolean")?,
                "explorer" => {
                    let name = value.as_str().ok_or("`explorer` must be a string")?;
                    explorer =
                        parse_explorer(name).ok_or_else(|| format!("unknown explorer `{name}`"))?;
                }
                "prune" => prune = value.as_bool().ok_or("`prune` must be a boolean")?,
                "max_probes" => {
                    max_probes = Some(value.as_u64().ok_or("`max_probes` must be an integer")?);
                }
                "max_wall_ms" => {
                    max_wall_ms = Some(value.as_u64().ok_or("`max_wall_ms` must be an integer")?);
                }
                "stream" => stream = value.as_bool().ok_or("`stream` must be a boolean")?,
                other => return Err(format!("unknown field `{other}`")),
            }
        }
    }

    let mut spec = ExploreSpec::new()
        .metric(metric)
        .explorer(explorer)
        .prune(prune);
    spec = if exhaust {
        spec.exhaust()
    } else {
        spec.threshold(threshold)
    };
    if let Some(probes) = max_probes {
        spec = spec.probe_budget(probes);
    }
    // The request wall budget, clamped by the server-wide cap.
    let wall = match (
        max_wall_ms.map(Duration::from_millis),
        shared.cfg.explore_wall_cap,
    ) {
        (Some(req), Some(cap)) => Some(req.min(cap)),
        (Some(req), None) => Some(req),
        (None, cap) => cap,
    };
    if let Some(wall) = wall {
        spec = spec.wall_budget(wall);
    }
    Ok(ExploreRequest {
        spec,
        metric,
        threshold,
        explorer,
        stream,
    })
}

/// `POST /circuits/{hash}/explore` — replay one exploration against
/// the cached profile. Budget- or cancel-truncated runs are 200s with
/// the truncation named in `stop_reason`, never errors.
fn handle_explore(
    shared: &Shared,
    req: &Request,
    hash: &str,
    conn: &mut TcpStream,
    slot: &Arc<Slot>,
) -> Option<Reply> {
    let Some(entry) = shared.cache.get(hash) else {
        return unknown_circuit(hash);
    };
    let parsed = match parse_explore_request(shared, &req.body) {
        Ok(p) => p,
        Err(message) => return bad_request(message),
    };
    let stream = parsed.stream || req.query_flag("stream");

    // A client that disconnects mid-stream cancels its exploration.
    let cancel = CancelToken::new();
    let spec = parsed.spec.cancel(cancel.clone());

    let bridge = if stream {
        match conn
            .try_clone()
            .and_then(|c| ChunkedWriter::start(c, 200, "OK", "application/x-ndjson"))
            .and_then(|writer| StreamBridge::start(writer, slot.clone(), Some(cancel)))
        {
            Ok(bridge) => Some(Arc::new(bridge)),
            Err(_) => return None,
        }
    } else {
        None
    };

    let observer = bridge.as_ref().map(|b| b.as_ref() as &dyn FlowObserver);
    let exploration = entry.session.explore_with(&spec, observer);
    entry.record_explore();

    let result = entry.session.result(&exploration);
    // Step selection mirrors `blasys run`: the deepest step whose
    // error stays under the threshold, falling back to the exact
    // design.
    let step = result
        .best_step_under(parsed.metric, parsed.threshold)
        .unwrap_or(0);
    let synthesized = result.synthesize_step(step);
    let report = FlowReport::from_result_with_netlist(&result, step, &synthesized)
        .with_explorer(parsed.explorer);

    let envelope = Json::obj([
        ("hash", Json::str(hash.to_string())),
        (
            "stop_reason",
            Json::str(stop_reason_name(exploration.stop_reason())),
        ),
        ("probes", Json::UInt(exploration.probes())),
        (
            "trajectory_points",
            Json::UInt(exploration.trajectory().len() as u64),
        ),
        ("metric", Json::str(metric_name(parsed.metric))),
        ("explorer", Json::str(explorer_name(&parsed.explorer))),
        ("step", Json::UInt(step as u64)),
        ("report", report.to_json()),
    ]);
    match bridge {
        Some(bridge) => {
            bridge.done(envelope);
            None
        }
        None => Reply::json(200, "OK", &envelope),
    }
}

/// A [`FlowObserver`] that forwards flow progress down a chunked
/// HTTP response as ndjson events, one object per line:
/// `{"event": "stage" | "window" | "step" | "error" | "done", ...}`.
///
/// Callbacks only queue their line; the bridge's own writer thread
/// does the socket I/O. Profiling reports each window from a worker
/// of the process-wide pool, so a client that stops reading stalls
/// this writer thread alone, never a worker other requests' sweeps
/// wait for.
///
/// The first write failure (client hung up, or stopped reading past
/// the write timeout) ends the writer thread and trips the request's
/// [`CancelToken`] when one is attached; later lines are dropped.
/// Ingest leaves the closed bridge attached to the cached session,
/// where it stays inert.
struct StreamBridge {
    /// Lines for the writer thread; `None` once the stream is closed
    /// or the writer gave up.
    queue: Mutex<Option<mpsc::Sender<String>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    /// The request's admission slot, given back before the last chunk.
    slot: Arc<Slot>,
}

impl StreamBridge {
    /// Hand `sink` to a new writer thread; `Err` if none could be
    /// spawned.
    fn start<W: Write + Send + 'static>(
        mut sink: ChunkedWriter<W>,
        slot: Arc<Slot>,
        cancel: Option<CancelToken>,
    ) -> io::Result<StreamBridge> {
        let (queue, lines) = mpsc::channel::<String>();
        let writer = std::thread::Builder::new()
            .name("blasys-serve-stream".to_string())
            .spawn(move || {
                for line in lines {
                    if sink.send(line.as_bytes()).is_err() {
                        if let Some(cancel) = cancel {
                            cancel.cancel();
                        }
                        return;
                    }
                }
                let _ = sink.finish();
            })?;
        Ok(StreamBridge {
            queue: Mutex::new(Some(queue)),
            writer: Mutex::new(Some(writer)),
            slot,
        })
    }

    fn emit(&self, event: Json) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tx) = queue.as_ref() {
            let mut line = event.to_string();
            line.push('\n');
            if tx.send(line).is_err() {
                *queue = None;
            }
        }
    }

    /// Close the stream: give back the admission slot, then let the
    /// writer thread send every queued line and the final chunk; wait
    /// for it.
    fn close(&self) {
        self.slot.release();
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).take();
        let writer = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(writer) = writer {
            let _ = writer.join();
        }
    }

    /// Final event: emit, then close the chunked stream.
    fn done(&self, mut body: Json) {
        if let Json::Obj(fields) = &mut body {
            fields.insert(0, ("event".to_string(), Json::str("done")));
        }
        self.emit(body);
        self.close();
    }

    /// Terminal failure on a streaming response: the head already
    /// went out, so the error travels as the last event.
    fn error(&self, message: &str) {
        self.emit(Json::obj([
            ("event", Json::str("error")),
            ("message", Json::str(message.to_string())),
        ]));
        self.close();
    }
}

impl FlowObserver for StreamBridge {
    fn on_stage_start(&self, stage: FlowStage) {
        self.emit(Json::obj([
            ("event", Json::str("stage")),
            ("stage", Json::str(stage.name())),
            ("phase", Json::str("start")),
        ]));
    }

    fn on_stage_end(&self, stage: FlowStage) {
        self.emit(Json::obj([
            ("event", Json::str("stage")),
            ("stage", Json::str(stage.name())),
            ("phase", Json::str("end")),
        ]));
    }

    fn on_window_profiled(&self, profile: &SubcircuitProfile, total_windows: usize) {
        self.emit(Json::obj([
            ("event", Json::str("window")),
            ("cluster", Json::UInt(profile.cluster as u64)),
            ("total", Json::UInt(total_windows as u64)),
        ]));
    }

    fn on_trajectory_point(&self, point: &TrajectoryPoint) {
        self.emit(Json::obj([
            ("event", Json::str("step")),
            ("step", Json::UInt(point.step as u64)),
            (
                "changed_cluster",
                match point.changed_cluster {
                    Some(c) => Json::UInt(c as u64),
                    None => Json::Null,
                },
            ),
            ("model_area_um2", Json::Num(point.model_area_um2)),
        ]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_core::Parallelism;
    use std::sync::mpsc::RecvTimeoutError;

    /// A streaming client that takes the response head, then stops
    /// reading at the first window event: that write blocks until the
    /// test hangs up (`release` dropped) or 20 s pass, the latter
    /// standing in for the socket write timeout.
    struct StalledClient {
        stalled: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
        timed_out: Arc<AtomicBool>,
    }

    impl Write for StalledClient {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !buf.windows(8).any(|w| w == b"\"window\"") {
                return Ok(buf.len());
            }
            let _ = self.stalled.send(());
            if let Err(RecvTimeoutError::Timeout) =
                self.release.recv_timeout(Duration::from_secs(20))
            {
                self.timed_out.store(true, Ordering::SeqCst);
            }
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stalled_stream_client_does_not_hold_the_shared_pool() {
        // A streaming ingest whose client stops reading profiles on the
        // same shared pool as another session's explore; the explore
        // finishes while that client still stalls.
        let nl = blasys_circuits::multiplier(4);
        let cfg = || {
            FlowConfig::new()
                .samples(256)
                .limits(4, 4)
                .parallelism(Parallelism::Threads(2))
        };
        let other = FlowSession::open(&nl, cfg())
            .and_then(FlowSession::profile)
            .unwrap();
        assert!(other.clusters() >= 4, "the ingest must profile on the pool");

        let (stalled_tx, stalled) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let timed_out = Arc::new(AtomicBool::new(false));
        let client = StalledClient {
            stalled: stalled_tx,
            release: release_rx,
            timed_out: timed_out.clone(),
        };
        let sink = ChunkedWriter::start(client, 201, "Created", "application/x-ndjson").unwrap();
        let slot = Arc::new(Slot::new(Registry::new().gauge("serve.inflight")));
        let bridge = Arc::new(StreamBridge::start(sink, slot, None).unwrap());
        std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                let cfg = cfg().observer_shared(bridge.clone());
                let profiled = FlowSession::open(&nl, cfg).and_then(FlowSession::profile);
                bridge.done(Json::obj([]));
                profiled.is_ok()
            });
            stalled
                .recv_timeout(Duration::from_secs(60))
                .expect("a window event reached the client");
            let explored = other.explore(&ExploreSpec::new().threshold(0.05));
            assert!(explored.probes() > 0);
            assert!(
                !timed_out.load(Ordering::SeqCst),
                "the explore waited for the stalled client's write to time out"
            );
            drop(release);
            assert!(ingest.join().unwrap(), "the ingest profiled");
        });
    }
}

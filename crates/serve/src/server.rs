//! The daemon: accept loop, admission control, worker pool, routing,
//! and the request handlers that bridge HTTP onto the staged
//! [`FlowSession`] API.
//!
//! Threading model: one accept thread (the caller of [`Server::run`])
//! plus `max_inflight` worker threads sharing an [`mpsc`] channel.
//! Admission is exact — the accept thread counts in-flight requests
//! on the `serve.inflight` gauge and answers 429 inline once the
//! bound is reached, so a worker is always available for an admitted
//! connection. Graceful shutdown (`POST /admin/shutdown`) sets a flag
//! and wakes the accept loop with a loopback connection; queued and
//! in-flight requests drain before [`Server::run`] returns.

use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use blasys_core::report::{
    diagnostics_json, explorer_name, metric_name, parse_explorer, parse_metric, snapshot_json,
    stop_reason_name, FlowReport,
};
use blasys_core::{
    CancelToken, ExploreSpec, FlowConfig, FlowError, FlowObserver, FlowSession, FlowStage, Json,
    SubcircuitProfile, TrajectoryPoint,
};
use blasys_lint::{run_error_lints, LintConfig, LintTarget};
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
                handle_connection(shared, &mut conn);
                // Free the admission slot before closing: a closed-loop
                // client reconnects the moment it sees the close and
                // must not find its finished request still counted.
                shared.metrics.inflight.add(-1);
                drop(conn);
            }
            Err(_) => break, // accept loop gone and queue drained
        }
    }
}

fn handle_connection(shared: &Shared, conn: &mut TcpStream) {
    let t0 = Instant::now();
    let _ = conn.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(30)));
    let _ = conn.set_nodelay(true);
    shared.metrics.requests.add(1);
    match read_request(conn, shared.cfg.max_body_bytes) {
        Ok(req) => route(shared, &req, conn),
        Err(HttpError::Disconnected) => {}
        Err(e) => {
            let (status, reason) = e.status();
            let message = match e {
                HttpError::Timeout => "request read timed out".to_string(),
                HttpError::TooLarge => "request larger than the configured cap".to_string(),
                HttpError::Malformed(m) => m,
                HttpError::Disconnected => unreachable!("handled above"),
            };
            let _ = write_json(
                conn,
                status,
                reason,
                &Json::obj([
                    (
                        "error",
                        Json::str(reason.to_ascii_lowercase().replace(' ', "-")),
                    ),
                    ("message", Json::str(message)),
                ])
                .to_string(),
            );
        }
    }
    shared
        .metrics
        .request_wall
        .observe(t0.elapsed().as_nanos() as u64);
}

fn route(shared: &Shared, req: &Request, conn: &mut TcpStream) {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let body = Json::obj([
                ("status", Json::str("ok")),
                ("cached_circuits", Json::UInt(shared.cache.len() as u64)),
            ]);
            let _ = write_json(conn, 200, "OK", &body.to_string());
        }
        ("GET", ["metrics"]) => {
            let body = snapshot_json(&shared.registry.snapshot());
            let _ = write_json(conn, 200, "OK", &body.pretty());
        }
        ("POST", ["admin", "shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            wake_accept_loop(shared.addr);
            let _ = write_json(
                conn,
                200,
                "OK",
                &Json::obj([("status", Json::str("draining"))]).to_string(),
            );
        }
        ("POST", ["circuits"]) => handle_ingest(shared, req, conn),
        ("GET", ["circuits", hash]) => handle_status(shared, hash, conn),
        ("POST", ["circuits", hash, "explore"]) => handle_explore(shared, req, hash, conn),
        ("GET" | "POST", ["healthz" | "metrics" | "circuits" | "admin", ..]) => {
            let _ = write_json(
                conn,
                405,
                "Method Not Allowed",
                &Json::obj([("error", Json::str("method-not-allowed"))]).to_string(),
            );
        }
        _ => {
            let _ = write_json(
                conn,
                404,
                "Not Found",
                &Json::obj([("error", Json::str("not-found"))]).to_string(),
            );
        }
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

fn bad_request(conn: &mut TcpStream, message: impl Into<String>) {
    let _ = write_json(
        conn,
        400,
        "Bad Request",
        &Json::obj([
            ("error", Json::str("bad-request")),
            ("message", Json::str(message.into())),
        ])
        .to_string(),
    );
}

fn flow_error_response(conn: &mut TcpStream, err: &FlowError) {
    match err {
        FlowError::InvalidNetlist(diags) => {
            let _ = write_json(
                conn,
                400,
                "Bad Request",
                &Json::obj([
                    ("error", Json::str("invalid-netlist")),
                    ("diagnostics", diagnostics_json(diags)),
                ])
                .to_string(),
            );
        }
        FlowError::BudgetExhausted => {
            let _ = write_json(
                conn,
                503,
                "Service Unavailable",
                &Json::obj([
                    ("error", Json::str("profile-budget-exhausted")),
                    (
                        "message",
                        Json::str("profiling exceeded the server's wall budget"),
                    ),
                ])
                .to_string(),
            );
        }
        other => bad_request(conn, format!("{other}")),
    }
}

/// `POST /circuits` — lint pre-flight, content hash, then profile
/// into the cache (or answer from it). `?stream=1` upgrades to a
/// chunked ndjson response with decompose/profile progress events
/// before the final summary.
fn handle_ingest(shared: &Shared, req: &Request, conn: &mut TcpStream) {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) if !t.trim().is_empty() => t,
        Ok(_) => return bad_request(conn, "empty body; POST the BLIF source"),
        Err(_) => return bad_request(conn, "body is not UTF-8 BLIF text"),
    };
    // The same pre-flight the CLI runs: syntax, then error-level
    // lints over the *document* (carrying source locations), then
    // netlist construction.
    let doc = match parse_blif_doc(text) {
        Ok(doc) => doc,
        Err(e) => return bad_request(conn, format!("BLIF parse error: {e}")),
    };
    let diags = run_error_lints(&LintTarget::new().with_doc(&doc), &LintConfig::default());
    if !diags.is_empty() {
        return flow_error_response(conn, &FlowError::InvalidNetlist(diags));
    }
    let nl = match doc.build() {
        Ok(nl) => nl,
        Err(e) => return bad_request(conn, format!("BLIF build error: {e}")),
    };
    let hash = nl.content_hash_hex();

    if let Some(entry) = shared.cache.get(&hash) {
        shared.metrics.cache_hits.add(1);
        let body = circuit_json(&entry.meta, true, entry.explores.load(Ordering::Relaxed));
        let _ = write_json(conn, 200, "OK", &body.to_string());
        return;
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
        {
            Ok(writer) => {
                let bridge = Arc::new(StreamBridge::new(writer, None));
                flow_cfg = flow_cfg.observer_shared(bridge.clone());
                Some(bridge)
            }
            Err(_) => return,
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
                return;
            }
            return flow_error_response(conn, &e);
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
        explore_lock: Mutex::new(()),
        explores: std::sync::atomic::AtomicU64::new(0),
    });
    if shared.cache.insert(entry.clone()).is_some() {
        shared.metrics.cache_evictions.add(1);
    }

    let body = circuit_json(&entry.meta, false, 0);
    match bridge {
        Some(bridge) => bridge.done(body),
        None => {
            let _ = write_json(conn, 201, "Created", &body.to_string());
        }
    }
}

/// `GET /circuits/{hash}` — cache status for one hash.
fn handle_status(shared: &Shared, hash: &str, conn: &mut TcpStream) {
    match shared.cache.get(hash) {
        Some(entry) => {
            let body = circuit_json(&entry.meta, true, entry.explores.load(Ordering::Relaxed));
            let _ = write_json(conn, 200, "OK", &body.to_string());
        }
        None => {
            let _ = write_json(
                conn,
                404,
                "Not Found",
                &Json::obj([
                    ("error", Json::str("unknown-circuit")),
                    ("hash", Json::str(hash.to_string())),
                ])
                .to_string(),
            );
        }
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
fn handle_explore(shared: &Shared, req: &Request, hash: &str, conn: &mut TcpStream) {
    let entry = match shared.cache.get(hash) {
        Some(entry) => entry,
        None => {
            let _ = write_json(
                conn,
                404,
                "Not Found",
                &Json::obj([
                    ("error", Json::str("unknown-circuit")),
                    ("hash", Json::str(hash.to_string())),
                ])
                .to_string(),
            );
            return;
        }
    };
    let parsed = match parse_explore_request(shared, &req.body) {
        Ok(p) => p,
        Err(message) => return bad_request(conn, message),
    };
    let stream = parsed.stream || req.query_flag("stream");

    // A client that disconnects mid-stream cancels its exploration.
    let cancel = CancelToken::new();
    let spec = parsed.spec.cancel(cancel.clone());

    let bridge = if stream {
        match conn
            .try_clone()
            .and_then(|c| ChunkedWriter::start(c, 200, "OK", "application/x-ndjson"))
        {
            Ok(writer) => Some(Arc::new(StreamBridge::new(writer, Some(cancel)))),
            Err(_) => return,
        }
    } else {
        None
    };

    let exploration = {
        // One exploration at a time per cached session: its worker
        // pool and pristine-evaluator cache are session-level.
        let _guard = entry.explore_lock.lock().unwrap_or_else(|e| e.into_inner());
        let observer = bridge.as_ref().map(|b| b.as_ref() as &dyn FlowObserver);
        entry.session.explore_with(&spec, observer)
    };
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
        Some(bridge) => bridge.done(envelope),
        None => {
            let _ = write_json(conn, 200, "OK", &envelope.to_string());
        }
    }
}

/// A [`FlowObserver`] that forwards flow progress down a chunked
/// HTTP response as ndjson events, one object per line:
/// `{"event": "stage" | "window" | "step" | "error" | "done", ...}`.
///
/// The sink is disarmable: the first write failure (client hung up)
/// drops it, trips the request's [`CancelToken`] when one is
/// attached, and every later callback becomes a no-op. Ingest leaves
/// the disarmed bridge attached to the cached session, where it
/// stays inert.
struct StreamBridge {
    sink: Mutex<Option<ChunkedWriter<TcpStream>>>,
    cancel: Option<CancelToken>,
}

impl StreamBridge {
    fn new(writer: ChunkedWriter<TcpStream>, cancel: Option<CancelToken>) -> StreamBridge {
        StreamBridge {
            sink: Mutex::new(Some(writer)),
            cancel,
        }
    }

    fn emit(&self, event: Json) {
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(writer) = guard.as_mut() {
            let mut line = event.to_string();
            line.push('\n');
            if writer.send(line.as_bytes()).is_err() {
                *guard = None;
                if let Some(cancel) = &self.cancel {
                    cancel.cancel();
                }
            }
        }
    }

    /// Final event: emit, then close the chunked stream.
    fn done(&self, mut body: Json) {
        if let Json::Obj(fields) = &mut body {
            fields.insert(0, ("event".to_string(), Json::str("done")));
        }
        self.emit(body);
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(writer) = guard.take() {
            let _ = writer.finish();
        }
    }

    /// Terminal failure on a streaming response: the head already
    /// went out, so the error travels as the last event.
    fn error(&self, message: &str) {
        self.emit(Json::obj([
            ("event", Json::str("error")),
            ("message", Json::str(message.to_string())),
        ]));
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(writer) = guard.take() {
            let _ = writer.finish();
        }
    }
}

fn stage_name(stage: FlowStage) -> &'static str {
    match stage {
        FlowStage::Decompose => "decompose",
        FlowStage::Profile => "profile",
        FlowStage::Explore => "explore",
    }
}

impl FlowObserver for StreamBridge {
    fn on_stage_start(&self, stage: FlowStage) {
        self.emit(Json::obj([
            ("event", Json::str("stage")),
            ("stage", Json::str(stage_name(stage))),
            ("phase", Json::str("start")),
        ]));
    }

    fn on_stage_end(&self, stage: FlowStage) {
        self.emit(Json::obj([
            ("event", Json::str("stage")),
            ("stage", Json::str(stage_name(stage))),
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

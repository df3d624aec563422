//! End-to-end acceptance suite for `blasys-serve`, driven over real
//! sockets (`std::net::TcpStream`) against an in-process [`Server`]:
//!
//! * two identical ingests profile **once** (`serve.cache.misses`
//!   stays 1, `flow.profile.wall_ns` stops moving) and an explore
//!   through the service is **bit-identical** to the same exploration
//!   on a directly-opened offline session;
//! * a zero-wall-budget explore is a 200 carrying a well-formed
//!   partial result with `stop_reason: "wall-budget"`;
//! * malformed BLIF → 400 with lint diagnostics; oversized body →
//!   413; a stalled sender → 408; the cache never exceeds its bound
//!   (LRU eviction counted); graceful shutdown drains in-flight work;
//!   a closed-loop client is never refused for a finished request;
//! * a beam explore with an absurd width is answered, and the server
//!   keeps serving afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use blasys_repro::blasys::report::FlowReport;
use blasys_repro::blasys::session::{ExploreSpec, FlowConfig, FlowSession};
use blasys_repro::blasys::QorMetric;
use blasys_repro::circuits::{adder, multiplier};
use blasys_repro::logic::blif::{from_blif, to_blif};
use blasys_repro::serve::json::{self, JsonExt};
use blasys_repro::serve::{Server, ServerConfig};

const SAMPLES: usize = 512;
const SEED: u64 = 41;

/// A parsed response: status line code, headers, body text.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn json(&self) -> blasys_repro::blasys::Json {
        json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body ({e}): {}", self.body))
    }
}

/// Speak just enough HTTP/1.1 to exercise the server over a socket.
/// Write errors are ignored and the read stops at the first error:
/// a server that answers 413 and closes before draining the body is
/// correct behavior, not a test failure.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let _ = write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    assert!(!raw.is_empty(), "no response for {method} {path}");
    let raw = String::from_utf8(raw).expect("UTF-8 response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v == "chunked");
    let body = if chunked {
        decode_chunked(payload)
    } else {
        payload.to_string()
    };
    Response {
        status,
        headers,
        body,
    }
}

fn decode_chunked(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..]; // skip the chunk's trailing CRLF
    }
}

/// Start a server on an ephemeral port; returns its address, registry,
/// and the join handle that completes after graceful shutdown.
fn start(
    cfg: ServerConfig,
) -> (
    SocketAddr,
    std::sync::Arc<blasys_repro::obs::Registry>,
    std::thread::JoinHandle<()>,
) {
    let server = Server::bind(cfg.addr("127.0.0.1:0")).expect("bind");
    let addr = server.local_addr();
    let registry = server.registry();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, registry, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let resp = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(resp.status, 200);
    handle.join().expect("server thread");
}

fn test_config() -> ServerConfig {
    ServerConfig::new().samples(SAMPLES).seed(SEED).limits(4, 4)
}

#[test]
fn second_identical_ingest_skips_profiling_and_reports_are_bit_identical() {
    let (addr, registry, handle) = start(test_config());
    let blif = to_blif(&adder(4));

    let first = request(addr, "POST", "/circuits", &blif);
    assert_eq!(first.status, 201, "{}", first.body);
    assert!(
        first
            .headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "close"),
        "every response closes its connection"
    );
    let hash = first
        .json()
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(first.json().get("cached").unwrap().as_bool(), Some(false));

    let profile_ns_after_first = registry.snapshot().counter("flow.profile.wall_ns");
    assert!(profile_ns_after_first.is_some_and(|ns| ns > 0));

    // Identical circuit again: cache hit, zero profile-stage work.
    let second = request(addr, "POST", "/circuits", &blif);
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.json().get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        second.json().get("hash").unwrap().as_str(),
        Some(hash.as_str())
    );

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.cache.misses"), Some(1));
    assert_eq!(snap.counter("serve.cache.hits"), Some(1));
    assert_eq!(
        snap.counter("flow.profile.wall_ns"),
        profile_ns_after_first,
        "second ingest must do zero profile-stage work"
    );

    // The served exploration must be bit-identical to the same spec
    // on an offline session with the same settings.
    let served = request(
        addr,
        "POST",
        &format!("/circuits/{hash}/explore"),
        r#"{"metric": "avg-relative", "threshold": 0.05}"#,
    );
    assert_eq!(served.status, 200, "{}", served.body);
    let envelope = served.json();
    let served_report = envelope.get("report").expect("report field");

    // The offline flow must consume the same BLIF text: parsing
    // rebuilds covers as SOP gates, so the parsed netlist is
    // structurally different from the in-memory generator output
    // (that is exactly why the cache key is a *functional* hash).
    let nl = from_blif(&blif).expect("round trip");
    let session = FlowSession::open(
        &nl,
        FlowConfig::new().samples(SAMPLES).seed(SEED).limits(4, 4),
    )
    .and_then(FlowSession::profile)
    .expect("offline profile");
    let spec = ExploreSpec::new()
        .metric(QorMetric::AvgRelative)
        .threshold(0.05);
    let exploration = session.explore(&spec);
    let result = session.into_result(exploration);
    let step = result
        .best_step_under(QorMetric::AvgRelative, 0.05)
        .unwrap_or(0);
    let offline =
        FlowReport::from_result_with_netlist(&result, step, &result.synthesize_step(step))
            .with_explorer(blasys_repro::blasys::Explorer::Greedy);

    assert_eq!(
        served_report.to_string(),
        offline.to_json().to_string(),
        "service report must be bit-identical to the offline flow"
    );
    assert_eq!(envelope.get("step").unwrap().as_u64(), Some(step as u64));

    shutdown(addr, handle);
}

#[test]
fn zero_wall_budget_returns_partial_result_not_error() {
    let (addr, _registry, handle) = start(test_config());
    let blif = to_blif(&multiplier(3));
    let ingest = request(addr, "POST", "/circuits", &blif);
    assert_eq!(ingest.status, 201, "{}", ingest.body);
    let hash = ingest
        .json()
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    let resp = request(
        addr,
        "POST",
        &format!("/circuits/{hash}/explore"),
        r#"{"exhaust": true, "max_wall_ms": 0}"#,
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let envelope = resp.json();
    assert_eq!(
        envelope.get("stop_reason").unwrap().as_str(),
        Some("wall-budget")
    );
    // Truncated, but well-formed: the exact step 0 is always there.
    let points = envelope.get("trajectory_points").unwrap().as_u64().unwrap();
    assert!(points >= 1, "at least the exact design: {points}");
    assert!(envelope.get("report").is_some());

    shutdown(addr, handle);
}

#[test]
fn malformed_blif_is_rejected_with_diagnostics() {
    let (addr, _registry, handle) = start(test_config());

    // Combinational cycle: the L0004 lint rejects it pre-flight.
    let cyclic = ".model loop\n.inputs a\n.outputs z\n\
                  .names a y x\n11 1\n.names a x y\n11 1\n\
                  .names x z\n1 1\n.end\n";
    let resp = request(addr, "POST", "/circuits", cyclic);
    assert_eq!(resp.status, 400, "{}", resp.body);
    let body = resp.json();
    assert_eq!(body.get("error").unwrap().as_str(), Some("invalid-netlist"));
    let diags = match body.get("diagnostics") {
        Some(blasys_repro::blasys::Json::Arr(items)) => items.clone(),
        other => panic!("expected diagnostics array, got {other:?}"),
    };
    assert!(!diags.is_empty());
    assert!(
        diags.iter().any(|d| {
            d.get("lint")
                .and_then(|l| l.as_str())
                .is_some_and(|l| l.starts_with('L'))
        }),
        "diagnostics must carry lint ids: {}",
        resp.body
    );

    // Plain syntax garbage is also a 400, without diagnostics.
    let resp = request(addr, "POST", "/circuits", "this is not blif");
    assert_eq!(resp.status, 400, "{}", resp.body);

    shutdown(addr, handle);
}

#[test]
fn cache_never_exceeds_its_bound_and_evicts_lru() {
    let (addr, registry, handle) = start(test_config().cache_capacity(2));

    let circuits = [to_blif(&adder(2)), to_blif(&adder(3)), to_blif(&adder(4))];
    let mut hashes = Vec::new();
    for blif in &circuits {
        let resp = request(addr, "POST", "/circuits", blif);
        assert_eq!(resp.status, 201, "{}", resp.body);
        hashes.push(
            resp.json()
                .get("hash")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string(),
        );
    }

    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.cache.evictions"), Some(1));
    assert_eq!(snap.counter("serve.cache.misses"), Some(3));

    // The first (least recently used) circuit fell out...
    let resp = request(addr, "GET", &format!("/circuits/{}", hashes[0]), "");
    assert_eq!(resp.status, 404, "{}", resp.body);
    // ...the newer two are still cached.
    for hash in &hashes[1..] {
        let resp = request(addr, "GET", &format!("/circuits/{hash}"), "");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(
        health.json().get("cached_circuits").unwrap().as_u64(),
        Some(2)
    );

    shutdown(addr, handle);
}

#[test]
fn oversized_body_is_413_and_stalled_sender_is_408() {
    let (addr, _registry, handle) = start(
        test_config()
            .max_body_bytes(1024)
            .read_timeout(Duration::from_millis(200)),
    );

    let huge = "x".repeat(4096);
    let resp = request(addr, "POST", "/circuits", &huge);
    assert_eq!(resp.status, 413, "{}", resp.body);

    // Slowloris: send half a header and stall; the read timeout turns
    // it into a 408 instead of pinning the worker.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(b"POST /circuits HTTP/1.1\r\nConte")
        .expect("partial header");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read 408");
    assert!(raw.starts_with("HTTP/1.1 408"), "expected 408, got {raw:?}");

    shutdown(addr, handle);
}

#[test]
fn unknown_routes_fields_and_hashes_are_clean_errors() {
    let (addr, _registry, handle) = start(test_config());

    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "POST", "/healthz", "").status, 405);
    assert_eq!(
        request(addr, "POST", "/circuits/feedface00000000/explore", "").status,
        404
    );

    let blif = to_blif(&adder(2));
    let ingest = request(addr, "POST", "/circuits", &blif);
    let hash = ingest
        .json()
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let resp = request(
        addr,
        "POST",
        &format!("/circuits/{hash}/explore"),
        r#"{"thresold": 0.05}"#,
    );
    assert_eq!(resp.status, 400, "typo fields must be rejected");
    assert!(resp.body.contains("thresold"), "{}", resp.body);

    shutdown(addr, handle);
}

#[test]
fn huge_beam_width_is_answered_and_the_server_survives() {
    let (addr, _registry, handle) = start(test_config());
    let blif = to_blif(&adder(4));
    let ingest = request(addr, "POST", "/circuits", &blif);
    assert_eq!(ingest.status, 201, "{}", ingest.body);
    let hash = ingest
        .json()
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // Widths far past the design count keep every feasible child; no
    // buffer may be sized by the width itself.
    for width in ["1000000000000", "18446744073709551615"] {
        let resp = request(
            addr,
            "POST",
            &format!("/circuits/{hash}/explore"),
            &format!(r#"{{"threshold": 0.05, "explorer": "beam:{width}"}}"#),
        );
        assert_eq!(resp.status, 200, "beam:{width}: {}", resp.body);
        assert!(resp.json().get("report").is_some(), "{}", resp.body);
    }
    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200, "{}", metrics.body);

    shutdown(addr, handle);
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let (addr, _registry, handle) = start(test_config());
    let blif = to_blif(&multiplier(3));
    let ingest = request(addr, "POST", "/circuits", &blif);
    assert_eq!(ingest.status, 201, "{}", ingest.body);
    let hash = ingest
        .json()
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // Race an exhaustive explore against the shutdown: the explore is
    // admitted first, so the drain must let it finish with a full 200.
    let explore = {
        let path = format!("/circuits/{hash}/explore");
        std::thread::spawn(move || request(addr, "POST", &path, r#"{"exhaust": true}"#))
    };
    std::thread::sleep(Duration::from_millis(50));
    shutdown(addr, handle);

    let resp = explore.join().expect("explore thread");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.json().get("report").is_some());

    // The drained server is really gone.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener should be closed after drain"
    );

    shutdown_noop(addr);
}

/// A closed-loop client reconnects as soon as it reads the server's
/// close. The server frees its admission slot before closing, so at
/// `max_inflight(1)` every sequential request is admitted.
#[test]
fn sequential_closing_requests_are_never_refused() {
    let (addr, registry, handle) = start(test_config().max_inflight(1));
    for i in 0..250 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        write!(
            conn,
            "GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("send");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read to close");
        assert!(raw.starts_with("HTTP/1.1 200"), "request {i}: {raw}");
    }
    assert_eq!(registry.snapshot().counter("serve.rejected"), Some(0));
    shutdown(addr, handle);
}

/// Double-check nothing answers anymore (helper so the intent reads).
fn shutdown_noop(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
}

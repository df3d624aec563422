//! `query_mix`: an in-process `blasys-serve` on 127.0.0.1:0 (serial
//! sessions, cache capacity 8) driven by one closed-loop client, one
//! `Connection: close` request at a time.
//!
//! Set-up ingests Adder32, Mult8 and BUT plus the five shipped
//! `benchmarks/*.blif` (8 circuits for 8 cache slots). The timed phase
//! replays a seeded order of every circuit × threshold × metric ×
//! explorer explore request; every fifth request is a re-POST of a
//! cached circuit instead. Set-up is repeated on fresh servers and its
//! median reported; the timed requests go round-robin to all of them.
//! The servers keep their default Monte-Carlo seed: the workload seed
//! drives only what the client sends.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use blasys_logic::blif::to_blif;
use blasys_serve::{Server, ServerConfig};

use crate::http::{self, Reply};
use crate::json::{self, Value};
use crate::metrics::{answer_metrics, engine_layers, ratio, Counters, Outcome};
use crate::trace::Tracer;
use crate::util::{self, median, saving_pct, sub_seed, Fingerprint, SplitMix, SAMPLES};

const SUITE: [&str; 3] = ["Adder32", "Mult8", "BUT"];
const SHIPPED: [(&str, &str); 5] = [
    ("adder4", include_str!("../../benchmarks/adder4.blif")),
    ("adder8", include_str!("../../benchmarks/adder8.blif")),
    (
        "butterfly4",
        include_str!("../../benchmarks/butterfly4.blif"),
    ),
    ("mult3", include_str!("../../benchmarks/mult3.blif")),
    ("mult4", include_str!("../../benchmarks/mult4.blif")),
];
pub const THRESHOLDS: [f64; 5] = [0.01, 0.02, 0.05, 0.10, 0.25];
pub const METRICS: [&str; 2] = ["avg-relative", "bit-error-rate"];
pub const EXPLORERS: [&str; 2] = ["greedy", "beam:2"];
/// Every `REINGEST_EVERY`-th request re-POSTs a cached circuit.
pub const REINGEST_EVERY: usize = 5;
/// Set-up passes, each a fresh server plus every ingest; their median
/// is `setup_s`. Each ingest profiles a BLIF-parsed netlist whose
/// profile changes from pass to pass (Mult8 took 2.2 to 3.6 s), and so
/// do the walks on it, so one server is too noisy a sample: the timed
/// phase sends request `i` to server `i mod SETUP_REPEATS`.
const SETUP_REPEATS: usize = 5;

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Explore {
        circuit: usize,
        threshold: f64,
        metric: &'static str,
        explorer: &'static str,
    },
    Reingest {
        circuit: usize,
    },
}

/// The circuits as `(name, BLIF text)`, in ingest order.
pub fn circuits() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = SUITE
        .iter()
        .map(|&name| {
            let nl = blasys_circuits::benchmark(name)
                .expect("suite circuit exists")
                .build();
            (name.to_string(), to_blif(&nl))
        })
        .collect();
    out.extend(SHIPPED.iter().map(|(n, t)| (n.to_string(), t.to_string())));
    out
}

/// The seeded request sequence of one round.
pub fn plan(seed: u64, circuits: usize) -> Vec<Request> {
    let mut explores = Vec::new();
    for circuit in 0..circuits {
        for &threshold in &THRESHOLDS {
            for &metric in &METRICS {
                for &explorer in &EXPLORERS {
                    explores.push(Request::Explore {
                        circuit,
                        threshold,
                        metric,
                        explorer,
                    });
                }
            }
        }
    }
    let mut rng = SplitMix::new(sub_seed(seed, "query_mix.plan"));
    rng.shuffle(&mut explores);
    let mut out = Vec::new();
    for e in explores {
        if out.len() % REINGEST_EVERY == REINGEST_EVERY - 1 {
            out.push(Request::Reingest {
                circuit: rng.below(circuits),
            });
        }
        out.push(e);
    }
    out
}

fn expect_json(reply: &Result<Reply, String>, status: u16) -> Result<Value, String> {
    let reply = reply.as_ref().map_err(Clone::clone)?;
    if reply.status != status {
        return Err(format!(
            "HTTP {} (expected {status}): {}",
            reply.status, reply.body
        ));
    }
    json::parse(&reply.body).map_err(|e| format!("reply does not parse: {e}"))
}

/// Check one explore reply; returns (area ratio, power ratio).
fn check_explore(
    v: &Value,
    hash: &str,
    threshold: f64,
    metric: &str,
) -> Result<(f64, f64), String> {
    if v.get("hash").and_then(Value::str) != Some(hash) {
        return Err("reply names another circuit".into());
    }
    let key = match metric {
        "avg-relative" => "avg_relative",
        _ => "bit_error_rate",
    };
    let err = v
        .at(&["report", "qor", key])
        .and_then(Value::num)
        .ok_or("no qor in reply")?;
    if err > threshold {
        return Err(format!("chosen step errs {err} > {threshold}"));
    }
    let num = |path: &[&str]| {
        v.at(path)
            .and_then(Value::num)
            .ok_or(format!("no {path:?}"))
    };
    let area = num(&["report", "chosen", "area_um2"])? / num(&["report", "baseline", "area_um2"])?;
    let power = num(&["report", "chosen", "power_uw"])? / num(&["report", "baseline", "power_uw"])?;
    if !(area > 0.0 && area <= 1.0 + 1e-9) {
        return Err(format!("area ratio {area} out of range"));
    }
    Ok((area, power))
}

/// `GET /metrics` of every server, summed.
fn server_counters(lives: &[Live]) -> Result<Counters, String> {
    let mut sum = Counters::default();
    for live in lives {
        let reply = http::request(live.addr, "GET", "/metrics", "");
        sum = sum.plus(&expect_json(&reply, 200).map(|v| Counters::from_json(&v))?);
    }
    Ok(sum)
}

/// A running server with every circuit ingested.
struct Live {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    hashes: Vec<String>,
}

/// Bind a fresh server and ingest every circuit: set-up pass `pass`.
/// The first-ingest latencies go to `miss_ms`. `None` if the bind
/// failed.
fn start(
    pass: usize,
    circuits: &[(String, String)],
    out: &mut Outcome,
    miss_ms: &mut Vec<f64>,
    t: &Tracer,
) -> Option<Live> {
    let cfg = ServerConfig::new()
        .addr("127.0.0.1:0")
        .cache_capacity(circuits.len())
        .samples(SAMPLES);
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            out.op("bind", Err(e.to_string()));
            return None;
        }
    };
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut hashes = Vec::new();
    for (i, (name, blif)) in circuits.iter().enumerate() {
        let op = (pass * circuits.len() + i) as u64;
        let reply = t.span("http.ingest", op, || {
            http::request(addr, "POST", "/circuits", blif)
        });
        if let Ok(r) = &reply {
            miss_ms.push(r.latency.as_secs_f64() * 1e3);
        }
        let hash = expect_json(&reply, 201).and_then(|v| {
            v.get("hash")
                .and_then(Value::str)
                .map(str::to_string)
                .ok_or("no hash".into())
        });
        out.op(
            &format!("ingest {name}"),
            hash.as_ref().map(|_| ()).map_err(Clone::clone),
        );
        if let Ok(h) = hash {
            hashes.push(h);
        }
    }
    Some(Live {
        addr,
        handle,
        hashes,
    })
}

/// Shut a server down and wait for its thread.
fn stop(live: Live, out: &mut Outcome) {
    let shutdown = http::request(live.addr, "POST", "/admin/shutdown", "");
    out.op("shutdown", expect_json(&shutdown, 200).map(|_| ()));
    out.op(
        "server exit",
        match live.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("server thread panicked".into()),
        },
    );
}

pub fn run(seed: u64, seconds: f64, tracer: &Arc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let t = tracer.as_ref();
    let circuits = circuits();
    let plan = plan(seed, circuits.len());

    // Set-up: bind a fresh server and ingest every circuit, repeated.
    let mut setup_s = Vec::new();
    let mut miss_ms = Vec::new();
    let mut lives = Vec::new();
    for pass in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let live = t.span("setup", 0, || {
            start(pass, &circuits, &mut out, &mut miss_ms, t)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        lives.extend(live);
    }
    let ready =
        lives.len() == SETUP_REPEATS && lives.iter().all(|l| l.hashes.len() == circuits.len());
    let server = |i: usize| &lives[i % lives.len()];

    let mut round_s = Vec::new();
    let mut explore_ms = Vec::new();
    let mut hit_ms = Vec::new();
    let mut ratios = Vec::new();
    let mut round_fps = Vec::new();
    let mut completed = 0usize;
    let before = tracer.enabled().then(|| server_counters(&lives));
    if ready {
        let t_all = Instant::now();
        loop {
            let mut replies = Vec::with_capacity(plan.len());
            let t0 = Instant::now();
            t.span("round", 0, || {
                for (i, req) in plan.iter().enumerate() {
                    let op = 1000 + i as u64;
                    let Live { addr, hashes, .. } = server(i);
                    let reply = match req {
                        Request::Explore {
                            circuit,
                            threshold,
                            metric,
                            explorer,
                        } => {
                            let body = format!(
                                "{{\"metric\":\"{metric}\",\"threshold\":{threshold},\"explorer\":\"{explorer}\"}}"
                            );
                            let path = format!("/circuits/{}/explore", hashes[*circuit]);
                            t.span("http.explore", op, || http::request(*addr, "POST", &path, &body))
                        }
                        Request::Reingest { circuit } => {
                            t.span("http.ingest", op, || http::request(*addr, "POST", "/circuits", &circuits[*circuit].1))
                        }
                    };
                    replies.push(reply);
                }
            });
            round_s.push(t0.elapsed().as_secs_f64());

            // Checks, outside the timed region.
            let mut fp = Fingerprint::new();
            ratios.clear();
            for (i, (req, reply)) in plan.iter().zip(&replies).enumerate() {
                let hashes = &server(i).hashes;
                let (what, verdict) = match req {
                    Request::Explore {
                        circuit,
                        threshold,
                        metric,
                        explorer,
                    } => {
                        let verdict = expect_json(reply, 200)
                            .and_then(|v| check_explore(&v, &hashes[*circuit], *threshold, metric));
                        if let Ok(r) = reply {
                            fp.bytes(r.body.as_bytes());
                            if verdict.is_ok() {
                                explore_ms.push(r.latency.as_secs_f64() * 1e3);
                            }
                        }
                        if let Ok(pair) = verdict {
                            ratios.push(pair);
                        }
                        let what = format!(
                            "explore {} {threshold} {metric} {explorer}",
                            circuits[*circuit].0
                        );
                        (what, verdict.map(|_| ()))
                    }
                    Request::Reingest { circuit } => {
                        let verdict = expect_json(reply, 200).and_then(|v| {
                            if v.get("hash").and_then(Value::str) == Some(hashes[*circuit].as_str())
                            {
                                Ok(())
                            } else {
                                Err("re-ingest answered another hash".into())
                            }
                        });
                        if let (Ok(r), Ok(())) = (reply, &verdict) {
                            hit_ms.push(r.latency.as_secs_f64() * 1e3);
                        }
                        (format!("re-ingest {}", circuits[*circuit].0), verdict)
                    }
                };
                completed += verdict.is_ok() as usize;
                out.op(&what, verdict);
            }
            round_fps.push(fp.value());
            if !util::another_round(t_all, &round_s, seconds) {
                break;
            }
        }
    }
    let after = tracer.enabled().then(|| server_counters(&lives));
    for live in lives {
        stop(live, &mut out);
    }
    if round_s.is_empty() || explore_ms.is_empty() {
        return out;
    }

    let total_s: f64 = round_s.iter().sum();
    out.fingerprint = util::round_fingerprints(&mut out.notes, round_fps);
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("run_s", median(&round_s));
    out.e2e.insert(
        "area_saving_pct",
        saving_pct(&ratios.iter().map(|r| r.0).collect::<Vec<_>>()),
    );
    out.e2e.insert(
        "power_saving_pct",
        saving_pct(&ratios.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    answer_metrics(&mut out, &explore_ms, completed, total_s);

    if let (Some(Ok(before)), Some(Ok(after))) = (before, after) {
        let d = after.since(&before);
        let l = &mut out.layers;
        engine_layers(l, &after);
        l.insert("decomp.open_ms", after.get("flow.decompose.wall_ns") / 1e6);
        l.insert("profile.ms", after.get("flow.profile.wall_ns") / 1e6);
        l.insert("explore.probes", d.get("flow.explore.probes"));
        let server_explore_ms = d.get("flow.explore.wall_ns") / 1e6;
        l.insert("explore.ms", server_explore_ms);
        l.insert(
            "explore.us_per_probe",
            ratio(server_explore_ms * 1e3, d.get("flow.explore.probes")),
        );
        l.insert("serve.ingest_miss_ms", median(&miss_ms));
        l.insert(
            "serve.ingest_hit_ms",
            if hit_ms.is_empty() {
                0.0
            } else {
                median(&hit_ms)
            },
        );
        l.insert("serve.explore_server_ms", server_explore_ms);
        l.insert(
            "serve.non_explore_ms",
            explore_ms.iter().sum::<f64>() - server_explore_ms,
        );
        let hits = d.get("serve.cache.hits");
        l.insert(
            "serve.cache_hit_ratio",
            ratio(hits, hits + d.get("serve.cache.misses")),
        );
        l.insert("serve.rejected", d.get("serve.rejected"));
        out.notes.push(
            "logic/window/evaluator/estimate/certify layers: inside the server, not visible to the client; \
             bmf/qor/profile/decomp read from GET /metrics over the whole run, summed over the servers"
                .into(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(plan: &[Request]) -> (usize, usize, Vec<usize>) {
        let reingests = plan
            .iter()
            .filter(|r| matches!(r, Request::Reingest { .. }))
            .count();
        let mut per_circuit = vec![0; 8];
        for r in plan {
            if let Request::Explore { circuit, .. } = r {
                per_circuit[*circuit] += 1;
            }
        }
        (plan.len(), reingests, per_circuit)
    }

    /// Two seeds give different request orders but the same shape:
    /// circuit set, request count and mix ratios.
    #[test]
    fn seeds_change_order_not_shape() {
        let a = plan(1, 8);
        let b = plan(2, 8);
        assert_ne!(a, b);
        assert_eq!(shape(&a), shape(&b));
        let (total, reingests, per_circuit) = shape(&a);
        assert_eq!(total - reingests, 160);
        assert!(per_circuit.iter().all(|&n| n == 20));
        for (i, r) in a.iter().enumerate() {
            assert_eq!(
                matches!(r, Request::Reingest { .. }),
                i % REINGEST_EVERY == REINGEST_EVERY - 1
            );
        }
        assert_eq!(plan(1, 8), a, "same seed, same plan");
    }
}

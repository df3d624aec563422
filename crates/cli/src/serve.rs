//! `blasys serve` — run the approximation service: an HTTP/1.1 daemon
//! with a content-addressed cache of profiled sessions (see
//! [`blasys_serve`]). The shared flow options pick the session
//! configuration every cached circuit is profiled with; server knobs
//! bound the cache, admission, and request sizes.

use std::time::Duration;

use blasys_serve::{Server, ServerConfig};

use crate::opts::{parse_value, CliError, FlowOpts};

pub fn main(args: &[String]) -> Result<(), CliError> {
    let mut opts = FlowOpts::default();
    let mut cfg = ServerConfig::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(n) = opts.take(args, i)? {
            i += n;
            continue;
        }
        match args[i].as_str() {
            "--addr" => {
                cfg = cfg.addr(crate::opts::value(args, i)?);
                i += 2;
            }
            "--cache-size" => {
                let n: usize = parse_value(args, i, "cache size")?;
                if n == 0 {
                    return Err(CliError::usage("--cache-size must be at least 1"));
                }
                cfg = cfg.cache_capacity(n);
                i += 2;
            }
            "--max-inflight" => {
                let n: usize = parse_value(args, i, "max in-flight requests")?;
                if n == 0 {
                    return Err(CliError::usage("--max-inflight must be at least 1"));
                }
                cfg = cfg.max_inflight(n);
                i += 2;
            }
            "--max-body-kb" => {
                let kb: usize = parse_value(args, i, "body cap in KiB")?;
                cfg = cfg.max_body_bytes(kb.saturating_mul(1024));
                i += 2;
            }
            "--read-timeout-ms" => {
                let ms: u64 = parse_value(args, i, "read timeout in ms")?;
                cfg = cfg.read_timeout(Duration::from_millis(ms.max(1)));
                i += 2;
            }
            "--profile-wall-ms" => {
                let ms: u64 = parse_value(args, i, "profile wall budget in ms")?;
                cfg = cfg.profile_wall(Duration::from_millis(ms));
                i += 2;
            }
            "--explore-wall-ms" => {
                let ms: u64 = parse_value(args, i, "explore wall cap in ms")?;
                cfg = cfg.explore_wall_cap(Duration::from_millis(ms));
                i += 2;
            }
            a => {
                return Err(CliError::usage(format!("unknown flag `{a}` for serve")));
            }
        }
    }
    if opts.progress || opts.trace_out.is_some() {
        return Err(CliError::usage(
            "--progress/--trace-out are per-command observers; \
             serve streams progress per request (`?stream=1`)",
        ));
    }

    cfg = cfg
        .samples(opts.samples)
        .seed(opts.seed)
        .limits(opts.limits.0, opts.limits.1)
        .parallelism(opts.parallelism_or_auto())
        .metric(opts.metric)
        .threshold(opts.threshold)
        .explorer(opts.explorer);

    let server =
        Server::bind(cfg).map_err(|e| CliError::runtime(format!("cannot bind server: {e}")))?;
    let registry = server.registry();
    // The address line is the readiness signal scripts wait for.
    eprintln!("blasys-serve listening on http://{}", server.local_addr());
    server
        .run()
        .map_err(|e| CliError::runtime(format!("server failed: {e}")))?;
    eprintln!("blasys-serve drained and stopped");
    if opts.metrics {
        let snapshot = registry.snapshot();
        eprint!("{}", blasys_core::report::snapshot_json(&snapshot).pretty());
    }
    Ok(())
}

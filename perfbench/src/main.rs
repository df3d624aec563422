//! Outside-in benchmark of the BLASYS flow.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_flow|query_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload drives the program through its public API only, and
//! every result is checked against an independent gate-level oracle
//! outside the timed region. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`, with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). The line before it names the run's
//! trajectory fingerprint. See `perfbench/README.md`.

mod flow;
mod http;
mod json;
mod metrics;
mod oracle;
mod query_mix;
mod suite_flow;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use metrics::{Outcome, END_TO_END, PER_LAYER, SPANS};
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

type Workload = fn(u64, f64, &Arc<Tracer>) -> Outcome;

fn workload(name: &str) -> Option<Workload> {
    match name {
        "suite_flow" => Some(suite_flow::run),
        "query_mix" => Some(query_mix::run),
        _ => None,
    }
}

fn metrics_json(values: &BTreeMap<&'static str, f64>, declared: &[(&str, &str)]) -> String {
    let fields: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(run) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (suite_flow, query_mix)",
            args.workload
        );
        return ExitCode::from(2);
    };

    let (outcome, declared) = if args.trace {
        // The same pass untraced, then traced: the difference is the
        // tracing overhead.
        let plain = run(args.seed, 0.0, &Arc::new(Tracer::new(false)));
        let tracer = Arc::new(Tracer::new(true));
        let mut traced = run(args.seed, 0.0, &tracer);
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.notes.extend(plain.notes);
        if plain.fingerprint != traced.fingerprint {
            traced.notes.push(format!(
                "NONDETERMINISTIC: traced fingerprint {:016x} differs from untraced {:016x}",
                traced.fingerprint, plain.fingerprint
            ));
        }
        let (p, t) = (plain.e2e.get("run_s"), traced.e2e.get("run_s"));
        if let (Some(p), Some(t)) = (p, t) {
            traced
                .layers
                .insert("trace.overhead_pct", 100.0 * (t - p) / p);
        }
        traced.layers.insert("check.ms", tracer.total_ms("check"));
        if let Some(&p50) = traced.e2e.get("query_p50_ms") {
            traced.layers.insert("query.p50_ms", p50);
        }
        let selfs = tracer.self_ms();
        eprintln!("self time per span (ms):");
        for (name, ms) in &selfs {
            eprintln!("  {name:<18} {ms:>12.3}");
        }
        for (span, metric) in SPANS {
            traced
                .layers
                .insert(metric, selfs.get(span).copied().unwrap_or(0.0));
        }
        let dir = std::path::Path::new(".perfbench_out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_jsonl())) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        let mut declared: Vec<(&str, &str)> = PER_LAYER.to_vec();
        declared.extend(SPANS.iter().map(|&(_, metric)| (metric, "ms")));
        for (name, _) in &declared {
            if !traced.layers.contains_key(name) {
                traced.layers.insert(name, 0.0);
                traced.notes.push(format!(
                    "{name}: not measured on {}, reported as 0",
                    args.workload
                ));
            }
        }
        (traced, declared)
    } else {
        let mut out = run(args.seed, args.seconds, &Arc::new(Tracer::new(false)));
        out.e2e.insert("peak_rss_mb", util::peak_rss_mb());
        (out, END_TO_END.to_vec())
    };

    for note in &outcome.notes {
        eprintln!("{note}");
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let complete = declared
        .iter()
        .all(|(n, _)| metrics.get(n).is_some_and(|v| v.is_finite()));
    let correct = outcome.failed == 0 && outcome.attempted > 0 && complete;
    println!(
        "fingerprint {} seed={} {:016x}",
        args.workload, args.seed, outcome.fingerprint
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics, &declared)
    );
    ExitCode::SUCCESS
}

//! Observability integration: a small flow traced and metered end to
//! end through the public session API.
//!
//! Covers the PR's acceptance checks:
//!
//! * the chrome-trace export of a traced flow is structurally valid
//!   JSON with balanced `B`/`E` phases on every thread;
//! * the deterministic engine counters are bit-identical between a
//!   serial and a 4-worker run (`qor.probes` / `qor.commits` /
//!   `qor.commit_lanes` always; the whole `qor.*` family with pruning
//!   off);
//! * the metrics snapshot embeds into the `FlowReport` JSON.

use std::collections::HashMap;
use std::sync::Arc;

use blasys_repro::blasys::report::FlowReport;
use blasys_repro::blasys::session::{ExploreSpec, FlowConfig, FlowSession};
use blasys_repro::blasys::{run, snapshot_json, Parallelism, TraceObserver};
use blasys_repro::circuits::multiplier;
use blasys_repro::obs::{Registry, Snapshot, TracePhase, Tracer};

const SAMPLES: usize = 1_024;
const SEED: u64 = 7;

/// Minimal structural JSON check: quote-aware brace/bracket balance
/// plus a sane top level. Catches truncated or interleaved output
/// without pulling in a parser.
fn assert_valid_json(text: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in JSON: {text}");
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string in JSON");
    assert_eq!(depth, 0, "unbalanced JSON: {text}");
    assert!(
        text.trim_start().starts_with('{') || text.trim_start().starts_with('['),
        "not a JSON document: {text}"
    );
}

/// Run the mult4 flow with a tracer + registry attached; return the
/// metrics snapshot.
fn metered_flow(parallelism: Parallelism, prune: bool, tracer: Option<&Arc<Tracer>>) -> Snapshot {
    let nl = multiplier(4);
    let registry = Arc::new(Registry::new());
    let mut cfg = FlowConfig::new()
        .samples(SAMPLES)
        .seed(SEED)
        .parallelism(parallelism)
        .metrics(registry.clone());
    if let Some(t) = tracer {
        cfg = cfg.observer(TraceObserver::new(t.clone()));
    }
    let session = FlowSession::open(&nl, cfg)
        .and_then(FlowSession::profile)
        .expect("mult4 profiles");
    let _ = session.explore(&ExploreSpec::new().prune(prune));
    registry.snapshot()
}

#[test]
fn traced_flow_exports_balanced_chrome_trace() {
    let tracer = Arc::new(Tracer::new());
    metered_flow(Parallelism::Threads(4), true, Some(&tracer));

    // Per-thread span nesting: every End matches an open Begin.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    for e in tracer.events() {
        names.push(e.name.to_string());
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            TracePhase::Begin => stack.push(e.name.to_string()),
            TracePhase::End => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("End({}) on tid {} without an open span", e.name, e.tid)
                });
                assert_eq!(open, e.name, "spans must close innermost-first");
            }
            TracePhase::Instant => {}
        }
    }
    for stage in ["decompose", "profile", "explore", "window"] {
        assert!(names.iter().any(|n| n == stage), "missing span: {stage}");
    }

    let chrome = tracer.chrome_json();
    assert_valid_json(&chrome);
    assert!(
        chrome.starts_with("{\"traceEvents\":["),
        "chrome trace shape"
    );
    assert_eq!(
        chrome.matches("\"ph\":\"B\"").count(),
        chrome.matches("\"ph\":\"E\"").count(),
        "B/E phases must balance in the export"
    );
}

#[test]
fn engine_counters_identical_serial_vs_threaded() {
    // With pruning off, every probe evaluates the same lanes no matter
    // the worker count: the whole qor.* family must match bit for bit.
    let serial = metered_flow(Parallelism::Serial, false, None);
    let threaded = metered_flow(Parallelism::Threads(4), false, None);
    for name in [
        "qor.probes",
        "qor.probes_pruned",
        "qor.blocks_evaluated",
        "qor.cone_cache.hits",
        "qor.cone_cache.misses",
        "qor.lanes_reevaluated",
        "qor.lanes_reused",
        "qor.commits",
        "qor.commit_lanes",
        "flow.explore.probes",
        "bmf.candidates_scored",
        "profile.winner.nulling",
        "profile.winner.asso",
        "profile.winner.grecond",
        "profile.winner.truncated",
        "profile.variants_synthesized",
    ] {
        let s = serial
            .counter(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let t = threaded
            .counter(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(s, t, "{name}: serial {s} != threads(4) {t}");
    }
    assert_eq!(
        serial.counter("qor.probes"),
        serial.counter("flow.explore.probes"),
        "engine probes and exploration probes agree"
    );
    assert_eq!(serial.counter("qor.probes_pruned"), Some(0));
    assert!(
        serial.counter("qor.lanes_reused").unwrap_or(0) > 0,
        "later steps reuse lanes cached at earlier ones"
    );

    // With pruning on, which probes are abandoned may depend on probe
    // order, but the probe and commit counts — and the commits' cone
    // work, which follows the trajectory — stay deterministic.
    let pruned_serial = metered_flow(Parallelism::Serial, true, None);
    let pruned_threaded = metered_flow(Parallelism::Threads(4), true, None);
    assert!(pruned_serial.counter("qor.commit_lanes").unwrap_or(0) > 0);
    for name in ["qor.probes", "qor.commits", "qor.commit_lanes"] {
        assert_eq!(
            pruned_serial.counter(name),
            pruned_threaded.counter(name),
            "{name} must stay deterministic with pruning on"
        );
    }
    assert_eq!(
        serial.counter("qor.probes"),
        pruned_serial.counter("qor.probes"),
        "pruned probes still count as probes"
    );
}

#[test]
fn metrics_snapshot_embeds_in_flow_report_json() {
    let registry = Arc::new(Registry::new());
    let cfg = FlowConfig::new()
        .samples(SAMPLES)
        .seed(SEED)
        .parallelism(Parallelism::Serial)
        .metrics(registry.clone());
    let result = run(&multiplier(4), cfg, &ExploreSpec::new()).expect("mult4 runs");
    let snapshot = registry.snapshot();
    assert!(snapshot.counter("qor.probes").unwrap_or(0) > 0);

    let report =
        FlowReport::from_result(&result, result.trajectory().len() - 1).with_metrics(&snapshot);
    let json = report.to_json().pretty();
    assert_valid_json(&json);
    assert!(json.contains("\"metrics\""), "report embeds the snapshot");
    assert!(json.contains("\"qor.probes\""), "snapshot carries counters");

    // The standalone snapshot encoding is valid JSON too.
    assert_valid_json(&snapshot_json(&snapshot).pretty());
}

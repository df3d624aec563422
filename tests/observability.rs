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
//!   off), and the `bmf.*` / `profile.*` work counters also when the
//!   circuit has fewer windows than workers;
//! * the profile's `minimize_column` memo hits on repeated columns and
//!   counts identically across serial runs;
//! * the metrics snapshot embeds into the `FlowReport` JSON;
//! * sessions sharing the process-wide pool keep their `pool.*` worker
//!   metrics apart: each registry counts exactly its own sweep tasks.

use std::collections::HashMap;
use std::sync::Arc;

use blasys_repro::blasys::report::{chrome_json, FlowReport};
use blasys_repro::blasys::session::{ExploreSpec, FlowConfig, FlowSession};
use blasys_repro::blasys::{run, snapshot_json, Parallelism, TraceObserver};
use blasys_repro::circuits::multiplier;
use blasys_repro::logic::blif::from_blif;
use blasys_repro::logic::Netlist;
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

/// Deterministic profiling work counters: BMF candidates scored and
/// the ladder selection tallies. `synth.minimize_memo.{hits,misses}`
/// are left out: two workers can miss on the same column at once, so
/// their split depends on the schedule (they are deterministic in the
/// serial schedule, see `minimize_memo_counters_repeat_serially`).
const PROFILE_COUNTERS: [&str; 6] = [
    "bmf.candidates_scored",
    "profile.winner.nulling",
    "profile.winner.asso",
    "profile.winner.grecond",
    "profile.winner.truncated",
    "profile.variants_synthesized",
];

/// Asserts `serial` and `threaded` agree on every counter in `names`.
fn assert_counters_equal(names: &[&str], serial: &Snapshot, threaded: &Snapshot) {
    for &name in names {
        let s = serial
            .counter(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let t = threaded
            .counter(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(s, t, "{name}: serial {s} != threads(4) {t}");
    }
}

/// Run the flow on `nl` with a tracer + registry attached; return the
/// metrics snapshot.
fn metered_flow(
    nl: &Netlist,
    parallelism: Parallelism,
    prune: bool,
    tracer: Option<&Arc<Tracer>>,
) -> Snapshot {
    let registry = Arc::new(Registry::new());
    let mut cfg = FlowConfig::new()
        .samples(SAMPLES)
        .seed(SEED)
        .parallelism(parallelism)
        .metrics(registry.clone());
    if let Some(t) = tracer {
        cfg = cfg.observer(TraceObserver::new(t.clone()));
    }
    let session = FlowSession::open(nl, cfg)
        .and_then(FlowSession::profile)
        .expect("circuit profiles");
    let _ = session.explore(&ExploreSpec::new().prune(prune));
    registry.snapshot()
}

#[test]
fn traced_flow_exports_balanced_chrome_trace() {
    let tracer = Arc::new(Tracer::new());
    metered_flow(&multiplier(4), Parallelism::Threads(4), true, Some(&tracer));

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

    let chrome = chrome_json(&tracer).to_string();
    assert_valid_json(&chrome);
    assert!(
        chrome.starts_with("{\"traceEvents\": ["),
        "chrome trace shape"
    );
    assert_eq!(
        chrome.matches("\"ph\": \"B\"").count(),
        chrome.matches("\"ph\": \"E\"").count(),
        "B/E phases must balance in the export"
    );
}

#[test]
fn engine_counters_identical_serial_vs_threaded() {
    // With pruning off, every probe evaluates the same lanes no matter
    // the worker count: the whole qor.* family must match bit for bit.
    let mult4 = multiplier(4);
    let serial = metered_flow(&mult4, Parallelism::Serial, false, None);
    let threaded = metered_flow(&mult4, Parallelism::Threads(4), false, None);
    let engine = [
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
        // Children kept and frontier branches swept per step follow
        // the trajectory.
        "explore.branches",
        "explore.frontier_size",
    ];
    assert_counters_equal(&engine, &serial, &threaded);
    assert_counters_equal(&PROFILE_COUNTERS, &serial, &threaded);
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
    let pruned_serial = metered_flow(&mult4, Parallelism::Serial, true, None);
    let pruned_threaded = metered_flow(&mult4, Parallelism::Threads(4), true, None);
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
fn profile_counters_identical_with_fewer_windows_than_workers() {
    // The shipped adder4 is one window, fewer than the four workers:
    // its BMF runs serially on one of them.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks/adder4.blif");
    let nl = from_blif(&std::fs::read_to_string(path).expect("shipped benchmark"))
        .expect("shipped benchmark parses");
    let windows = FlowSession::open(&nl, FlowConfig::new())
        .expect("adder4 opens")
        .partition()
        .len();
    assert!(
        windows < 4,
        "adder4 has {windows} windows, not fewer than 4"
    );
    let serial = metered_flow(&nl, Parallelism::Serial, false, None);
    let threaded = metered_flow(&nl, Parallelism::Threads(4), false, None);
    assert!(serial.counter("bmf.candidates_scored").unwrap_or(0) > 0);
    assert_counters_equal(&PROFILE_COUNTERS, &serial, &threaded);
}

#[test]
fn minimize_memo_counters_repeat_serially() {
    // adder8's windows are repeated adder slices, so their columns
    // repeat within one profiling pass.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks/adder8.blif");
    let nl = from_blif(&std::fs::read_to_string(path).expect("shipped benchmark"))
        .expect("shipped benchmark parses");
    let memo = || {
        let registry = Arc::new(Registry::new());
        let cfg = FlowConfig::new()
            .parallelism(Parallelism::Serial)
            .metrics(registry.clone());
        FlowSession::open(&nl, cfg)
            .and_then(FlowSession::profile)
            .expect("adder8 profiles");
        let snapshot = registry.snapshot();
        ["synth.minimize_memo.hits", "synth.minimize_memo.misses"].map(|name| {
            snapshot
                .counter(name)
                .unwrap_or_else(|| panic!("{name} missing"))
        })
    };
    let [hits, misses] = memo();
    assert!(
        hits > 0,
        "no repeated column hit the memo ({misses} misses)"
    );
    assert!(misses > 0);
    assert_eq!(memo(), [hits, misses], "serial memo counters repeat");
}

#[test]
fn pool_metrics_count_each_sessions_own_tasks_on_the_shared_pool() {
    // Two 2-worker sessions with separate registries profile and
    // explore at once, on the one shared 2-worker pool. Every sweep
    // task is one window (profiling) or one expansion (a probe), so
    // each registry's per-worker task counts must sum to its own
    // session's windows plus probes, whatever the other session did.
    let nl = multiplier(4);
    std::thread::scope(|scope| {
        for threshold in [0.02, 0.2] {
            let nl = &nl;
            scope.spawn(move || {
                let registry = Arc::new(Registry::new());
                let cfg = FlowConfig::new()
                    .samples(SAMPLES)
                    .seed(SEED)
                    .parallelism(Parallelism::Threads(2))
                    .metrics(registry.clone());
                let session = FlowSession::open(nl, cfg)
                    .and_then(FlowSession::profile)
                    .expect("circuit profiles");
                let mut tasks = session.clusters() as u64;
                for spec in [ExploreSpec::new(), ExploreSpec::new().threshold(threshold)] {
                    tasks += session.explore(&spec).probes();
                }
                let snap = registry.snapshot();
                let sum = |counter: &str| -> u64 {
                    (0..2)
                        .map(|w| {
                            let name = format!("pool.worker{w}.{counter}");
                            snap.counter(&name)
                                .unwrap_or_else(|| panic!("{name} missing"))
                        })
                        .sum()
                };
                assert_eq!(sum("tasks"), tasks, "threshold {threshold}");
                assert!(sum("busy_ns") > 0, "threshold {threshold}");
            });
        }
    });
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

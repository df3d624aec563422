//! Metric names, units, and the per-run outcome every workload fills.

use std::collections::BTreeMap;

use blasys_obs::{Snapshot, SnapshotValue};

use crate::json::Value;
use crate::util::{hd_quantile, tail_ok};

/// End-to-end metrics (untraced runs), reported by every workload. The
/// median answer latency is a per-layer metric (`query.p50_ms`): it sits
/// on the boundary between two circuits' latency groups, which made its
/// ten-seed spread reach 25 %.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("area_saving_pct", "%"),
    ("power_saving_pct", "%"),
    ("query_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics (traced runs).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("query.p50_ms", "ms"),
    ("logic.blif_parse_ms", "ms"),
    ("decomp.open_ms", "ms"),
    ("decomp.windows", "count"),
    ("profile.ms", "ms"),
    ("profile.window_ms_sum", "ms"),
    ("profile.window_ms_max", "ms"),
    ("bmf.factorize_ms", "ms"),
    ("bmf.candidates_scored", "count"),
    ("profile.synth_ms", "ms"),
    ("par.busy_ratio", "ratio"),
    ("par.steals", "count"),
    ("par.idle", "count"),
    ("explore.evaluator_build_ms", "ms"),
    ("explore.ms", "ms"),
    ("explore.probes", "count"),
    ("explore.steps", "count"),
    ("explore.us_per_probe", "us"),
    ("qor.pruned_ratio", "ratio"),
    ("qor.cone_cache_hit_ratio", "ratio"),
    ("qor.lanes_reevaluated", "count"),
    ("synth.estimate_ms", "ms"),
    ("certify.ms", "ms"),
    ("sat.conflicts", "count"),
    ("serve.ingest_miss_ms", "ms"),
    ("serve.ingest_hit_ms", "ms"),
    ("serve.explore_server_ms", "ms"),
    ("serve.non_explore_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("check.ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Span names and the per-layer metric reporting each one's self time.
pub const SPANS: [(&str, &str); 14] = [
    ("setup", "self.setup_ms"),
    ("round", "self.round_ms"),
    ("flow", "self.flow_ms"),
    ("parse", "self.parse_ms"),
    ("open", "self.open_ms"),
    ("profile", "self.profile_ms"),
    ("window", "self.window_ms"),
    ("evaluator_build", "self.evaluator_build_ms"),
    ("explore", "self.explore_ms"),
    ("estimate", "self.estimate_ms"),
    ("certify", "self.certify_ms"),
    ("check", "self.check_ms"),
    ("http.ingest", "self.http.ingest_ms"),
    ("http.explore", "self.http.explore_ms"),
];

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions and notes on absent layers (to stderr).
    pub notes: Vec<String>,
    pub fingerprint: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one operation, failed if `check` is an error.
    pub fn op(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.notes.push(format!("FAILED {what}: {e}"));
        }
    }
}

/// The latency metrics of the answers a caller waited for: Harrell–Davis
/// p50 and p90 of `latencies_ms` (with a note when fewer than ten
/// samples lie beyond p90), and `answers` per second of `timed_s`.
pub fn answer_metrics(out: &mut Outcome, latencies_ms: &[f64], answers: usize, timed_s: f64) {
    if !tail_ok(latencies_ms.len(), 0.9) {
        out.notes.push(format!(
            "query_p90_ms rests on only {} samples",
            latencies_ms.len()
        ));
    }
    out.e2e
        .insert("query_p50_ms", hd_quantile(latencies_ms, 0.5));
    out.e2e
        .insert("query_p90_ms", hd_quantile(latencies_ms, 0.9));
    out.e2e.insert("requests_per_s", answers as f64 / timed_s);
}

/// A flat view of a metrics registry: counters and gauges by name,
/// histograms as `<name>.sum` and `<name>.count`.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn from_snapshot(snap: &Snapshot) -> Counters {
        let mut map = BTreeMap::new();
        for e in &snap.entries {
            match &e.value {
                SnapshotValue::Counter(v) => {
                    map.insert(e.name.clone(), *v as f64);
                }
                SnapshotValue::Gauge(v) => {
                    map.insert(e.name.clone(), *v as f64);
                }
                SnapshotValue::Histogram(h) => {
                    map.insert(format!("{}.sum", e.name), h.sum as f64);
                    map.insert(format!("{}.count", e.name), h.count as f64);
                }
            }
        }
        Counters(map)
    }

    /// From the service's `GET /metrics` JSON.
    pub fn from_json(v: &Value) -> Counters {
        let mut map = BTreeMap::new();
        if let Value::Obj(fields) = v {
            for (name, value) in fields {
                match value {
                    Value::Num(n) => {
                        map.insert(name.clone(), *n);
                    }
                    Value::Obj(_) => {
                        for part in ["sum", "count"] {
                            if let Some(n) = value.get(part).and_then(Value::num) {
                                map.insert(format!("{name}.{part}"), n);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        Counters(map)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sum over names of the form `<prefix>*<suffix>`.
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// `self + other`, name by name.
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut sum = self.0.clone();
        for (k, v) in &other.0 {
            *sum.entry(k.clone()).or_insert(0.0) += v;
        }
        Counters(sum)
    }

    /// `self − earlier`, name by name.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

/// Ratio that reads 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fill the engine-counter layers shared by every workload from a
/// registry view.
pub fn engine_layers(layers: &mut BTreeMap<&'static str, f64>, c: &Counters) {
    layers.insert("bmf.factorize_ms", c.get("bmf.factorize_wall_ns.sum") / 1e6);
    layers.insert("bmf.candidates_scored", c.get("bmf.candidates_scored"));
    layers.insert(
        "qor.pruned_ratio",
        ratio(c.get("qor.probes_pruned"), c.get("qor.probes")),
    );
    let hits = c.get("qor.cone_cache.hits");
    layers.insert(
        "qor.cone_cache_hit_ratio",
        ratio(hits, hits + c.get("qor.cone_cache.misses")),
    );
    layers.insert("qor.lanes_reevaluated", c.get("qor.lanes_reevaluated"));
    layers.insert("par.steals", c.sum_matching("pool.worker", ".steals"));
    layers.insert("par.idle", c.sum_matching("pool.worker", ".idle"));
}

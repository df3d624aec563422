//! Serializable flow reports: a dependency-free JSON value model plus
//! builders that project [`BlasysResult`] and [`QorReport`] into it.
//!
//! The build environment has no registry access, so JSON emission is
//! hand-rolled: [`Json`] covers exactly the subset the reports need
//! (null, bool, integers, finite floats, strings, arrays, objects)
//! and escapes per RFC 8259. Non-finite floats serialize as `null` so
//! the output always parses.

use std::fmt;

use blasys_synth::estimate::estimate;
use blasys_synth::DesignMetrics;

use crate::explore::{AnnealSchedule, Explorer};
use crate::flow::BlasysResult;
use crate::qor::{QorMetric, QorReport};
use crate::session::StopReason;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact; never rendered in float form).
    UInt(u64),
    /// A float; NaN and infinities render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Render with two-space indentation and a trailing newline,
    /// suitable for writing straight to a file or stdout.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serialize into `out`. `indent = Some(level)` produces the
    /// two-space pretty layout; `None` the compact single-line form.
    fn render(&self, out: &mut String, indent: Option<usize>) {
        // After a separator: newline + indentation (pretty) or nothing
        // (compact).
        let brk = |out: &mut String, level: usize| {
            if indent.is_some() {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                let level = indent.unwrap_or(0);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    brk(out, level + 1);
                    item.render(out, indent.map(|_| level + 1));
                }
                brk(out, level);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                let level = indent.unwrap_or(0);
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    brk(out, level + 1);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render(out, indent.map(|_| level + 1));
                }
                brk(out, level);
                out.push('}');
            }
        }
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact single-line rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, None);
        f.write_str(&out)
    }
}

/// Project a [`QorReport`] into JSON.
pub fn qor_json(qor: &QorReport) -> Json {
    Json::obj([
        ("avg_relative", Json::Num(qor.avg_relative)),
        ("avg_absolute", Json::Num(qor.avg_absolute)),
        ("norm_absolute", Json::Num(qor.norm_absolute)),
        ("bit_error_rate", Json::Num(qor.bit_error_rate)),
        ("error_rate", Json::Num(qor.error_rate)),
        ("worst_absolute", Json::UInt(qor.worst_absolute)),
        (
            "certified_worst_absolute",
            match qor.certified_worst_absolute {
                Some(v) => Json::UInt(v),
                None => Json::Null,
            },
        ),
        ("samples", Json::UInt(qor.samples as u64)),
    ])
}

/// Project a [`DesignMetrics`] into JSON.
pub fn metrics_json(m: &DesignMetrics) -> Json {
    Json::obj([
        ("area_um2", Json::Num(m.area_um2)),
        ("power_uw", Json::Num(m.power_uw)),
        ("delay_ns", Json::Num(m.delay_ns)),
        ("gate_count", Json::UInt(m.gate_count as u64)),
    ])
}

/// Project a metrics [`Snapshot`](blasys_obs::Snapshot) into the
/// report JSON model: one object keyed by metric name, counters and
/// gauges as integers, histograms as
/// `{"count": .., "sum": .., "buckets": [{"le": bound|null, "count": ..}]}`.
pub fn snapshot_json(snapshot: &blasys_obs::Snapshot) -> Json {
    use blasys_obs::SnapshotValue;
    Json::Obj(
        snapshot
            .entries
            .iter()
            .map(|e| {
                let value = match &e.value {
                    SnapshotValue::Counter(v) => Json::UInt(*v),
                    SnapshotValue::Gauge(v) => {
                        if *v >= 0 {
                            Json::UInt(*v as u64)
                        } else {
                            Json::Num(*v as f64)
                        }
                    }
                    SnapshotValue::Histogram(h) => Json::obj([
                        ("count", Json::UInt(h.count)),
                        ("sum", Json::UInt(h.sum)),
                        (
                            "buckets",
                            Json::Arr(
                                h.buckets
                                    .iter()
                                    .map(|(le, count)| {
                                        Json::obj([
                                            (
                                                "le",
                                                match le {
                                                    Some(b) => Json::UInt(*b),
                                                    None => Json::Null,
                                                },
                                            ),
                                            ("count", Json::UInt(*count)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                };
                (e.name.clone(), value)
            })
            .collect(),
    )
}

/// Project one lint [`Diagnostic`](blasys_lint::Diagnostic) into the
/// report JSON model: `{"lint": id, "severity": .., "message": ..,
/// "signals": [..], "nodes": [..], "line": n|null}`.
pub fn diagnostic_json(d: &blasys_lint::Diagnostic) -> Json {
    Json::obj([
        ("lint", Json::str(d.lint)),
        ("severity", Json::str(d.severity.as_str())),
        ("message", Json::str(d.message.clone())),
        (
            "signals",
            Json::Arr(d.signals.iter().map(Json::str).collect()),
        ),
        (
            "nodes",
            Json::Arr(d.nodes.iter().map(|&n| Json::UInt(n as u64)).collect()),
        ),
        (
            "line",
            match d.line {
                Some(l) => Json::UInt(l as u64),
                None => Json::Null,
            },
        ),
    ])
}

/// Array form of [`diagnostic_json`], the payload behind
/// `blasys lint --format json`.
pub fn diagnostics_json(diags: &[blasys_lint::Diagnostic]) -> Json {
    Json::Arr(diags.iter().map(diagnostic_json).collect())
}

/// The QoR report of one completed flow run, ready for JSON emission —
/// the payload behind `blasys run --report`.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Model name of the input circuit.
    pub circuit: String,
    /// Primary input count of the input circuit.
    pub num_inputs: usize,
    /// Primary output count of the input circuit.
    pub num_outputs: usize,
    /// Number of k×m windows the circuit decomposed into.
    pub clusters: usize,
    /// Total trajectory points recorded (including the exact step 0).
    pub trajectory_points: usize,
    /// The trajectory step this report describes.
    pub step: usize,
    /// Factorization degree per cluster at that step.
    pub degrees: Vec<usize>,
    /// Error statistics of the chosen step.
    pub qor: QorReport,
    /// Synthesized metrics of the exact baseline (step 0).
    pub baseline: DesignMetrics,
    /// Synthesized metrics of the chosen step.
    pub chosen: DesignMetrics,
    /// Gate count of the original (pre-resynthesis) netlist.
    pub original_gates: usize,
    /// Optional metrics snapshot (see [`snapshot_json`]), attached via
    /// [`FlowReport::with_metrics`] and emitted under the `"metrics"`
    /// key.
    pub metrics: Option<Json>,
    /// The search engine that produced the trajectory, attached via
    /// [`FlowReport::with_explorer`] and emitted under the
    /// `"explorer"` / `"beam_width"` keys.
    pub explorer: Option<Explorer>,
}

impl FlowReport {
    /// Summarize one trajectory step of a flow result.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range for the recorded trajectory.
    pub fn from_result(result: &BlasysResult, step: usize) -> FlowReport {
        FlowReport::build(result, step, result.metrics_step(step))
    }

    /// Like [`FlowReport::from_result`], but reuses an already
    /// synthesized netlist for the chosen step (avoids synthesizing it
    /// twice when the caller also writes it out).
    pub fn from_result_with_netlist(
        result: &BlasysResult,
        step: usize,
        synthesized: &blasys_logic::Netlist,
    ) -> FlowReport {
        let chosen = estimate(synthesized, result.library(), result.estimate_config());
        FlowReport::build(result, step, chosen)
    }

    fn build(result: &BlasysResult, step: usize, chosen: DesignMetrics) -> FlowReport {
        let point = &result.trajectory()[step];
        FlowReport {
            circuit: result.original().name().to_string(),
            num_inputs: result.original().num_inputs(),
            num_outputs: result.original().num_outputs(),
            clusters: result.partition().len(),
            trajectory_points: result.trajectory().len(),
            step,
            degrees: point.degrees.clone(),
            qor: point.qor,
            baseline: result.baseline_metrics(),
            chosen,
            original_gates: result.original().gate_count(),
            metrics: None,
            explorer: None,
        }
    }

    /// Embed a metrics registry snapshot in the report (rendered by
    /// [`snapshot_json`]; appears as the final `"metrics"` key).
    pub fn with_metrics(mut self, snapshot: &blasys_obs::Snapshot) -> FlowReport {
        self.metrics = Some(snapshot_json(snapshot));
        self
    }

    /// Record which search engine produced the trajectory; emitted as
    /// `"explorer"` (the [`explorer_name`]) plus `"beam_width"` for
    /// beam runs.
    pub fn with_explorer(mut self, explorer: Explorer) -> FlowReport {
        self.explorer = Some(explorer);
        self
    }

    /// Render the report as a JSON object.
    pub fn to_json(&self) -> Json {
        let savings = self.chosen.savings_vs(&self.baseline);
        let mut json = Json::obj([
            ("circuit", Json::str(self.circuit.clone())),
            ("num_inputs", Json::UInt(self.num_inputs as u64)),
            ("num_outputs", Json::UInt(self.num_outputs as u64)),
            ("clusters", Json::UInt(self.clusters as u64)),
            (
                "trajectory_points",
                Json::UInt(self.trajectory_points as u64),
            ),
            ("step", Json::UInt(self.step as u64)),
            (
                "degrees",
                Json::Arr(self.degrees.iter().map(|&d| Json::UInt(d as u64)).collect()),
            ),
            ("qor", qor_json(&self.qor)),
            ("baseline", metrics_json(&self.baseline)),
            ("chosen", metrics_json(&self.chosen)),
            (
                "savings",
                Json::obj([
                    ("area_pct", Json::Num(savings.area_pct)),
                    ("power_pct", Json::Num(savings.power_pct)),
                    ("delay_pct", Json::Num(savings.delay_pct)),
                ]),
            ),
            ("original_gates", Json::UInt(self.original_gates as u64)),
        ]);
        if let Json::Obj(fields) = &mut json {
            if let Some(explorer) = self.explorer {
                fields.push(("explorer".to_string(), Json::str(explorer_name(&explorer))));
                if let Explorer::Beam { width } = explorer {
                    fields.push(("beam_width".to_string(), Json::UInt(width as u64)));
                }
            }
            if let Some(metrics) = &self.metrics {
                fields.push(("metrics".to_string(), metrics.clone()));
            }
        }
        json
    }
}

/// The metric name used in reports and accepted by the CLI.
pub fn metric_name(metric: QorMetric) -> &'static str {
    match metric {
        QorMetric::AvgRelative => "avg-relative",
        QorMetric::AvgAbsolute => "avg-absolute",
        QorMetric::BitErrorRate => "bit-error-rate",
    }
}

/// Parse a metric name as printed by [`metric_name`]. Matching is
/// case-insensitive, tolerates surrounding whitespace and `_` for `-`,
/// and also accepts the shorthands `rel`, `abs`, `ber`.
pub fn parse_metric(name: &str) -> Option<QorMetric> {
    match name.trim().to_ascii_lowercase().as_str() {
        "avg-relative" | "avg_relative" | "rel" => Some(QorMetric::AvgRelative),
        "avg-absolute" | "avg_absolute" | "abs" => Some(QorMetric::AvgAbsolute),
        "bit-error-rate" | "bit_error_rate" | "ber" => Some(QorMetric::BitErrorRate),
        _ => None,
    }
}

/// The explorer name used in reports and accepted by the CLI:
/// `greedy`, `beam:<k>`, `anneal`, or `pareto3`.
pub fn explorer_name(explorer: &Explorer) -> String {
    match explorer {
        Explorer::Greedy => "greedy".to_string(),
        Explorer::Beam { width } => format!("beam:{width}"),
        Explorer::Anneal(_) => "anneal".to_string(),
        Explorer::Pareto3 => "pareto3".to_string(),
    }
}

/// Parse an explorer name as printed by [`explorer_name`]. Matching is
/// case-insensitive and whitespace-tolerant; `beam` alone means
/// `beam:4`, and `beam:0` (a meaningless width) is rejected. An
/// `anneal` explorer comes back with the default
/// [`AnnealSchedule`] (the session fills in the seed).
pub fn parse_explorer(name: &str) -> Option<Explorer> {
    let name = name.trim().to_ascii_lowercase();
    match name.as_str() {
        "greedy" => Some(Explorer::Greedy),
        "beam" => Some(Explorer::Beam { width: 4 }),
        "anneal" => Some(Explorer::Anneal(AnnealSchedule::default())),
        "pareto3" => Some(Explorer::Pareto3),
        _ => {
            let width: usize = name.strip_prefix("beam:")?.trim().parse().ok()?;
            (width >= 1).then_some(Explorer::Beam { width })
        }
    }
}

/// The stable wire name of a [`StopReason`], used in `blasys-serve`
/// responses and anywhere else a termination cause crosses a process
/// boundary.
pub fn stop_reason_name(reason: StopReason) -> &'static str {
    match reason {
        StopReason::Exhausted => "exhausted",
        StopReason::ThresholdReached => "threshold-reached",
        StopReason::Cancelled => "cancelled",
        StopReason::ProbeBudget => "probe-budget",
        StopReason::WallBudget => "wall-budget",
        StopReason::ScheduleComplete => "schedule-complete",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_reason_names_are_stable() {
        let all = [
            (StopReason::Exhausted, "exhausted"),
            (StopReason::ThresholdReached, "threshold-reached"),
            (StopReason::Cancelled, "cancelled"),
            (StopReason::ProbeBudget, "probe-budget"),
            (StopReason::WallBudget, "wall-budget"),
            (StopReason::ScheduleComplete, "schedule-complete"),
        ];
        for (reason, name) in all {
            assert_eq!(stop_reason_name(reason), name);
        }
    }

    #[test]
    fn escapes_and_renders_compactly() {
        let j = Json::obj([
            ("s", Json::str("a\"b\\c\nd")),
            ("n", Json::Num(1.5)),
            ("u", Json::UInt(u64::MAX)),
            ("inf", Json::Num(f64::INFINITY)),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"s": "a\"b\\c\nd","n": 1.5,"u": 18446744073709551615,"inf": null,"arr": [true,null]}"#
        );
    }

    #[test]
    fn pretty_round_trips_structure() {
        let j = Json::obj([
            ("a", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("b", Json::obj([("c", Json::Null)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let p = j.pretty();
        assert!(p.contains("\"a\": [\n    1,\n    2\n  ]"));
        assert!(p.contains("\"empty\": []"));
        assert!(p.ends_with("}\n"));
    }

    #[test]
    fn qor_json_has_all_fields() {
        let qor = QorReport {
            avg_relative: 0.01,
            worst_absolute: 7,
            certified_worst_absolute: Some(9),
            samples: 100,
            ..QorReport::default()
        };
        let s = qor_json(&qor).to_string();
        assert!(s.contains("\"avg_relative\": 0.01"));
        assert!(s.contains("\"worst_absolute\": 7"));
        assert!(s.contains("\"certified_worst_absolute\": 9"));
        assert!(s.contains("\"samples\": 100"));
    }

    #[test]
    fn every_metric_round_trips_through_its_name() {
        // QorMetric::ALL is the exhaustive variant list, so the CLI
        // `--metric` flag can never drift from the report layer: a new
        // variant without a metric_name arm fails to compile, and one
        // parse_metric cannot read back fails here.
        for m in QorMetric::ALL {
            assert_eq!(parse_metric(metric_name(m)), Some(m), "{m:?}");
        }
    }

    #[test]
    fn metric_parsing_is_forgiving() {
        for m in QorMetric::ALL {
            let name = metric_name(m);
            // Case-insensitive, whitespace-tolerant, `_` for `-`.
            assert_eq!(parse_metric(&name.to_ascii_uppercase()), Some(m), "{name}");
            assert_eq!(parse_metric(&format!("  {name} ")), Some(m), "{name}");
            assert_eq!(parse_metric(&name.replace('-', "_")), Some(m), "{name}");
        }
        assert_eq!(parse_metric("ber"), Some(QorMetric::BitErrorRate));
        assert_eq!(parse_metric("REL"), Some(QorMetric::AvgRelative));
        assert_eq!(parse_metric("Abs"), Some(QorMetric::AvgAbsolute));
        assert_eq!(parse_metric("nope"), None);
        assert_eq!(parse_metric(""), None);
    }

    #[test]
    fn flow_report_surfaces_the_rounded_sample_count() {
        use crate::flow::run;
        use crate::session::{ExploreSpec, FlowConfig};
        use blasys_logic::builder::{add, input_bus, mark_output_bus};
        use blasys_logic::Netlist;

        let mut nl = Netlist::new("add4");
        let a = input_bus(&mut nl, "a", 4);
        let b = input_bus(&mut nl, "b", 4);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        // 1000 requested -> 16 blocks -> 1024 evaluated. Every report
        // (all trajectory steps and the projected FlowReport) must
        // carry the actual count, never the requested one.
        let cfg = FlowConfig::new().samples(1000).seed(5);
        let result = run(&nl, cfg, &ExploreSpec::new()).unwrap();
        for p in result.trajectory() {
            assert_eq!(p.qor.samples, 1024, "step {}", p.step);
        }
        let report = FlowReport::from_result(&result, 0);
        assert_eq!(report.qor.samples, 1024);
        let json = report.to_json().to_string();
        assert!(json.contains("\"samples\": 1024"), "{json}");
        assert!(
            !json.contains("\"samples\": 1000"),
            "requested count must not leak"
        );
    }

    #[test]
    fn explorer_names_round_trip() {
        for e in [
            Explorer::Greedy,
            Explorer::Beam { width: 1 },
            Explorer::Beam { width: 7 },
            Explorer::Pareto3,
        ] {
            assert_eq!(parse_explorer(&explorer_name(&e)), Some(e), "{e:?}");
        }
        // `anneal` round-trips to the default schedule by design.
        assert_eq!(
            parse_explorer("anneal"),
            Some(Explorer::Anneal(AnnealSchedule::default()))
        );
        assert_eq!(parse_explorer("beam"), Some(Explorer::Beam { width: 4 }));
        assert_eq!(
            parse_explorer(" BEAM:2 "),
            Some(Explorer::Beam { width: 2 })
        );
        assert_eq!(parse_explorer("beam:0"), None);
        assert_eq!(parse_explorer("beam:-1"), None);
        assert_eq!(parse_explorer("beam:"), None);
        assert_eq!(parse_explorer("hillclimb"), None);
        assert_eq!(parse_explorer(""), None);
    }

    #[test]
    fn flow_report_records_the_explorer() {
        use crate::flow::run;
        use crate::session::{ExploreSpec, FlowConfig};
        use blasys_circuits::multiplier;

        let cfg = FlowConfig::new().samples(512).seed(3);
        let result = run(&multiplier(2), cfg, &ExploreSpec::new()).unwrap();
        let report = FlowReport::from_result(&result, 0).with_explorer(Explorer::Beam { width: 4 });
        let s = report.to_json().to_string();
        assert!(s.contains("\"explorer\": \"beam:4\""), "{s}");
        assert!(s.contains("\"beam_width\": 4"), "{s}");
        // Non-beam engines omit the width key.
        let s = FlowReport::from_result(&result, 0)
            .with_explorer(Explorer::Greedy)
            .to_json()
            .to_string();
        assert!(s.contains("\"explorer\": \"greedy\""), "{s}");
        assert!(!s.contains("beam_width"), "{s}");
    }

    #[test]
    fn flow_report_projects_a_run() {
        use crate::flow::run;
        use crate::session::{ExploreSpec, FlowConfig};
        use blasys_logic::builder::{add, input_bus, mark_output_bus};
        use blasys_logic::Netlist;

        let mut nl = Netlist::new("add4");
        let a = input_bus(&mut nl, "a", 4);
        let b = input_bus(&mut nl, "b", 4);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        let cfg = FlowConfig::new().samples(1024).seed(5);
        let result = run(&nl, cfg, &ExploreSpec::new()).unwrap();
        let step = result.trajectory().len() - 1;
        let report = FlowReport::from_result(&result, step);
        assert_eq!(report.circuit, "add4");
        assert_eq!(report.num_inputs, 8);
        assert_eq!(report.step, step);
        let s = report.to_json().to_string();
        assert!(s.contains("\"circuit\": \"add4\""));
        assert!(s.contains("\"savings\""));
        assert!(s.contains("\"qor\""));
    }
}

//! Pieces of the in-process flow workload (`suite_flow`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blasys_core::{FlowConfig, FlowObserver, TrajectoryPoint};
use blasys_obs::Registry;

use crate::metrics::{engine_layers, ratio, Counters};
use crate::trace::{Tracer, WindowSpans};

/// Timestamps each committed trajectory point as the caller of
/// `explore_with` receives it. The gaps between consecutive points are
/// the per-step query latencies.
#[derive(Default)]
pub struct StepClock {
    stamps: Mutex<Vec<Instant>>,
}

impl StepClock {
    /// Milliseconds between consecutive points (one per step after the
    /// exact step 0).
    pub fn gaps_ms(&self) -> Vec<f64> {
        let stamps = self.stamps.lock().expect("step clock lock");
        stamps
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
            .collect()
    }
}

impl FlowObserver for StepClock {
    fn on_trajectory_point(&self, _point: &TrajectoryPoint) {
        self.stamps
            .lock()
            .expect("step clock lock")
            .push(Instant::now());
    }
}

/// Attach the traced run's instruments (a metrics registry and a
/// window-span observer) to a flow configuration; untraced runs get
/// neither.
pub fn instrument(
    cfg: FlowConfig,
    tracer: &Arc<Tracer>,
    registry: &Option<Arc<Registry>>,
    op: u64,
) -> FlowConfig {
    match registry {
        Some(r) if tracer.enabled() => cfg
            .metrics(r.clone())
            .observer(WindowSpans::new(tracer.clone(), op)),
        _ => cfg,
    }
}

/// The registry a traced pass attaches to its sessions.
pub fn registry_for(tracer: &Tracer) -> Option<Arc<Registry>> {
    tracer.enabled().then(|| Arc::new(Registry::new()))
}

/// Counts a flow workload reports next to its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowCounts {
    pub windows: usize,
    pub probes: u64,
    pub steps: usize,
    pub sat_conflicts: u64,
}

/// Per-layer metrics of a flow workload from its spans and registry.
pub fn flow_layers(
    tracer: &Tracer,
    registry: &Registry,
    counts: FlowCounts,
    workers: usize,
) -> BTreeMap<&'static str, f64> {
    let mut l = BTreeMap::new();
    let c = Counters::from_snapshot(&registry.snapshot());
    engine_layers(&mut l, &c);
    let profile_ms = tracer.total_ms("profile");
    let window_sum = tracer.total_ms("window");
    let explore_ms = tracer.total_ms("explore");
    l.insert("logic.blif_parse_ms", tracer.total_ms("parse"));
    l.insert("decomp.open_ms", tracer.total_ms("open"));
    l.insert("decomp.windows", counts.windows as f64);
    l.insert("profile.ms", profile_ms);
    l.insert("profile.window_ms_sum", window_sum);
    l.insert("profile.window_ms_max", tracer.max_ms("window"));
    l.insert("profile.synth_ms", window_sum - l["bmf.factorize_ms"]);
    l.insert(
        "par.busy_ratio",
        ratio(window_sum, profile_ms * workers as f64),
    );
    l.insert(
        "explore.evaluator_build_ms",
        tracer.total_ms("evaluator_build"),
    );
    l.insert("explore.ms", explore_ms);
    l.insert("explore.probes", counts.probes as f64);
    l.insert("explore.steps", counts.steps as f64);
    l.insert(
        "explore.us_per_probe",
        ratio(explore_ms * 1e3, counts.probes as f64),
    );
    l.insert("synth.estimate_ms", tracer.total_ms("estimate"));
    l.insert("certify.ms", tracer.total_ms("certify"));
    l.insert("sat.conflicts", counts.sat_conflicts as f64);
    l
}

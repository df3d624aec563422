//! Bridges between the flow and the [`blasys_obs`] primitives.
//!
//! The flow itself never depends on a tracer or a registry directly:
//! stages report through [`FlowObserver`]
//! callbacks and the engine through optional [`QorCounters`] handles.
//! This module supplies the ready-made glue:
//!
//! * [`TraceObserver`] — a `FlowObserver` that records every stage and
//!   window as a chrome-trace span on a [`Tracer`], optionally echoing
//!   milestones into a [`FlightRecorder`];
//! * [`Observers`] — fan-out to several observers at once (a progress
//!   printer *and* a tracer, say);
//! * [`QorCounters`] — the packed QoR engine's counter block,
//!   registered under stable `qor.*` names.
//!
//! # Counter determinism
//!
//! `qor.probes`, `qor.commits` and `qor.commit_lanes` are
//! **deterministic**: bit-identical across worker counts and repeat
//! runs with the same settings. The remaining engine counters (`qor.probes_pruned`,
//! `qor.blocks_evaluated`, `qor.cone_cache.*`,
//! `qor.lanes_reevaluated`, `qor.lanes_reused`) are deterministic
//! whenever pruning decisions are — with pruning disabled (any worker
//! count) or with a single worker. Under pruning with multiple
//! workers, *which* losing candidates get abandoned early depends on
//! thread timing (the shared running-best bound), so those counters
//! may vary run to run even though the flow's results never do.
//! `pool.*` metrics are wall-clock observations and make no
//! determinism promise at all.

use std::sync::Arc;

use blasys_obs::{Counter, FlightRecorder, Registry, Tracer};

use crate::explore::TrajectoryPoint;
use crate::profile::SubcircuitProfile;
use crate::session::{FlowObserver, FlowStage};

/// A [`FlowObserver`] that records flow structure on a [`Tracer`]:
/// a `B`/`E` span per stage, a `window` span per profiled window, and
/// an instant event per committed exploration step. Attach a
/// [`FlightRecorder`] to also keep the same milestones as post-mortem
/// breadcrumbs.
///
/// Window spans open and close on the profiling *worker* threads, so
/// the exported trace shows per-thread window scheduling — exactly
/// what Perfetto's track view is for.
#[derive(Debug, Clone)]
pub struct TraceObserver {
    tracer: Arc<Tracer>,
    flight: Option<Arc<FlightRecorder>>,
}

impl TraceObserver {
    /// Record onto `tracer` only.
    pub fn new(tracer: Arc<Tracer>) -> TraceObserver {
        TraceObserver {
            tracer,
            flight: None,
        }
    }

    /// Also append milestones to a flight recorder.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> TraceObserver {
        self.flight = Some(flight);
        self
    }

    fn note(&self, what: impl FnOnce() -> String) {
        if let Some(f) = &self.flight {
            f.record(what());
        }
    }
}

impl FlowObserver for TraceObserver {
    fn on_stage_start(&self, stage: FlowStage) {
        self.tracer.begin(stage.name());
        self.note(|| format!("{stage}: start"));
    }

    fn on_stage_end(&self, stage: FlowStage) {
        self.tracer.end(stage.name());
        self.note(|| format!("{stage}: end"));
    }

    fn on_window_start(&self, cluster: usize) {
        let _ = cluster;
        self.tracer.begin("window");
    }

    fn on_window_profiled(&self, profile: &SubcircuitProfile, total_windows: usize) {
        self.tracer.end("window");
        self.note(|| {
            format!(
                "profile: window cluster {} done ({} variants, total {})",
                profile.cluster,
                profile.variants.len(),
                total_windows
            )
        });
    }

    fn on_trajectory_point(&self, point: &TrajectoryPoint) {
        self.tracer.instant("step");
        self.note(|| {
            format!(
                "explore: step {} avg-rel {:.6}",
                point.step, point.qor.avg_relative
            )
        });
    }
}

/// Fan-out: forwards every callback to each wrapped observer in order.
///
/// ```
/// use std::sync::Arc;
/// use blasys_core::obs::{Observers, TraceObserver};
/// use blasys_obs::Tracer;
///
/// let tracer = Arc::new(Tracer::default());
/// // An `Arc` of an observer is an observer too, so a handle kept
/// // elsewhere can join the fan-out.
/// let shared = Arc::new(TraceObserver::new(tracer.clone()));
/// let both = Observers::new()
///     .with(TraceObserver::new(tracer))
///     .with(shared.clone());
/// # let _ = both;
/// ```
#[derive(Default)]
pub struct Observers {
    inner: Vec<Arc<dyn FlowObserver>>,
}

impl std::fmt::Debug for Observers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observers")
            .field("len", &self.inner.len())
            .finish()
    }
}

impl Observers {
    /// An empty fan-out (all callbacks become no-ops).
    pub fn new() -> Observers {
        Observers::default()
    }

    /// Add an observer by value.
    pub fn with(mut self, observer: impl FlowObserver + 'static) -> Observers {
        self.inner.push(Arc::new(observer));
        self
    }

    /// Number of wrapped observers.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the fan-out is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl FlowObserver for Observers {
    fn on_stage_start(&self, stage: FlowStage) {
        for o in &self.inner {
            o.on_stage_start(stage);
        }
    }

    fn on_stage_end(&self, stage: FlowStage) {
        for o in &self.inner {
            o.on_stage_end(stage);
        }
    }

    fn on_window_start(&self, cluster: usize) {
        for o in &self.inner {
            o.on_window_start(cluster);
        }
    }

    fn on_window_profiled(&self, profile: &SubcircuitProfile, total_windows: usize) {
        for o in &self.inner {
            o.on_window_profiled(profile, total_windows);
        }
    }

    fn on_trajectory_point(&self, point: &TrajectoryPoint) {
        for o in &self.inner {
            o.on_trajectory_point(point);
        }
    }
}

/// The packed QoR engine's counter block. One instance is shared by
/// the pristine evaluator and every per-exploration clone, so counts
/// accumulate across a whole session. See the [module
/// docs](self#counter-determinism) for which counters are
/// deterministic.
#[derive(Debug)]
pub struct QorCounters {
    /// Candidate probes issued (`qor.probes`). Deterministic.
    pub probes: Arc<Counter>,
    /// Probes abandoned early by the QoR bound (`qor.probes_pruned`).
    pub probes_pruned: Arc<Counter>,
    /// 64-sample blocks accumulated before each probe finished or was
    /// pruned (`qor.blocks_evaluated`).
    pub blocks: Arc<Counter>,
    /// Per-(cluster, block) cone evaluations skipped because the
    /// input delta was empty (`qor.cone_cache.hits`).
    pub cone_hits: Arc<Counter>,
    /// Per-(cluster, block) cone evaluations performed
    /// (`qor.cone_cache.misses`).
    pub cone_misses: Arc<Counter>,
    /// Monte-Carlo lanes re-simulated across all cone evaluations
    /// (`qor.lanes_reevaluated`); lanes taken from the cross-step lane
    /// cache are not re-simulated, so they are not counted here.
    pub lanes: Arc<Counter>,
    /// Root-changed lanes whose packed output a probe took from the
    /// cross-step lane cache instead of re-simulating them
    /// (`qor.lanes_reused`).
    pub lanes_reused: Arc<Counter>,
    /// Winning candidates committed into the evaluator
    /// (`qor.commits`). Deterministic.
    pub commits: Arc<Counter>,
    /// Cluster-lanes re-simulated by commits' cone passes
    /// (`qor.commit_lanes`). Commits follow the trajectory, so this is
    /// deterministic.
    pub commit_lanes: Arc<Counter>,
}

impl QorCounters {
    /// Create (or re-attach to) the `qor.*` counters of `registry`.
    pub fn register(registry: &Registry) -> QorCounters {
        QorCounters {
            probes: registry.counter("qor.probes"),
            probes_pruned: registry.counter("qor.probes_pruned"),
            blocks: registry.counter("qor.blocks_evaluated"),
            cone_hits: registry.counter("qor.cone_cache.hits"),
            cone_misses: registry.counter("qor.cone_cache.misses"),
            lanes: registry.counter("qor.lanes_reevaluated"),
            lanes_reused: registry.counter("qor.lanes_reused"),
            commits: registry.counter("qor.commits"),
            commit_lanes: registry.counter("qor.commit_lanes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_obs::TracePhase;

    #[test]
    fn trace_observer_emits_balanced_stage_spans() {
        let tracer = Arc::new(Tracer::default());
        let obs = TraceObserver::new(tracer.clone());
        obs.on_stage_start(FlowStage::Profile);
        obs.on_window_start(3);
        obs.on_stage_end(FlowStage::Profile);
        let events = tracer.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].phase, TracePhase::Begin);
        assert_eq!(events[0].name, "profile");
        assert_eq!(events[1].name, "window");
        // The tracer closes the dangling window span for us.
        assert_eq!(events[3].phase, TracePhase::End);
        let json = crate::report::chrome_json(&tracer).to_string();
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 2);
    }

    #[test]
    fn observers_fan_out_in_order() {
        use std::sync::Mutex;
        struct Log(Arc<Mutex<Vec<&'static str>>>, &'static str);
        impl FlowObserver for Log {
            fn on_stage_start(&self, _stage: FlowStage) {
                self.0.lock().unwrap().push(self.1);
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let fan = Observers::new()
            .with(Log(log.clone(), "first"))
            .with(Log(log.clone(), "second"));
        assert_eq!(fan.len(), 2);
        fan.on_stage_start(FlowStage::Decompose);
        assert_eq!(*log.lock().unwrap(), vec!["first", "second"]);
    }

    #[test]
    fn qor_counters_share_a_registry() {
        let registry = Registry::default();
        let a = QorCounters::register(&registry);
        let b = QorCounters::register(&registry);
        a.probes.add(3);
        b.probes.add(4);
        assert_eq!(registry.snapshot().counter("qor.probes"), Some(7));
    }
}

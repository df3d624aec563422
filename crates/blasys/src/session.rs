//! Staged flow sessions: decompose and profile **once**, explore
//! **many times**.
//!
//! Decomposition and per-window BMF profiling dominate wall-clock and
//! depend only on the circuit and the profile settings, while
//! exploration settings (metric, threshold, pruning, budgets) vary per
//! query. Rerunning the whole pipeline per query is therefore the
//! wrong altitude for serving many queries against the same circuit.
//!
//! [`FlowSession`] splits the pipeline into typestate-checked stages:
//!
//! ```text
//! FlowSession::open(&nl, cfg)      -> FlowSession<Decomposed>   (validate + partition)
//!     .profile()                   -> FlowSession<Profiled>     (BMF ladders + evaluator)
//!     .explore(&spec)              -> Exploration               (any number of times)
//! ```
//!
//! A `Profiled` session caches the partition, the per-window
//! factorization profiles, the Monte-Carlo stimulus/golden outputs,
//! and a persistent [`Pool`] of worker threads built once at open —
//! every [`explore`](FlowSession::explore) call reuses all of them and
//! only pays for its own candidate sweep. Explorations are
//! bit-identical to a fresh one-shot flow with the same settings (the
//! one-shot [`run`](crate::flow::run) is itself one open → profile →
//! explore pass, and differential tests enforce identity).
//!
//! # Observers, cancellation, budgets
//!
//! Long flows stream progress through a [`FlowObserver`] (stage
//! begin/end, per-window profile completion, every committed
//! [`TrajectoryPoint`]), can be stopped cooperatively with a
//! [`CancelToken`], and can be capped with a probe or wall-clock
//! [`Budget`]. A stopped exploration is not an error: it returns a
//! well-formed [`Exploration`] whose trajectory is a **prefix** of the
//! uninterrupted one (stops happen only at committed-step boundaries)
//! and whose [`StopReason`] says why it ended. Such a prefix converts
//! into a fully functional partial
//! [`BlasysResult`] via
//! [`FlowSession::result`].
//!
//! # Example
//!
//! ```
//! use blasys_circuits::multiplier;
//! use blasys_core::session::{ExploreSpec, FlowConfig, FlowSession};
//! use blasys_core::QorMetric;
//!
//! let nl = multiplier(3);
//! let session = FlowSession::open(&nl, FlowConfig::new().samples(512))
//!     .unwrap()
//!     .profile()
//!     .unwrap();
//! // One profile pass serves arbitrarily many explorations.
//! let strict = session.explore(&ExploreSpec::new().threshold(0.01));
//! let loose = session.explore(&ExploreSpec::new().threshold(0.25));
//! let by_bits = session.explore(
//!     &ExploreSpec::new()
//!         .metric(QorMetric::BitErrorRate)
//!         .threshold(0.05),
//! );
//! assert!(loose.trajectory().len() >= strict.trajectory().len());
//! let result = session.result(&by_bits);
//! assert_eq!(result.trajectory().len(), by_bits.trajectory().len());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use blasys_bmf::{Algebra, FactorizeCounters, Factorizer};
use blasys_decomp::{decompose, DecompConfig, Partition};
use blasys_logic::Netlist;
use blasys_obs::Registry;
use blasys_par::{Parallelism, Pool, PoolMetrics};
use blasys_synth::CellLibrary;

use crate::explore::{explore_ctx, Explorer, StopCriterion, TrajectoryPoint};
use crate::flow::{influence_weights, BlasysResult, FlowError, OutputWeighting};
use crate::montecarlo::{Evaluator, McConfig};
use crate::obs::QorCounters;
use crate::pareto::TradeoffPoint;
use crate::profile::{profile_partition_ctx, ProfileConfig, SubcircuitProfile};
use crate::qor::QorMetric;

/// The pipeline stages a [`FlowObserver`] sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// k×m-cut decomposition ([`FlowSession::open`]).
    Decompose,
    /// Per-window BMF profiling ([`FlowSession::profile`]).
    Profile,
    /// One greedy candidate-sweep exploration
    /// ([`FlowSession::explore`]).
    Explore,
}

impl std::fmt::Display for FlowStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FlowStage::Decompose => "decompose",
            FlowStage::Profile => "profile",
            FlowStage::Explore => "explore",
        })
    }
}

/// Streaming progress callbacks for a flow session.
///
/// All methods have empty defaults — implement only what you need.
/// [`on_window_profiled`](FlowObserver::on_window_profiled) is invoked
/// from the profiling workers **concurrently and in completion
/// order**, so implementations must be thread-safe (the trait requires
/// `Send + Sync`); the other callbacks arrive from the session's
/// thread in pipeline order.
pub trait FlowObserver: Send + Sync {
    /// A pipeline stage is starting.
    fn on_stage_start(&self, stage: FlowStage) {
        let _ = stage;
    }

    /// A pipeline stage finished.
    fn on_stage_end(&self, stage: FlowStage) {
        let _ = stage;
    }

    /// A window's factorization ladder is about to be profiled (called
    /// from the worker thread that will profile it; pairs with
    /// [`on_window_profiled`](FlowObserver::on_window_profiled) on the
    /// same thread).
    fn on_window_start(&self, cluster: usize) {
        let _ = cluster;
    }

    /// One window's full factorization ladder was profiled
    /// (`total_windows` = partition size; called once per window, from
    /// worker threads, in completion order).
    fn on_window_profiled(&self, profile: &SubcircuitProfile, total_windows: usize) {
        let _ = (profile, total_windows);
    }

    /// One trajectory point was committed during exploration
    /// (including the exact step 0).
    fn on_trajectory_point(&self, point: &TrajectoryPoint) {
        let _ = point;
    }
}

/// Shared observers observe too: an `Arc<O>` forwards every callback
/// to `O`. This is what lets [`FlowConfig::observer`] take observers
/// by value while callers that want to keep a handle (to read counters
/// after the flow, say) simply pass an `Arc` clone.
impl<T: FlowObserver + ?Sized> FlowObserver for Arc<T> {
    fn on_stage_start(&self, stage: FlowStage) {
        (**self).on_stage_start(stage);
    }

    fn on_stage_end(&self, stage: FlowStage) {
        (**self).on_stage_end(stage);
    }

    fn on_window_start(&self, cluster: usize) {
        (**self).on_window_start(cluster);
    }

    fn on_window_profiled(&self, profile: &SubcircuitProfile, total_windows: usize) {
        (**self).on_window_profiled(profile, total_windows);
    }

    fn on_trajectory_point(&self, point: &TrajectoryPoint) {
        (**self).on_trajectory_point(point);
    }
}

/// A cooperative cancellation handle: clone it, hand one clone to the
/// flow (via [`FlowConfig::cancel`] or [`ExploreSpec::cancel`]) and
/// trip it from anywhere — another thread, a signal handler, or a
/// [`FlowObserver`] callback. Stages notice at the next window /
/// committed-step boundary, so a cancelled exploration's trajectory is
/// always a prefix of the uncancelled one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token: every flow stage holding a clone stops at its
    /// next check point. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource caps for one exploration (and, via
/// [`FlowConfig::wall_budget`], for the profiling stage).
///
/// Budgets are *cooperative stop conditions*, not errors: exceeding
/// one ends the exploration cleanly with the corresponding
/// [`StopReason`] and a well-formed partial trajectory. The probe
/// budget is **deterministic** — it counts candidate evaluations, not
/// time — so capped runs reproduce exactly; the wall budget depends on
/// machine speed by nature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Stop before any exploration step whose candidate sweep would
    /// push the total number of candidate probes past this cap
    /// (`None` = unlimited). Pruned probes count like full ones.
    pub max_probes: Option<u64>,
    /// Stop at the first step boundary past this much wall-clock time
    /// (`None` = unlimited).
    pub max_wall: Option<Duration>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }
}

/// Why an exploration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every cluster reached degree 1 — the full trajectory.
    Exhausted,
    /// The next step would have crossed the
    /// [`StopCriterion::ErrorThreshold`].
    ThresholdReached,
    /// A [`CancelToken`] was tripped.
    Cancelled,
    /// The [`Budget::max_probes`] cap was reached.
    ProbeBudget,
    /// The [`Budget::max_wall`] cap was reached.
    WallBudget,
    /// An annealing run finished its full
    /// [`AnnealSchedule`](crate::explore::AnnealSchedule) without
    /// being interrupted (only [`Explorer::Anneal`] ends this way).
    ScheduleComplete,
}

/// Per-exploration settings: everything that may vary between queries
/// against one profiled session.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// Metric driving greedy selection and the stop threshold.
    pub metric: QorMetric,
    /// Error-threshold stop or full walk.
    pub stop: StopCriterion,
    /// Bound-pruned candidate probes (wall-clock only; results are
    /// bit-identical either way).
    pub prune: bool,
    /// Probe / wall-clock caps for this exploration.
    pub budget: Budget,
    /// Cooperative cancellation for this exploration.
    pub cancel: Option<CancelToken>,
    /// The search engine to run (greedy, beam, annealing, or pareto3;
    /// see [`Explorer`]). An [`Explorer::Anneal`] schedule without an
    /// explicit seed derives it from the session's Monte-Carlo seed.
    pub explorer: Explorer,
}

impl Default for ExploreSpec {
    fn default() -> ExploreSpec {
        ExploreSpec {
            metric: QorMetric::AvgRelative,
            stop: StopCriterion::Exhaust,
            prune: true,
            budget: Budget::default(),
            cancel: None,
            explorer: Explorer::Greedy,
        }
    }
}

impl ExploreSpec {
    /// Paper defaults: average relative error, full walk, greedy
    /// search, pruning on, no caps.
    pub fn new() -> ExploreSpec {
        ExploreSpec::default()
    }

    /// The metric driving exploration and thresholds.
    pub fn metric(mut self, metric: QorMetric) -> ExploreSpec {
        self.metric = metric;
        self
    }

    /// Stop at this error threshold.
    pub fn threshold(mut self, threshold: f64) -> ExploreSpec {
        self.stop = StopCriterion::ErrorThreshold(threshold);
        self
    }

    /// Walk the full trajectory regardless of error.
    pub fn exhaust(mut self) -> ExploreSpec {
        self.stop = StopCriterion::Exhaust;
        self
    }

    /// Enable/disable bound-pruned probes.
    pub fn prune(mut self, prune: bool) -> ExploreSpec {
        self.prune = prune;
        self
    }

    /// Cap the number of candidate probes (deterministic).
    pub fn probe_budget(mut self, max_probes: u64) -> ExploreSpec {
        self.budget.max_probes = Some(max_probes);
        self
    }

    /// Cap the exploration wall-clock time.
    pub fn wall_budget(mut self, max_wall: Duration) -> ExploreSpec {
        self.budget.max_wall = Some(max_wall);
        self
    }

    /// Attach a cancellation token to this exploration.
    pub fn cancel(mut self, token: CancelToken) -> ExploreSpec {
        self.cancel = Some(token);
        self
    }

    /// Select the search engine (greedy stays the default).
    pub fn explorer(mut self, explorer: Explorer) -> ExploreSpec {
        self.explorer = explorer;
        self
    }
}

/// One completed (possibly budget- or cancel-truncated) exploration:
/// the recorded trajectory plus why and how it ended.
#[derive(Debug, Clone)]
pub struct Exploration {
    pub(crate) trajectory: Vec<TrajectoryPoint>,
    pub(crate) stop: StopReason,
    pub(crate) probes: u64,
    /// 3-D Pareto surface over every feasible candidate probed, only
    /// populated by [`Explorer::Pareto3`].
    pub(crate) pareto: Option<Vec<TradeoffPoint>>,
}

impl Exploration {
    /// The recorded trajectory (first point = exact design). Always a
    /// prefix of the trajectory an uninterrupted run would record.
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// Why the exploration ended.
    pub fn stop_reason(&self) -> StopReason {
        self.stop
    }

    /// Total candidate probes evaluated (pruned probes included).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// The (error, area, depth) Pareto surface distilled from every
    /// feasible candidate probe. `Some` only for
    /// [`Explorer::Pareto3`] runs; points are sorted by (error, area,
    /// depth, step) and none dominates another.
    pub fn pareto_surface(&self) -> Option<&[TradeoffPoint]> {
        self.pareto.as_deref()
    }

    /// Consume into the raw trajectory.
    pub fn into_trajectory(self) -> Vec<TrajectoryPoint> {
        self.trajectory
    }
}

/// Shared per-stage context threaded through the pipeline internals:
/// the optional observer, the cancellation token, the wall-clock
/// deadline, and the metrics registry (for the explorers'
/// `explore.*` counters).
pub(crate) struct FlowContext<'a> {
    pub(crate) observer: Option<&'a dyn FlowObserver>,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) registry: Option<&'a Registry>,
}

impl FlowContext<'_> {
    /// No observer, token, deadline or registry: the context unit
    /// tests drive the pipeline internals with.
    #[cfg(test)]
    pub(crate) const NONE: FlowContext<'static> = FlowContext {
        observer: None,
        cancel: None,
        deadline: None,
        registry: None,
    };

    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    pub(crate) fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    pub(crate) fn window_start(&self, cluster: usize) {
        if let Some(o) = self.observer {
            o.on_window_start(cluster);
        }
    }

    pub(crate) fn window_profiled(&self, profile: &SubcircuitProfile, total: usize) {
        if let Some(o) = self.observer {
            o.on_window_profiled(profile, total);
        }
    }

    pub(crate) fn trajectory_point(&self, point: &TrajectoryPoint) {
        if let Some(o) = self.observer {
            o.on_trajectory_point(point);
        }
    }

    /// Bump a counter on the attached registry, if any (no-op
    /// otherwise — explorers call this unconditionally).
    pub(crate) fn count(&self, name: &str, delta: u64) {
        if let Some(r) = self.registry {
            r.counter(name).add(delta);
        }
    }
}

/// Session-wide configuration: everything the decompose and profile
/// stages need, i.e. everything that is *per circuit* rather than per
/// exploration. Builder-style; per-exploration settings live on
/// [`ExploreSpec`].
#[derive(Clone)]
pub struct FlowConfig {
    pub(crate) decomp: DecompConfig,
    pub(crate) factorizer: Factorizer,
    pub(crate) library: CellLibrary,
    pub(crate) mc: McConfig,
    pub(crate) weighting: OutputWeighting,
    pub(crate) hybrid: bool,
    pub(crate) stimulus: Option<Vec<Vec<u64>>>,
    pub(crate) parallelism: Parallelism,
    pub(crate) observer: Option<Arc<dyn FlowObserver>>,
    pub(crate) metrics: Option<Arc<Registry>>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) wall_budget: Option<Duration>,
}

impl std::fmt::Debug for FlowConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowConfig")
            .field("decomp", &self.decomp)
            .field("mc", &self.mc)
            .field("weighting", &self.weighting)
            .field("hybrid", &self.hybrid)
            .field("stimulus", &self.stimulus.is_some())
            .field("parallelism", &self.parallelism)
            .field("observer", &self.observer.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("wall_budget", &self.wall_budget)
            .finish_non_exhaustive()
    }
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig::new()
    }
}

impl FlowConfig {
    /// Paper defaults: k = m = 10 decomposition, ASSO with threshold
    /// sweep, OR semi-ring, uniform weights, hybrid ladders, 10 k
    /// Monte-Carlo samples (the paper uses 1 M), worker threads from
    /// `BLASYS_THREADS` (unset → serial).
    pub fn new() -> FlowConfig {
        FlowConfig {
            decomp: DecompConfig::default(),
            factorizer: Factorizer::new(),
            library: CellLibrary::typical_65nm(),
            mc: McConfig::default(),
            weighting: OutputWeighting::Uniform,
            hybrid: true,
            stimulus: None,
            parallelism: Parallelism::default(),
            observer: None,
            metrics: None,
            cancel: None,
            wall_budget: None,
        }
    }

    /// Set the decomposition limits `k × m`.
    pub fn limits(mut self, k: usize, m: usize) -> FlowConfig {
        self.decomp.max_inputs = k;
        self.decomp.max_outputs = m;
        self
    }

    /// Set the full decomposition configuration.
    pub fn decomposition(mut self, cfg: DecompConfig) -> FlowConfig {
        self.decomp = cfg;
        self
    }

    /// Number of Monte-Carlo samples (rounded up to a multiple of 64).
    pub fn samples(mut self, samples: usize) -> FlowConfig {
        self.mc.samples = samples;
        self
    }

    /// RNG seed for the Monte-Carlo stimulus.
    pub fn seed(mut self, seed: u64) -> FlowConfig {
        self.mc.seed = seed;
        self
    }

    /// Explicit Monte-Carlo stimulus (`stimulus[input][block]`).
    pub fn stimulus(mut self, stimulus: Vec<Vec<u64>>) -> FlowConfig {
        self.stimulus = Some(stimulus);
        self
    }

    /// Select the weighted-QoR scheme.
    pub fn weighting(mut self, weighting: OutputWeighting) -> FlowConfig {
        self.weighting = weighting;
        self
    }

    /// Toggle the hybrid ASSO/GreConD per-variant selection.
    pub fn hybrid(mut self, hybrid: bool) -> FlowConfig {
        self.hybrid = hybrid;
        self
    }

    /// OR-semi-ring vs XOR-field decompressors.
    pub fn algebra(mut self, algebra: Algebra) -> FlowConfig {
        self.factorizer = self.factorizer.algebra(algebra);
        self
    }

    /// Worker threads for the session. The session builds one
    /// persistent [`Pool`] at open time and reuses it for profiling
    /// and every exploration; results are bit-identical at every
    /// setting.
    pub fn parallelism(mut self, parallelism: Parallelism) -> FlowConfig {
        self.parallelism = parallelism;
        self
    }

    /// Shorthand for [`FlowConfig::parallelism`] (`0` = auto, `1` =
    /// serial).
    pub fn threads(self, n: usize) -> FlowConfig {
        self.parallelism(match n {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            n => Parallelism::Threads(n),
        })
    }

    /// Attach a progress observer to every stage of the session.
    ///
    /// Takes any observer by value — including an `Arc<O>` clone when
    /// you want to keep a handle to read its state after the flow (an
    /// `Arc<O>` is itself a [`FlowObserver`] that forwards to `O`):
    ///
    /// ```ignore
    /// let stages = Arc::new(Stages::default());
    /// let cfg = FlowConfig::new().observer(stages.clone());
    /// // ... run the flow, then inspect `stages` ...
    /// ```
    pub fn observer(mut self, observer: impl FlowObserver + 'static) -> FlowConfig {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// Like [`FlowConfig::observer`], for an observer that is already
    /// type-erased behind `Arc<dyn FlowObserver>`.
    pub fn observer_shared(mut self, observer: Arc<dyn FlowObserver>) -> FlowConfig {
        self.observer = Some(observer);
        self
    }

    /// Attach a metrics registry. The session registers and updates
    /// `flow.*` stage wall-time counters, `qor.*` engine counters, and
    /// (with two or more workers) `pool.*` worker metrics on it; snapshot
    /// the registry whenever you like. See
    /// [`crate::obs`](crate::obs#counter-determinism) for which
    /// counters are deterministic.
    pub fn metrics(mut self, registry: Arc<Registry>) -> FlowConfig {
        self.metrics = Some(registry);
        self
    }

    /// Attach a cancellation token to the decompose/profile stages
    /// (exploration cancellation lives on [`ExploreSpec::cancel`]).
    pub fn cancel(mut self, token: CancelToken) -> FlowConfig {
        self.cancel = Some(token);
        self
    }

    /// Cap the profiling stage's wall-clock time; exceeding it makes
    /// [`FlowSession::profile`] return
    /// [`FlowError::BudgetExhausted`].
    pub fn wall_budget(mut self, max_wall: Duration) -> FlowConfig {
        self.wall_budget = Some(max_wall);
        self
    }

    fn observe(&self, f: impl FnOnce(&dyn FlowObserver)) {
        if let Some(o) = &self.observer {
            f(o.as_ref());
        }
    }
}

/// Typestate marker: the session holds a validated netlist and its
/// partition; windows are not profiled yet.
#[derive(Debug)]
pub struct Decomposed(());

/// Typestate marker + payload: windows are profiled and the session
/// can explore.
#[derive(Debug)]
pub struct Profiled {
    profiles: Vec<SubcircuitProfile>,
    /// The exact-tables evaluator, never mutated: built lazily on the
    /// first exploration (callers that only want the profiles — e.g.
    /// `blasys profile` — never pay for the golden simulation), then
    /// cloned per exploration instead of re-simulated.
    pristine: OnceLock<Evaluator>,
}

/// A staged flow session; see the [module docs](self) for the
/// lifecycle and an example.
pub struct FlowSession<Stage> {
    cfg: FlowConfig,
    original: Netlist,
    partition: Partition,
    /// Persistent worker pool, built once at open (one worker runs
    /// inline on the caller).
    pool: Pool,
    stage: Stage,
}

impl<Stage> FlowSession<Stage> {
    /// The input netlist.
    pub fn original(&self) -> &Netlist {
        &self.original
    }

    /// The k×m-cut partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }
}

impl FlowSession<Decomposed> {
    /// Validate a netlist and decompose it into k×m windows.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidNetlist`] for a netlist that fails admission
    /// linting; otherwise no outputs, more than 64 outputs, no inputs,
    /// or nothing to approximate.
    pub fn open(nl: &Netlist, cfg: FlowConfig) -> Result<FlowSession<Decomposed>, FlowError> {
        // Netlists reach here from untrusted sources (parsed BLIF), so
        // the storage-invariant check always runs — it is linear and
        // cheap next to decomposition.
        blasys_lint::verify_netlist(nl).map_err(FlowError::InvalidNetlist)?;
        if nl.num_outputs() == 0 {
            return Err(FlowError::NoOutputs);
        }
        if nl.num_outputs() > 64 {
            return Err(FlowError::TooManyOutputs {
                outputs: nl.num_outputs(),
            });
        }
        if nl.num_inputs() == 0 {
            return Err(FlowError::NoInputs);
        }
        if nl.gate_count() == 0 {
            return Err(FlowError::NoGates);
        }
        cfg.observe(|o| o.on_stage_start(FlowStage::Decompose));
        let t0 = Instant::now();
        let partition = decompose(nl, &cfg.decomp);
        if let Some(r) = &cfg.metrics {
            r.counter("flow.decompose.wall_ns")
                .add(t0.elapsed().as_nanos() as u64);
        }
        cfg.observe(|o| o.on_stage_end(FlowStage::Decompose));
        if partition.is_empty() {
            return Err(FlowError::NoGates);
        }
        if cfg!(debug_assertions) {
            // A bad partition from a valid netlist is a decomposer
            // bug, not an input problem — assert, don't return.
            if let Err(diags) = blasys_lint::verify_partition(nl, &partition) {
                panic!("decompose produced an inconsistent partition: {diags:?}");
            }
        }
        // Scheduling metrics only mean something with worker threads.
        let workers = cfg.parallelism.worker_count();
        let metrics = cfg
            .metrics
            .as_ref()
            .filter(|_| workers >= 2)
            .map(|r| PoolMetrics::register(r, workers));
        let pool = Pool::new_with_metrics(workers, metrics);
        Ok(FlowSession {
            cfg,
            original: nl.clone(),
            partition,
            pool,
            stage: Decomposed(()),
        })
    }

    /// Profile every window (the full BMF degree ladder per cluster),
    /// advancing the session to [`Profiled`]. The Monte-Carlo
    /// evaluator (golden-output simulation) is built lazily on the
    /// first exploration, so profile-only consumers never pay for it.
    ///
    /// # Errors
    ///
    /// [`FlowError::Cancelled`] if the session's [`CancelToken`] was
    /// tripped, [`FlowError::BudgetExhausted`] if the session's
    /// [`wall_budget`](FlowConfig::wall_budget) ran out. A profile
    /// stage that fails this way discards its partial work — unlike
    /// exploration, half a profile cannot serve queries.
    pub fn profile(self) -> Result<FlowSession<Profiled>, FlowError> {
        let FlowSession {
            cfg,
            original,
            partition,
            pool,
            ..
        } = self;
        let output_weights = match cfg.weighting {
            OutputWeighting::Uniform => None,
            OutputWeighting::ValueInfluence => Some(influence_weights(&original, &partition)),
        };
        // With a metrics registry attached, profiling cost lands in
        // the `bmf.*` block next to the engine's `qor.*` counters.
        let factorizer = match &cfg.metrics {
            Some(r) => cfg
                .factorizer
                .clone()
                .with_counters(Arc::new(FactorizeCounters::register(r))),
            None => cfg.factorizer.clone(),
        };
        let profile_cfg = ProfileConfig {
            factorizer,
            library: cfg.library.clone(),
            output_weights,
            hybrid: cfg.hybrid,
        };
        let ctx = FlowContext {
            observer: cfg.observer.as_deref(),
            cancel: cfg.cancel.as_ref(),
            deadline: cfg.wall_budget.map(|d| Instant::now() + d),
            registry: cfg.metrics.as_deref(),
        };
        cfg.observe(|o| o.on_stage_start(FlowStage::Profile));
        let t0 = Instant::now();
        let profiles = profile_partition_ctx(&original, &partition, &profile_cfg, &pool, &ctx)?;
        if let Some(r) = &cfg.metrics {
            r.counter("flow.profile.wall_ns")
                .add(t0.elapsed().as_nanos() as u64);
        }
        if ctx.cancelled() {
            return Err(FlowError::Cancelled);
        }
        if ctx.expired() {
            return Err(FlowError::BudgetExhausted);
        }
        cfg.observe(|o| o.on_stage_end(FlowStage::Profile));
        Ok(FlowSession {
            cfg,
            original,
            partition,
            pool,
            stage: Profiled {
                profiles,
                pristine: OnceLock::new(),
            },
        })
    }
}

impl FlowSession<Profiled> {
    /// Per-subcircuit factorization profiles.
    pub fn profiles(&self) -> &[SubcircuitProfile] {
        &self.stage.profiles
    }

    /// The actual evaluated Monte-Carlo sample count (requested count
    /// rounded up to a multiple of 64). Forces the lazy evaluator.
    pub fn samples(&self) -> usize {
        self.pristine().samples()
    }

    /// Number of k×m windows the decomposition produced (= the number
    /// of cached ladders explorations walk).
    pub fn clusters(&self) -> usize {
        self.stage.profiles.len()
    }

    /// The pristine exact-tables evaluator, built (golden simulation +
    /// exact table installation) on first use and cached for every
    /// later exploration.
    fn pristine(&self) -> &Evaluator {
        self.stage.pristine.get_or_init(|| {
            let mut evaluator = match &self.cfg.stimulus {
                Some(stim) => {
                    Evaluator::with_stimulus(&self.original, &self.partition, stim.clone())
                }
                None => Evaluator::new(&self.original, &self.partition, &self.cfg.mc),
            };
            if let Some(r) = &self.cfg.metrics {
                evaluator.set_counters(Arc::new(QorCounters::register(r)));
            }
            if cfg!(debug_assertions) {
                evaluator.network().debug_verify();
            }
            evaluator
        })
    }

    /// Run one exploration against the cached profiles and stimulus
    /// (greedy by default; see [`ExploreSpec::explorer`]). Any number
    /// of explorations may be run on one session, each with its own
    /// [`ExploreSpec`]; each is bit-identical to a fresh one-shot flow
    /// with the same settings.
    pub fn explore(&self, spec: &ExploreSpec) -> Exploration {
        self.explore_with(spec, None)
    }

    /// Like [`FlowSession::explore`], with a per-call observer that
    /// overrides the session-level [`FlowConfig::observer`] for this
    /// exploration only. This is what lets a long-lived cached session
    /// (e.g. in `blasys-serve`) stream one request's progress to that
    /// request without rewiring the session: pass `Some(observer)` to
    /// watch this call, `None` to fall back to the session observer.
    pub fn explore_with(
        &self,
        spec: &ExploreSpec,
        observer: Option<&dyn FlowObserver>,
    ) -> Exploration {
        let observer = observer.or(self.cfg.observer.as_deref());
        // An annealing schedule with no explicit seed inherits the
        // session's stimulus seed, so "same session config" implies
        // "same trajectory" without extra plumbing.
        let mut spec = spec.clone();
        if let Explorer::Anneal(schedule) = &mut spec.explorer {
            schedule.seed.get_or_insert(self.cfg.mc.seed);
        }
        let ctx = FlowContext {
            observer,
            cancel: spec.cancel.as_ref(),
            deadline: spec.budget.max_wall.map(|d| Instant::now() + d),
            registry: self.cfg.metrics.as_deref(),
        };
        if let Some(o) = observer {
            o.on_stage_start(FlowStage::Explore);
        }
        let t0 = Instant::now();
        let exploration = explore_ctx(
            self.pristine().clone(),
            &self.stage.profiles,
            &spec,
            &self.pool,
            &ctx,
        );
        if let Some(r) = &self.cfg.metrics {
            r.counter("flow.explore.wall_ns")
                .add(t0.elapsed().as_nanos() as u64);
            r.counter("flow.explore.probes").add(exploration.probes);
        }
        if let Some(o) = observer {
            o.on_stage_end(FlowStage::Explore);
        }
        exploration
    }

    /// Package an exploration into a full
    /// [`BlasysResult`] (cloning the cached
    /// partition and profiles, so the session stays usable). Works for
    /// truncated explorations too: every recorded trajectory point can
    /// be synthesized and measured.
    pub fn result(&self, exploration: &Exploration) -> BlasysResult {
        BlasysResult::from_parts(
            self.original.clone(),
            self.partition.clone(),
            self.stage.profiles.clone(),
            exploration.trajectory.clone(),
            self.cfg.library.clone(),
        )
    }

    /// Like [`FlowSession::result`], but consumes the session and
    /// moves the cached data instead of cloning it.
    pub fn into_result(self, exploration: Exploration) -> BlasysResult {
        BlasysResult::from_parts(
            self.original,
            self.partition,
            self.stage.profiles,
            exploration.trajectory,
            self.cfg.library,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_circuits::{adder, multiplier};
    use std::sync::atomic::AtomicUsize;

    #[derive(Default)]
    struct Counting {
        decompose: AtomicUsize,
        profile: AtomicUsize,
        explore: AtomicUsize,
        windows: AtomicUsize,
        points: AtomicUsize,
    }

    impl FlowObserver for Counting {
        fn on_stage_start(&self, stage: FlowStage) {
            match stage {
                FlowStage::Decompose => &self.decompose,
                FlowStage::Profile => &self.profile,
                FlowStage::Explore => &self.explore,
            }
            .fetch_add(1, Ordering::Relaxed);
        }

        fn on_window_profiled(&self, _p: &SubcircuitProfile, _total: usize) {
            self.windows.fetch_add(1, Ordering::Relaxed);
        }

        fn on_trajectory_point(&self, _point: &TrajectoryPoint) {
            self.points.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn open_validates_like_try_run() {
        let empty = Netlist::new("empty");
        assert_eq!(
            FlowSession::open(&empty, FlowConfig::new()).err(),
            Some(FlowError::NoOutputs)
        );
        let mut pass = Netlist::new("pass");
        let a = pass.add_input("a".to_string());
        pass.mark_output("z".to_string(), a);
        assert_eq!(
            FlowSession::open(&pass, FlowConfig::new()).err(),
            Some(FlowError::NoGates)
        );
    }

    #[test]
    fn one_profile_serves_many_explorations() {
        let nl = adder(6);
        let observer = Arc::new(Counting::default());
        let session = FlowSession::open(
            &nl,
            FlowConfig::new()
                .samples(1024)
                .seed(3)
                .observer(observer.clone()),
        )
        .unwrap()
        .profile()
        .unwrap();

        let a = session.explore(&ExploreSpec::new().threshold(0.02));
        let b = session.explore(
            &ExploreSpec::new()
                .metric(QorMetric::BitErrorRate)
                .threshold(0.05),
        );
        let c = session.explore(&ExploreSpec::new());
        assert_eq!(c.stop_reason(), StopReason::Exhausted);
        assert!(a.trajectory().len() <= c.trajectory().len());
        assert!(b.probes() > 0);

        // The observer proves reuse: one decompose, one profile pass
        // (one event per window), three explorations.
        assert_eq!(observer.decompose.load(Ordering::Relaxed), 1);
        assert_eq!(observer.profile.load(Ordering::Relaxed), 1);
        assert_eq!(
            observer.windows.load(Ordering::Relaxed),
            session.partition().len()
        );
        assert_eq!(observer.explore.load(Ordering::Relaxed), 3);
        let expected_points: usize = [&a, &b, &c].iter().map(|e| e.trajectory().len()).sum();
        assert_eq!(observer.points.load(Ordering::Relaxed), expected_points);
    }

    #[test]
    fn probe_budget_stops_deterministically() {
        let nl = multiplier(4);
        let session = FlowSession::open(&nl, FlowConfig::new().samples(1024).seed(5))
            .unwrap()
            .profile()
            .unwrap();
        let full = session.explore(&ExploreSpec::new());
        let capped = session.explore(&ExploreSpec::new().probe_budget(full.probes() / 2));
        assert_eq!(capped.stop_reason(), StopReason::ProbeBudget);
        assert!(capped.probes() <= full.probes() / 2);
        assert!(capped.trajectory().len() < full.trajectory().len());
        // Prefix property.
        for (c, f) in capped.trajectory().iter().zip(full.trajectory()) {
            assert_eq!(c.changed_cluster, f.changed_cluster);
            assert_eq!(c.degrees, f.degrees);
            assert_eq!(c.qor, f.qor);
        }
        // A zero budget still yields the well-formed exact point.
        let zero = session.explore(&ExploreSpec::new().probe_budget(0));
        assert_eq!(zero.trajectory().len(), 1);
        assert_eq!(zero.stop_reason(), StopReason::ProbeBudget);
        let result = session.result(&zero);
        assert_eq!(result.trajectory().len(), 1);
        assert!(result.metrics_step(0).area_um2 > 0.0);
    }

    #[test]
    fn cancelled_profile_discards_work() {
        let nl = multiplier(4);
        let token = CancelToken::new();
        token.cancel();
        let err = FlowSession::open(&nl, FlowConfig::new().samples(512).cancel(token))
            .unwrap()
            .profile()
            .err();
        assert_eq!(err, Some(FlowError::Cancelled));
    }

    #[test]
    fn observer_can_cancel_mid_exploration() {
        struct CancelAfter {
            token: CancelToken,
            after: usize,
            seen: AtomicUsize,
        }
        impl FlowObserver for CancelAfter {
            fn on_trajectory_point(&self, _point: &TrajectoryPoint) {
                if self.seen.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
                    self.token.cancel();
                }
            }
        }

        let nl = adder(8);
        let token = CancelToken::new();
        let session = FlowSession::open(
            &nl,
            FlowConfig::new()
                .samples(1024)
                .seed(7)
                .observer(Arc::new(CancelAfter {
                    token: token.clone(),
                    after: 3,
                    seen: AtomicUsize::new(0),
                })),
        )
        .unwrap()
        .profile()
        .unwrap();
        let cancelled = session.explore(&ExploreSpec::new().cancel(token));
        assert_eq!(cancelled.stop_reason(), StopReason::Cancelled);
        assert_eq!(cancelled.trajectory().len(), 3);
    }

    #[test]
    fn pooled_session_matches_serial_session() {
        let nl = multiplier(4);
        let serial = FlowSession::open(
            &nl,
            FlowConfig::new()
                .samples(1024)
                .seed(11)
                .parallelism(Parallelism::Serial),
        )
        .unwrap()
        .profile()
        .unwrap();
        let pooled = FlowSession::open(
            &nl,
            FlowConfig::new()
                .samples(1024)
                .seed(11)
                .parallelism(Parallelism::Threads(4)),
        )
        .unwrap()
        .profile()
        .unwrap();
        let s = serial.explore(&ExploreSpec::new());
        let p = pooled.explore(&ExploreSpec::new());
        assert_eq!(s.trajectory().len(), p.trajectory().len());
        for (a, b) in s.trajectory().iter().zip(p.trajectory()) {
            assert_eq!(a.changed_cluster, b.changed_cluster);
            assert_eq!(a.qor, b.qor, "step {}", a.step);
        }
    }
}

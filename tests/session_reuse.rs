//! Acceptance properties of the staged session API:
//!
//! * one `Profiled` session driving N explorations is **bit-identical**
//!   to N fresh one-shot `try_run` flows with the same settings, under
//!   serial and 4-thread execution (the facade is implemented on the
//!   session, and this suite pins the equivalence from the outside);
//! * a cancelled or budget-capped exploration's trajectory is a
//!   **prefix** of the uninterrupted one and still converts into a
//!   well-formed partial `BlasysResult`;
//! * observer stage events prove that a reused session skips
//!   re-decomposition and re-profiling across ≥ 3 explorations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use blasys_repro::blasys::session::{
    CancelToken, ExploreSpec, FlowConfig, FlowObserver, FlowSession, FlowStage, StopReason,
};
use blasys_repro::blasys::{
    run, AnnealSchedule, Explorer, QorMetric, SubcircuitProfile, TrajectoryPoint,
};
use blasys_repro::circuits::{adder, multiplier};
use blasys_repro::logic::Netlist;
use blasys_repro::par::Parallelism;

const SAMPLES: usize = 1024;
const SEED: u64 = 41;

fn assert_bit_identical(label: &str, a: &[TrajectoryPoint], b: &[TrajectoryPoint]) {
    assert_eq!(a.len(), b.len(), "{label}: trajectory length");
    for (s, t) in a.iter().zip(b) {
        assert_eq!(s.step, t.step, "{label}");
        assert_eq!(
            s.changed_cluster, t.changed_cluster,
            "{label} step {}",
            s.step
        );
        assert_eq!(s.degrees, t.degrees, "{label} step {}", s.step);
        assert_eq!(s.qor, t.qor, "{label} step {}", s.step);
        assert_eq!(
            s.model_area_um2.to_bits(),
            t.model_area_um2.to_bits(),
            "{label} step {}",
            s.step
        );
    }
}

/// The query mix: different metrics, thresholds, and prune settings —
/// exactly what a serving deployment would vary per request.
fn specs() -> Vec<(&'static str, ExploreSpec)> {
    vec![
        (
            "rel@0.05",
            ExploreSpec::new()
                .metric(QorMetric::AvgRelative)
                .threshold(0.05),
        ),
        (
            "ber@0.02-nopune",
            ExploreSpec::new()
                .metric(QorMetric::BitErrorRate)
                .threshold(0.02)
                .prune(false),
        ),
        (
            "abs-exhaust",
            ExploreSpec::new().metric(QorMetric::AvgAbsolute).exhaust(),
        ),
    ]
}

/// The one-shot [`run`] equivalent of one spec.
fn one_shot(nl: &Netlist, spec: &ExploreSpec, parallelism: Parallelism) -> Vec<TrajectoryPoint> {
    let cfg = FlowConfig::new()
        .samples(SAMPLES)
        .seed(SEED)
        .parallelism(parallelism);
    run(nl, cfg, spec)
        .expect("one-shot flow must succeed")
        .trajectory()
        .to_vec()
}

#[test]
fn reused_session_matches_fresh_one_shot_flows_serial_and_threaded() {
    let nl = multiplier(4);
    for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
        let session = FlowSession::open(
            &nl,
            FlowConfig::new()
                .samples(SAMPLES)
                .seed(SEED)
                .parallelism(parallelism),
        )
        .unwrap()
        .profile()
        .unwrap();
        for (label, spec) in specs() {
            let exploration = session.explore(&spec);
            let fresh = one_shot(&nl, &spec, parallelism);
            assert_bit_identical(
                &format!("{label} ({parallelism:?})"),
                exploration.trajectory(),
                &fresh,
            );
            // Full results match too: same QoR reports surface through
            // the packaged BlasysResult.
            let result = session.result(&exploration);
            assert_eq!(result.trajectory().len(), exploration.trajectory().len());
            for (r, e) in result.trajectory().iter().zip(exploration.trajectory()) {
                assert_eq!(r.qor, e.qor, "{label} packaged step {}", e.step);
            }
        }
    }
}

#[test]
fn session_is_bit_identical_across_worker_counts() {
    // The same session API, serial vs pooled: identical trajectories.
    let nl = adder(8);
    let explore_all = |parallelism: Parallelism| {
        let session = FlowSession::open(
            &nl,
            FlowConfig::new()
                .samples(SAMPLES)
                .seed(SEED)
                .parallelism(parallelism),
        )
        .unwrap()
        .profile()
        .unwrap();
        specs()
            .into_iter()
            .map(|(_, spec)| session.explore(&spec).into_trajectory())
            .collect::<Vec<_>>()
    };
    let serial = explore_all(Parallelism::Serial);
    let threaded = explore_all(Parallelism::Threads(4));
    for (i, (s, t)) in serial.iter().zip(&threaded).enumerate() {
        assert_bit_identical(&format!("spec {i}"), s, t);
    }
}

#[derive(Default)]
struct StageCounter {
    decompose: AtomicUsize,
    profile: AtomicUsize,
    explore: AtomicUsize,
    windows: AtomicUsize,
}

impl FlowObserver for StageCounter {
    fn on_stage_start(&self, stage: FlowStage) {
        match stage {
            FlowStage::Decompose => &self.decompose,
            FlowStage::Profile => &self.profile,
            FlowStage::Explore => &self.explore,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn on_window_profiled(&self, _profile: &SubcircuitProfile, _total: usize) {
        self.windows.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn observer_stage_events_prove_profiling_is_skipped_across_explorations() {
    // The acceptance check: one session, >= 3 explorations, and the
    // observer's stage stream shows decomposition and profiling ran
    // exactly once — measured via events, not timing.
    let nl = multiplier(4);
    let counter = Arc::new(StageCounter::default());
    let session = FlowSession::open(
        &nl,
        FlowConfig::new()
            .samples(SAMPLES)
            .seed(SEED)
            .observer(counter.clone()),
    )
    .unwrap()
    .profile()
    .unwrap();
    for (_, spec) in specs() {
        let _ = session.explore(&spec);
    }
    assert_eq!(counter.decompose.load(Ordering::Relaxed), 1);
    assert_eq!(counter.profile.load(Ordering::Relaxed), 1);
    assert_eq!(
        counter.windows.load(Ordering::Relaxed),
        session.partition().len(),
        "each window profiled exactly once"
    );
    assert_eq!(counter.explore.load(Ordering::Relaxed), 3);
}

#[test]
fn cancelled_exploration_is_a_prefix_of_the_uncancelled_one() {
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
    for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
        let full = FlowSession::open(
            &nl,
            FlowConfig::new()
                .samples(SAMPLES)
                .seed(SEED)
                .parallelism(parallelism),
        )
        .unwrap()
        .profile()
        .unwrap()
        .explore(&ExploreSpec::new());
        assert_eq!(full.stop_reason(), StopReason::Exhausted);

        for after in [1, 3, full.trajectory().len() / 2] {
            let token = CancelToken::new();
            let session = FlowSession::open(
                &nl,
                FlowConfig::new()
                    .samples(SAMPLES)
                    .seed(SEED)
                    .parallelism(parallelism)
                    .observer(Arc::new(CancelAfter {
                        token: token.clone(),
                        after,
                        seen: AtomicUsize::new(0),
                    })),
            )
            .unwrap()
            .profile()
            .unwrap();
            let cancelled = session.explore(&ExploreSpec::new().cancel(token));
            assert_eq!(
                cancelled.stop_reason(),
                StopReason::Cancelled,
                "after {after} ({parallelism:?})"
            );
            assert_eq!(cancelled.trajectory().len(), after);
            assert_bit_identical(
                &format!("prefix after {after} ({parallelism:?})"),
                cancelled.trajectory(),
                &full.trajectory()[..after],
            );
            // The partial trajectory converts into a working result.
            let result = session.result(&cancelled);
            let last = result.trajectory().len() - 1;
            let synthesized = result.synthesize_step(last);
            assert_eq!(synthesized.num_outputs(), nl.num_outputs());
            assert!(result.metrics_step(last).area_um2 > 0.0);
        }
    }
}

/// The engines whose stop/prefix behavior the tests below pin, with
/// the stop reason each reports when left to run out on its own.
fn engine_specs() -> Vec<(&'static str, ExploreSpec, StopReason)> {
    vec![
        (
            "beam:3",
            ExploreSpec::new().explorer(Explorer::Beam { width: 3 }),
            StopReason::Exhausted,
        ),
        (
            "anneal",
            ExploreSpec::new()
                .threshold(0.10)
                .explorer(Explorer::Anneal(AnnealSchedule {
                    steps: 64,
                    ..AnnealSchedule::default()
                })),
            StopReason::ScheduleComplete,
        ),
    ]
}

#[test]
fn cancelled_beam_and_anneal_runs_are_exact_prefixes() {
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
    for (label, spec, uninterrupted_stop) in engine_specs() {
        let full = FlowSession::open(&nl, FlowConfig::new().samples(SAMPLES).seed(SEED))
            .unwrap()
            .profile()
            .unwrap()
            .explore(&spec);
        assert_eq!(full.stop_reason(), uninterrupted_stop, "{label}");
        assert!(full.trajectory().len() > 2, "{label} walked too little");

        for after in [1, 2, full.trajectory().len() / 2] {
            let token = CancelToken::new();
            let session = FlowSession::open(
                &nl,
                FlowConfig::new()
                    .samples(SAMPLES)
                    .seed(SEED)
                    .observer(Arc::new(CancelAfter {
                        token: token.clone(),
                        after,
                        seen: AtomicUsize::new(0),
                    })),
            )
            .unwrap()
            .profile()
            .unwrap();
            let cancelled = session.explore(&spec.clone().cancel(token));
            assert_eq!(
                cancelled.stop_reason(),
                StopReason::Cancelled,
                "{label} after {after}"
            );
            assert_eq!(cancelled.trajectory().len(), after, "{label}");
            assert_bit_identical(
                &format!("{label} cancelled after {after}"),
                cancelled.trajectory(),
                &full.trajectory()[..after],
            );
            // The partial trajectory still packages into a result.
            let result = session.result(&cancelled);
            assert!(result.metrics_step(result.trajectory().len() - 1).area_um2 > 0.0);
        }
    }
}

#[test]
fn beam_and_anneal_probe_budgets_yield_deterministic_prefixes() {
    let nl = multiplier(4);
    let session = FlowSession::open(&nl, FlowConfig::new().samples(SAMPLES).seed(SEED))
        .unwrap()
        .profile()
        .unwrap();
    for (label, spec, _) in engine_specs() {
        let full = session.explore(&spec);
        assert!(full.probes() > 4, "{label} probed too little");
        for divisor in [2, 4] {
            let cap = full.probes() / divisor;
            let capped = session.explore(&spec.clone().probe_budget(cap));
            assert_eq!(
                capped.stop_reason(),
                StopReason::ProbeBudget,
                "{label} /{divisor}"
            );
            assert!(
                capped.probes() <= cap,
                "{label}: {} > {cap}",
                capped.probes()
            );
            // Annealing only records *accepted* moves, so a capped run
            // can tie the full length; it must never exceed it.
            assert!(
                capped.trajectory().len() <= full.trajectory().len(),
                "{label}"
            );
            assert_bit_identical(
                &format!("{label} probe budget /{divisor}"),
                capped.trajectory(),
                &full.trajectory()[..capped.trajectory().len()],
            );
            // Re-running with the same cap reproduces exactly.
            let again = session.explore(&spec.clone().probe_budget(cap));
            assert_eq!(again.probes(), capped.probes(), "{label}");
            assert_bit_identical(
                &format!("{label} rerun"),
                again.trajectory(),
                capped.trajectory(),
            );
        }
    }
}

#[test]
fn probe_budget_yields_a_deterministic_prefix() {
    let nl = multiplier(4);
    let session = FlowSession::open(&nl, FlowConfig::new().samples(SAMPLES).seed(SEED))
        .unwrap()
        .profile()
        .unwrap();
    let full = session.explore(&ExploreSpec::new());
    for divisor in [2, 3, 5] {
        let cap = full.probes() / divisor;
        let capped = session.explore(&ExploreSpec::new().probe_budget(cap));
        assert_eq!(capped.stop_reason(), StopReason::ProbeBudget);
        assert!(capped.probes() <= cap, "{} > {cap}", capped.probes());
        assert_bit_identical(
            &format!("probe budget /{divisor}"),
            capped.trajectory(),
            &full.trajectory()[..capped.trajectory().len()],
        );
        // Re-running with the same cap reproduces exactly.
        let again = session.explore(&ExploreSpec::new().probe_budget(cap));
        assert_eq!(again.probes(), capped.probes());
        assert_bit_identical(
            "probe budget rerun",
            again.trajectory(),
            capped.trajectory(),
        );
    }
}

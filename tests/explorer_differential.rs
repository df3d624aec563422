//! Differential acceptance suite for the pluggable explorers: on
//! random netlists,
//!
//! * greedy commits a **bit-identical** trajectory, probe count and
//!   stop reason to an independent Algorithm-1 reference walk built
//!   on the public evaluator API — serial and at 4 workers, with
//!   bound-pruning on and off, thresholded and exhaustive (the
//!   load-bearing correctness oracle: greedy runs on the beam engine at
//!   width 1, so this pins the engine's ranking, tie-break, stop test
//!   and pruning against a plain serial scan);
//! * simulated annealing is a pure function of its seed — identical
//!   at any worker count and with pruning on or off;
//! * pareto3 commits exactly the greedy walk, so its error axis is
//!   never worse than greedy's at equal step count, and its 3-D
//!   surface is internally non-dominated.
//!
//! Same discipline (and netlist generator family) as
//! `tests/qor_differential.rs`, which pinned the packed QoR engine.

use blasys_repro::blasys::explore::{Explorer, StopCriterion, TrajectoryPoint};
use blasys_repro::blasys::session::{Profiled, StopReason};
use blasys_repro::blasys::{
    Evaluator, ExploreSpec, FlowConfig, FlowError, FlowSession, McConfig, QorMetric, QorReport,
};
use blasys_repro::logic::Netlist;
use blasys_repro::par::Parallelism;
use proptest::prelude::*;

/// Random small netlist built from a script of gate operations (same
/// generator family as `tests/qor_differential.rs`). Outputs tap every
/// third node from the end, so most netlists split into several
/// windows and the walks meet equal-error candidates.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (
        3usize..=8,
        proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 20..80),
        4usize..=10,
    )
        .prop_map(|(num_inputs, ops, num_outputs)| {
            let mut nl = Netlist::new("explorer_prop");
            let mut nodes: Vec<_> = (0..num_inputs)
                .map(|i| nl.add_input(format!("i{i}")))
                .collect();
            for (kind, a, b) in ops {
                let a = nodes[a as usize % nodes.len()];
                let b = nodes[b as usize % nodes.len()];
                let g = match kind % 7 {
                    0 => nl.and(a, b),
                    1 => nl.or(a, b),
                    2 => nl.xor(a, b),
                    3 => nl.nand(a, b),
                    4 => nl.nor(a, b),
                    5 => nl.xnor(a, b),
                    _ => nl.not(a),
                };
                nodes.push(g);
            }
            for o in 0..num_outputs {
                let n = nodes[nodes.len() - 1 - (o * 3) % nodes.len()];
                nl.mark_output(format!("z{o}"), n);
            }
            nl.cleaned()
        })
}

/// The worker counts every property runs at, one session each.
const WORKERS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(4)];

/// Monte-Carlo samples of every session.
const SAMPLES: usize = 512;

/// Profiled sessions for one random netlist, one per entry of
/// [`WORKERS`], with the same profile and stimulus settings (`None`
/// when the netlist cleaned down to nothing decomposable).
fn setup(nl: &Netlist, seed: u64) -> Option<[FlowSession<Profiled>; 2]> {
    let session = |parallelism| {
        // Small 4×4 windows so random netlists split into several
        // clusters — single-cluster networks would leave frontier
        // ranking and cross-branch pruning unexercised.
        let cfg = FlowConfig::new()
            .limits(4, 4)
            .samples(SAMPLES)
            .seed(seed)
            .parallelism(parallelism);
        match FlowSession::open(nl, cfg) {
            Err(FlowError::NoGates) => None,
            opened => Some(opened.unwrap().profile().unwrap()),
        }
    };
    Some([session(WORKERS[0])?, session(WORKERS[1])?])
}

fn run(session: &FlowSession<Profiled>, spec: &ExploreSpec) -> Vec<TrajectoryPoint> {
    session.explore(spec).into_trajectory()
}

/// Algorithm 1 walked directly on the public evaluator API: a fresh
/// evaluator over the session's netlist and partition with the
/// session's stimulus settings; per step, probe every window one
/// degree down with the scalar reference probe, commit the lowest error
/// (ties to the lowest cluster), and stop once the winner is above
/// `threshold`. Returns the trajectory, the probe count and the stop
/// reason.
fn reference_walk(
    session: &FlowSession<Profiled>,
    seed: u64,
    metric: QorMetric,
    threshold: f64,
) -> (Vec<TrajectoryPoint>, u64, StopReason) {
    let profiles = session.profiles();
    let mc = McConfig {
        samples: SAMPLES,
        seed,
    };
    let mut ev = Evaluator::new(session.original(), session.partition(), &mc);
    let mut state = ev.probe_state();
    let mut degrees: Vec<usize> = profiles.iter().map(|p| p.num_outputs).collect();
    let point = |ev: &Evaluator, step, changed_cluster, degrees: &[usize], qor| {
        let variants = || profiles.iter().zip(degrees).map(|(p, &f)| p.variant(f));
        let delays: Vec<f64> = variants().map(|v| v.delay_ns).collect();
        TrajectoryPoint {
            step,
            changed_cluster,
            degrees: degrees.to_vec(),
            qor,
            model_area_um2: variants().map(|v| v.area_um2).sum(),
            model_depth_ns: ev.network().model_depth_ns(&delays),
        }
    };
    let mut trajectory = vec![point(&ev, 0, None, &degrees, ev.qor_current_reference())];
    let mut probes = 0;
    loop {
        let mut best: Option<(f64, usize, QorReport)> = None;
        for ci in (0..profiles.len()).filter(|&ci| degrees[ci] > 1) {
            let rows = &profiles[ci].variant(degrees[ci] - 1).table_rows;
            let report = ev.qor_probe_reference(&mut state, ci, rows);
            probes += 1;
            let err = report.value(metric);
            if best.as_ref().is_none_or(|b| err.total_cmp(&b.0).is_lt()) {
                best = Some((err, ci, report));
            }
        }
        let Some((err, ci, report)) = best else {
            return (trajectory, probes, StopReason::Exhausted);
        };
        if err > threshold {
            return (trajectory, probes, StopReason::ThresholdReached);
        }
        degrees[ci] -= 1;
        ev.commit(
            &mut state,
            ci,
            &profiles[ci].variant(degrees[ci]).table_rows,
        );
        let step = trajectory.len();
        trajectory.push(point(&ev, step, Some(ci), &degrees, report));
    }
}

/// Full bit-identity over every trajectory field, float fields
/// compared by bits.
macro_rules! same_trajectory {
    ($label:expr, $a:expr, $b:expr) => {
        prop_assert_eq!($a.len(), $b.len(), "{}: trajectory length", $label);
        for (s, t) in $a.iter().zip($b.iter()) {
            prop_assert_eq!(s.step, t.step, "{}", $label);
            prop_assert_eq!(
                s.changed_cluster,
                t.changed_cluster,
                "{} step {}",
                $label,
                s.step
            );
            prop_assert_eq!(&s.degrees, &t.degrees, "{} step {}", $label, s.step);
            prop_assert_eq!(s.qor, t.qor, "{} step {}", $label, s.step);
            prop_assert_eq!(
                s.model_area_um2.to_bits(),
                t.model_area_um2.to_bits(),
                "{} step {}",
                $label,
                s.step
            );
            prop_assert_eq!(
                s.model_depth_ns.to_bits(),
                t.model_depth_ns.to_bits(),
                "{} step {}",
                $label,
                s.step
            );
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The load-bearing oracle: greedy is bit-identical to the
    /// reference walk — points, probe count and stop reason — at every
    /// worker count, prune on and off, exhaustive, thresholded, and at
    /// a threshold one step's error equals exactly (that step is still
    /// committed).
    #[test]
    fn greedy_is_bit_identical_to_reference_walk(nl in arb_netlist(), seed in any::<u64>()) {
        let Some(sessions) = setup(&nl, seed) else { return; };
        let metric = ExploreSpec::new().metric;
        let exhaustive = reference_walk(&sessions[0], seed, metric, f64::INFINITY);
        let tie = exhaustive.0[exhaustive.0.len() / 2].qor.value(metric);
        for (stop, threshold) in [
            (StopCriterion::Exhaust, f64::INFINITY),
            (StopCriterion::ErrorThreshold(0.05), 0.05),
            (StopCriterion::ErrorThreshold(tie), tie),
        ] {
            let (reference, probes, reason) = reference_walk(&sessions[0], seed, metric, threshold);
            for (session, parallelism) in sessions.iter().zip(WORKERS) {
                for prune in [true, false] {
                    let greedy = session.explore(&ExploreSpec { stop, prune, ..ExploreSpec::new() });
                    let label = format!("{stop:?}/{parallelism:?}/prune={prune}");
                    same_trajectory!(&label, &reference, greedy.trajectory());
                    prop_assert_eq!(greedy.probes(), probes, "{}: probes", &label);
                    prop_assert_eq!(greedy.stop_reason(), reason, "{}: stop reason", &label);
                }
            }
        }
    }

    /// An annealing run is a pure function of the session's
    /// `FlowConfig::seed`: the worker count and the prune flag change
    /// nothing.
    #[test]
    fn anneal_is_bit_identical_across_worker_counts(nl in arb_netlist(), seed in any::<u64>()) {
        let Some(sessions) = setup(&nl, seed) else { return; };
        let spec = ExploreSpec::new()
            .threshold(0.08)
            .explorer(Explorer::Anneal);
        let reference = run(&sessions[0], &spec);
        for (session, parallelism) in sessions.iter().zip(WORKERS) {
            for prune in [true, false] {
                let other = run(session, &spec.clone().prune(prune));
                let label = format!("anneal {parallelism:?}/prune={prune}");
                same_trajectory!(&label, &reference, &other);
            }
        }
    }

    /// pareto3 commits the greedy walk, so at every shared step its
    /// error axis is never worse than greedy's; the emitted surface is
    /// non-empty and internally non-dominated.
    #[test]
    fn pareto3_error_axis_never_worse_than_greedy(nl in arb_netlist(), seed in any::<u64>()) {
        let Some(sessions) = setup(&nl, seed) else { return; };
        for session in &sessions {
            let greedy = run(session, &ExploreSpec::new());
            let exploration = session.explore(&ExploreSpec::new().explorer(Explorer::Pareto3));
            let p3 = exploration.trajectory();
            prop_assert_eq!(p3.len(), greedy.len());
            for (g, p) in greedy.iter().zip(p3) {
                prop_assert!(
                    p.qor.avg_relative <= g.qor.avg_relative,
                    "step {}: pareto3 {} vs greedy {}",
                    g.step, p.qor.avg_relative, g.qor.avg_relative
                );
            }
            let surface = exploration.pareto_surface().expect("pareto3 emits a surface");
            prop_assert!(!surface.is_empty());
            for (i, a) in surface.iter().enumerate() {
                for (j, b) in surface.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let dominates = a.error <= b.error
                        && a.area_um2 <= b.area_um2
                        && a.depth_ns <= b.depth_ns
                        && (a.error < b.error || a.area_um2 < b.area_um2 || a.depth_ns < b.depth_ns);
                    prop_assert!(!dominates, "surface point {j} dominated by {i}");
                }
            }
        }
    }
}

//! Differential acceptance suite for the pluggable explorers: on
//! random netlists,
//!
//! * beam search at `width == 1` commits a **bit-identical**
//!   trajectory to the greedy reference — serial and at 4 workers,
//!   with bound-pruning on and off, thresholded and exhaustive (the
//!   load-bearing correctness oracle: the beam engine is a separate
//!   implementation, not a wrapper around greedy);
//! * simulated annealing is a pure function of its seed — identical
//!   at any worker count and with pruning on or off;
//! * pareto3 commits exactly the greedy walk, so its error axis is
//!   never worse than greedy's at equal step count, and its 3-D
//!   surface is internally non-dominated.
//!
//! Same discipline (and netlist generator family) as
//! `tests/qor_differential.rs`, which pinned the packed QoR engine.

use blasys_repro::blasys::explore::{AnnealSchedule, Explorer, StopCriterion, TrajectoryPoint};
use blasys_repro::blasys::session::Profiled;
use blasys_repro::blasys::{ExploreSpec, FlowConfig, FlowError, FlowSession};
use blasys_repro::decomp::DecompConfig;
use blasys_repro::logic::Netlist;
use blasys_repro::par::Parallelism;
use proptest::prelude::*;

/// Small decomposition windows so random netlists split into several
/// clusters — single-cluster networks would leave frontier ranking and
/// cross-branch pruning unexercised.
fn small_windows() -> DecompConfig {
    DecompConfig {
        max_inputs: 4,
        max_outputs: 4,
        ..DecompConfig::default()
    }
}

/// Random small netlist built from a script of gate operations (same
/// generator family as `tests/qor_differential.rs`).
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (
        3usize..=8,
        proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 8..60),
        1usize..=4,
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
                let n = nodes[nodes.len() - 1 - o % nodes.len().min(4)];
                nl.mark_output(format!("z{o}"), n);
            }
            nl.cleaned()
        })
}

/// The worker counts every property runs at, one session each.
const WORKERS: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Threads(4)];

/// Profiled sessions for one random netlist, one per entry of
/// [`WORKERS`], with the same profile and stimulus settings (`None`
/// when the netlist cleaned down to nothing decomposable).
fn setup(nl: &Netlist, seed: u64) -> Option<[FlowSession<Profiled>; 2]> {
    let session = |parallelism| {
        let cfg = FlowConfig::new()
            .decomposition(small_windows())
            .samples(512)
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

    /// The load-bearing oracle: beam `width == 1` is bit-identical to
    /// greedy — at every worker count, prune on and off, thresholded
    /// and exhaustive.
    #[test]
    fn beam_width_one_is_bit_identical_to_greedy(nl in arb_netlist(), seed in any::<u64>()) {
        let Some(sessions) = setup(&nl, seed) else { return; };
        for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
            for (session, parallelism) in sessions.iter().zip(WORKERS) {
                for prune in [true, false] {
                    let common = ExploreSpec { stop, prune, ..ExploreSpec::new() };
                    let greedy = run(session, &common);
                    let beam = run(session, &common.explorer(Explorer::Beam { width: 1 }));
                    let label = format!("{stop:?}/{parallelism:?}/prune={prune}");
                    same_trajectory!(&label, &greedy, &beam);
                }
            }
        }
    }

    /// A seeded annealing run is a pure function of the seed: the
    /// worker count and the prune flag change nothing.
    #[test]
    fn anneal_is_bit_identical_across_worker_counts(nl in arb_netlist(), seed in any::<u64>()) {
        let Some(sessions) = setup(&nl, seed) else { return; };
        let schedule = AnnealSchedule { steps: 48, seed: Some(seed ^ 0xA11C), ..AnnealSchedule::default() };
        let spec = ExploreSpec::new()
            .threshold(0.08)
            .explorer(Explorer::Anneal(schedule));
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

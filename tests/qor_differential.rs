//! Differential acceptance suite for the packed incremental QoR
//! engine: on random netlists and partitions, the packed path
//! (PO-cone splicing + 64×64 bit transpose + bound-pruned probes)
//! must report **bit-identically** to the retained naive scalar
//! reference — every field of the report (all six metrics plus the
//! sample count), committed and probed, serial and at 4 threads.
//! Extends the PR-2 trajectory-identity suite with the pruned sweep.

use blasys_repro::blasys::explore::StopCriterion;
use blasys_repro::blasys::montecarlo::{Evaluator, McConfig};
use blasys_repro::blasys::qor::{QorMetric, QorReport};
use blasys_repro::blasys::{ExploreSpec, FlowConfig, FlowError, FlowSession};
use blasys_repro::decomp::{decompose, DecompConfig};
use blasys_repro::logic::Netlist;
use blasys_repro::par::{Parallelism, Pool};
use proptest::prelude::*;

/// Small decomposition windows so the random netlists split into
/// several clusters — a single-cluster network would leave the
/// PO-cone splice and the cross-candidate pruning bound unexercised.
fn small_windows() -> DecompConfig {
    DecompConfig {
        max_inputs: 4,
        max_outputs: 4,
    }
}

/// Random small netlist built from a script of gate operations (the
/// generator of `tests/explorer_differential.rs`): 20–80 gates and
/// 4–10 outputs tapping every third node from the end, so most cases
/// decompose into several windows.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (
        3usize..=8,
        proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 20..80),
        4usize..=10,
    )
        .prop_map(|(num_inputs, ops, num_outputs)| {
            let mut nl = Netlist::new("qor_prop");
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

/// A deterministic pseudo-random candidate table for one cluster:
/// the committed rows with seed-dependent bit flips (masked to the
/// cluster's output width so the table stays well-formed).
fn mutated_rows(ev: &Evaluator, cluster: usize, seed: u64) -> Vec<u16> {
    let width = ev
        .network()
        .table(cluster)
        .iter()
        .fold(0u16, |m, &r| m | r)
        .count_ones()
        .max(1);
    let mask = if width >= 16 {
        !0u16
    } else {
        (1u16 << width) - 1
    };
    ev.network()
        .table(cluster)
        .iter()
        .enumerate()
        .map(|(r, &row)| {
            let x = (r as u64 + 1)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            row ^ ((x >> 17) as u16 & mask)
        })
        .collect()
}

/// Packed probes of every cluster's mutated table by 4 workers sharing
/// the evaluator, in cluster order.
fn threaded_probes(ev: &Evaluator, seed: u64) -> Vec<QorReport> {
    let mut states: Vec<_> = (0..4).map(|_| ev.probe_state()).collect();
    Pool::new(4).run_states(ev.network().len(), &mut states, None, |st, c| {
        ev.qor_probe(st, c, &mutated_rows(ev, c, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Packed probes and the packed committed path report bit-identical
    /// `QorReport`s (every metric, `PartialEq` covers all fields) to
    /// the retained scalar reference, across probes and commits.
    #[test]
    fn packed_engine_matches_scalar_reference(nl in arb_netlist(), seed in any::<u64>()) {
        let part = decompose(&nl, &small_windows());
        if part.is_empty() {
            return;
        }
        let mc = McConfig { samples: 1000, seed };
        let mut ev = Evaluator::new(&nl, &part, &mc);
        // Requested 1000 -> evaluated 1024; every report must agree.
        prop_assert_eq!(ev.samples(), 1024);
        let mut st = ev.probe_state();
        let n = ev.network().len();
        for cluster in 0..n {
            let rows = mutated_rows(&ev, cluster, seed ^ cluster as u64);
            let packed = ev.qor_probe(&mut st, cluster, &rows);
            let scalar = ev.qor_probe_reference(&mut st, cluster, &rows);
            prop_assert_eq!(packed, scalar, "probe of cluster {}", cluster);
            prop_assert_eq!(packed.samples, ev.samples());
        }
        prop_assert_eq!(ev.qor_current(), ev.qor_current_reference());
        // Commit a mutation, then re-check both paths against the new
        // committed baseline (exercises the incremental PO splice).
        let rows = mutated_rows(&ev, 0, seed.rotate_left(11));
        ev.commit(&mut st, 0, &rows);
        prop_assert_eq!(ev.qor_current(), ev.qor_current_reference());
        for cluster in 0..n {
            let rows = mutated_rows(&ev, cluster, seed ^ (cluster as u64).rotate_left(7));
            let packed = ev.qor_probe(&mut st, cluster, &rows);
            let scalar = ev.qor_probe_reference(&mut st, cluster, &rows);
            prop_assert_eq!(packed, scalar, "post-commit probe of cluster {}", cluster);
        }
    }

    /// Concurrent packed probes match the scalar reference too: 4
    /// workers probing the shared evaluator report exactly what the
    /// serial scalar scan reports.
    #[test]
    fn concurrent_packed_probes_match_scalar_reference(nl in arb_netlist(), seed in any::<u64>()) {
        let part = decompose(&nl, &small_windows());
        if part.is_empty() {
            return;
        }
        let ev = Evaluator::new(&nl, &part, &McConfig { samples: 1024, seed });
        let n = ev.network().len();
        let scalar: Vec<QorReport> = {
            let mut st = ev.probe_state();
            (0..n)
                .map(|c| ev.qor_probe_reference(&mut st, c, &mutated_rows(&ev, c, seed)))
                .collect()
        };
        prop_assert_eq!(scalar, threaded_probes(&ev, seed));
    }

    /// Ragged-tail coverage for the multi-word lane engine: sample
    /// counts that are not multiples of 256 leave a short final group
    /// (`bw < 4` words), and every such shape must still report
    /// bit-identically to the scalar reference — full probes and
    /// bound-pruned probes, serial and at 4 threads, before and after
    /// a commit.
    #[test]
    fn ragged_tail_lanes_match_scalar_reference(nl in arb_netlist(), seed in any::<u64>()) {
        let part = decompose(&nl, &small_windows());
        if part.is_empty() {
            return;
        }
        // 64 -> 1 block, 320 -> 5 blocks, 448 -> 7 blocks (tails of 1,
        // 1, 3 words past the 4-word groups); 1000 rounds to 1024 -> 16
        // blocks, the tail-free control.
        for samples in [64usize, 320, 448, 1000] {
            let mc = McConfig { samples, seed };
            let mut ev = Evaluator::new(&nl, &part, &mc);
            let n = ev.network().len();
            let mut st = ev.probe_state();
            for pass in 0..2 {
                for cluster in 0..n {
                    let rows = mutated_rows(&ev, cluster, seed ^ (cluster as u64) << pass);
                    let packed = ev.qor_probe(&mut st, cluster, &rows);
                    let scalar = ev.qor_probe_reference(&mut st, cluster, &rows);
                    prop_assert_eq!(
                        packed, scalar,
                        "samples {} pass {} cluster {}", samples, pass, cluster
                    );
                    // Pruned probe: with the bound set to the report's
                    // own value the probe must complete and agree; with
                    // a bound strictly below it must prune to None.
                    let bounded = ev.qor_probe_bounded(
                        &mut st,
                        cluster,
                        &rows,
                        QorMetric::AvgRelative,
                        scalar.value(QorMetric::AvgRelative),
                    );
                    prop_assert_eq!(bounded, Some(scalar), "bounded, samples {}", samples);
                }
                // Commit between passes: the splice and the row-index
                // caches must stay coherent through ragged tails.
                let rows = mutated_rows(&ev, 0, seed.rotate_left(23 + pass as u32));
                ev.commit(&mut st, 0, &rows);
                prop_assert_eq!(ev.qor_current(), ev.qor_current_reference());
            }
            // 4 workers share the evaluator; each must match the
            // serial scalar reference on the ragged shapes.
            let scalar: Vec<QorReport> = {
                let mut st = ev.probe_state();
                (0..n)
                    .map(|c| ev.qor_probe_reference(&mut st, c, &mutated_rows(&ev, c, seed)))
                    .collect()
            };
            prop_assert_eq!(scalar, threaded_probes(&ev, seed), "threaded, samples {}", samples);
        }
    }

    /// The bound-pruned exploration sweep walks a bit-identical
    /// trajectory to the unpruned one, serial and at 4 threads, in
    /// both stop modes (extends the PR-2 trajectory-identity suite).
    #[test]
    fn pruned_explore_is_bit_identical_to_unpruned(nl in arb_netlist(), seed in any::<u64>()) {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let cfg = FlowConfig::new()
                .limits(4, 4)
                .samples(1024)
                .seed(seed)
                .parallelism(parallelism);
            let session = match FlowSession::open(&nl, cfg) {
                Err(FlowError::NoGates) => return,
                opened => opened.unwrap().profile().unwrap(),
            };
            for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
                let spec = ExploreSpec { stop, ..ExploreSpec::new() };
                let pruned = session.explore(&spec.clone().prune(true)).into_trajectory();
                let plain = session.explore(&spec.prune(false)).into_trajectory();
                prop_assert_eq!(pruned.len(), plain.len());
                for (s, p) in pruned.iter().zip(&plain) {
                    prop_assert_eq!(s.changed_cluster, p.changed_cluster);
                    prop_assert_eq!(&s.degrees, &p.degrees);
                    prop_assert_eq!(s.qor, p.qor, "step {} ({:?}, {:?})", s.step, stop, parallelism);
                    prop_assert_eq!(s.model_area_um2.to_bits(), p.model_area_um2.to_bits());
                }
            }
        }
    }
}

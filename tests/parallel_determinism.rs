//! Acceptance property: the parallel execution layer is an
//! *observational no-op*. Profiling windows in parallel and probing
//! exploration candidates concurrently must produce bit-identical
//! results to the serial flow — same factorization ladders, same
//! committed trajectory (clusters, degrees, QoR reports, modeled
//! area) — on randomized netlists and stimulus seeds.

use blasys_repro::blasys::explore::explore_on;
use blasys_repro::blasys::montecarlo::{Evaluator, McConfig};
use blasys_repro::blasys::profile::{profile_partition_on, ProfileConfig};
use blasys_repro::blasys::{run, ExploreSpec, FlowConfig};
use blasys_repro::decomp::{decompose, DecompConfig};
use blasys_repro::logic::Netlist;
use blasys_repro::par::{Parallelism, Pool};
use proptest::prelude::*;

/// Random small netlist built from a script of gate operations (same
/// generator family as `tests/properties.rs`, kept arithmetic-free so
/// every shape decomposes).
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (
        3usize..=8,
        proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 8..80),
        1usize..=4,
    )
        .prop_map(|(num_inputs, ops, num_outputs)| {
            let mut nl = Netlist::new("par_prop");
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
            // Live logic only: a window of dead gates has no outputs and
            // hence no ladder, which would leave nothing to compare.
            nl.cleaned()
        })
}

fn assert_trajectories_identical(
    serial: &[blasys_repro::blasys::TrajectoryPoint],
    threaded: &[blasys_repro::blasys::TrajectoryPoint],
) {
    assert_eq!(serial.len(), threaded.len(), "trajectory length");
    for (s, t) in serial.iter().zip(threaded) {
        assert_eq!(s.step, t.step);
        assert_eq!(s.changed_cluster, t.changed_cluster, "step {}", s.step);
        assert_eq!(s.degrees, t.degrees, "step {}", s.step);
        assert_eq!(s.qor, t.qor, "step {}", s.step);
        assert_eq!(
            s.model_area_um2.to_bits(),
            t.model_area_um2.to_bits(),
            "step {}",
            s.step
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exploring on a 4-worker pool walks a bit-identical trajectory
    /// to the serial pool on random netlists/seeds.
    #[test]
    fn explore_threads4_is_bit_identical_to_serial(nl in arb_netlist(), seed in any::<u64>()) {
        let part = decompose(&nl, &DecompConfig::default());
        if part.is_empty() {
            return;
        }
        let mc = McConfig { samples: 1024, seed };
        // Profiles once (shared); the parallel claim under test here is
        // the explore sweep.
        let profiles =
            profile_partition_on(&nl, &part, &ProfileConfig::default(), Pool::serial()).unwrap();
        let spec = ExploreSpec::new();
        let mut ev_serial = Evaluator::new(&nl, &part, &mc);
        let mut ev_threaded = Evaluator::new(&nl, &part, &mc);
        let serial = explore_on(&mut ev_serial, &profiles, &spec, Pool::serial());
        let threaded = explore_on(&mut ev_threaded, &profiles, &spec, &Pool::new(4));
        assert_trajectories_identical(serial.trajectory(), threaded.trajectory());
    }

    /// Parallel window profiling produces the same ladders: area,
    /// local error, and approximate tables per degree all match.
    #[test]
    fn profile_threads4_matches_serial(nl in arb_netlist()) {
        let part = decompose(&nl, &DecompConfig::default());
        if part.is_empty() {
            return;
        }
        let cfg = ProfileConfig::default();
        let serial = profile_partition_on(&nl, &part, &cfg, Pool::serial()).unwrap();
        let threaded = profile_partition_on(&nl, &part, &cfg, &Pool::new(4)).unwrap();
        prop_assert_eq!(serial.len(), threaded.len());
        for (s, t) in serial.iter().zip(&threaded) {
            prop_assert_eq!(s.cluster, t.cluster);
            prop_assert_eq!(s.variants.len(), t.variants.len());
            for (sv, tv) in s.variants.iter().zip(&t.variants) {
                prop_assert_eq!(sv.degree, tv.degree);
                prop_assert_eq!(&sv.table_rows, &tv.table_rows);
                prop_assert_eq!(sv.area_um2.to_bits(), tv.area_um2.to_bits());
                prop_assert_eq!(sv.local_hamming, tv.local_hamming);
            }
        }
    }
}

/// The whole flow — profiling and exploration both parallel — is
/// bit-identical end to end on a structured arithmetic circuit.
#[test]
fn full_flow_threads_matches_serial_on_multiplier() {
    let nl = blasys_repro::circuits::multiplier(4);
    let cfg = FlowConfig::new().samples(1024).seed(9);
    let spec = ExploreSpec::new();
    let serial = run(&nl, cfg.clone().parallelism(Parallelism::Serial), &spec).unwrap();
    let threaded = run(&nl, cfg.threads(4), &spec).unwrap();
    assert_trajectories_identical(serial.trajectory(), threaded.trajectory());
}

/// A BLIF-parsed circuit opened and profiled twice in one process gets
/// the same partition and the same ladders both times. Every hash map
/// draws a fresh seed, so a decomposer that let map iteration order
/// break ties would show up here as a differing partition.
#[test]
fn blif_round_trips_partition_and_profile_deterministically() {
    use blasys_repro::blasys::{FlowConfig, FlowSession};
    use blasys_repro::logic::blif::{from_blif, to_blif};
    for name in ["BUT", "Mult8"] {
        let nl = blasys_repro::circuits::benchmark(name)
            .expect("suite circuit")
            .build();
        let parsed = from_blif(&to_blif(&nl)).expect("round trip parses");
        let open = || FlowSession::open(&parsed, FlowConfig::new().samples(640)).expect("opens");
        let first = open().profile().expect("profiles");
        let second = open().profile().expect("profiles");
        assert_eq!(first.partition(), second.partition(), "{name}");
        for _ in 0..6 {
            assert_eq!(first.partition(), open().partition(), "{name}");
        }
        assert_eq!(first.profiles().len(), second.profiles().len(), "{name}");
        for (a, b) in first.profiles().iter().zip(second.profiles()) {
            for (va, vb) in a.variants.iter().zip(&b.variants) {
                let at = format!("{name} cluster {} f={}", a.cluster, va.degree);
                assert_eq!(va.table_rows, vb.table_rows, "{at}");
                assert_eq!(va.area_um2.to_bits(), vb.area_um2.to_bits(), "{at}");
                assert_eq!(va.delay_ns.to_bits(), vb.delay_ns.to_bits(), "{at}");
                assert_eq!(va.local_hamming, vb.local_hamming, "{at}");
            }
        }
    }
}

//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use blasys_repro::blasys::pareto::{
    pareto_front, pareto_front3, pareto_front_nd, TradeoffPoint, AXES3,
};
use blasys_repro::bmf::{hamming, BoolMatrix, Factorizer};
use blasys_repro::decomp::{cluster_truth_table, decompose, substitute, ClusterImpl, DecompConfig};
use blasys_repro::logic::equiv::check_equiv;
use blasys_repro::logic::{Netlist, TruthTable};
use blasys_repro::synth::synthesize_tt;
use proptest::prelude::*;

/// Random truth-table generator (small shapes).
fn arb_table() -> impl Strategy<Value = TruthTable> {
    (2usize..=6, 1usize..=5, any::<u64>()).prop_map(|(k, m, seed)| {
        TruthTable::from_fn(k, m, |row| {
            let x = (row as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .rotate_left((row % 17) as u32);
            x & ((1u64 << m) - 1)
        })
    })
}

/// Random Boolean matrix generator.
fn arb_matrix() -> impl Strategy<Value = BoolMatrix> {
    (1usize..=32, 1usize..=8, any::<u64>()).prop_map(|(n, m, seed)| {
        BoolMatrix::from_fn(n, m, |i, j| {
            let x = (i as u64 * 31 + j as u64)
                .wrapping_mul(seed | 1)
                .rotate_left(11);
            x & 4 == 4
        })
    })
}

/// Random small netlist built from a script of gate operations.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (
        2usize..=6,
        proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 3..60),
        1usize..=4,
    )
        .prop_map(|(num_inputs, ops, num_outputs)| {
            let mut nl = Netlist::new("prop");
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
            nl
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Espresso + techmap resynthesis is always exactly equivalent.
    #[test]
    fn resynthesis_preserves_function(tt in arb_table()) {
        let nl = synthesize_tt(&tt, "prop");
        let got = TruthTable::from_netlist(&nl);
        prop_assert_eq!(got, tt);
    }

    /// Factorization error is non-increasing in the degree, and the
    /// full degree is exact.
    #[test]
    fn factorization_error_monotone(m in arb_matrix()) {
        let factorizer = Factorizer::new();
        let mut prev = usize::MAX;
        for f in 1..=m.num_cols() {
            let fac = factorizer.factorize(&m, f);
            let err = hamming(&fac.product(), &m);
            prop_assert!(err <= prev, "error grew from {} to {} at f={}", prev, err, f);
            prev = err;
        }
        prop_assert_eq!(prev, 0, "full degree must be exact");
    }

    /// Decomposition always covers each gate once within limits, and
    /// identity substitution preserves the function.
    #[test]
    fn decomposition_roundtrip(nl in arb_netlist()) {
        let cfg = DecompConfig { max_inputs: 5, max_outputs: 4,
};
        let part = decompose(&nl, &cfg);
        prop_assert!(part.validate(&nl).is_ok());
        let total: usize = part.clusters().iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, nl.gate_count());
        for c in part.clusters() {
            prop_assert!(c.inputs().len() <= 5);
            prop_assert!(c.outputs().len() <= 4);
        }
        if !part.is_empty() {
            let impls = vec![ClusterImpl::Keep; part.len()];
            let rebuilt = substitute(&nl, &part, &impls);
            prop_assert!(check_equiv(&nl, &rebuilt).is_equal());
        }
    }

    /// Cluster window tables match scalar re-evaluation of the window.
    #[test]
    fn window_tables_consistent(nl in arb_netlist()) {
        let cfg = DecompConfig { max_inputs: 5, max_outputs: 4,
};
        let part = decompose(&nl, &cfg);
        for cluster in part.clusters() {
            let tt = cluster_truth_table(&nl, cluster);
            prop_assert_eq!(tt.num_inputs(), cluster.inputs().len());
            prop_assert_eq!(tt.num_outputs(), cluster.outputs().len());
            // Exact-resynthesized window must equal the table.
            let sub = synthesize_tt(&tt, "w");
            prop_assert_eq!(TruthTable::from_netlist(&sub), tt);
        }
    }

    /// BLIF round-trips preserve function.
    #[test]
    fn blif_roundtrip(nl in arb_netlist()) {
        use blasys_repro::logic::blif::{from_blif, to_blif};
        let text = to_blif(&nl);
        let back = from_blif(&text).expect("own output must parse");
        prop_assert!(check_equiv(&nl, &back).is_equal());
    }

    /// n-D dominance front invariants on random 3-D point clouds:
    /// no returned point is dominated by *any* input point, and every
    /// dropped point is dominated by *some* returned point.
    #[test]
    fn nd_pareto_front_is_exactly_the_non_dominated_set(points in arb_points()) {
        let front = pareto_front3(&points);
        let dominates = |a: &TradeoffPoint, b: &TradeoffPoint| {
            AXES3.iter().all(|axis| axis(a) <= axis(b))
                && AXES3.iter().any(|axis| axis(a) < axis(b))
        };
        for f in &front {
            prop_assert!(
                !points.iter().any(|p| dominates(p, f)),
                "returned point at step {} is dominated",
                f.step
            );
        }
        for p in &points {
            let kept = front.iter().any(|f| f == p);
            if !kept {
                prop_assert!(
                    front.iter().any(|f| dominates(f, p)),
                    "dropped point at step {} dominated by no returned point",
                    p.step
                );
            }
        }
        prop_assert!(!front.is_empty() || points.is_empty());
    }

    /// The n-D front is a pure function of the point *set*: shuffling
    /// the input never changes the output.
    #[test]
    fn nd_pareto_front_is_stable_under_permutation(
        points in arb_points(),
        seed in any::<u64>(),
    ) {
        let reference = pareto_front3(&points);
        let mut shuffled = points;
        // Deterministic Fisher-Yates driven by the proptest seed.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        prop_assert_eq!(pareto_front3(&shuffled), reference);
    }

    /// Regression: on the (error, area) axes the n-D front keeps
    /// exactly the same *set* of optima as the 2-D skyline that
    /// `tradeoff_curve` callers rely on (the skyline additionally
    /// drops duplicate-coordinate points; the n-D front keeps mutually
    /// non-dominating ties, so compare de-duplicated coordinates).
    #[test]
    fn nd_front_agrees_with_2d_skyline_on_two_axes(points in arb_points()) {
        let axes2: [fn(&TradeoffPoint) -> f64; 2] =
            [|p: &TradeoffPoint| p.error, |p: &TradeoffPoint| p.area_um2];
        let nd: Vec<(u64, u64)> = pareto_front_nd(&points, &axes2)
            .iter()
            .map(|p| (p.error.to_bits(), p.area_um2.to_bits()))
            .collect();
        let mut skyline: Vec<(u64, u64)> = pareto_front(&points)
            .iter()
            .map(|p| (p.error.to_bits(), p.area_um2.to_bits()))
            .collect();
        let mut nd_dedup = nd;
        nd_dedup.dedup();
        skyline.dedup();
        prop_assert_eq!(nd_dedup, skyline);
    }
}

/// Random 3-D trade-off point clouds, with duplicate coordinates made
/// likely (values snap to a coarse grid) so tie handling is exercised.
fn arb_points() -> impl Strategy<Value = Vec<TradeoffPoint>> {
    proptest::collection::vec((0u8..=12, 0u8..=12, 0u8..=12), 0..40).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(step, (e, a, d))| TradeoffPoint {
                error: f64::from(e) / 8.0,
                area_um2: f64::from(a) * 10.0,
                norm_area: f64::from(a) / 12.0,
                depth_ns: f64::from(d) / 2.0,
                step,
            })
            .collect()
    })
}

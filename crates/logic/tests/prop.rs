//! Property-based tests of the logic substrate.

use blasys_logic::builder::{abs_diff, add, input_bus, mark_output_bus, mul, sub};
use blasys_logic::equiv::check_equiv;
use blasys_logic::sim::eval_scalar;
use blasys_logic::{Netlist, TruthTable};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arithmetic builders agree with u64 arithmetic on random operands.
    #[test]
    fn builders_match_u64_semantics(wa in 1usize..=7, wb in 1usize..=7, a in any::<u64>(), b in any::<u64>()) {
        let a = a & ((1 << wa) - 1);
        let b = b & ((1 << wb) - 1);
        let mut nl = Netlist::new("p");
        let ba = input_bus(&mut nl, "a", wa);
        let bb = input_bus(&mut nl, "b", wb);
        let s = add(&mut nl, &ba, &bb);
        let p = mul(&mut nl, &ba, &bb);
        let d = abs_diff(&mut nl, &ba, &bb);
        let (raw, no_borrow) = sub(&mut nl, &ba, &bb);
        mark_output_bus(&mut nl, "s", &s);
        mark_output_bus(&mut nl, "p", &p);
        mark_output_bus(&mut nl, "d", &d);
        mark_output_bus(&mut nl, "r", &raw);
        nl.mark_output("nb", no_borrow);

        let input = a | b << wa;
        let out = eval_scalar(&nl, input);
        let mut pos = 0;
        let take = |pos: &mut u32, w: usize| {
            let v = out >> *pos & ((1u64 << w) - 1);
            *pos += w as u32;
            v
        };
        let w = wa.max(wb);
        prop_assert_eq!(take(&mut pos, w + 1), a + b, "add");
        prop_assert_eq!(take(&mut pos, wa + wb), a * b, "mul");
        prop_assert_eq!(take(&mut pos, w), a.abs_diff(b), "abs_diff");
        prop_assert_eq!(take(&mut pos, w), a.wrapping_sub(b) & ((1 << w) - 1), "sub");
        prop_assert_eq!(take(&mut pos, 1), u64::from(a >= b), "no_borrow");
    }

    /// `cleaned()` preserves the circuit function.
    #[test]
    fn cleaned_preserves_function(seed in any::<u64>()) {
        let mut nl = Netlist::new("c");
        let inputs: Vec<_> = (0..5).map(|i| nl.add_input(format!("i{i}"))).collect();
        let mut nodes = inputs.clone();
        let mut x = seed | 1;
        for _ in 0..40 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = nodes[(x >> 8) as usize % nodes.len()];
            let b = nodes[(x >> 24) as usize % nodes.len()];
            let g = match (x >> 40) % 6 {
                0 => nl.and(a, b),
                1 => nl.or(a, b),
                2 => nl.xor(a, b),
                3 => nl.nand(a, b),
                4 => nl.nor(a, b),
                _ => nl.not(a),
            };
            nodes.push(g);
        }
        let z0 = nodes[nodes.len() - 1];
        let z1 = nodes[nodes.len() / 2];
        nl.mark_output("z0", z0);
        nl.mark_output("z1", z1);
        let clean = nl.cleaned();
        prop_assert!(clean.len() <= nl.len());
        prop_assert!(check_equiv(&nl, &clean).is_equal());
    }

    /// BLIF serialization round-trips random netlists — including
    /// constant nodes, outputs sharing one driver, and port names that
    /// collide with the writer's internal `n<i>` naming scheme.
    #[test]
    fn blif_roundtrip_preserves_function(seed in any::<u64>()) {
        use blasys_logic::blif::{from_blif, to_blif};

        let input_pool = ["a", "n1", "n3", "x0", "n7"];
        let output_pool = ["y", "n2", "n5", "out", "n11"];
        let mut nl = Netlist::new("rt");
        let mut x = seed | 1;
        let mut step = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x
        };
        let num_inputs = 2 + (step() >> 16) as usize % 3;
        let inputs: Vec<_> = input_pool
            .iter()
            .take(num_inputs)
            .map(|n| nl.add_input(*n))
            .collect();
        let mut nodes = inputs;
        // Seed the pool with both constants so covers over them appear.
        let k0 = nl.constant(false);
        let k1 = nl.constant(true);
        nodes.push(k0);
        nodes.push(k1);
        for _ in 0..14 {
            let r = step();
            let a = nodes[(r >> 8) as usize % nodes.len()];
            let b = nodes[(r >> 24) as usize % nodes.len()];
            let g = match (r >> 40) % 7 {
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
        let num_outputs = 1 + (step() >> 12) as usize % 4;
        for name in output_pool.iter().take(num_outputs) {
            // Random drivers; repeats exercise the shared-driver aliases.
            let d = nodes[(step() >> 7) as usize % nodes.len()];
            nl.mark_output(*name, d);
        }

        let text = to_blif(&nl);
        let back = from_blif(&text).expect("writer output must re-parse");
        prop_assert_eq!(back.num_inputs(), nl.num_inputs());
        prop_assert_eq!(back.num_outputs(), nl.num_outputs());
        for (a, b) in nl.outputs().iter().zip(back.outputs()) {
            prop_assert_eq!(a.name(), b.name());
        }
        prop_assert!(check_equiv(&nl, &back).is_equal());
    }

    /// Exhaustive tables match scalar evaluation everywhere.
    #[test]
    fn truth_table_matches_scalar_eval(seed in any::<u64>()) {
        let mut nl = Netlist::new("t");
        let inputs: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let mut x = seed | 1;
        let mut nodes = inputs;
        for _ in 0..12 {
            x = x.wrapping_mul(0x5DEECE66D).wrapping_add(11);
            let a = nodes[(x >> 5) as usize % nodes.len()];
            let b = nodes[(x >> 21) as usize % nodes.len()];
            nodes.push(if x & 1 == 0 { nl.xor(a, b) } else { nl.nand(a, b) });
        }
        let out = *nodes.last().unwrap();
        nl.mark_output("z", out);
        let tt = TruthTable::from_netlist(&nl);
        for row in 0..16u64 {
            prop_assert_eq!(tt.get(row as usize, 0), eval_scalar(&nl, row) & 1 == 1);
        }
    }
}

//! Property tests: the SAT backend must agree with exhaustive
//! enumeration on every randomized netlist pair — equal verdicts, and
//! every counterexample it returns must be a real disagreement.

use blasys_logic::equiv::{check_equiv, Equivalence};
use blasys_logic::sim::eval_scalar_with;
use blasys_logic::{Netlist, Simulator};
use blasys_sat::check_equiv_sat;
use proptest::prelude::*;

/// Deterministic random netlist from an op script (≤ 12 inputs).
fn random_netlist(num_inputs: usize, ops: &[(u8, u16, u16)], num_outputs: usize) -> Netlist {
    let mut nl = Netlist::new("prop");
    let mut nodes: Vec<_> = (0..num_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for &(kind, a, b) in ops {
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
}

fn interface_args() -> impl Strategy<Value = (usize, Vec<(u8, u16, u16)>, usize)> {
    (
        2usize..=12,
        proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 4..80),
        1usize..=4,
    )
}

/// Validate that a counterexample has one word per 64 inputs and
/// really distinguishes the netlists at the claimed output.
fn counterexample_is_real(a: &Netlist, b: &Netlist, verdict: &Equivalence) -> bool {
    let (pattern, output) = match verdict {
        Equivalence::Differs { pattern, output }
            if pattern.len() == a.num_inputs().div_ceil(64) =>
        {
            (pattern[0], *output)
        }
        _ => return false,
    };
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    let va = eval_scalar_with(&mut sim_a, pattern);
    let vb = eval_scalar_with(&mut sim_b, pattern);
    (va ^ vb) >> output & 1 == 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SAT vs exhaustive on independent random pairs with a shared
    /// interface: verdicts agree, counterexamples are real.
    #[test]
    fn sat_agrees_with_exhaustive(
        shape in interface_args(),
        ops2 in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 4..80),
    ) {
        let (k, ops1, m) = shape;
        let a = random_netlist(k, &ops1, m);
        let b = random_netlist(k, &ops2, m);
        let sat = check_equiv_sat(&a, &b);
        // At most 12 inputs: the simulation checker enumerates.
        let ex = check_equiv(&a, &b);
        prop_assert_eq!(sat.is_equal(), ex.is_equal(), "verdicts must agree");
        prop_assert!(ex.is_equal() || counterexample_is_real(&a, &b, &ex));
        if sat.is_equal() {
            prop_assert_eq!(sat, Equivalence::Equal { exhaustive: true });
        } else {
            prop_assert!(counterexample_is_real(&a, &b, &sat));
        }
    }

    /// A netlist is always SAT-equivalent to itself, and flipping one
    /// output with an inverter is always caught.
    #[test]
    fn self_equivalence_and_mutation(shape in interface_args()) {
        let (k, ops, m) = shape;
        let a = random_netlist(k, &ops, m);
        prop_assert_eq!(
            check_equiv_sat(&a, &a),
            Equivalence::Equal { exhaustive: true }
        );
        // Rebuild with the last output inverted.
        let b = random_netlist(k, &ops, m);
        let inverted = {
            let last = b.outputs().last().unwrap();
            (last.name().to_string(), last.node())
        };
        let mut c = Netlist::new("mut");
        let pis: Vec<_> = (0..k).map(|i| c.add_input(format!("i{i}"))).collect();
        let outs = blasys_sat::miter::import(&mut c, &b, &pis);
        for (o, node) in outs.iter().enumerate() {
            let name = b.outputs()[o].name().to_string();
            if name == inverted.0 {
                let n = c.not(*node);
                c.mark_output(name, n);
            } else {
                c.mark_output(name, *node);
            }
        }
        let verdict = check_equiv_sat(&b, &c);
        prop_assert!(!verdict.is_equal(), "inverted output must be caught");
        prop_assert!(counterexample_is_real(&b, &c, &verdict));
    }
}

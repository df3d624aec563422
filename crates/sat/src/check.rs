//! SAT-backed equivalence checking.
//!
//! Builds the pairwise miter, Tseitin-encodes it and asks the CDCL
//! solver whether the "some output differs" flag can be 1. UNSAT is a
//! proof of equivalence over the *entire* input space — at any input
//! width — and a SAT answer yields a concrete counterexample pattern,
//! which is validated by resimulation before being returned.

use blasys_logic::equiv::Equivalence;
use blasys_logic::{Netlist, Simulator};

use crate::miter::{constant_output, equivalence_miter};
use crate::solver::{SolveResult, Solver};
use crate::tseitin::Encoder;

/// Decide equivalence of two netlists with the CDCL solver.
///
/// Equal verdicts always carry `exhaustive: true` (the miter was proven
/// unsatisfiable); unequal verdicts carry a resimulation-validated
/// counterexample in [`Equivalence::Differs`].
///
/// # Panics
///
/// Panics if the interfaces differ in input or output counts.
pub fn check_equiv_sat(a: &Netlist, b: &Netlist) -> Equivalence {
    let miter = equivalence_miter(a, b);
    // Structural hashing may already have decided the question.
    match constant_output(&miter) {
        Some(false) => return Equivalence::Equal { exhaustive: true },
        Some(true) => {
            // Every input differs somewhere; the all-zero pattern works.
            let pattern = vec![0u64; a.num_inputs().div_ceil(64).max(1)];
            return differs_at(a, b, pattern);
        }
        None => {}
    }
    let mut enc = Encoder::new();
    let inputs = enc.new_inputs(miter.num_inputs());
    let encoded = enc.encode(&miter, &inputs);
    enc.assert_lit(encoded.output_lits[0]);
    let mut solver = Solver::from_cnf(enc.cnf());
    match solver.solve() {
        SolveResult::Unsat => Equivalence::Equal { exhaustive: true },
        SolveResult::Sat => {
            let k = a.num_inputs();
            let mut pattern = vec![0u64; k.div_ceil(64).max(1)];
            for (i, &l) in inputs.iter().enumerate() {
                if solver.model_value(l.var()) {
                    pattern[i / 64] |= 1 << (i % 64);
                }
            }
            differs_at(a, b, pattern)
        }
    }
}

/// Build the `Differs` verdict for a known counterexample
/// pattern, locating the first differing output by resimulation.
///
/// # Panics
///
/// Panics if the pattern is *not* a counterexample (the solver's model
/// disagreeing with resimulation would indicate an encoder bug).
fn differs_at(a: &Netlist, b: &Netlist, pattern: Vec<u64>) -> Equivalence {
    let k = a.num_inputs();
    let mut words_a = vec![0u64; k];
    for (i, w) in words_a.iter_mut().enumerate() {
        *w = if pattern[i / 64] >> (i % 64) & 1 == 1 {
            !0
        } else {
            0
        };
    }
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    let oa = sim_a.run(&words_a).to_vec();
    let ob = sim_b.run(&words_a);
    let output = (0..oa.len())
        .find(|&o| oa[o] & 1 != ob[o] & 1)
        .expect("SAT counterexample must disagree under resimulation");
    Equivalence::Differs { pattern, output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_logic::builder::{add, input_bus, mark_output_bus, mul};
    use blasys_logic::sim::eval_scalar_with;

    /// Exhaustively cross-check the SAT verdict against scalar
    /// simulation (up to 16 inputs).
    fn agrees_with_exhaustive(a: &Netlist, b: &Netlist) -> bool {
        let k = a.num_inputs();
        assert!(k <= 16, "exhaustive cross-check is bounded");
        let verdict = check_equiv_sat(a, b);
        let mut sim_a = Simulator::new(a);
        let mut sim_b = Simulator::new(b);
        let brute = (0..1u64 << k)
            .find(|&row| eval_scalar_with(&mut sim_a, row) != eval_scalar_with(&mut sim_b, row));
        match (&verdict, brute) {
            (Equivalence::Equal { exhaustive: true }, None) => true,
            (Equivalence::Differs { pattern, output }, Some(_)) => {
                // The specific pattern must really disagree at that output.
                let ga = eval_scalar_with(&mut sim_a, pattern[0]);
                let gb = eval_scalar_with(&mut sim_b, pattern[0]);
                (ga ^ gb) >> output & 1 == 1
            }
            _ => false,
        }
    }

    fn adder_net(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    /// `a + b` built as `b + a` — equal function, different structure.
    fn adder_net_swapped(width: usize) -> Netlist {
        let mut nl = Netlist::new("add_swapped");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &b, &a);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    #[test]
    fn proves_structural_equivalence() {
        let a = adder_net(4);
        let b = adder_net_swapped(4);
        assert_eq!(
            check_equiv_sat(&a, &b),
            Equivalence::Equal { exhaustive: true }
        );
    }

    #[test]
    fn refutes_with_valid_counterexample() {
        let a = adder_net(4);
        let mut b = Netlist::new("addmul");
        let x = input_bus(&mut b, "a", 4);
        let y = input_bus(&mut b, "b", 4);
        let p = mul(&mut b, &x, &y);
        mark_output_bus(&mut b, "p", &p.truncated(5));
        assert!(agrees_with_exhaustive(&a, &b));
    }

    #[test]
    fn wide_interface_counterexample_is_wide() {
        // 66 inputs: OR-reduce vs OR-reduce ignoring the last input.
        let build = |take: usize| {
            let mut nl = Netlist::new("or66");
            let inputs: Vec<_> = (0..66).map(|i| nl.add_input(format!("i{i}"))).collect();
            let mut acc = inputs[0];
            for &i in &inputs[1..take] {
                acc = nl.or(acc, i);
            }
            nl.mark_output("r", acc);
            nl
        };
        match check_equiv_sat(&build(66), &build(65)) {
            Equivalence::Differs { pattern, output: 0 } => {
                assert_eq!(pattern.len(), 2); // ceil(66 / 64) words
                                              // Only input 65 tells the two apart: the witness sets it
                                              // and leaves every other input at 0.
                assert_eq!(pattern, vec![0, 0b10]);
            }
            other => panic!("expected wide counterexample, got {other:?}"),
        }
    }
}

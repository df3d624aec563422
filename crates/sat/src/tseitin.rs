//! Tseitin transformation: netlist → CNF.
//!
//! Every netlist node gets one CNF variable; each gate contributes the
//! standard constant-size clause set asserting `output ⇔ gate(inputs)`,
//! so the CNF size is linear in the netlist and every model of the CNF
//! restricted to the input variables is a consistent simulation trace.

use blasys_logic::{GateKind, Netlist};

use crate::cnf::{Cnf, Lit};

/// Result of encoding one netlist: the literal of every node, plus the
/// output literals in output order.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Literal of each node, indexed by `NodeId::index()`.
    pub node_lits: Vec<Lit>,
    /// Literal of each primary output, in declaration order.
    pub output_lits: Vec<Lit>,
}

/// Incremental Tseitin encoder over a shared [`Cnf`].
#[derive(Debug, Default)]
pub struct Encoder {
    cnf: Cnf,
}

impl Encoder {
    /// A fresh encoder with an empty formula.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Allocate free variables for `n` shared primary inputs.
    pub fn new_inputs(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.cnf.new_var().positive()).collect()
    }

    /// Encode `nl` on top of the given input literals (one per primary
    /// input, in [`Netlist::inputs`] order). Multiple netlists encoded
    /// over the same input literals share their input space — the basis
    /// of every miter.
    ///
    /// # Panics
    ///
    /// Panics if `input_lits.len() != nl.num_inputs()`.
    pub fn encode(&mut self, nl: &Netlist, input_lits: &[Lit]) -> Encoded {
        assert_eq!(
            input_lits.len(),
            nl.num_inputs(),
            "one literal per primary input required"
        );
        let mut node_lits: Vec<Option<Lit>> = vec![None; nl.len()];
        for (pos, &pi) in nl.inputs().iter().enumerate() {
            node_lits[pi.index()] = Some(input_lits[pos]);
        }
        for (id, node) in nl.iter() {
            if node_lits[id.index()].is_some() {
                continue; // inputs already mapped
            }
            let lit = match node.kind() {
                GateKind::Input => unreachable!("inputs mapped above"),
                GateKind::Const0 => {
                    let v = self.cnf.new_var();
                    self.cnf.add_clause(vec![v.negative()]);
                    v.positive()
                }
                GateKind::Const1 => {
                    let v = self.cnf.new_var();
                    self.cnf.add_clause(vec![v.positive()]);
                    v.positive()
                }
                GateKind::Buf => node_lits[node.fanin0().unwrap().index()].unwrap(),
                GateKind::Not => !node_lits[node.fanin0().unwrap().index()].unwrap(),
                kind => {
                    let a = node_lits[node.fanin0().unwrap().index()].unwrap();
                    let b = node_lits[node.fanin1().unwrap().index()].unwrap();
                    let y = self.cnf.new_var().positive();
                    // NAND/NOR/XNOR are the base gate with the output
                    // literal inverted.
                    let (base, y) = match kind {
                        GateKind::Nand => (GateKind::And, !y),
                        GateKind::Nor => (GateKind::Or, !y),
                        GateKind::Xnor => (GateKind::Xor, !y),
                        k => (k, y),
                    };
                    match base {
                        GateKind::And => {
                            self.cnf.add_clause(vec![!y, a]);
                            self.cnf.add_clause(vec![!y, b]);
                            self.cnf.add_clause(vec![y, !a, !b]);
                        }
                        GateKind::Or => {
                            self.cnf.add_clause(vec![y, !a]);
                            self.cnf.add_clause(vec![y, !b]);
                            self.cnf.add_clause(vec![!y, a, b]);
                        }
                        GateKind::Xor => {
                            self.cnf.add_clause(vec![!y, a, b]);
                            self.cnf.add_clause(vec![!y, !a, !b]);
                            self.cnf.add_clause(vec![y, !a, b]);
                            self.cnf.add_clause(vec![y, a, !b]);
                        }
                        _ => unreachable!("binary kinds covered"),
                    }
                    // Undo the polarity flip for the stored node literal.
                    match kind {
                        GateKind::Nand | GateKind::Nor | GateKind::Xnor => !y,
                        _ => y,
                    }
                }
            };
            node_lits[id.index()] = Some(lit);
        }
        let output_lits = nl
            .outputs()
            .iter()
            .map(|o| node_lits[o.node().index()].unwrap())
            .collect();
        Encoded {
            node_lits: node_lits.into_iter().map(Option::unwrap).collect(),
            output_lits,
        }
    }

    /// Assert that `lit` holds.
    pub fn assert_lit(&mut self, lit: Lit) {
        self.cnf.add_clause(vec![lit]);
    }

    /// The formula built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Solver};
    use blasys_logic::sim::eval_scalar;

    /// Exhaustively check that the CNF of `nl` has exactly the models
    /// the circuit has: for every input row, the CNF with inputs pinned
    /// is satisfiable and forces the simulated output values.
    fn check_encoding(nl: &Netlist) {
        let k = nl.num_inputs();
        assert!(k <= 10, "test helper is exhaustive");
        for row in 0..1u64 << k {
            let mut enc = Encoder::new();
            let inputs = enc.new_inputs(k);
            let e = enc.encode(nl, &inputs);
            for (i, &l) in inputs.iter().enumerate() {
                enc.assert_lit(if row >> i & 1 == 1 { l } else { !l });
            }
            let mut s = Solver::from_cnf(enc.cnf());
            assert_eq!(s.solve(), SolveResult::Sat, "row {row} must be consistent");
            let want = eval_scalar(nl, row);
            for (o, &ol) in e.output_lits.iter().enumerate() {
                let got = s.model_value(ol.var()) != ol.is_negative();
                assert_eq!(got, want >> o & 1 == 1, "row {row} output {o}");
            }
        }
    }

    #[test]
    fn encodes_all_gate_kinds() {
        let mut nl = Netlist::new("gates");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.and(a, b);
        let g2 = nl.or(b, c);
        let g3 = nl.xor(g1, g2);
        let g4 = nl.nand(a, g3);
        let g5 = nl.nor(g2, c);
        let g6 = nl.xnor(g4, g5);
        let g7 = nl.not(g6);
        nl.mark_output("z1", g6);
        nl.mark_output("z2", g7);
        check_encoding(&nl);
    }

    #[test]
    fn encodes_constants() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let one = nl.constant(true);
        let zero = nl.constant(false);
        // Keep the constants alive as outputs (strash folds gates).
        nl.mark_output("one", one);
        nl.mark_output("zero", zero);
        nl.mark_output("a", a);
        check_encoding(&nl);
    }

    #[test]
    fn encodes_arithmetic() {
        use blasys_logic::builder::{add, input_bus, mark_output_bus};
        let mut nl = Netlist::new("add3");
        let a = input_bus(&mut nl, "a", 3);
        let b = input_bus(&mut nl, "b", 3);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        check_encoding(&nl);
    }
}

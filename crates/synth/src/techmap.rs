//! Mapping minimized covers onto the gate-level netlist.
//!
//! Product terms become left-associated AND chains over literals in
//! index order — together with the netlist's structural hashing this
//! shares common cube prefixes across outputs, which is where most of
//! the multi-output sharing in two-level networks comes from. Sums
//! become balanced OR (or XOR) trees.

use blasys_logic::{Netlist, NodeId, TruthTable};

use crate::cube::Sop;
use crate::espresso::minimize_column;

/// Build the literal nodes of a cube and AND them together; literals
/// are ordered by input index so structural hashing can share prefixes.
fn map_cube(nl: &mut Netlist, inputs: &[NodeId], care: u32, value: u32) -> NodeId {
    let mut acc: Option<NodeId> = None;
    for (v, &pi) in inputs.iter().enumerate() {
        if care >> v & 1 == 0 {
            continue;
        }
        let lit = if value >> v & 1 == 1 { pi } else { nl.not(pi) };
        acc = Some(match acc {
            None => lit,
            Some(a) => nl.and(a, lit),
        });
    }
    acc.unwrap_or_else(|| nl.constant(true))
}

/// Balanced reduction of `terms` under a binary operator.
fn balanced_reduce(
    nl: &mut Netlist,
    mut terms: Vec<NodeId>,
    mut op: impl FnMut(&mut Netlist, NodeId, NodeId) -> NodeId,
) -> NodeId {
    assert!(!terms.is_empty());
    while terms.len() > 1 {
        let mut next = Vec::with_capacity(terms.len().div_ceil(2));
        for pair in terms.chunks(2) {
            next.push(if pair.len() == 2 {
                op(nl, pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        terms = next;
    }
    terms[0]
}

/// Instantiate a sum-of-products cover over the given input nodes.
///
/// Returns the node computing the cover. Constant covers map to
/// constant nodes.
///
/// # Panics
///
/// Panics if `inputs.len() != sop.num_inputs()`.
pub fn map_sop(nl: &mut Netlist, inputs: &[NodeId], sop: &Sop) -> NodeId {
    assert_eq!(inputs.len(), sop.num_inputs(), "one node per input");
    if sop.cube_count() == 0 {
        return nl.constant(false);
    }
    let terms: Vec<NodeId> = sop
        .cubes()
        .iter()
        .map(|c| map_cube(nl, inputs, c.care(), c.value()))
        .collect();
    balanced_reduce(nl, terms, |nl, a, b| nl.or(a, b))
}

/// Balanced OR of arbitrary nodes (used for BLASYS OR decompressors).
pub fn or_tree(nl: &mut Netlist, terms: &[NodeId]) -> NodeId {
    if terms.is_empty() {
        return nl.constant(false);
    }
    balanced_reduce(nl, terms.to_vec(), |nl, a, b| nl.or(a, b))
}

/// Balanced XOR of arbitrary nodes (GF(2) field decompressors).
pub fn xor_tree(nl: &mut Netlist, terms: &[NodeId]) -> NodeId {
    if terms.is_empty() {
        return nl.constant(false);
    }
    balanced_reduce(nl, terms.to_vec(), |nl, a, b| nl.xor(a, b))
}

/// Minimize every column of a truth table and instantiate the covers
/// over `inputs`, returning one node per output column.
///
/// This is the two-level (SOP) path; see
/// [`shannon_columns`](crate::shannon::shannon_columns) for the
/// multi-level alternative and [`synthesize_tt`] for the selector that
/// keeps whichever is cheaper.
///
/// # Panics
///
/// Panics if `inputs.len() != tt.num_inputs()`.
pub fn synthesize_columns(nl: &mut Netlist, inputs: &[NodeId], tt: &TruthTable) -> Vec<NodeId> {
    assert_eq!(inputs.len(), tt.num_inputs(), "one node per input");
    (0..tt.num_outputs())
        .map(|o| {
            let sop = minimize_column(tt.num_inputs(), tt.column(o));
            map_sop(nl, inputs, &sop)
        })
        .collect()
}

/// Cheap area proxy used to pick between candidate implementations:
/// XOR-class cells count double (matching their library area ratio).
pub fn gate_cost(nl: &Netlist) -> usize {
    use blasys_logic::GateKind;
    nl.iter()
        .map(|(_, n)| match n.kind() {
            GateKind::Xor | GateKind::Xnor => 2,
            k if k.is_gate() => 1,
            _ => 0,
        })
        .sum()
}

/// Synthesize a fresh netlist implementing a truth table (inputs named
/// `x0..`, outputs `y0..`).
///
/// Builds both a two-level (espresso + SOP mapping) and a multi-level
/// (Shannon decomposition) implementation and returns the cheaper one,
/// so AND/OR-shaped logic and XOR-rich arithmetic both map compactly.
pub fn synthesize_tt(tt: &TruthTable, name: &str) -> Netlist {
    let sop = build_tt(tt, name, synthesize_columns);
    let shannon = build_tt(tt, name, |nl, inputs, tt| {
        crate::shannon::shannon_columns(nl, inputs, tt)
    });
    if gate_cost(&shannon) < gate_cost(&sop) {
        shannon
    } else {
        sop
    }
}

fn build_tt(
    tt: &TruthTable,
    name: &str,
    mapper: impl FnOnce(&mut Netlist, &[NodeId], &TruthTable) -> Vec<NodeId>,
) -> Netlist {
    let mut nl = Netlist::new(name);
    let inputs: Vec<NodeId> = (0..tt.num_inputs())
        .map(|i| nl.add_input(format!("x{i}")))
        .collect();
    let outs = mapper(&mut nl, &inputs, tt);
    for (o, node) in outs.into_iter().enumerate() {
        nl.mark_output(format!("y{o}"), node);
    }
    nl.cleaned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_logic::equiv::matches_truth_table;

    #[test]
    fn synthesized_tt_is_equivalent() {
        // A 5-input, 3-output structured function.
        let tt = TruthTable::from_fn(5, 3, |row| {
            let a = row & 0b11;
            let b = (row >> 2) & 0b111;
            ((a * b) & 0b111) as u64
        });
        let nl = synthesize_tt(&tt, "t");
        assert_eq!(nl.num_inputs(), 5);
        assert_eq!(nl.num_outputs(), 3);
        assert!(matches_truth_table(&nl, &tt));
    }

    #[test]
    fn prefix_sharing_reduces_gates() {
        // Two outputs with a large shared cube prefix: sharing should
        // keep the gate count below independent mapping.
        let tt = TruthTable::from_fn(6, 2, |row| {
            let base = row & 0b1111 == 0b1111;
            let o0 = base && (row >> 4) & 1 == 1;
            let o1 = base && (row >> 5) & 1 == 1;
            (o0 as u64) | (o1 as u64) << 1
        });
        let nl = synthesize_tt(&tt, "share");
        assert!(matches_truth_table(&nl, &tt));
        // Independent mapping would need ~2*(4+1) AND2; sharing the
        // 4-literal prefix saves at least 3 gates.
        assert!(nl.gate_count() <= 7, "got {} gates", nl.gate_count());
    }

    #[test]
    fn constant_columns() {
        let tt = TruthTable::from_fn(3, 2, |_| 0b01);
        let nl = synthesize_tt(&tt, "c");
        assert!(matches_truth_table(&nl, &tt));
        assert_eq!(nl.gate_count(), 0); // both outputs constant
    }

    #[test]
    fn or_and_xor_trees() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let o = or_tree(&mut nl, &[a, b, c]);
        let x = xor_tree(&mut nl, &[a, b, c]);
        nl.mark_output("or", o);
        nl.mark_output("xor", x);
        let tt = TruthTable::from_netlist(&nl);
        for row in 0..8usize {
            assert_eq!(tt.get(row, 0), row != 0);
            assert_eq!(tt.get(row, 1), (row.count_ones() & 1) == 1);
        }
    }

    #[test]
    fn empty_trees_are_constant_false() {
        let mut nl = Netlist::new("t");
        let o = or_tree(&mut nl, &[]);
        let x = xor_tree(&mut nl, &[]);
        nl.mark_output("o", o);
        nl.mark_output("x", x);
        let tt = TruthTable::from_netlist(&nl);
        assert!(!tt.get(0, 0) && !tt.get(0, 1));
    }

    #[test]
    fn wide_window_roundtrip() {
        // k = 10, m = 4 — the paper's window size.
        let tt = TruthTable::from_fn(10, 4, |row| (((row * 2654435761usize) >> 7) & 0xF) as u64);
        let nl = synthesize_tt(&tt, "k10");
        assert!(matches_truth_table(&nl, &tt));
    }
}

//! Compressor / decompressor construction (Section 3.1 of the paper).
//!
//! A factorization `M ≈ B ∘ C` of a k-input, m-output subcircuit turns
//! into hardware as:
//!
//! * the **compressor**: a k-input, f-output circuit whose truth table
//!   is `B`, synthesized through the espresso + techmap flow;
//! * the **decompressor**: one OR (semi-ring) or XOR (field) gate tree
//!   per output `j`, combining the intermediate signals `t_l` for
//!   which `C[l][j] = 1`.

use blasys_bmf::{Algebra, Factorization};
use blasys_logic::{Netlist, NodeId, TruthTable};
use blasys_synth::{gate_cost, or_tree, shannon_columns, synthesize_columns, xor_tree};

/// Build the k-input, m-output approximate subcircuit netlist realizing
/// a factorization.
///
/// Inputs are named `x0..x{k-1}` and outputs `y0..y{m-1}`, matching the
/// positional interface `decomp::substitute` expects.
///
/// # Panics
///
/// Panics if `fac.b()` does not have `2^k` rows.
pub fn factorization_netlist(k: usize, fac: &Factorization, name: &str) -> Netlist {
    let b = fac.b();
    assert_eq!(b.num_rows(), 1usize << k, "B must be a k-input truth table");
    let f = fac.degree();
    let b_tt = TruthTable::from_fn(k, f, |row| b.row(row));

    // The compressor truth table maps well to two-level logic for
    // AND/OR-shaped columns and to Shannon decomposition for XOR-rich
    // ones; build both and keep the cheaper realization.
    let sop = build_variant(k, fac, name, &b_tt, synthesize_columns);
    let shannon = build_variant(k, fac, name, &b_tt, shannon_columns);
    if gate_cost(&shannon) < gate_cost(&sop) {
        shannon
    } else {
        sop
    }
}

fn build_variant(
    k: usize,
    fac: &Factorization,
    name: &str,
    b_tt: &TruthTable,
    mapper: impl FnOnce(&mut Netlist, &[NodeId], &TruthTable) -> Vec<NodeId>,
) -> Netlist {
    let c = fac.c();
    let f = fac.degree();
    let m = c.num_cols();
    let mut nl = Netlist::new(name.to_string());
    let inputs: Vec<NodeId> = (0..k).map(|i| nl.add_input(format!("x{i}"))).collect();
    let t_signals = mapper(&mut nl, &inputs, b_tt);
    // Decompressor: per output j, combine the t_l with C[l][j] = 1.
    for j in 0..m {
        let terms: Vec<NodeId> = (0..f)
            .filter(|&l| c.get(l, j))
            .map(|l| t_signals[l])
            .collect();
        let out = match fac.algebra() {
            Algebra::SemiRing => or_tree(&mut nl, &terms),
            Algebra::Field => xor_tree(&mut nl, &terms),
        };
        nl.mark_output(format!("y{j}"), out);
    }
    nl.cleaned()
}

/// The truth table rows (`m ≤ 16` bits each) realized by a
/// factorization — i.e. the product `B ∘ C` row by row. These are the
/// `T_{si,f}` tables Algorithm 1 substitutes during exploration.
pub fn factorization_rows(fac: &Factorization) -> Vec<u16> {
    let p = fac.product();
    (0..p.num_rows()).map(|i| p.row(i) as u16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_bmf::{BoolMatrix, Factorizer};
    use blasys_logic::TruthTable;

    fn table_of(nl: &Netlist) -> TruthTable {
        TruthTable::from_netlist(nl)
    }

    #[test]
    fn netlist_realizes_the_factorized_product() {
        // 4-input, 3-output function.
        let m = BoolMatrix::from_fn(16, 3, |i, j| (i >> j) & 1 == 1 && i % 3 != 0);
        for f in 1..=3 {
            let fac = Factorizer::new().factorize(&m, f);
            let nl = factorization_netlist(4, &fac, "t");
            assert_eq!(nl.num_inputs(), 4);
            assert_eq!(nl.num_outputs(), 3);
            let tt = table_of(&nl);
            let product = fac.product();
            for row in 0..16 {
                assert_eq!(
                    tt.row_value(row),
                    product.row(row),
                    "f={f} row={row}: netlist must equal B∘C exactly"
                );
            }
            // And the rows helper agrees.
            let rows = factorization_rows(&fac);
            for (row, &r) in rows.iter().enumerate() {
                assert_eq!(r as u64, product.row(row));
            }
        }
    }

    #[test]
    fn field_algebra_uses_xor_semantics() {
        let m = BoolMatrix::from_fn(8, 3, |i, j| (i + j) % 2 == 0);
        let fac = Factorizer::new().algebra(Algebra::Field).factorize(&m, 2);
        let nl = factorization_netlist(3, &fac, "x");
        let tt = table_of(&nl);
        let product = fac.product();
        for row in 0..8 {
            assert_eq!(tt.row_value(row), product.row(row), "row={row}");
        }
    }

    #[test]
    fn full_degree_factorization_is_exact_hardware() {
        let m = BoolMatrix::from_fn(16, 4, |i, j| (i * 5 + j * j) % 3 == 1);
        let fac = Factorizer::new().factorize(&m, 4);
        let nl = factorization_netlist(4, &fac, "exact");
        let tt = table_of(&nl);
        for row in 0..16 {
            assert_eq!(tt.row_value(row), m.row(row));
        }
    }

    #[test]
    fn zero_column_outputs_become_constants() {
        // A factorization where some output never appears in C.
        let m = BoolMatrix::zeroed(8, 2);
        let fac = Factorizer::new().factorize(&m, 1);
        let nl = factorization_netlist(3, &fac, "z");
        let tt = table_of(&nl);
        for row in 0..8 {
            assert_eq!(tt.row_value(row), 0);
        }
    }
}

//! Simulation equivalence checking between netlists: the test oracle
//! for the crates below `blasys-sat`.
//!
//! [`check_equiv`] enumerates the truth tables of interfaces up to 16
//! inputs, a proof (`Equal { exhaustive: true }`). Wider interfaces
//! are checked on 256 blocks of 64 seeded random patterns: that can
//! refute equivalence with a counterexample but only ever reports
//! `Equal { exhaustive: false }` ("probably equal"). An exact check at
//! *any* input width is `blasys_sat::check_equiv_sat`, a CDCL SAT
//! solver on the pairwise miter; it lives in a higher crate to keep
//! this one dependency-free.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::netlist::Netlist;
use crate::sim::Simulator;
use crate::truth::TruthTable;

/// Interfaces up to this many inputs are enumerated exhaustively.
const EXHAUSTIVE_LIMIT: usize = 16;
/// Random 64-pattern blocks checked on wider interfaces.
const SAMPLE_BLOCKS: usize = 256;
/// Seed of the sampled patterns.
const SAMPLE_SEED: u64 = 0x0B1A_5755;

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The two netlists agreed on every checked pattern; `exhaustive`
    /// tells whether the verdict covers the whole input space (always
    /// true for enumeration and for the SAT checker).
    Equal {
        /// True if the whole input space is covered by the verdict.
        exhaustive: bool,
    },
    /// A mismatch was found on this input assignment at this output
    /// index.
    Differs {
        /// Counterexample input assignment, packed 64 inputs per word:
        /// bit `i % 64` of `pattern[i / 64]` feeds primary input `i`
        /// (`ceil(inputs / 64)` words, at least one).
        pattern: Vec<u64>,
        /// First differing output index.
        output: usize,
    },
}

impl Equivalence {
    /// Whether the check passed.
    pub fn is_equal(&self) -> bool {
        matches!(self, Equivalence::Equal { .. })
    }
}

/// Check whether two netlists implement the same function:
/// exhaustively up to 16 inputs, on seeded random patterns beyond.
///
/// The netlists must have the same number of inputs and outputs; inputs
/// and outputs are matched positionally.
///
/// # Panics
///
/// Panics if the interfaces differ in input or output counts.
pub fn check_equiv(a: &Netlist, b: &Netlist) -> Equivalence {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input count mismatch");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output count mismatch");
    if a.num_inputs() <= EXHAUSTIVE_LIMIT {
        check_exhaustive(a, b)
    } else {
        check_sampled(a, b)
    }
}

fn check_exhaustive(a: &Netlist, b: &Netlist) -> Equivalence {
    let ta = TruthTable::from_netlist(a);
    let tb = TruthTable::from_netlist(b);
    if ta == tb {
        return Equivalence::Equal { exhaustive: true };
    }
    for row in 0..ta.rows() {
        for o in 0..ta.num_outputs() {
            if ta.get(row, o) != tb.get(row, o) {
                return Equivalence::Differs {
                    pattern: vec![row as u64],
                    output: o,
                };
            }
        }
    }
    unreachable!("tables differ but no differing row found");
}

fn check_sampled(a: &Netlist, b: &Netlist) -> Equivalence {
    let k = a.num_inputs();
    let mut rng = SmallRng::seed_from_u64(SAMPLE_SEED);
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    let mut words = vec![0u64; k];
    for _ in 0..SAMPLE_BLOCKS {
        for w in words.iter_mut() {
            *w = rng.gen();
        }
        let oa = sim_a.run(&words).to_vec();
        let ob = sim_b.run(&words);
        for o in 0..oa.len() {
            let diff = oa[o] ^ ob[o];
            if diff != 0 {
                let lane = diff.trailing_zeros() as usize;
                let mut pattern = vec![0u64; k.div_ceil(64)];
                for (i, w) in words.iter().enumerate() {
                    if w >> lane & 1 == 1 {
                        pattern[i / 64] |= 1 << (i % 64);
                    }
                }
                return Equivalence::Differs { pattern, output: o };
            }
        }
    }
    Equivalence::Equal { exhaustive: false }
}

/// Check a netlist against a reference truth table (positional outputs).
///
/// # Panics
///
/// Panics if shapes do not match or the netlist is too wide to enumerate.
pub fn matches_truth_table(nl: &Netlist, tt: &TruthTable) -> bool {
    assert_eq!(nl.num_inputs(), tt.num_inputs());
    assert_eq!(nl.num_outputs(), tt.num_outputs());
    TruthTable::from_netlist(nl) == *tt
}

/// Count, per output, how many rows of the exhaustive space differ
/// between a netlist and a reference table. The total is the Hamming
/// distance used in the paper's Figure 3.
pub fn hamming_vs_table(nl: &Netlist, tt: &TruthTable) -> Vec<usize> {
    let got = TruthTable::from_netlist(nl);
    (0..tt.num_outputs())
        .map(|o| {
            got.column(o)
                .iter()
                .zip(tt.column(o))
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn xor_net(extra_gate: bool) -> Netlist {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = if extra_gate {
            // Same function, different structure: (a|b) & ~(a&b).
            let o = nl.or(a, b);
            let an = nl.and(a, b);
            let nn = nl.not(an);
            nl.and(o, nn)
        } else {
            nl.xor(a, b)
        };
        nl.mark_output("z", g);
        nl
    }

    #[test]
    fn structurally_different_equal_functions() {
        let a = xor_net(false);
        let b = xor_net(true);
        let r = check_equiv(&a, &b);
        assert_eq!(r, Equivalence::Equal { exhaustive: true });
    }

    #[test]
    fn detects_difference_with_counterexample() {
        let a = xor_net(false);
        let mut b = Netlist::new("or");
        let x = b.add_input("a");
        let y = b.add_input("b");
        let g = b.or(x, y);
        b.mark_output("z", g);
        match check_equiv(&a, &b) {
            Equivalence::Differs { pattern, output } => {
                assert_eq!(output, 0);
                assert_eq!(pattern, vec![0b11]); // XOR=0, OR=1: one word
            }
            other => panic!("expected difference, got {other:?}"),
        }
    }

    #[test]
    fn sampling_path_used_for_wide_netlists() {
        // 20-input parity, two builds: past 16 inputs the check samples.
        let build = |swap: bool| {
            let mut nl = Netlist::new("par");
            let inputs: Vec<_> = (0..20).map(|i| nl.add_input(format!("i{i}"))).collect();
            let order: Vec<usize> = if swap {
                (0..20).rev().collect()
            } else {
                (0..20).collect()
            };
            let mut acc = inputs[order[0]];
            for &i in &order[1..] {
                acc = nl.xor(acc, inputs[i]);
            }
            nl.mark_output("p", acc);
            nl
        };
        let r = check_equiv(&build(false), &build(true));
        assert_eq!(r, Equivalence::Equal { exhaustive: false });
    }

    #[test]
    fn sampling_finds_mismatch() {
        let build = |broken: bool| {
            let mut nl = Netlist::new("par");
            let inputs: Vec<_> = (0..20).map(|i| nl.add_input(format!("i{i}"))).collect();
            let mut acc = inputs[0];
            for &i in &inputs[1..] {
                acc = nl.xor(acc, i);
            }
            if broken {
                acc = nl.not(acc);
            }
            nl.mark_output("p", acc);
            nl
        };
        assert!(!check_equiv(&build(false), &build(true)).is_equal());
    }

    #[test]
    fn wide_sampled_counterexample_is_packed() {
        // 70 inputs: parity vs parity-with-one-dropped-input differs on
        // patterns where the dropped input is 1.
        let build = |drop_last: bool| {
            let mut nl = Netlist::new("par70");
            let inputs: Vec<_> = (0..70).map(|i| nl.add_input(format!("i{i}"))).collect();
            let take = if drop_last { 69 } else { 70 };
            let mut acc = inputs[0];
            for &i in &inputs[1..take] {
                acc = nl.xor(acc, i);
            }
            nl.mark_output("p", acc);
            nl
        };
        let a = build(false);
        let b = build(true);
        match check_equiv(&a, &b) {
            Equivalence::Differs { pattern, output } => {
                assert_eq!(output, 0);
                assert_eq!(pattern.len(), 2); // ceil(70 / 64) words
                                              // The counterexample must set input 69.
                assert_eq!(pattern[1] >> 5 & 1, 1);
            }
            other => panic!("expected wide counterexample, got {other:?}"),
        }
    }

    #[test]
    fn hamming_vs_table_counts() {
        let nl = xor_net(false);
        let mut tt = TruthTable::from_netlist(&nl);
        tt.set(0, 0, true); // flip one entry
        assert_eq!(hamming_vs_table(&nl, &tt), vec![1]);
        assert!(!matches_truth_table(&nl, &tt));
    }
}

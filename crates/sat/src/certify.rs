//! Certified worst-case absolute error bounds.
//!
//! Monte-Carlo QoR estimation (`blasys-core::montecarlo`) observes the
//! error on sampled inputs only, so its `worst_absolute` is a *lower*
//! bound that silently misses rare worst cases. This module computes
//! the exact worst case: binary search over the threshold `T`, asking
//! the SAT solver at every probe whether `∃ input: |R − R'| ≥ T` via
//! the arithmetic comparator miter. The result is a certificate —
//! a witness input achieving the bound, plus an UNSAT proof that no
//! input exceeds it.

use blasys_logic::sim::eval_scalar_with;
use blasys_logic::{Netlist, Simulator};

use crate::miter::{constant_output, error_ge_miter};
use crate::solver::{SolveResult, Solver, SolverStats};
use crate::tseitin::Encoder;

/// An exact worst-case absolute error bound with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorCertificate {
    /// `max over inputs of |R_golden − R_approx|`, exactly.
    pub worst_absolute: u64,
    /// An input achieving `worst_absolute` (packed 64 inputs per word);
    /// `None` only when the bound is 0 (the designs are equivalent).
    pub witness: Option<Vec<u64>>,
    /// Number of SAT probes the binary search issued.
    pub probes: usize,
    /// Accumulated solver statistics over all probes.
    pub stats: SolverStats,
}

impl ErrorCertificate {
    /// Whether the certificate proves exact equivalence of the numeric
    /// outputs.
    pub fn proves_equivalence(&self) -> bool {
        self.worst_absolute == 0
    }
}

fn accumulate(into: &mut SolverStats, s: SolverStats) {
    into.conflicts += s.conflicts;
    into.decisions += s.decisions;
    into.propagations += s.propagations;
    into.restarts += s.restarts;
    into.learnt_clauses += s.learnt_clauses;
}

/// One probe: is `|R_golden − R_approx| ≥ t` satisfiable? Returns the
/// witness pattern if so.
fn probe(
    golden: &Netlist,
    approx: &Netlist,
    t: u128,
    stats: &mut SolverStats,
    probes: &mut usize,
    on_probe: &mut dyn FnMut(&SolverStats),
) -> Option<Vec<u64>> {
    let miter = error_ge_miter(golden, approx, t);
    let words = golden.num_inputs().div_ceil(64).max(1);
    match constant_output(&miter) {
        Some(false) => return None,
        Some(true) => return Some(vec![0u64; words]),
        None => {}
    }
    *probes += 1;
    let mut enc = Encoder::new();
    let inputs = enc.new_inputs(miter.num_inputs());
    let encoded = enc.encode(&miter, &inputs);
    enc.assert_lit(encoded.output_lits[0]);
    let mut solver = Solver::from_cnf(enc.cnf());
    let result = solver.solve();
    let probe_stats = solver.stats();
    on_probe(&probe_stats);
    accumulate(stats, probe_stats);
    match result {
        SolveResult::Unsat => None,
        SolveResult::Sat => {
            let mut pattern = vec![0u64; words];
            for (i, &l) in inputs.iter().enumerate() {
                if solver.model_value(l.var()) {
                    pattern[i / 64] |= 1 << (i % 64);
                }
            }
            Some(pattern)
        }
    }
}

/// Certify the exact worst-case absolute error between a golden netlist
/// and an approximation of it.
///
/// Outputs are interpreted as unsigned integers assembled LSB-first
/// from each netlist's primary output list (the same convention as
/// `blasys-core::qor`). The output counts may differ; input counts must
/// match (inputs are shared positionally).
///
/// # Panics
///
/// Panics if the input counts differ or either netlist has no outputs.
pub fn certify_worst_absolute(golden: &Netlist, approx: &Netlist) -> ErrorCertificate {
    certify_worst_absolute_observed(golden, approx, &mut |_| {})
}

/// Like [`certify_worst_absolute`], but invokes `on_probe` with the
/// solver statistics of each *real* SAT probe as the binary search
/// issues it (constant-folded probes are skipped, matching the
/// certificate's `probes` count). Lets callers stream per-probe
/// conflict/restart/learned-clause figures into histograms without
/// this crate depending on any metrics machinery.
///
/// # Panics
///
/// Same contract as [`certify_worst_absolute`].
pub fn certify_worst_absolute_observed(
    golden: &Netlist,
    approx: &Netlist,
    on_probe: &mut dyn FnMut(&SolverStats),
) -> ErrorCertificate {
    assert_eq!(
        golden.num_inputs(),
        approx.num_inputs(),
        "input count mismatch"
    );
    assert!(
        golden.num_outputs() > 0 && approx.num_outputs() > 0,
        "numeric outputs required"
    );
    let w = golden.num_outputs().max(approx.num_outputs());
    assert!(w <= 64, "numeric interpretation supports at most 64 bits");
    let mut stats = SolverStats::default();
    let mut probes = 0usize;
    // Invariant: some input reaches |diff| >= lo (witnessed);
    //            no input reaches  |diff| >= hi (hi starts at 2^w,
    //            structurally unreachable for w-bit operands).
    let mut lo = 0u128;
    let mut hi = 1u128 << w;
    let mut witness: Option<Vec<u64>> = None;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match probe(golden, approx, mid, &mut stats, &mut probes, on_probe) {
            Some(pat) => {
                lo = mid;
                witness = Some(pat);
            }
            None => hi = mid,
        }
    }
    // lo == 0 means even |diff| >= 1 was refuted: exact equivalence
    // (and no witness was ever recorded).
    ErrorCertificate {
        worst_absolute: lo as u64,
        witness,
        probes,
        stats,
    }
}

/// Evaluate `|R_golden − R_approx|` on one packed input pattern
/// (certificate witnesses; netlists of at most 64 inputs/outputs).
///
/// # Panics
///
/// Panics if the netlists exceed 64 inputs or outputs.
pub fn witness_error(golden: &Netlist, approx: &Netlist, pattern: &[u64]) -> u64 {
    let mut sim_g = Simulator::new(golden);
    let mut sim_a = Simulator::new(approx);
    let row = pattern.first().copied().unwrap_or(0);
    let g = eval_scalar_with(&mut sim_g, row);
    let a = eval_scalar_with(&mut sim_a, row);
    g.abs_diff(a)
}

/// Brute-force worst-case absolute error by full enumeration (test and
/// benchmark reference; requires a small input count).
///
/// # Panics
///
/// Panics if the golden netlist has more than 20 inputs.
pub fn brute_force_worst_absolute(golden: &Netlist, approx: &Netlist) -> u64 {
    let k = golden.num_inputs();
    assert!(k <= 20, "brute force is exponential in the input count");
    let mut sim_g = Simulator::new(golden);
    let mut sim_a = Simulator::new(approx);
    let mut worst = 0u64;
    for row in 0..1u64 << k {
        let g = eval_scalar_with(&mut sim_g, row);
        let a = eval_scalar_with(&mut sim_a, row);
        worst = worst.max(g.abs_diff(a));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_logic::builder::{add, input_bus, mark_output_bus, Bus};
    use blasys_logic::NodeId;

    fn exact_adder(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    /// Adder with the lowest `chopped` sum bits forced to 0 — the
    /// classic truncated approximate adder with worst error 2^chopped-1
    /// ... except the carry chain still sees the real inputs, so the
    /// worst case is exactly (2^chopped - 1) * 1 from dropping the low
    /// sum bits (carries are computed from the true bits here).
    fn truncated_adder(width: usize, chopped: usize) -> Netlist {
        let mut nl = Netlist::new("addtrunc");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        let zero = nl.constant(false);
        let bits: Vec<NodeId> = s
            .bits()
            .iter()
            .enumerate()
            .map(|(i, &bit)| if i < chopped { zero } else { bit })
            .collect();
        mark_output_bus(&mut nl, "s", &Bus::from_bits(bits));
        nl
    }

    #[test]
    fn equivalent_designs_certify_zero() {
        let a = exact_adder(4);
        let cert = certify_worst_absolute(&a, &a);
        assert_eq!(cert.worst_absolute, 0);
        assert!(cert.proves_equivalence());
        assert!(cert.witness.is_none());
    }

    #[test]
    fn truncated_adder_bound_matches_brute_force() {
        for chopped in [1usize, 2, 3] {
            let g = exact_adder(4);
            let a = truncated_adder(4, chopped);
            let cert = certify_worst_absolute(&g, &a);
            let brute = brute_force_worst_absolute(&g, &a);
            assert_eq!(cert.worst_absolute, brute, "chopped = {chopped}");
            let w = cert.witness.expect("nonzero bound needs a witness");
            assert_eq!(witness_error(&g, &a, &w), cert.worst_absolute);
        }
    }

    #[test]
    fn binary_search_issues_logarithmic_probes() {
        let g = exact_adder(4);
        let a = truncated_adder(4, 2);
        let cert = certify_worst_absolute(&g, &a);
        // 5 output bits -> at most 5 probes (plus constant-folded ones,
        // which are not counted).
        assert!(cert.probes <= 5, "probes = {}", cert.probes);
        assert!(cert.stats.propagations > 0);
    }
}

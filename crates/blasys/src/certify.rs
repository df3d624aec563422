//! Post-exploration certification pass.
//!
//! Everything the exploration loop reports is *estimated*: QoR comes
//! from Monte-Carlo sampling and "exact" resynthesis is validated by
//! simulation. This module upgrades those estimates to proofs using the
//! `blasys-sat` CDCL engine:
//!
//! * [`CertifiedPoint::certify`] /
//!   [`BlasysResult::certify_step`](crate::flow::BlasysResult::certify_step)
//!   compute the *exact* worst-case absolute error of a synthesized
//!   trajectory point (binary search over comparator miters) and stamp
//!   it into the recorded [`QorReport`](crate::qor::QorReport);
//! * [`prove_exact`] proves that an exact-resynthesis netlist is
//!   functionally identical to the original at any input width
//!   (the sampled checker can only say "probably equal" beyond 16
//!   inputs).

use blasys_logic::equiv::Equivalence;
use blasys_logic::Netlist;
use blasys_sat::{
    certify_worst_absolute, certify_worst_absolute_observed, check_equiv_sat, ErrorCertificate,
    SolverStats,
};

/// A SAT certificate attached to one trajectory step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedPoint {
    /// The certified trajectory step.
    pub step: usize,
    /// The exact worst-case absolute error with witness and stats.
    pub certificate: ErrorCertificate,
    /// The sampled `worst_absolute` recorded during exploration, for
    /// comparison against the certificate.
    pub sampled_worst_absolute: u64,
}

impl CertifiedPoint {
    /// Certify a synthesized design against its golden reference.
    pub fn certify(
        step: usize,
        golden: &Netlist,
        synthesized: &Netlist,
        sampled: u64,
    ) -> CertifiedPoint {
        CertifiedPoint {
            step,
            certificate: certify_worst_absolute(golden, synthesized),
            sampled_worst_absolute: sampled,
        }
    }

    /// Like [`CertifiedPoint::certify`], streaming each SAT probe's
    /// solver statistics (conflicts, restarts, learned clauses) to
    /// `on_probe` as the binary search issues it — the hook the CLI
    /// uses to fill `sat.*` histograms.
    pub fn certify_observed(
        step: usize,
        golden: &Netlist,
        synthesized: &Netlist,
        sampled: u64,
        on_probe: &mut dyn FnMut(&SolverStats),
    ) -> CertifiedPoint {
        CertifiedPoint {
            step,
            certificate: certify_worst_absolute_observed(golden, synthesized, on_probe),
            sampled_worst_absolute: sampled,
        }
    }

    /// A sampled bound can never exceed the certified worst case; a
    /// violation would mean the certificate (or the sampler) is wrong.
    pub fn consistent(&self) -> bool {
        self.sampled_worst_absolute <= self.certificate.worst_absolute
    }
}

/// Prove exact functional equivalence with the SAT solver. Returns the
/// full verdict so callers can inspect a counterexample on failure.
///
/// # Examples
///
/// Formal comparison of two structurally different implementations
/// (`examples/custom_datapath.rs` checks its exact resynthesis the
/// same way):
///
/// ```
/// use blasys_core::prove_exact;
/// use blasys_logic::builder::{add, input_bus, mark_output_bus};
/// use blasys_logic::{Equivalence, Netlist};
///
/// let build = |name: &str| {
///     let mut nl = Netlist::new(name);
///     let a = input_bus(&mut nl, "a", 8);
///     let b = input_bus(&mut nl, "b", 8);
///     let s = add(&mut nl, &a, &b);
///     mark_output_bus(&mut nl, "s", &s);
///     nl
/// };
/// let verdict = prove_exact(&build("golden"), &build("candidate"));
/// assert_eq!(verdict, Equivalence::Equal { exhaustive: true });
/// ```
pub fn prove_exact(golden: &Netlist, candidate: &Netlist) -> Equivalence {
    check_equiv_sat(golden, candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_logic::builder::{add, input_bus, mark_output_bus};

    fn adder(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    #[test]
    fn prove_exact_beyond_exhaustive_limit() {
        // 24 inputs: the Auto backend would only sample here.
        let a = adder(12);
        let b = adder(12);
        assert_eq!(prove_exact(&a, &b), Equivalence::Equal { exhaustive: true });
    }

    #[test]
    fn certified_point_consistency() {
        let golden = adder(4);
        let p = CertifiedPoint::certify(0, &golden, &golden, 0);
        assert_eq!(p.certificate.worst_absolute, 0);
        assert!(p.consistent());
    }
}

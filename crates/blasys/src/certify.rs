//! Post-exploration certification pass.
//!
//! Everything the exploration loop reports is *estimated*: QoR comes
//! from Monte-Carlo sampling. A [`CertifiedPoint`] upgrades one
//! trajectory point's sampled worst-case absolute error to the exact
//! one, computed by the `blasys-sat` CDCL engine (binary search over
//! comparator miters) in
//! [`BlasysResult::certify_step`](crate::flow::BlasysResult::certify_step),
//! which also stamps it into the recorded
//! [`QorReport`](crate::qor::QorReport). Exact equivalence of a
//! trajectory point with the original is
//! [`BlasysResult::prove_step_exact`](crate::flow::BlasysResult::prove_step_exact).

use blasys_sat::ErrorCertificate;

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
    /// A sampled bound can never exceed the certified worst case; a
    /// violation would mean the certificate (or the sampler) is wrong.
    pub fn consistent(&self) -> bool {
        self.sampled_worst_absolute <= self.certificate.worst_absolute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_logic::builder::{add, input_bus, mark_output_bus};
    use blasys_logic::{Equivalence, Netlist};
    use blasys_sat::{certify_worst_absolute, check_equiv_sat};

    fn adder(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    #[test]
    fn sat_proof_beyond_exhaustive_limit() {
        // 24 inputs: the simulation checker would only sample here.
        let a = adder(12);
        let b = adder(12);
        assert_eq!(
            check_equiv_sat(&a, &b),
            Equivalence::Equal { exhaustive: true }
        );
    }

    #[test]
    fn certified_point_consistency() {
        let golden = adder(4);
        let p = CertifiedPoint {
            step: 0,
            certificate: certify_worst_absolute(&golden, &golden),
            sampled_worst_absolute: 0,
        };
        assert_eq!(p.certificate.worst_absolute, 0);
        assert!(p.consistent());
    }
}

//! Flow-invariant verifiers, `V0001` … `V0003`.
//!
//! Where the lint passes in [`crate::passes`] judge *quality*, these
//! verifiers judge *well-formedness*: each checks an invariant the
//! approximation flow assumes at a stage boundary and returns every
//! violation as a [`Diagnostic`]. `blasys-core` asserts them between
//! stages in debug builds, and runs [`verify_netlist`] on every
//! netlist admitted into a flow session in every build.

use blasys_decomp::Partition;
use blasys_logic::{GateKind, Netlist};

use crate::{Diagnostic, Severity};

/// Lint id for netlist-invariant violations.
pub const NETLIST_INVARIANT: &str = "V0001-netlist-invariant";
/// Lint id for partition-invariant violations.
pub const PARTITION_INVARIANT: &str = "V0002-partition-invariant";
/// Lint id for interface-preservation violations.
pub const INTERFACE: &str = "V0003-interface";

fn finish(diags: Vec<Diagnostic>) -> Result<(), Vec<Diagnostic>> {
    if diags.is_empty() {
        Ok(())
    } else {
        Err(diags)
    }
}

/// Verify the core [`Netlist`] invariants: topological storage (every
/// fanin strictly earlier than its user), in-range output references,
/// unique output names, and `Input`-kind nodes exactly where the PI
/// list points.
///
/// # Errors
///
/// Returns one `V0001-netlist-invariant` diagnostic per violation.
pub fn verify_netlist(nl: &Netlist) -> Result<(), Vec<Diagnostic>> {
    let mut diags = Vec::new();
    if let Err(e) = nl.validate() {
        diags.push(Diagnostic::new(
            NETLIST_INVARIANT,
            Severity::Error,
            format!("netlist `{}` violates storage invariants: {e}", nl.name()),
        ));
    }
    for (idx, &pi) in nl.inputs().iter().enumerate() {
        if pi.index() >= nl.len() || nl.node(pi).kind() != GateKind::Input {
            diags.push(
                Diagnostic::new(
                    NETLIST_INVARIANT,
                    Severity::Error,
                    format!(
                        "primary input {idx} (`{}`) does not point at an Input node",
                        nl.input_name(idx)
                    ),
                )
                .with_nodes(vec![pi.index()]),
            );
        }
    }
    let input_count = nl
        .iter()
        .filter(|(_, n)| n.kind() == GateKind::Input)
        .count();
    if input_count != nl.num_inputs() {
        diags.push(Diagnostic::new(
            NETLIST_INVARIANT,
            Severity::Error,
            format!(
                "{input_count} Input-kind nodes but {} registered primary inputs",
                nl.num_inputs()
            ),
        ));
    }
    finish(diags)
}

/// Verify that `partition` is a well-formed decomposition of `nl`:
/// every gate covered exactly once by disjoint windows, boundaries
/// within the `(k, m)` limits, and the cluster sequence topologically
/// ordered.
///
/// # Errors
///
/// Returns `V0002-partition-invariant` diagnostics on violation.
pub fn verify_partition(nl: &Netlist, partition: &Partition) -> Result<(), Vec<Diagnostic>> {
    let mut diags = Vec::new();
    if let Err(e) = partition.validate(nl) {
        diags.push(Diagnostic::new(
            PARTITION_INVARIANT,
            Severity::Error,
            format!(
                "partition of `{}` ({} clusters) is inconsistent: {e}",
                nl.name(),
                partition.len()
            ),
        ));
    }
    let covered: usize = partition.clusters().iter().map(|c| c.len()).sum();
    let gates = nl.gate_count();
    if covered != gates {
        diags.push(Diagnostic::new(
            PARTITION_INVARIANT,
            Severity::Error,
            format!("partition covers {covered} gates, netlist has {gates}"),
        ));
    }
    finish(diags)
}

/// Verify that an approximated netlist preserves the original's
/// external interface: identical primary-input and primary-output
/// names, in order, and internally valid storage.
///
/// # Errors
///
/// Returns `V0003-interface` diagnostics on violation.
pub fn verify_interface(original: &Netlist, approx: &Netlist) -> Result<(), Vec<Diagnostic>> {
    let mut diags = Vec::new();
    if let Err(mut e) = verify_netlist(approx) {
        diags.append(&mut e);
    }
    if original.num_inputs() != approx.num_inputs() {
        diags.push(Diagnostic::new(
            INTERFACE,
            Severity::Error,
            format!(
                "approximation has {} primary inputs, original has {}",
                approx.num_inputs(),
                original.num_inputs()
            ),
        ));
    } else {
        for i in 0..original.num_inputs() {
            if original.input_name(i) != approx.input_name(i) {
                diags.push(
                    Diagnostic::new(
                        INTERFACE,
                        Severity::Error,
                        format!(
                            "primary input {i} renamed: `{}` became `{}`",
                            original.input_name(i),
                            approx.input_name(i)
                        ),
                    )
                    .with_signals(vec![original.input_name(i).to_string()]),
                );
            }
        }
    }
    if original.num_outputs() != approx.num_outputs() {
        diags.push(Diagnostic::new(
            INTERFACE,
            Severity::Error,
            format!(
                "approximation has {} primary outputs, original has {}",
                approx.num_outputs(),
                original.num_outputs()
            ),
        ));
    } else {
        for (o, a) in original.outputs().iter().zip(approx.outputs()) {
            if o.name() != a.name() {
                diags.push(
                    Diagnostic::new(
                        INTERFACE,
                        Severity::Error,
                        format!(
                            "primary output renamed: `{}` became `{}`",
                            o.name(),
                            a.name()
                        ),
                    )
                    .with_signals(vec![o.name().to_string()]),
                );
            }
        }
    }
    finish(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_decomp::{decompose, DecompConfig};

    fn fixture() -> Netlist {
        let mut nl = Netlist::new("fix");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.xor(a, b);
        let h = nl.and(g, a);
        nl.mark_output("g", g);
        nl.mark_output("h", h);
        nl
    }

    #[test]
    fn healthy_netlist_and_partition_verify() {
        let nl = fixture();
        verify_netlist(&nl).expect("netlist ok");
        let p = decompose(&nl, &DecompConfig::default());
        verify_partition(&nl, &p).expect("partition ok");
    }

    #[test]
    fn interface_preserved_by_identity() {
        let nl = fixture();
        verify_interface(&nl, &nl).expect("identity preserves interface");
    }

    #[test]
    fn interface_rename_is_reported() {
        let nl = fixture();
        let mut renamed = Netlist::new("fix");
        let a = renamed.add_input("a");
        let b = renamed.add_input("b");
        let g = renamed.xor(a, b);
        let h = renamed.and(g, a);
        renamed.mark_output("g", g);
        renamed.mark_output("hh", h);
        let diags = verify_interface(&nl, &renamed).unwrap_err();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].lint, INTERFACE);
        assert!(diags[0].message.contains("`h` became `hh`"), "{diags:?}");
    }

    #[test]
    fn interface_arity_change_is_reported() {
        let nl = fixture();
        let mut narrowed = Netlist::new("fix");
        let a = narrowed.add_input("a");
        narrowed.mark_output("g", a);
        let diags = verify_interface(&nl, &narrowed).unwrap_err();
        assert!(diags.iter().any(|d| d.lint == INTERFACE), "{diags:?}");
    }

    #[test]
    fn partition_gate_count_mismatch_is_reported() {
        let nl = fixture();
        let p = decompose(&nl, &DecompConfig::default());
        let mut bigger = fixture();
        let a = bigger.inputs()[0];
        let b = bigger.inputs()[1];
        let extra = bigger.or(a, b);
        bigger.mark_output("extra", extra);
        let diags = verify_partition(&bigger, &p).unwrap_err();
        assert!(
            diags.iter().any(|d| d.lint == PARTITION_INVARIANT),
            "{diags:?}"
        );
    }
}

//! The lint passes, `L0001` … `L0008`.
//!
//! Document-level passes (`L0001`–`L0007`) analyze the structural
//! [`BlifDoc`] form, where defects a built [`Netlist`] cannot
//! represent (cycles, undriven or multiply-driven nets) are still
//! visible and carry source lines. Liveness passes (`L0005`, `L0006`)
//! fall back to the netlist surface when no document is attached.
//! Redundancy (`L0008`) runs on the built netlist. `L0009` and `L0010`
//! (cluster passes nothing ran) are retired and never reused.

use std::collections::{HashMap, HashSet};

use blasys_logic::blif::{BlifDoc, NamesBlock};
use blasys_logic::{GateKind, Netlist, NodeId, Simulator, TruthTable};
use blasys_synth::estimate::estimate;
use blasys_synth::CellLibrary;

use crate::{Diagnostic, Lint, LintTarget, Severity};

/// All passes, in id order.
pub fn all() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(CombinationalCycle),
        Box::new(UndrivenSignal),
        Box::new(MultiplyDriven),
        Box::new(UndefinedOutput),
        Box::new(DeadLogic),
        Box::new(UnusedInput),
        Box::new(ConstantTable),
        Box::new(DuplicateCone),
    ]
}

/// Signals a document defines: the declared inputs plus every
/// `.names` target.
fn defined_signals(doc: &BlifDoc) -> HashSet<&str> {
    let mut defined: HashSet<&str> = doc.inputs.iter().map(String::as_str).collect();
    defined.extend(doc.blocks.iter().map(|b| b.target()));
    defined
}

/// `L0001-combinational-cycle` — `.names` blocks whose dependencies
/// form a cycle. Reports the full cycle path, one diagnostic per
/// independent cycle.
pub struct CombinationalCycle;

impl Lint for CombinationalCycle {
    fn id(&self) -> &'static str {
        "L0001-combinational-cycle"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        let Some(doc) = target.doc else { return };
        // First definer wins for the dependency graph; extra drivers
        // are L0003's problem.
        let mut block_of: HashMap<&str, &NamesBlock> = HashMap::new();
        for blk in &doc.blocks {
            block_of.entry(blk.target()).or_insert(blk);
        }
        let inputs: HashSet<&str> = doc.inputs.iter().map(String::as_str).collect();
        // Kahn-style elimination: a signal is resolved when it is an
        // input, undriven (L0002 reports those), or all of its
        // defining block's fanins are resolved. Whatever cannot be
        // eliminated is on or downstream of a cycle.
        let mut resolved: HashSet<&str> = HashSet::new();
        loop {
            let mut progress = false;
            for (&t, blk) in &block_of {
                if resolved.contains(t) {
                    continue;
                }
                let ready = blk.fanins().iter().all(|f| {
                    resolved.contains(f.as_str())
                        || inputs.contains(f.as_str())
                        || !block_of.contains_key(f.as_str())
                });
                if ready {
                    resolved.insert(t);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
            // Re-run until fixed point; the loop above converges in at
            // most |blocks| passes.
        }
        let mut stuck: HashSet<&str> = block_of
            .keys()
            .copied()
            .filter(|t| !resolved.contains(t))
            .collect();
        // Extract one cycle at a time: walk unresolved target → fanin
        // edges until a signal repeats, report the loop, then cut it
        // and let elimination find further independent cycles.
        let mut starts: Vec<&str> = stuck.iter().copied().collect();
        starts.sort_unstable();
        while let Some(&start) = starts.iter().find(|s| stuck.contains(*s)) {
            let mut path: Vec<&str> = Vec::new();
            let mut cur = start;
            let cycle: Vec<String> = loop {
                if let Some(pos) = path.iter().position(|&s| s == cur) {
                    break path[pos..].iter().map(|s| s.to_string()).collect();
                }
                path.push(cur);
                let next = block_of[cur]
                    .fanins()
                    .iter()
                    .find(|f| stuck.contains(f.as_str()));
                match next {
                    Some(f) => cur = f.as_str(),
                    // Every unresolved fanin got cut by an earlier
                    // cycle extraction: this chain was only downstream
                    // of a reported cycle, not on one.
                    None => break Vec::new(),
                }
            };
            if cycle.is_empty() {
                for s in path {
                    stuck.remove(s);
                }
                continue;
            }
            for s in &cycle {
                stuck.remove(s.as_str());
            }
            let line = block_of[cycle[0].as_str()].line;
            out.push(
                Diagnostic::new(
                    self.id(),
                    severity,
                    format!("combinational cycle through {}", cycle.join(" -> ")),
                )
                .at_line(line)
                .with_signals(cycle),
            );
        }
    }
}

/// `L0002-undriven-signal` — a `.names` fanin that no input or block
/// defines.
pub struct UndrivenSignal;

impl Lint for UndrivenSignal {
    fn id(&self) -> &'static str {
        "L0002-undriven-signal"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        let Some(doc) = target.doc else { return };
        let defined = defined_signals(doc);
        let mut reported: HashSet<&str> = HashSet::new();
        for blk in &doc.blocks {
            for fanin in blk.fanins() {
                if !defined.contains(fanin.as_str()) && reported.insert(fanin) {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            severity,
                            format!("signal `{fanin}` is used but never driven"),
                        )
                        .at_line(blk.line)
                        .with_signals(vec![fanin.clone()]),
                    );
                }
            }
        }
    }
}

/// `L0003-multiply-driven` — a signal defined by more than one
/// `.names` block, redefining a declared input, or an input declared
/// twice.
pub struct MultiplyDriven;

impl Lint for MultiplyDriven {
    fn id(&self) -> &'static str {
        "L0003-multiply-driven"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        let Some(doc) = target.doc else { return };
        let mut seen: HashSet<&str> = HashSet::new();
        for name in &doc.inputs {
            if !seen.insert(name) {
                out.push(
                    Diagnostic::new(
                        self.id(),
                        severity,
                        format!("input `{name}` is declared more than once"),
                    )
                    .at_line(doc.inputs_line.unwrap_or(1))
                    .with_signals(vec![name.clone()]),
                );
            }
        }
        for blk in &doc.blocks {
            let t = blk.target();
            if !seen.insert(t) {
                out.push(
                    Diagnostic::new(
                        self.id(),
                        severity,
                        format!("signal `{t}` is driven more than once"),
                    )
                    .at_line(blk.line)
                    .with_signals(vec![t.to_string()]),
                );
            }
        }
    }
}

/// `L0004-undefined-output` — a declared primary output that nothing
/// in the model drives.
pub struct UndefinedOutput;

impl Lint for UndefinedOutput {
    fn id(&self) -> &'static str {
        "L0004-undefined-output"
    }

    fn default_severity(&self) -> Severity {
        Severity::Error
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        let Some(doc) = target.doc else { return };
        let defined = defined_signals(doc);
        for name in &doc.outputs {
            if !defined.contains(name.as_str()) {
                out.push(
                    Diagnostic::new(
                        self.id(),
                        severity,
                        format!("output `{name}` is declared but never defined"),
                    )
                    .at_line(doc.outputs_line.unwrap_or(1))
                    .with_signals(vec![name.clone()]),
                );
            }
        }
    }
}

/// `L0005-dead-logic` — logic unreachable from every primary output.
pub struct DeadLogic;

impl Lint for DeadLogic {
    fn id(&self) -> &'static str {
        "L0005-dead-logic"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warn
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        if let Some(doc) = target.doc {
            if doc.outputs.is_empty() {
                // With no outputs everything is trivially dead; that
                // is the flow's NoOutputs error, not a liveness lint.
                return;
            }
            let mut block_of: HashMap<&str, &NamesBlock> = HashMap::new();
            for blk in &doc.blocks {
                block_of.entry(blk.target()).or_insert(blk);
            }
            // Reverse reachability from the outputs over target→fanin
            // edges.
            let mut live: HashSet<&str> = HashSet::new();
            let mut stack: Vec<&str> = doc.outputs.iter().map(String::as_str).collect();
            while let Some(s) = stack.pop() {
                if !live.insert(s) {
                    continue;
                }
                if let Some(blk) = block_of.get(s) {
                    stack.extend(blk.fanins().iter().map(String::as_str));
                }
            }
            for blk in &doc.blocks {
                let t = blk.target();
                if !live.contains(t) {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            severity,
                            format!("signal `{t}` does not reach any primary output"),
                        )
                        .at_line(blk.line)
                        .with_signals(vec![t.to_string()]),
                    );
                }
            }
        } else if let Some(nl) = target.netlist {
            if nl.num_outputs() == 0 {
                return;
            }
            let roots: Vec<NodeId> = nl.outputs().iter().map(|o| o.node()).collect();
            let live: HashSet<NodeId> = nl.cone(&roots).into_iter().collect();
            let dead: Vec<usize> = nl
                .iter()
                .filter(|(id, n)| n.kind().is_gate() && !live.contains(id))
                .map(|(id, _)| id.index())
                .collect();
            if !dead.is_empty() {
                out.push(
                    Diagnostic::new(
                        self.id(),
                        severity,
                        format!(
                            "{} gate(s) do not reach any primary output (first: n{})",
                            dead.len(),
                            dead[0]
                        ),
                    )
                    .with_nodes(dead),
                );
            }
        }
    }
}

/// `L0006-unused-input` — a declared primary input that feeds nothing.
pub struct UnusedInput;

impl Lint for UnusedInput {
    fn id(&self) -> &'static str {
        "L0006-unused-input"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warn
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        if let Some(doc) = target.doc {
            let mut used: HashSet<&str> = doc.outputs.iter().map(String::as_str).collect();
            for blk in &doc.blocks {
                used.extend(blk.fanins().iter().map(String::as_str));
            }
            let mut reported: HashSet<&str> = HashSet::new();
            for name in &doc.inputs {
                if !used.contains(name.as_str()) && reported.insert(name) {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            severity,
                            format!("input `{name}` is never used"),
                        )
                        .at_line(doc.inputs_line.unwrap_or(1))
                        .with_signals(vec![name.clone()]),
                    );
                }
            }
        } else if let Some(nl) = target.netlist {
            let fanouts = nl.fanout_counts();
            for (idx, &pi) in nl.inputs().iter().enumerate() {
                if fanouts[pi.index()] == 0 {
                    let name = nl.input_name(idx);
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            severity,
                            format!("input `{name}` is never used"),
                        )
                        .with_signals(vec![name.to_string()])
                        .with_nodes(vec![pi.index()]),
                    );
                }
            }
        }
    }
}

/// Ternary lattice value of a signal during constant propagation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ternary {
    Unknown,
    Const(bool),
}

/// Evaluate a `.names` cover on one assignment. `bits[i]` is fanin
/// `i`'s value. Mirrors the builder's semantics exactly: the cover is
/// the OR of all cube matches, complemented when the first cube's
/// output char is `0`; an empty cover is constant 0.
fn eval_cover(blk: &NamesBlock, bits: &[bool]) -> bool {
    if blk.cubes.is_empty() {
        return false;
    }
    let polarity_one = blk.cubes[0].1 == '1';
    let matched = blk.cubes.iter().any(|(pattern, _)| {
        pattern.chars().zip(bits).all(|(c, &b)| match c {
            '1' => b,
            '0' => !b,
            _ => true,
        })
    });
    if polarity_one {
        matched
    } else {
        !matched
    }
}

/// `L0007-constant-table` — a `.names` block with fanins whose output
/// is nevertheless constant (found by exhaustive evaluation under a
/// ternary constant-propagation lattice). Canonical zero-fanin
/// constant blocks are the *intended* way to write constants and are
/// not flagged.
pub struct ConstantTable;

/// Free-fanin budget for exhaustive cover evaluation (2^12 = 4096
/// evaluations per block, worst case).
const CONST_EXHAUSTIVE_LIMIT: usize = 12;

impl Lint for ConstantTable {
    fn id(&self) -> &'static str {
        "L0007-constant-table"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warn
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        let Some(doc) = target.doc else { return };
        let mut value: HashMap<&str, Ternary> = HashMap::new();
        for name in &doc.inputs {
            value.insert(name, Ternary::Unknown);
        }
        // Fixed-point sweep in dependency order (BLIF allows any block
        // ordering); blocks on cycles or with undriven fanins never
        // become ready and are simply skipped — L0001/L0002 own those.
        let mut pending: Vec<&NamesBlock> = doc.blocks.iter().collect();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|blk| {
                if !blk.fanins().iter().all(|f| value.contains_key(f.as_str())) {
                    return true; // not ready yet
                }
                let lattice: Vec<Ternary> =
                    blk.fanins().iter().map(|f| value[f.as_str()]).collect();
                let free: Vec<usize> = lattice
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v == Ternary::Unknown)
                    .map(|(i, _)| i)
                    .collect();
                let verdict = if free.len() > CONST_EXHAUSTIVE_LIMIT {
                    Ternary::Unknown
                } else {
                    let mut bits = vec![false; lattice.len()];
                    for (i, v) in lattice.iter().enumerate() {
                        if let Ternary::Const(b) = v {
                            bits[i] = *b;
                        }
                    }
                    let mut folded: Option<bool> = None;
                    let mut constant = true;
                    for assign in 0..1usize << free.len() {
                        for (bit, &slot) in free.iter().enumerate() {
                            bits[slot] = assign >> bit & 1 == 1;
                        }
                        let v = eval_cover(blk, &bits);
                        match folded {
                            None => folded = Some(v),
                            Some(prev) if prev != v => {
                                constant = false;
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                    if constant {
                        Ternary::Const(folded.unwrap_or(false))
                    } else {
                        Ternary::Unknown
                    }
                };
                if let Ternary::Const(b) = verdict {
                    if !blk.fanins().is_empty() {
                        let t = blk.target();
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                severity,
                                format!("table for `{t}` always evaluates to {}", u8::from(b)),
                            )
                            .at_line(blk.line)
                            .with_signals(vec![t.to_string()]),
                        );
                    }
                }
                value.insert(blk.target(), verdict);
                false
            });
            if pending.len() == before {
                break;
            }
        }
    }
}

/// `L0008-duplicate-cone` — functionally identical logic cones rooted
/// at distinct nodes. Structural hashing already shares identical
/// `(kind, fanins)` nodes at build time, so any survivor here is a
/// *functional* duplicate expressed with different structure (e.g.
/// `NAND(a,b)` next to `NOT(AND(a,b))`). Candidates are grouped by a
/// deterministic 256-sample simulation signature and only reported
/// after exhaustive truth-table confirmation, so there are no false
/// positives.
pub struct DuplicateCone;

/// Support budget for exhaustive duplicate confirmation.
const DUP_EXHAUSTIVE_LIMIT: usize = 12;

impl Lint for DuplicateCone {
    fn id(&self) -> &'static str {
        "L0008-duplicate-cone"
    }

    fn default_severity(&self) -> Severity {
        Severity::Info
    }

    fn run(&self, target: &LintTarget<'_>, severity: Severity, out: &mut Vec<Diagnostic>) {
        let Some(nl) = target.netlist else { return };
        if nl.num_inputs() == 0 {
            return;
        }
        // Deterministic pseudo-random stimulus: 4 blocks of 64
        // patterns from a fixed splitmix64 stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const BLOCKS: usize = 4;
        let mut sigs: HashMap<NodeId, [u64; BLOCKS]> = HashMap::new();
        let mut sim = Simulator::new(nl);
        for b in 0..BLOCKS {
            let words: Vec<u64> = (0..nl.num_inputs()).map(|_| next()).collect();
            sim.run(&words);
            for (id, node) in nl.iter() {
                if node.kind().is_gate() {
                    sigs.entry(id).or_insert([0; BLOCKS])[b] = sim.value(id);
                }
            }
        }
        // Group by (signature, support) and confirm exhaustively.
        let mut groups: HashMap<([u64; BLOCKS], Vec<NodeId>), Vec<NodeId>> = HashMap::new();
        for (id, node) in nl.iter() {
            if node.kind().is_gate() {
                groups
                    .entry((sigs[&id], nl.support(&[id])))
                    .or_default()
                    .push(id);
            }
        }
        let lib = CellLibrary::typical_65nm();
        let mut keys: Vec<_> = groups.keys().cloned().collect();
        keys.sort_by_key(|k| groups[k][0]);
        for key in keys {
            let members = &groups[&key];
            if members.len() < 2 || key.1.len() > DUP_EXHAUSTIVE_LIMIT {
                continue;
            }
            // Confirm: partition the signature group into classes with
            // identical exhaustive truth tables.
            let mut classes: Vec<(TruthTable, Vec<NodeId>, Netlist)> = Vec::new();
            for &root in members {
                let cone = extract_cone(nl, root);
                let Ok(tt) = TruthTable::try_from_netlist(&cone) else {
                    continue;
                };
                match classes.iter_mut().find(|(t, _, _)| *t == tt) {
                    Some((_, roots, _)) => roots.push(root),
                    None => classes.push((tt, vec![root], cone)),
                }
            }
            for (_, roots, cone) in classes {
                if roots.len() < 2 {
                    continue;
                }
                let area = estimate(&cone, &lib).area_um2;
                let redundant = area * (roots.len() - 1) as f64;
                let names: Vec<String> = roots.iter().map(|r| r.to_string()).collect();
                out.push(
                    Diagnostic::new(
                        self.id(),
                        severity,
                        format!(
                            "{} functionally identical cones ({}); ~{:.1} um^2 redundant",
                            roots.len(),
                            names.join(", "),
                            redundant
                        ),
                    )
                    .with_nodes(roots.iter().map(|r| r.index()).collect()),
                );
            }
        }
    }
}

/// Extract the fanin cone of `root` as a standalone netlist whose
/// inputs are the cone's support (in global index order) and whose
/// single output `y` is the root.
fn extract_cone(nl: &Netlist, root: NodeId) -> Netlist {
    let cone = nl.cone(&[root]);
    let mut out = Netlist::new("cone");
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for id in cone {
        let node = nl.node(id);
        let new = match node.kind() {
            GateKind::Input => {
                let pos = nl
                    .inputs()
                    .iter()
                    .position(|&p| p == id)
                    .unwrap_or_default();
                out.add_input(nl.input_name(pos).to_string())
            }
            GateKind::Const0 => out.constant(false),
            GateKind::Const1 => out.constant(true),
            k => {
                let a = map[&node.fanin0().expect("gates have a first fanin")];
                match node.fanin1() {
                    Some(f) => out.gate(k, a, map[&f]),
                    // Only NOT is unary in a built netlist (BUF nodes
                    // never survive structural hashing).
                    None => out.not(a),
                }
            }
        };
        map.insert(id, new);
    }
    out.mark_output("y", map[&root]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_lints, LintConfig};
    use blasys_logic::blif::parse_blif_doc;

    fn lint_text(text: &str) -> Vec<Diagnostic> {
        let doc = parse_blif_doc(text).expect("structure parses");
        run_lints(&LintTarget::new().with_doc(&doc), &LintConfig::default()).diagnostics
    }

    fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn cycle_reports_full_path() {
        let diags =
            lint_text(".model m\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n");
        let cycle = diags
            .iter()
            .find(|d| d.lint == "L0001-combinational-cycle")
            .expect("cycle fires");
        assert_eq!(cycle.severity, Severity::Error);
        let mut path = cycle.signals.clone();
        path.sort();
        assert_eq!(path, vec!["f".to_string(), "g".to_string()]);
        // The unused input `a` also warns; no other errors.
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count(),
            1
        );
    }

    #[test]
    fn two_independent_cycles_two_diagnostics() {
        let diags = lint_text(
            ".model m\n.inputs a\n.outputs f h\n\
             .names g f\n1 1\n.names f g\n1 1\n\
             .names i h\n1 1\n.names h i\n1 1\n.end\n",
        );
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.lint == "L0001-combinational-cycle")
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn undriven_and_undefined_output() {
        let diags =
            lint_text(".model m\n.inputs a\n.outputs f ghost_out\n.names a ghost f\n11 1\n.end\n");
        let ids = ids(&diags);
        assert!(ids.contains(&"L0002-undriven-signal"), "{diags:?}");
        assert!(ids.contains(&"L0004-undefined-output"), "{diags:?}");
        let undriven = diags
            .iter()
            .find(|d| d.lint == "L0002-undriven-signal")
            .unwrap();
        assert_eq!(undriven.signals, vec!["ghost".to_string()]);
        assert_eq!(undriven.line, Some(4));
    }

    #[test]
    fn multiply_driven_signal_and_input() {
        let diags = lint_text(
            ".model m\n.inputs a a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n",
        );
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.lint == "L0003-multiply-driven")
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn dead_logic_and_unused_input() {
        let diags = lint_text(
            ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b dead\n1 1\n\
             .names dead deader\n1 1\n.end\n",
        );
        let dead: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.lint == "L0005-dead-logic")
            .collect();
        assert_eq!(dead.len(), 2, "{diags:?}");
        // `b` feeds only dead logic — it is *used*, so no L0006 here.
        assert!(!ids(&diags).contains(&"L0006-unused-input"), "{diags:?}");
    }

    #[test]
    fn constant_table_fires_on_tautology_and_propagation() {
        // `t` is a tautology (matches both polarities of a); `u` is
        // constant only because its fanin `t` is (its cover ignores
        // `a` whenever t = 1).
        let diags = lint_text(
            ".model m\n.inputs a\n.outputs u\n.names a t\n1 1\n0 1\n.names t a u\n1- 1\n.end\n",
        );
        let consts: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.lint == "L0007-constant-table")
            .collect();
        assert_eq!(consts.len(), 2, "{diags:?}");
        assert!(consts.iter().any(|d| d.signals == ["t".to_string()]));
        assert!(consts.iter().any(|d| d.signals == ["u".to_string()]));
    }

    #[test]
    fn canonical_constant_blocks_do_not_fire() {
        let diags =
            lint_text(".model m\n.inputs a\n.outputs f z\n.names a f\n1 1\n.names z\n1\n.end\n");
        assert!(!ids(&diags).contains(&"L0007-constant-table"), "{diags:?}");
    }

    #[test]
    fn duplicate_cone_confirms_functional_duplicates() {
        // NAND(a,b) and NOT(AND(a,b)): structurally distinct after
        // strash, functionally identical.
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let nand = nl.nand(a, b);
        let and = nl.and(a, b);
        let not_and = nl.not(and);
        nl.mark_output("x", nand);
        nl.mark_output("y", not_and);
        let mut diags = Vec::new();
        DuplicateCone.run(
            &LintTarget::new().with_netlist(&nl),
            Severity::Info,
            &mut diags,
        );
        let dup = diags
            .iter()
            .find(|d| d.lint == "L0008-duplicate-cone")
            .expect("duplicate fires");
        assert!(dup.nodes.contains(&nand.index()), "{dup:?}");
        assert!(dup.nodes.contains(&not_and.index()), "{dup:?}");
        assert!(dup.message.contains("um^2"), "{dup:?}");
    }

    #[test]
    fn distinct_functions_never_report() {
        let mut nl = Netlist::new("clean");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.xor(a, b);
        let o = nl.or(a, b);
        nl.mark_output("x", x);
        nl.mark_output("o", o);
        let mut diags = Vec::new();
        DuplicateCone.run(
            &LintTarget::new().with_netlist(&nl),
            Severity::Info,
            &mut diags,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn clean_model_is_clean() {
        let diags = lint_text(
            ".model m\n.inputs a b\n.outputs f g\n.names a b f\n11 1\n.names a b g\n10 1\n01 1\n.end\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}

//! BLIF (Berkeley Logic Interchange Format) subset reader / writer.
//!
//! Supports the combinational subset used by the standard approximate
//! computing benchmark sets: `.model`, `.inputs`, `.outputs`, `.names`
//! (with multi-cube single-output covers) and `.end`. Continuation lines
//! (`\`) and `#` comments are handled. Latches and subckts are not.

use std::collections::{HashMap, HashSet};

use crate::error::LogicError;
use crate::gate::GateKind;
use crate::netlist::{Netlist, NodeId};

/// Serialize a netlist as BLIF.
///
/// Every gate becomes a `.names` block with the gate's canonical
/// two-level cover. Internal signals are named `n<i>` (renamed when a
/// port squats on that name); primary inputs and outputs keep their
/// registered names.
///
/// # Examples
///
/// The writer round-trips through [`from_blif`]:
///
/// ```
/// use blasys_logic::blif::{from_blif, to_blif};
/// use blasys_logic::equiv::check_equiv;
/// use blasys_logic::Netlist;
///
/// let mut nl = Netlist::new("maj");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let c = nl.add_input("c");
/// let ab = nl.and(a, b);
/// let bc = nl.and(b, c);
/// let ac = nl.and(a, c);
/// let t = nl.or(ab, bc);
/// let m = nl.or(t, ac);
/// nl.mark_output("m", m);
///
/// let back = from_blif(&to_blif(&nl)).unwrap();
/// assert!(check_equiv(&nl, &back).is_equal());
/// ```
pub fn to_blif(nl: &Netlist) -> String {
    // Every BLIF signal must be defined exactly once, so all emitted
    // names are claimed through one collision-free allocator: sanitized
    // input names first, then output names, then `n<i>` internal
    // signals. A name that is already taken (two ports sanitizing the
    // same way, an output shadowing an input, a port squatting on an
    // internal `n<i>`) gets a deterministic `_<k>` suffix.
    let mut used: HashSet<String> = HashSet::new();
    let claim = |used: &mut HashSet<String>, base: String| -> String {
        let mut candidate = base.clone();
        let mut suffix = 1usize;
        while !used.insert(candidate.clone()) {
            candidate = format!("{base}_{suffix}");
            suffix += 1;
        }
        candidate
    };
    let in_names: Vec<String> = (0..nl.num_inputs())
        .map(|i| claim(&mut used, sanitize(nl.input_name(i))))
        .collect();
    // An output keeps the name of the input that drives it (the one
    // case where sharing a name with an input is exactly right and
    // needs no alias block); any other collision is renamed.
    let pi_slot: HashMap<usize, usize> = nl
        .inputs()
        .iter()
        .enumerate()
        .map(|(idx, pi)| (pi.index(), idx))
        .collect();
    let out_names: Vec<String> = nl
        .outputs()
        .iter()
        .map(|o| {
            let desired = sanitize(o.name());
            match pi_slot.get(&o.node().index()) {
                Some(&idx) if in_names[idx] == desired => desired,
                _ => claim(&mut used, desired),
            }
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(".model {}\n", sanitize(nl.name())));
    out.push_str(".inputs");
    for n in &in_names {
        out.push(' ');
        out.push_str(n);
    }
    out.push('\n');
    out.push_str(".outputs");
    for n in &out_names {
        out.push(' ');
        out.push_str(n);
    }
    out.push('\n');

    let mut names: Vec<String> = Vec::with_capacity(nl.len());
    for i in 0..nl.len() {
        names.push(claim(&mut used, format!("n{i}")));
    }
    for (idx, &pi) in nl.inputs().iter().enumerate() {
        names[pi.index()] = in_names[idx].clone();
    }

    for (id, node) in nl.iter() {
        let n = &names[id.index()];
        match node.kind() {
            GateKind::Input => {}
            GateKind::Const0 => out.push_str(&format!(".names {n}\n")),
            GateKind::Const1 => out.push_str(&format!(".names {n}\n1\n")),
            k => {
                let a = &names[node.fanin0().unwrap().index()];
                match k {
                    GateKind::Buf => out.push_str(&format!(".names {a} {n}\n1 1\n")),
                    GateKind::Not => out.push_str(&format!(".names {a} {n}\n0 1\n")),
                    _ => {
                        let b = &names[node.fanin1().unwrap().index()];
                        let cover = match k {
                            GateKind::And => "11 1\n",
                            GateKind::Or => "1- 1\n-1 1\n",
                            GateKind::Xor => "10 1\n01 1\n",
                            GateKind::Nand => "0- 1\n-0 1\n",
                            GateKind::Nor => "00 1\n",
                            GateKind::Xnor => "11 1\n00 1\n",
                            _ => unreachable!(),
                        };
                        out.push_str(&format!(".names {a} {b} {n}\n{cover}"));
                    }
                }
            }
        }
    }
    // Output aliases.
    for (o, dst) in nl.outputs().iter().zip(&out_names) {
        let src = &names[o.node().index()];
        if src != dst {
            out.push_str(&format!(".names {src} {dst}\n1 1\n"));
        }
    }
    out.push_str(".end\n");
    out
}

fn sanitize(name: &str) -> String {
    // Whitespace would split the token, '#' starts a comment and a
    // trailing '\' is a line continuation — none may survive in a name.
    // An empty name would vanish from the token stream entirely.
    if name.is_empty() {
        return String::from("sig");
    }
    name.chars()
        .map(|c| {
            if c.is_whitespace() || c == '#' || c == '\\' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// One `.names` block of a parsed BLIF model: the fanin signals, the
/// target signal, and the two-level cover rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamesBlock {
    /// 1-based source line of the `.names` directive.
    pub line: usize,
    /// The signal list as written: fanins first, target last (never
    /// empty).
    pub signals: Vec<String>,
    /// Cover rows as `(input pattern, output char)`; the pattern uses
    /// `0`/`1`/`-` per fanin and the output char is `0` or `1`.
    pub cubes: Vec<(String, char)>,
}

impl NamesBlock {
    /// The signal this block defines.
    pub fn target(&self) -> &str {
        self.signals.last().expect("parser rejects empty .names")
    }

    /// The fanin signals (may be empty for constant blocks).
    pub fn fanins(&self) -> &[String] {
        &self.signals[..self.signals.len() - 1]
    }
}

/// The structural form of a BLIF model: directives parsed and cover
/// rows validated, but **no** semantic checks (signals may be
/// undefined, multiply driven, or cyclic) and no netlist built.
///
/// This is the surface static analysis runs on — `blasys-lint` turns
/// semantic problems into diagnostics with source lines instead of
/// hitting whatever error the netlist builder happens to reach first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlifDoc {
    /// The `.model` name (`"blif"` if the directive is absent).
    pub name: String,
    /// Declared primary inputs, in order.
    pub inputs: Vec<String>,
    /// Declared primary outputs, in order.
    pub outputs: Vec<String>,
    /// All `.names` blocks, in source order.
    pub blocks: Vec<NamesBlock>,
    /// 1-based line of the first `.inputs` directive, if any.
    pub inputs_line: Option<usize>,
    /// 1-based line of the first `.outputs` directive, if any.
    pub outputs_line: Option<usize>,
}

/// Parse the structure of a BLIF model without building a netlist.
///
/// # Errors
///
/// Returns [`LogicError::BlifParse`] only for *syntactic* problems:
/// malformed cover rows, unsupported constructs (latches, subcircuits),
/// unknown directives, dangling continuations, or an empty model.
/// Semantic problems (undefined or multiply-driven signals,
/// combinational cycles) are left to [`BlifDoc::build`] and to lints.
pub fn parse_blif_doc(text: &str) -> Result<BlifDoc, LogicError> {
    // Join continuation lines while tracking original numbering.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (ln, raw) in text.lines().enumerate() {
        let no_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let piece = no_comment.trim_end();
        let (cont, body) = match piece.strip_suffix('\\') {
            Some(b) => (true, b),
            None => (false, piece),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(body);
                if cont {
                    pending = Some((start, acc));
                } else {
                    lines.push((start, acc));
                }
            }
            None => {
                if body.trim().is_empty() {
                    continue;
                }
                if cont {
                    pending = Some((ln + 1, body.to_string()));
                } else {
                    lines.push((ln + 1, body.to_string()));
                }
            }
        }
    }
    if let Some((ln, _)) = pending {
        return Err(LogicError::BlifParse {
            line: ln,
            message: "dangling line continuation".into(),
        });
    }

    let err = |line: usize, message: &str| LogicError::BlifParse {
        line,
        message: message.into(),
    };

    let mut model_name = String::from("blif");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut inputs_line: Option<usize> = None;
    let mut outputs_line: Option<usize> = None;
    let mut blocks: Vec<NamesBlock> = Vec::new();

    let mut idx = 0;
    while idx < lines.len() {
        let (ln, line) = &lines[idx];
        let mut toks = line.split_whitespace();
        let head = toks.next().unwrap();
        match head {
            ".model" => {
                model_name = toks.next().unwrap_or("blif").to_string();
                idx += 1;
            }
            ".inputs" => {
                inputs_line.get_or_insert(*ln);
                input_names.extend(toks.map(str::to_string));
                idx += 1;
            }
            ".outputs" => {
                outputs_line.get_or_insert(*ln);
                output_names.extend(toks.map(str::to_string));
                idx += 1;
            }
            ".names" => {
                let signals: Vec<String> = toks.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(err(*ln, ".names requires at least a target signal"));
                }
                let start = *ln;
                idx += 1;
                let mut cubes = Vec::new();
                while idx < lines.len() && !lines[idx].1.trim_start().starts_with('.') {
                    let (cln, row) = &lines[idx];
                    let parts: Vec<&str> = row.split_whitespace().collect();
                    let (inp, out) = match parts.len() {
                        1 if signals.len() == 1 => (String::new(), parts[0]),
                        2 => (parts[0].to_string(), parts[1]),
                        _ => return Err(err(*cln, "malformed cover row")),
                    };
                    if inp.len() != signals.len() - 1 {
                        return Err(err(*cln, "cover row width does not match fanins"));
                    }
                    let out_ch = out.chars().next().unwrap_or('1');
                    if out_ch != '0' && out_ch != '1' {
                        return Err(err(*cln, "cover output must be 0 or 1"));
                    }
                    cubes.push((inp, out_ch));
                    idx += 1;
                }
                blocks.push(NamesBlock {
                    line: start,
                    signals,
                    cubes,
                });
            }
            ".end" => break,
            ".latch" | ".subckt" | ".gate" => {
                return Err(err(*ln, "unsupported BLIF construct"));
            }
            _ => return Err(err(*ln, "unknown directive")),
        }
    }

    if input_names.is_empty() && blocks.is_empty() {
        return Err(err(1, "empty model"));
    }

    Ok(BlifDoc {
        name: model_name,
        inputs: input_names,
        outputs: output_names,
        blocks,
        inputs_line,
        outputs_line,
    })
}

impl BlifDoc {
    /// Build the netlist this document describes, resolving `.names`
    /// blocks in dependency order (BLIF allows any block ordering).
    ///
    /// # Errors
    ///
    /// * [`LogicError::DuplicateInput`] / [`LogicError::BlifParse`]
    ///   for multiply-defined signals;
    /// * [`LogicError::UndefinedSignal`] for a fanin that is defined
    ///   nowhere in the model;
    /// * [`LogicError::CombinationalCycle`] for `.names` blocks whose
    ///   dependencies form a cycle (naming the signals on it);
    /// * [`LogicError::BlifParse`] for an output that is never defined.
    pub fn build(&self) -> Result<Netlist, LogicError> {
        let err = |line: usize, message: String| LogicError::BlifParse { line, message };

        // Every signal must be defined exactly once: redefining an
        // input or a previous .names target silently rewires whichever
        // block happens to resolve last, so reject it up front.
        {
            let mut defined: HashSet<&str> = self.inputs.iter().map(String::as_str).collect();
            for blk in &self.blocks {
                if !defined.insert(blk.target()) {
                    return Err(err(blk.line, "signal is defined more than once".into()));
                }
            }
        }

        let mut nl = Netlist::new(self.name.clone());
        let mut sig: HashMap<String, NodeId> = HashMap::new();
        {
            let mut seen = std::collections::HashSet::new();
            for name in &self.inputs {
                if !seen.insert(name.clone()) {
                    return Err(LogicError::DuplicateInput { name: name.clone() });
                }
                let id = nl.add_input(name.clone());
                sig.insert(name.clone(), id);
            }
        }

        // Resolve blocks in dependency order (simple fixed-point).
        let mut remaining: Vec<&NamesBlock> = self.blocks.iter().collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|blk| {
                let fanins = blk.fanins();
                if !fanins.iter().all(|s| sig.contains_key(s)) {
                    return true; // keep, try later
                }
                let fan_ids: Vec<NodeId> = fanins.iter().map(|s| sig[s]).collect();
                let node = build_cover(&mut nl, &fan_ids, &blk.cubes);
                sig.insert(blk.target().to_string(), node);
                false
            });
            if remaining.len() == before {
                return Err(classify_stall(&remaining, &sig));
            }
        }

        for name in &self.outputs {
            let node = *sig.get(name).ok_or_else(|| {
                err(
                    self.outputs_line.unwrap_or(1),
                    format!("output {name} is never defined"),
                )
            })?;
            nl.try_mark_output(name.clone(), node)?;
        }
        Ok(nl)
    }
}

/// The fixed-point resolution got stuck: tell an undefined fanin apart
/// from a combinational cycle. If some stuck block references a signal
/// no remaining block defines, that signal is simply undefined;
/// otherwise every unresolved fanin is the target of another stuck
/// block, so the target→fanin edges contain a cycle — walk them until
/// a target repeats and report the loop.
fn classify_stall(remaining: &[&NamesBlock], sig: &HashMap<String, NodeId>) -> LogicError {
    let stuck: HashMap<&str, &NamesBlock> =
        remaining.iter().map(|blk| (blk.target(), *blk)).collect();
    for blk in remaining {
        for fanin in blk.fanins() {
            if !sig.contains_key(fanin) && !stuck.contains_key(fanin.as_str()) {
                return LogicError::UndefinedSignal {
                    line: blk.line,
                    signal: fanin.clone(),
                };
            }
        }
    }
    // All unresolved fanins are stuck targets: follow them from any
    // stuck block until a signal repeats.
    let mut path: Vec<&str> = Vec::new();
    let mut cur = remaining[0].target();
    loop {
        if let Some(pos) = path.iter().position(|&s| s == cur) {
            let cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
            return LogicError::CombinationalCycle {
                line: stuck[cur].line,
                signals: cycle,
            };
        }
        path.push(cur);
        cur = stuck[cur]
            .fanins()
            .iter()
            .find(|f| !sig.contains_key(*f))
            .expect("a stuck block has at least one unresolved fanin")
            .as_str();
    }
}

/// Parse a BLIF model into a [`Netlist`] — [`parse_blif_doc`] followed
/// by [`BlifDoc::build`].
///
/// # Errors
///
/// Returns [`LogicError::BlifParse`] on malformed input or unsupported
/// constructs (latches, subcircuits), [`LogicError::UndefinedSignal`]
/// for references to signals defined nowhere, and
/// [`LogicError::CombinationalCycle`] for cyclic `.names`
/// dependencies.
pub fn from_blif(text: &str) -> Result<Netlist, LogicError> {
    parse_blif_doc(text)?.build()
}

/// Build the OR-of-ANDs (or complemented form for `0`-output covers)
/// described by a `.names` cover.
fn build_cover(nl: &mut Netlist, fanins: &[NodeId], cubes: &[(String, char)]) -> NodeId {
    if cubes.is_empty() {
        return nl.constant(false);
    }
    let polarity_one = cubes[0].1 == '1';
    let mut terms = Vec::new();
    for (pattern, _) in cubes {
        let mut term: Option<NodeId> = None;
        for (i, c) in pattern.chars().enumerate() {
            let lit = match c {
                '1' => fanins[i],
                '0' => nl.not(fanins[i]),
                _ => continue,
            };
            term = Some(match term {
                None => lit,
                Some(t) => nl.and(t, lit),
            });
        }
        terms.push(term.unwrap_or_else(|| nl.constant(true)));
    }
    let mut acc = terms[0];
    for &t in &terms[1..] {
        acc = nl.or(acc, t);
    }
    if polarity_one {
        acc
    } else {
        nl.not(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equiv;
    use crate::truth::TruthTable;

    fn sample_netlist() -> Netlist {
        let mut nl = Netlist::new("demo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.and(a, b);
        let g2 = nl.xor(g1, c);
        let g3 = nl.nor(a, c);
        nl.mark_output("y0", g2);
        nl.mark_output("y1", g3);
        nl
    }

    #[test]
    fn roundtrip_preserves_function() {
        let nl = sample_netlist();
        let text = to_blif(&nl);
        let back = from_blif(&text).expect("parse back");
        assert_eq!(back.num_inputs(), 3);
        assert_eq!(back.num_outputs(), 2);
        assert!(check_equiv(&nl, &back).is_equal());
    }

    #[test]
    fn parses_multi_cube_cover() {
        let text = "\
.model m
.inputs x y z
.outputs f
.names x y z f
11- 1
--1 1
.end
";
        let nl = from_blif(text).unwrap();
        let tt = TruthTable::from_netlist(&nl);
        for row in 0..8usize {
            let x = row & 1 != 0;
            let y = row & 2 != 0;
            let z = row & 4 != 0;
            assert_eq!(tt.get(row, 0), (x && y) || z, "row {row}");
        }
    }

    #[test]
    fn parses_complemented_cover() {
        let text = "\
.model m
.inputs x y
.outputs f
.names x y f
11 0
.end
";
        let nl = from_blif(text).unwrap();
        let tt = TruthTable::from_netlist(&nl);
        // f = NOT(x AND y)
        assert!(tt.get(0, 0) && tt.get(1, 0) && tt.get(2, 0) && !tt.get(3, 0));
    }

    #[test]
    fn parses_constants_and_buffer() {
        let text = "\
.model m
.inputs a
.outputs k0 k1 cp
.names k0
.names k1
1
.names a cp
1 1
.end
";
        let nl = from_blif(text).unwrap();
        let tt = TruthTable::from_netlist(&nl);
        assert!(!tt.get(0, 0) && !tt.get(1, 0));
        assert!(tt.get(0, 1) && tt.get(1, 1));
        assert!(!tt.get(0, 2) && tt.get(1, 2));
    }

    #[test]
    fn out_of_order_names_blocks_resolve() {
        let text = "\
.model m
.inputs a b
.outputs f
.names t f
0 1
.names a b t
11 1
.end
";
        let nl = from_blif(text).unwrap();
        let tt = TruthTable::from_netlist(&nl);
        assert!(tt.get(0, 0) && !tt.get(3, 0)); // f = NAND(a,b)
    }

    #[test]
    fn continuation_lines_join() {
        let text = ".model m\n.inputs a \\\n b\n.outputs f\n.names a b f\n11 1\n.end\n";
        let nl = from_blif(text).unwrap();
        assert_eq!(nl.num_inputs(), 2);
    }

    #[test]
    fn rejects_undefined_signal() {
        let text = ".model m\n.inputs a\n.outputs f\n.names ghost f\n1 1\n.end\n";
        match from_blif(text) {
            Err(LogicError::UndefinedSignal { line, signal }) => {
                assert_eq!(line, 4);
                assert_eq!(signal, "ghost");
            }
            other => panic!("expected UndefinedSignal, got {other:?}"),
        }
    }

    #[test]
    fn rejects_combinational_cycle_naming_the_loop() {
        // f depends on g, g depends on f — both defined, neither
        // resolvable. The error must name the signals on the cycle,
        // not claim anything is undefined.
        let text = "\
.model m
.inputs a
.outputs f
.names g f
1 1
.names f g
1 1
.end
";
        match from_blif(text) {
            Err(LogicError::CombinationalCycle { line, signals }) => {
                assert!(line > 0);
                assert!(!signals.is_empty());
                assert!(signals.contains(&"f".to_string()) || signals.contains(&"g".to_string()));
                // Every named signal really is on the cycle.
                for s in &signals {
                    assert!(s == "f" || s == "g", "stray signal {s}");
                }
            }
            other => panic!("expected CombinationalCycle, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_is_a_cycle_of_one() {
        let text = ".model m\n.inputs a\n.outputs f\n.names f f\n1 1\n.end\n";
        match from_blif(text) {
            Err(LogicError::CombinationalCycle { signals, .. }) => {
                assert_eq!(signals, vec!["f".to_string()]);
            }
            other => panic!("expected CombinationalCycle, got {other:?}"),
        }
    }

    #[test]
    fn undefined_beats_cycle_when_both_present() {
        // A cycle between f and g AND a genuinely undefined fanin:
        // the undefined signal is the more actionable diagnostic.
        let text = "\
.model m
.inputs a
.outputs f
.names g ghost f
11 1
.names f g
1 1
.end
";
        assert!(matches!(
            from_blif(text),
            Err(LogicError::UndefinedSignal { signal, .. }) if signal == "ghost"
        ));
    }

    #[test]
    fn doc_parse_is_purely_structural() {
        // Cyclic and multiply-driven models still parse as documents —
        // the lint layer needs the structure to diagnose them.
        let text = ".model m\n.inputs a\n.outputs f\n.names f f\n1 1\n.names a f\n1 1\n.end\n";
        let doc = parse_blif_doc(text).expect("structure parses");
        assert_eq!(doc.name, "m");
        assert_eq!(doc.inputs, vec!["a".to_string()]);
        assert_eq!(doc.blocks.len(), 2);
        assert_eq!(doc.blocks[0].target(), "f");
        assert_eq!(doc.blocks[0].fanins(), ["f".to_string()]);
        assert_eq!(doc.inputs_line, Some(2));
        assert!(doc.build().is_err());
    }

    #[test]
    fn rejects_latches() {
        let text = ".model m\n.inputs a\n.outputs f\n.latch a f re clk 0\n.end\n";
        assert!(matches!(from_blif(text), Err(LogicError::BlifParse { .. })));
    }

    #[test]
    fn rejects_bad_cover_width() {
        let text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n111 1\n.end\n";
        assert!(from_blif(text).is_err());
    }

    #[test]
    fn rejects_redefined_signal() {
        let text = "\
.model m
.inputs a b
.outputs f
.names a b f
11 1
.names a f
1 1
.end
";
        assert!(matches!(from_blif(text), Err(LogicError::BlifParse { .. })));
    }

    #[test]
    fn rejects_redefined_input() {
        let text = ".model m\n.inputs a b\n.outputs f\n.names b a\n1 1\n.names a f\n1 1\n.end\n";
        assert!(matches!(from_blif(text), Err(LogicError::BlifParse { .. })));
    }

    #[test]
    fn ports_squatting_on_internal_names_roundtrip() {
        // An input named like an internal signal ("n3") and an output
        // named like another ("n5") must not capture the .names blocks
        // of nodes 3 and 5.
        let mut nl = Netlist::new("squat");
        let a = nl.add_input("n3");
        let b = nl.add_input("b");
        let g1 = nl.and(a, b); // node index 2
        let g2 = nl.xor(g1, a); // node index 3 — name clash with input
        let g3 = nl.nor(g1, b);
        nl.mark_output("n5", g2);
        nl.mark_output("y", g3);
        let text = to_blif(&nl);
        let back = from_blif(&text).expect("collision-free serialization");
        assert!(check_equiv(&nl, &back).is_equal());
        assert_eq!(back.input_name(0), "n3");
        assert_eq!(back.outputs()[0].name(), "n5");
    }

    #[test]
    fn constant_outputs_and_shared_drivers_roundtrip() {
        let mut nl = Netlist::new("consts");
        let a = nl.add_input("a");
        let k0 = nl.constant(false);
        let k1 = nl.constant(true);
        let g = nl.not(a);
        nl.mark_output("zero", k0);
        nl.mark_output("one", k1);
        nl.mark_output("y0", g); // shared driver ...
        nl.mark_output("y1", g); // ... two output aliases
        let back = from_blif(&to_blif(&nl)).expect("parse back");
        assert_eq!(back.num_outputs(), 4);
        assert!(check_equiv(&nl, &back).is_equal());
    }

    #[test]
    fn output_shadowing_an_input_is_renamed_not_redefined() {
        // Output "a" driven by a gate while an input is also named "a":
        // BLIF cannot express two signals with one name, so the output
        // port is renamed — and the result must re-parse.
        let mut nl = Netlist::new("shadow");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.nand(a, b);
        nl.mark_output("a", g);
        let back = from_blif(&to_blif(&nl)).expect("shadowed output must serialize");
        assert_eq!(back.num_outputs(), 1);
        assert!(check_equiv(&nl, &back).is_equal());
    }

    #[test]
    fn output_fed_through_by_its_input_keeps_the_name() {
        // The legitimate shared-name case: output "a" driven by input
        // "a" directly needs no alias and no rename.
        let mut nl = Netlist::new("thru");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.or(a, b);
        nl.mark_output("a", a);
        nl.mark_output("y", g);
        let text = to_blif(&nl);
        let back = from_blif(&text).expect("feed-through must serialize");
        assert_eq!(back.outputs()[0].name(), "a");
        assert!(check_equiv(&nl, &back).is_equal());
    }

    #[test]
    fn ports_sanitizing_to_the_same_name_stay_distinct() {
        // "a b" and "a_b" both sanitize to "a_b"; the writer must keep
        // them apart instead of emitting a duplicate input.
        let mut nl = Netlist::new("clash");
        let a = nl.add_input("a b");
        let b = nl.add_input("a_b");
        let g = nl.xor(a, b);
        nl.mark_output("y", g);
        let back = from_blif(&to_blif(&nl)).expect("sanitize collision must serialize");
        assert_eq!(back.num_inputs(), 2);
        assert!(check_equiv(&nl, &back).is_equal());
    }

    #[test]
    fn empty_port_names_still_serialize() {
        let mut nl = Netlist::new("");
        let a = nl.add_input("");
        let b = nl.add_input("");
        let g = nl.and(a, b);
        nl.mark_output("", g);
        let back = from_blif(&to_blif(&nl)).expect("empty names must not vanish");
        assert_eq!(back.num_inputs(), 2);
        assert!(check_equiv(&nl, &back).is_equal());
    }

    #[test]
    fn sanitizer_neutralizes_comment_and_continuation_chars() {
        let mut nl = Netlist::new("weird");
        let a = nl.add_input("a#sharp");
        let b = nl.add_input("b\\slash");
        let g = nl.or(a, b);
        nl.mark_output("out put", g);
        let back = from_blif(&to_blif(&nl)).expect("sanitized names must parse");
        assert_eq!(back.num_inputs(), 2);
        assert!(check_equiv(&nl, &back).is_equal());
    }
}

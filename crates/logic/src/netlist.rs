//! Combinational netlist with structural hashing and constant folding.
//!
//! Nodes are stored in creation order; because every gate may only
//! reference already-existing nodes, the storage order is always a valid
//! topological order. Transformations that would break this invariant
//! (such as subcircuit substitution) rebuild a fresh netlist instead of
//! mutating in place.

use std::collections::HashMap;
use std::fmt;

use crate::error::LogicError;
use crate::gate::{GateKind, ALL_KINDS};

/// Identifier of a node inside a [`Netlist`].
///
/// Ids are only meaningful for the netlist that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Sentinel used internally for unused fanin slots.
    pub(crate) const INVALID: NodeId = NodeId(u32::MAX);

    /// The position of the node in the netlist's topological storage.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. Intended for deserialization code that
    /// has already validated the index against the owning netlist.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single netlist node: a gate kind plus up to two fanins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    kind: GateKind,
    fanin: [NodeId; 2],
}

impl Node {
    /// The gate kind of this node.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// First fanin, if the gate has one.
    pub fn fanin0(&self) -> Option<NodeId> {
        (self.kind.arity() >= 1).then_some(self.fanin[0])
    }

    /// Second fanin, if the gate has one.
    pub fn fanin1(&self) -> Option<NodeId> {
        (self.kind.arity() >= 2).then_some(self.fanin[1])
    }

    /// Iterator over the valid fanins (0, 1 or 2 of them).
    pub fn fanins(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.fanin.iter().copied().take(self.kind.arity())
    }
}

/// A named primary output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    name: String,
    node: NodeId,
}

impl Output {
    /// The output's port name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node driving the output.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// A combinational gate-level netlist.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<Output>,
    strash: HashMap<(GateKind, NodeId, NodeId), NodeId>,
    const0: Option<NodeId>,
    const1: Option<NodeId>,
}

impl Netlist {
    /// Create an empty netlist with the given model name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
            const0: None,
            const1: None,
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count, including inputs and constants.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of logic gates (excludes inputs and constants; includes
    /// buffers and inverters).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_gate()).count()
    }

    /// Histogram of node kinds, indexed in [`ALL_KINDS`] order.
    pub fn kind_histogram(&self) -> [(GateKind, usize); 11] {
        let mut out = ALL_KINDS.map(|k| (k, 0usize));
        for n in &self.nodes {
            let slot = ALL_KINDS.iter().position(|&k| k == n.kind).unwrap();
            out[slot].1 += 1;
        }
        out
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Name of the `i`-th primary input.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_inputs()`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterate over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Add a named primary input and return its node id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(GateKind::Input, NodeId::INVALID, NodeId::INVALID);
        self.inputs.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Return the node for constant `value`, creating it on first use.
    pub fn constant(&mut self, value: bool) -> NodeId {
        if value {
            if let Some(id) = self.const1 {
                return id;
            }
            let id = self.push(GateKind::Const1, NodeId::INVALID, NodeId::INVALID);
            self.const1 = Some(id);
            id
        } else {
            if let Some(id) = self.const0 {
                return id;
            }
            let id = self.push(GateKind::Const0, NodeId::INVALID, NodeId::INVALID);
            self.const0 = Some(id);
            id
        }
    }

    fn push(&mut self, kind: GateKind, a: NodeId, b: NodeId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            fanin: [a, b],
        });
        id
    }

    fn is_const(&self, id: NodeId) -> Option<bool> {
        match self.nodes[id.index()].kind {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            _ => None,
        }
    }

    /// Add a gate of the given kind.
    ///
    /// Performs structural hashing (identical `(kind, fanins)` nodes are
    /// shared), operand canonicalization for commutative kinds, and local
    /// constant folding / algebraic simplification (`x AND 0 -> 0`,
    /// `x XOR x -> 0`, double-negation removal, ...), so the returned id
    /// may refer to a pre-existing node.
    ///
    /// # Panics
    ///
    /// Panics if the arity of `kind` is not matched by valid fanin ids
    /// belonging to this netlist (e.g. `GateKind::Input` — use
    /// [`Netlist::add_input`] — or fanins from another netlist).
    pub fn gate(&mut self, kind: GateKind, a: NodeId, b: NodeId) -> NodeId {
        match kind.arity() {
            0 => match kind {
                GateKind::Const0 => self.constant(false),
                GateKind::Const1 => self.constant(true),
                _ => panic!("inputs must be added via Netlist::add_input"),
            },
            1 => {
                assert!(a.index() < self.nodes.len(), "fanin out of range");
                self.unary(kind, a)
            }
            _ => {
                assert!(
                    a.index() < self.nodes.len() && b.index() < self.nodes.len(),
                    "fanin out of range"
                );
                self.binary(kind, a, b)
            }
        }
    }

    fn unary(&mut self, kind: GateKind, a: NodeId) -> NodeId {
        match kind {
            GateKind::Buf => a,
            GateKind::Not => {
                if let Some(v) = self.is_const(a) {
                    return self.constant(!v);
                }
                // Double negation: NOT(NOT(x)) = x.
                let an = self.nodes[a.index()];
                if an.kind == GateKind::Not {
                    return an.fanin[0];
                }
                self.strashed(GateKind::Not, a, NodeId::INVALID)
            }
            _ => unreachable!(),
        }
    }

    fn binary(&mut self, kind: GateKind, mut a: NodeId, mut b: NodeId) -> NodeId {
        if kind.is_commutative() && b < a {
            std::mem::swap(&mut a, &mut b);
        }
        let ca = self.is_const(a);
        let cb = self.is_const(b);
        if let (Some(va), Some(vb)) = (ca, cb) {
            return self.constant(kind.eval(va, vb));
        }
        // One constant operand: simplify.
        if let Some(v) = ca.or(cb) {
            let x = if ca.is_some() { b } else { a };
            match (kind, v) {
                (GateKind::And, false) | (GateKind::Nor, true) => return self.constant(false),
                (GateKind::And, true) | (GateKind::Or, false) => return x,
                (GateKind::Or, true) | (GateKind::Nand, false) => return self.constant(true),
                (GateKind::Xor, false) | (GateKind::Xnor, true) => return x,
                (GateKind::Xor, true)
                | (GateKind::Xnor, false)
                | (GateKind::Nand, true)
                | (GateKind::Nor, false) => return self.unary(GateKind::Not, x),
                _ => {}
            }
        }
        if a == b {
            match kind {
                GateKind::And | GateKind::Or => return a,
                GateKind::Xor => return self.constant(false),
                GateKind::Xnor => return self.constant(true),
                GateKind::Nand | GateKind::Nor => return self.unary(GateKind::Not, a),
                _ => {}
            }
        }
        self.strashed(kind, a, b)
    }

    fn strashed(&mut self, kind: GateKind, a: NodeId, b: NodeId) -> NodeId {
        if let Some(&id) = self.strash.get(&(kind, a, b)) {
            return id;
        }
        let id = self.push(kind, a, b);
        self.strash.insert((kind, a, b), id);
        id
    }

    /// `NOT a`.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.gate(GateKind::Not, a, NodeId::INVALID)
    }

    /// `a AND b`.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::And, a, b)
    }

    /// `a OR b`.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Or, a, b)
    }

    /// `a XOR b`.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Xor, a, b)
    }

    /// `NOT (a AND b)`.
    pub fn nand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Nand, a, b)
    }

    /// `NOT (a OR b)`.
    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Nor, a, b)
    }

    /// `NOT (a XOR b)`.
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(GateKind::Xnor, a, b)
    }

    /// `(s AND a) OR (NOT s AND b)` — a 2:1 multiplexer selecting `a`
    /// when `s` is 1.
    pub fn mux(&mut self, s: NodeId, a: NodeId, b: NodeId) -> NodeId {
        let ns = self.not(s);
        let ta = self.and(s, a);
        let tb = self.and(ns, b);
        self.or(ta, tb)
    }

    /// Register `node` as a primary output named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::DuplicateOutput`] if an output with the same
    /// name already exists.
    pub fn try_mark_output(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
    ) -> Result<(), LogicError> {
        let name = name.into();
        if self.outputs.iter().any(|o| o.name == name) {
            return Err(LogicError::DuplicateOutput { name });
        }
        assert!(node.index() < self.nodes.len(), "output node out of range");
        self.outputs.push(Output { name, node });
        Ok(())
    }

    /// Register `node` as a primary output named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used; see
    /// [`Netlist::try_mark_output`] for the fallible variant that
    /// returns [`LogicError::DuplicateOutput`] instead. Code handling
    /// untrusted circuit names (parsers, the CLI) must use the
    /// fallible variant.
    #[track_caller]
    pub fn mark_output(&mut self, name: impl Into<String>, node: NodeId) {
        if let Err(e) = self.try_mark_output(name, node) {
            panic!("mark_output: {e}");
        }
    }

    /// Per-node logic depth: inputs and constants are level 0, a gate is
    /// one more than its deepest fanin.
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if n.kind.is_gate() {
                let m = n.fanins().map(|f| lv[f.index()]).max().unwrap_or(0);
                lv[i] = m + 1;
            }
        }
        lv
    }

    /// Maximum logic depth over all outputs.
    pub fn depth(&self) -> u32 {
        let lv = self.levels();
        self.outputs
            .iter()
            .map(|o| lv[o.node.index()])
            .max()
            .unwrap_or(0)
    }

    /// Fanout count of every node (number of gate fanin references plus
    /// one per primary output it drives).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            for f in n.fanins() {
                fo[f.index()] += 1;
            }
        }
        for o in &self.outputs {
            fo[o.node.index()] += 1;
        }
        fo
    }

    /// Nodes in the transitive fanin cone of the given roots (roots
    /// included), in topological order.
    pub fn cone(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut mark = vec![false; self.nodes.len()];
        for &r in roots {
            mark[r.index()] = true;
        }
        // Single reverse sweep suffices because storage is topological.
        for i in (0..self.nodes.len()).rev() {
            if mark[i] {
                for f in self.nodes[i].fanins() {
                    mark[f.index()] = true;
                }
            }
        }
        (0..self.nodes.len())
            .filter(|&i| mark[i])
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// The set of primary inputs in the transitive fanin of `roots`.
    pub fn support(&self, roots: &[NodeId]) -> Vec<NodeId> {
        self.cone(roots)
            .into_iter()
            .filter(|id| self.nodes[id.index()].kind == GateKind::Input)
            .collect()
    }

    /// Return a copy with all logic unreachable from the outputs removed.
    ///
    /// Primary inputs are always preserved (the interface is unchanged).
    pub fn cleaned(&self) -> Netlist {
        let roots: Vec<NodeId> = self.outputs.iter().map(|o| o.node).collect();
        let keep = self.cone(&roots);
        let mut mark = vec![false; self.nodes.len()];
        for id in &keep {
            mark[id.index()] = true;
        }
        let mut out = Netlist::new(self.name.clone());
        let mut map = vec![NodeId::INVALID; self.nodes.len()];
        for (idx, &pi) in self.inputs.iter().enumerate() {
            map[pi.index()] = out.add_input(self.input_names[idx].clone());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !mark[i] || n.kind == GateKind::Input {
                continue;
            }
            let a = n
                .fanin0()
                .map(|f| map[f.index()])
                .unwrap_or(NodeId::INVALID);
            let b = n
                .fanin1()
                .map(|f| map[f.index()])
                .unwrap_or(NodeId::INVALID);
            map[i] = match n.kind {
                GateKind::Const0 => out.constant(false),
                GateKind::Const1 => out.constant(true),
                k => out.gate(k, a, b),
            };
        }
        for o in &self.outputs {
            // Output names were unique in `self`, so push directly —
            // no fallible re-check, no panic path.
            out.outputs.push(Output {
                name: o.name.clone(),
                node: map[o.node.index()],
            });
        }
        out
    }

    /// A stable 64-bit content hash of the netlist's *function and
    /// interface*: a splitmix64 fold over the primary-input and
    /// -output counts and per-output simulation signatures under a
    /// fixed pseudo-random stimulus (8 blocks × 64 patterns from a
    /// splitmix64 stream, in the style of the lint duplicate-cone
    /// signatures).
    ///
    /// Properties, pinned by tests:
    ///
    /// * **BLIF-stable** — the hash survives a `to_blif` →
    ///   `from_blif` round trip, which rebuilds covers with different
    ///   gate structure but the same function;
    /// * **functionally sensitive** — any edit that changes any output
    ///   under any of the 512 probe patterns changes the hash, so a
    ///   functional edit escapes only if it is invisible to all of
    ///   them;
    /// * **name-blind, order-sensitive** — renaming the model or its
    ///   ports does not change the hash; reordering ports does (the
    ///   interface contract is positional).
    ///
    /// This is the cache key of the `blasys-serve` session cache:
    /// structurally different implementations of the same function
    /// deliberately share an entry.
    pub fn content_hash(&self) -> u64 {
        const BLOCKS: usize = 8;
        fn splitmix64(x: u64) -> u64 {
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let fold = |h: u64, v: u64| splitmix64(h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let mut h = fold(0xB1A5_5EED_0000_0000, self.num_inputs() as u64);
        h = fold(h, self.num_outputs() as u64);
        // Deterministic stimulus stream, independent of the fold state.
        let mut state = 0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
        let mut sim = crate::sim::Simulator::new(self);
        let mut words = vec![0u64; self.num_inputs()];
        for _ in 0..BLOCKS {
            for w in &mut words {
                *w = next();
            }
            for &out in sim.run(&words) {
                h = fold(h, out);
            }
        }
        h
    }

    /// [`Netlist::content_hash`] rendered as the 16-digit lowercase
    /// hex string used in `blasys-serve` URLs and reports.
    pub fn content_hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// Check internal invariants (fanins in range and strictly earlier
    /// than their users, output references valid).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`LogicError`].
    pub fn validate(&self) -> Result<(), LogicError> {
        for (i, n) in self.nodes.iter().enumerate() {
            for f in n.fanins() {
                if f.index() >= i {
                    return Err(LogicError::InvalidNode { index: f.index() });
                }
            }
        }
        for o in &self.outputs {
            if o.node.index() >= self.nodes.len() {
                return Err(LogicError::InvalidNode {
                    index: o.node.index(),
                });
            }
        }
        let mut names = std::collections::HashSet::new();
        for o in &self.outputs {
            if !names.insert(&o.name) {
                return Err(LogicError::DuplicateOutput {
                    name: o.name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input_fixture() -> (Netlist, NodeId, NodeId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        (nl, a, b)
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let (mut nl, a, b) = two_input_fixture();
        let g1 = nl.and(a, b);
        let g2 = nl.and(a, b);
        let g3 = nl.and(b, a); // commutative canonicalization
        assert_eq!(g1, g2);
        assert_eq!(g1, g3);
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn constant_folding() {
        let (mut nl, a, _) = two_input_fixture();
        let zero = nl.constant(false);
        let one = nl.constant(true);
        assert_eq!(nl.and(a, zero), zero);
        assert_eq!(nl.and(a, one), a);
        assert_eq!(nl.or(a, one), one);
        assert_eq!(nl.or(a, zero), a);
        assert_eq!(nl.xor(a, zero), a);
        let na = nl.not(a);
        assert_eq!(nl.xor(a, one), na);
        assert_eq!(nl.and(zero, one), zero);
    }

    #[test]
    fn idempotent_and_self_inverse_rules() {
        let (mut nl, a, _) = two_input_fixture();
        assert_eq!(nl.and(a, a), a);
        assert_eq!(nl.or(a, a), a);
        let zero = nl.constant(false);
        let one = nl.constant(true);
        assert_eq!(nl.xor(a, a), zero);
        assert_eq!(nl.xnor(a, a), one);
        let na = nl.not(a);
        assert_eq!(nl.not(na), a);
    }

    #[test]
    fn buf_is_transparent() {
        let (mut nl, a, _) = two_input_fixture();
        assert_eq!(nl.gate(GateKind::Buf, a, NodeId::INVALID), a);
    }

    #[test]
    fn levels_and_depth() {
        let (mut nl, a, b) = two_input_fixture();
        let g = nl.and(a, b);
        let h = nl.xor(g, a);
        nl.mark_output("z", h);
        let lv = nl.levels();
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[g.index()], 1);
        assert_eq!(lv[h.index()], 2);
        assert_eq!(nl.depth(), 2);
    }

    #[test]
    fn cone_and_support() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.and(a, b);
        let _unused = nl.or(b, c);
        let support = nl.support(&[g]);
        assert_eq!(support, vec![a, b]);
        let cone = nl.cone(&[g]);
        assert!(cone.contains(&g) && cone.contains(&a) && cone.contains(&b));
        assert!(!cone.contains(&c));
    }

    #[test]
    fn cleaned_removes_dead_logic_keeps_interface() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.and(a, b);
        let dead = nl.or(b, c);
        let _dead2 = nl.xor(dead, a);
        nl.mark_output("z", g);
        let clean = nl.cleaned();
        assert_eq!(clean.num_inputs(), 3);
        assert_eq!(clean.num_outputs(), 1);
        assert_eq!(clean.gate_count(), 1);
        assert!(clean.validate().is_ok());
    }

    fn hash_fixture() -> Netlist {
        let mut nl = Netlist::new("h");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.and(a, b);
        let h = nl.xor(g, c);
        nl.mark_output("s", h);
        let o = nl.or(g, c);
        nl.mark_output("t", o);
        nl
    }

    #[test]
    fn content_hash_survives_blif_round_trip() {
        let nl = hash_fixture();
        let text = crate::blif::to_blif(&nl);
        let back = crate::blif::from_blif(&text).expect("round trip");
        // The parser rebuilds covers with different gate structure; the
        // functional hash must not care.
        assert_eq!(nl.content_hash(), back.content_hash());
        assert_eq!(nl.content_hash_hex(), back.content_hash_hex());
    }

    #[test]
    fn content_hash_changes_on_functional_edit() {
        let nl = hash_fixture();
        let mut edited = Netlist::new("h");
        let a = edited.add_input("a");
        let b = edited.add_input("b");
        let c = edited.add_input("c");
        let g = edited.or(a, b); // and → or
        let h = edited.xor(g, c);
        edited.mark_output("s", h);
        let o = edited.or(g, c);
        edited.mark_output("t", o);
        assert_ne!(nl.content_hash(), edited.content_hash());
    }

    #[test]
    fn content_hash_is_name_blind_but_port_order_sensitive() {
        let nl = hash_fixture();

        let mut renamed = Netlist::new("other_model");
        let a = renamed.add_input("x0");
        let b = renamed.add_input("x1");
        let c = renamed.add_input("x2");
        let g = renamed.and(a, b);
        let h = renamed.xor(g, c);
        renamed.mark_output("y0", h);
        let o = renamed.or(g, c);
        renamed.mark_output("y1", o);
        assert_eq!(nl.content_hash(), renamed.content_hash());

        let mut swapped = Netlist::new("h");
        let c = swapped.add_input("c"); // declared first now
        let a = swapped.add_input("a");
        let b = swapped.add_input("b");
        let g = swapped.and(a, b);
        let h = swapped.xor(g, c);
        swapped.mark_output("s", h);
        let o = swapped.or(g, c);
        swapped.mark_output("t", o);
        assert_ne!(nl.content_hash(), swapped.content_hash());
    }

    #[test]
    fn content_hash_matches_across_equivalent_structures() {
        // NAND(a, b) vs NOT(AND(a, b)): same function, different gates.
        let mut lhs = Netlist::new("l");
        let a = lhs.add_input("a");
        let b = lhs.add_input("b");
        let g = lhs.nand(a, b);
        lhs.mark_output("z", g);

        let mut rhs = Netlist::new("r");
        let a = rhs.add_input("a");
        let b = rhs.add_input("b");
        let g = rhs.and(a, b);
        let n = rhs.not(g);
        rhs.mark_output("z", n);

        assert_eq!(lhs.content_hash(), rhs.content_hash());
    }

    #[test]
    fn content_hash_handles_closed_netlists() {
        // No primary inputs at all: constant outputs only.
        let mut nl = Netlist::new("k");
        let one = nl.constant(true);
        nl.mark_output("z", one);
        let h = nl.content_hash();
        assert_eq!(h, nl.content_hash());

        let mut zero_nl = Netlist::new("k");
        let zero = zero_nl.constant(false);
        zero_nl.mark_output("z", zero);
        assert_ne!(h, zero_nl.content_hash());
    }

    #[test]
    fn duplicate_output_rejected() {
        let (mut nl, a, b) = two_input_fixture();
        let g = nl.and(a, b);
        nl.mark_output("z", g);
        assert!(matches!(
            nl.try_mark_output("z", g),
            Err(LogicError::DuplicateOutput { .. })
        ));
    }

    #[test]
    fn validate_accepts_wellformed() {
        let (mut nl, a, b) = two_input_fixture();
        let g = nl.nand(a, b);
        nl.mark_output("z", g);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn kind_histogram_counts() {
        let (mut nl, a, b) = two_input_fixture();
        let g = nl.and(a, b);
        let _h = nl.or(g, a);
        let hist = nl.kind_histogram();
        let get = |k: GateKind| hist.iter().find(|(kk, _)| *kk == k).unwrap().1;
        assert_eq!(get(GateKind::Input), 2);
        assert_eq!(get(GateKind::And), 1);
        assert_eq!(get(GateKind::Or), 1);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let (mut nl, a, b) = two_input_fixture();
        let g = nl.and(a, b);
        nl.mark_output("z", g);
        nl.mark_output("z2", g);
        let fo = nl.fanout_counts();
        assert_eq!(fo[g.index()], 2);
        assert_eq!(fo[a.index()], 1);
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new("mux");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let m = nl.mux(s, a, b);
        nl.mark_output("z", m);
        let tt = crate::truth::TruthTable::from_netlist(&nl);
        // Input order: s = bit0, a = bit1, b = bit2.
        for row in 0..8usize {
            let s_v = row & 1 != 0;
            let a_v = row & 2 != 0;
            let b_v = row & 4 != 0;
            assert_eq!(tt.get(row, 0), if s_v { a_v } else { b_v });
        }
    }
}

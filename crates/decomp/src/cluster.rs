//! Greedy k×m-cut clustering.
//!
//! Gate nodes are placed one by one: each new cluster is seeded with
//! the lowest-index *ready* node (all fanins already placed) and then
//! grown by repeatedly absorbing the ready candidate with the best
//! affinity gain — fewest new boundary inputs, most internalized
//! outputs — while the `(≤ k inputs, ≤ m outputs)` bound holds. The
//! result is a partition whose cluster sequence is a topological order
//! of the cluster DAG.

use std::collections::HashSet;

use blasys_logic::{GateKind, LogicError, Netlist, NodeId};

/// Limits and knobs of the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompConfig {
    /// Maximum boundary inputs per cluster (`k` in the paper; 10).
    pub max_inputs: usize,
    /// Maximum boundary outputs per cluster (`m` in the paper; 10).
    pub max_outputs: usize,
    /// Maximum gates absorbed into one cluster (bounds truth-table
    /// simulation cost; not part of the paper's constraint).
    pub max_gates: usize,
    /// Candidate window: only this many lowest-index ready nodes are
    /// scored per growth step (bounds clustering runtime).
    pub candidate_window: usize,
    /// KL-style refinement passes run after clustering.
    pub refine_passes: usize,
}

impl Default for DecompConfig {
    fn default() -> DecompConfig {
        DecompConfig {
            max_inputs: 10,
            max_outputs: 10,
            max_gates: 64,
            candidate_window: 96,
            refine_passes: 1,
        }
    }
}

/// A subcircuit: a set of gate nodes plus its boundary interface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cluster {
    pub(crate) nodes: Vec<NodeId>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

impl Cluster {
    /// A cluster with only its node set populated; interfaces must be
    /// recomputed before use (refinement-internal helper).
    pub(crate) fn bare(nodes: Vec<NodeId>) -> Cluster {
        Cluster {
            nodes,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Gate nodes of the cluster, in topological order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Boundary input signals (primary inputs of the netlist or output
    /// nodes of earlier clusters), in a fixed canonical order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Nodes whose values are consumed outside the cluster (or drive
    /// primary outputs), in a fixed canonical order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of gates.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster is empty (never produced by [`decompose`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A complete decomposition of a netlist's gates into clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    clusters: Vec<Cluster>,
    /// `cluster_of[node] = Some(cluster index)` for gate nodes.
    cluster_of: Vec<Option<usize>>,
    max_inputs: usize,
    max_outputs: usize,
}

impl Partition {
    /// The clusters, in topological order of the cluster DAG.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters (netlist had no gates).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster index containing a gate node, if any.
    pub fn cluster_of(&self, node: NodeId) -> Option<usize> {
        self.cluster_of.get(node.index()).copied().flatten()
    }

    /// The `(k, m)` limits the partition was built under.
    pub fn limits(&self) -> (usize, usize) {
        (self.max_inputs, self.max_outputs)
    }

    /// Verify the partition: every gate in exactly one cluster, every
    /// boundary within limits, interfaces consistent with the netlist,
    /// and the cluster sequence topologically ordered.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidNode`] pointing at the first
    /// offending node.
    pub fn validate(&self, nl: &Netlist) -> Result<(), LogicError> {
        let mut seen = vec![false; nl.len()];
        for c in &self.clusters {
            for &n in &c.nodes {
                if seen[n.index()] || !nl.node(n).kind().is_gate() {
                    return Err(LogicError::InvalidNode { index: n.index() });
                }
                seen[n.index()] = true;
            }
            if c.inputs.len() > self.max_inputs || c.outputs.len() > self.max_outputs {
                return Err(LogicError::InvalidNode {
                    index: c.nodes.first().map(|n| n.index()).unwrap_or(0),
                });
            }
        }
        for (id, node) in nl.iter() {
            if node.kind().is_gate() && !seen[id.index()] {
                return Err(LogicError::InvalidNode { index: id.index() });
            }
        }
        // Topological consistency: every fanin of a cluster node must
        // be a PI, a constant, a member, or in an earlier cluster.
        for (ci, c) in self.clusters.iter().enumerate() {
            let members: HashSet<NodeId> = c.nodes.iter().copied().collect();
            for &n in &c.nodes {
                for f in nl.node(n).fanins() {
                    let fk = nl.node(f).kind();
                    if fk == GateKind::Input || !fk.is_gate() || members.contains(&f) {
                        continue;
                    }
                    match self.cluster_of(f) {
                        Some(cf) if cf < ci => {}
                        _ => return Err(LogicError::InvalidNode { index: f.index() }),
                    }
                }
            }
        }
        Ok(())
    }

    /// Recompute a single cluster's interface.
    pub fn recompute_one(&mut self, nl: &Netlist, ci: usize) {
        let nodes = std::mem::take(&mut self.clusters[ci]).nodes;
        self.clusters[ci] = make_cluster(nl, nodes, ci, &self.cluster_of);
    }

    pub(crate) fn cluster_of_mut(&mut self) -> &mut Vec<Option<usize>> {
        &mut self.cluster_of
    }

    pub(crate) fn clusters_mut(&mut self) -> &mut Vec<Cluster> {
        &mut self.clusters
    }
}

/// Compute a cluster's canonical interface given its member set.
fn make_cluster(
    nl: &Netlist,
    mut nodes: Vec<NodeId>,
    cluster_index: usize,
    cluster_of: &[Option<usize>],
) -> Cluster {
    nodes.sort_unstable();
    let members: HashSet<NodeId> = nodes.iter().copied().collect();
    let mut inputs: Vec<NodeId> = Vec::new();
    let mut seen_in: HashSet<NodeId> = HashSet::new();
    for &n in &nodes {
        for f in nl.node(n).fanins() {
            let fk = nl.node(f).kind();
            if members.contains(&f) || matches!(fk, GateKind::Const0 | GateKind::Const1) {
                continue;
            }
            if seen_in.insert(f) {
                inputs.push(f);
            }
        }
    }
    inputs.sort_unstable();

    // Outputs: members used outside the cluster or driving POs.
    let mut is_output = vec![false; nl.len()];
    for (id, node) in nl.iter() {
        if !node.kind().is_gate() {
            continue;
        }
        let user_cluster = cluster_of[id.index()];
        for f in node.fanins() {
            if members.contains(&f) && user_cluster != Some(cluster_index) {
                is_output[f.index()] = true;
            }
        }
    }
    for o in nl.outputs() {
        if members.contains(&o.node()) {
            is_output[o.node().index()] = true;
        }
    }
    let outputs: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| is_output[n.index()])
        .collect();
    Cluster {
        nodes,
        inputs,
        outputs,
    }
}

/// Decompose a netlist into k×m-cut clusters.
///
/// Runs greedy growth followed by `cfg.refine_passes` rounds of
/// KL-style boundary refinement.
pub fn decompose(nl: &Netlist, cfg: &DecompConfig) -> Partition {
    let fanout = nl.fanout_counts();
    let is_po: Vec<bool> = {
        let mut v = vec![false; nl.len()];
        for o in nl.outputs() {
            v[o.node().index()] = true;
        }
        v
    };

    let gate_nodes: Vec<NodeId> = nl
        .iter()
        .filter(|(_, n)| n.kind().is_gate())
        .map(|(id, _)| id)
        .collect();
    let mut placed = vec![false; nl.len()];
    // Inputs and constants count as placed producers.
    for (id, node) in nl.iter() {
        if !node.kind().is_gate() {
            placed[id.index()] = true;
        }
    }
    let mut cluster_of: Vec<Option<usize>> = vec![None; nl.len()];
    let mut clusters: Vec<Vec<NodeId>> = Vec::new();
    let mut remaining: usize = gate_nodes.len();
    // Ready = unplaced gate with all fanins placed; refreshed lazily.
    let mut ready: Vec<NodeId> = gate_nodes
        .iter()
        .copied()
        .filter(|g| nl.node(*g).fanins().all(|f| placed[f.index()]))
        .collect();

    while remaining > 0 {
        ready.sort_unstable();
        ready.dedup();
        ready.retain(|n| !placed[n.index()]);
        let seed = ready[0];
        let ci = clusters.len();

        // Growth state.
        let mut members: HashSet<NodeId> = HashSet::new();
        let mut member_list: Vec<NodeId> = Vec::new();
        let mut input_set: HashSet<NodeId> = HashSet::new();
        let mut uses_inside: Vec<u32> = Vec::new(); // parallel to member_list
        let mut member_pos: std::collections::HashMap<NodeId, usize> = Default::default();

        let add_node =
            |n: NodeId,
             members: &mut HashSet<NodeId>,
             member_list: &mut Vec<NodeId>,
             input_set: &mut HashSet<NodeId>,
             uses_inside: &mut Vec<u32>,
             member_pos: &mut std::collections::HashMap<NodeId, usize>| {
                for f in nl.node(n).fanins() {
                    let fk = nl.node(f).kind();
                    if members.contains(&f) {
                        uses_inside[member_pos[&f]] += 1;
                    } else if !matches!(fk, GateKind::Const0 | GateKind::Const1) {
                        input_set.insert(f);
                    }
                }
                member_pos.insert(n, member_list.len());
                member_list.push(n);
                uses_inside.push(0);
                members.insert(n);
            };

        add_node(
            seed,
            &mut members,
            &mut member_list,
            &mut input_set,
            &mut uses_inside,
            &mut member_pos,
        );
        placed[seed.index()] = true;
        remaining -= 1;

        // Helper: current output count.
        let count_outputs = |member_list: &[NodeId], uses_inside: &[u32]| {
            member_list
                .iter()
                .zip(uses_inside)
                .filter(|(&x, &u)| is_po[x.index()] || fanout[x.index()] > u)
                .count()
        };

        loop {
            if member_list.len() >= cfg.max_gates {
                break;
            }
            // Recompute readiness over the candidate window (lazy; the
            // window bound keeps this linear in practice).
            let cands: Vec<NodeId> = gate_nodes
                .iter()
                .copied()
                .filter(|g| !placed[g.index()] && nl.node(*g).fanins().all(|f| placed[f.index()]))
                .take(cfg.candidate_window)
                .collect();
            if cands.is_empty() {
                break;
            }
            // Score each candidate.
            let cur_outputs = count_outputs(&member_list, &uses_inside);
            let mut best: Option<(i64, NodeId)> = None;
            for &n in &cands {
                let mut added_inputs = 0usize;
                let mut shared = 0i64;
                let mut internalized = 0usize;
                for f in nl.node(n).fanins() {
                    let fk = nl.node(f).kind();
                    if members.contains(&f) {
                        // Does adding n internalize f's last external use?
                        let u = uses_inside[member_pos[&f]];
                        let extra = nl.node(n).fanins().filter(|&g| g == f).count() as u32;
                        if !is_po[f.index()] && fanout[f.index()] == u + extra {
                            internalized += 1;
                        }
                        shared += 1;
                    } else if matches!(fk, GateKind::Const0 | GateKind::Const1) {
                        continue;
                    } else if input_set.contains(&f) {
                        shared += 1;
                    } else {
                        added_inputs += 1;
                    }
                }
                let n_is_output = is_po[n.index()] || fanout[n.index()] > 0;
                let new_inputs = input_set.len() + added_inputs;
                let new_outputs = cur_outputs - internalized + usize::from(n_is_output);
                if new_inputs > cfg.max_inputs || new_outputs > cfg.max_outputs {
                    continue;
                }
                let gain = shared * 2 + internalized as i64 * 3
                    - added_inputs as i64 * 2
                    - (n.index() as i64 >> 20); // stable small tie-break
                if best.is_none_or(|(g, b)| gain > g || (gain == g && n < b)) {
                    best = Some((gain, n));
                }
            }
            let Some((_, pick)) = best else { break };
            add_node(
                pick,
                &mut members,
                &mut member_list,
                &mut input_set,
                &mut uses_inside,
                &mut member_pos,
            );
            placed[pick.index()] = true;
            remaining -= 1;
        }

        for &n in &member_list {
            cluster_of[n.index()] = Some(ci);
        }
        clusters.push(member_list);
        // Refresh global ready vector cheaply.
        ready = gate_nodes
            .iter()
            .copied()
            .filter(|g| !placed[g.index()] && nl.node(*g).fanins().all(|f| placed[f.index()]))
            .collect();
        if ready.is_empty() && remaining > 0 {
            unreachable!("topological order guarantees progress");
        }
    }

    let built: Vec<Cluster> = clusters
        .into_iter()
        .enumerate()
        .map(|(ci, nodes)| make_cluster(nl, nodes, ci, &cluster_of))
        .collect();
    let mut part = Partition {
        clusters: built,
        cluster_of,
        max_inputs: cfg.max_inputs,
        max_outputs: cfg.max_outputs,
    };
    for _ in 0..cfg.refine_passes {
        if !crate::kl::refine(nl, &mut part) {
            break;
        }
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_logic::builder::{add, input_bus, mark_output_bus, mul};
    use blasys_logic::Netlist;

    fn adder(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    #[test]
    fn partition_covers_all_gates_once() {
        let nl = adder(16);
        let part = decompose(&nl, &DecompConfig::default());
        assert!(part.validate(&nl).is_ok());
        let total: usize = part.clusters().iter().map(Cluster::len).sum();
        assert_eq!(total, nl.gate_count());
    }

    #[test]
    fn limits_respected() {
        let nl = adder(32);
        for (k, m) in [(10, 10), (6, 6), (4, 4)] {
            let cfg = DecompConfig {
                max_inputs: k,
                max_outputs: m,
                ..DecompConfig::default()
            };
            let part = decompose(&nl, &cfg);
            assert!(part.validate(&nl).is_ok());
            for c in part.clusters() {
                assert!(c.inputs().len() <= k, "inputs {} > {k}", c.inputs().len());
                assert!(
                    c.outputs().len() <= m,
                    "outputs {} > {m}",
                    c.outputs().len()
                );
                assert!(!c.is_empty());
            }
        }
    }

    #[test]
    fn multiplier_decomposes() {
        let mut nl = Netlist::new("mul");
        let a = input_bus(&mut nl, "a", 6);
        let b = input_bus(&mut nl, "b", 6);
        let p = mul(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "p", &p);
        let part = decompose(&nl, &DecompConfig::default());
        assert!(part.validate(&nl).is_ok());
        assert!(part.len() >= 2, "6x6 multiplier needs several clusters");
    }

    #[test]
    fn cluster_of_is_consistent() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        for (ci, c) in part.clusters().iter().enumerate() {
            for &n in c.nodes() {
                assert_eq!(part.cluster_of(n), Some(ci));
            }
        }
    }

    #[test]
    fn tiny_netlist_single_cluster() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.and(a, b);
        let h = nl.xor(g, a);
        nl.mark_output("z", h);
        let part = decompose(&nl, &DecompConfig::default());
        assert_eq!(part.len(), 1);
        let c = &part.clusters()[0];
        assert_eq!(c.len(), 2);
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.outputs().len(), 1);
    }

    #[test]
    fn gateless_netlist_is_empty_partition() {
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        nl.mark_output("z", a);
        let part = decompose(&nl, &DecompConfig::default());
        assert!(part.is_empty());
        assert!(part.validate(&nl).is_ok());
    }

    #[test]
    fn max_gates_bounds_cluster_size() {
        let nl = adder(32);
        let cfg = DecompConfig {
            max_gates: 8,
            ..DecompConfig::default()
        };
        let part = decompose(&nl, &cfg);
        assert!(part.validate(&nl).is_ok());
        // Refinement may merge a node or two, allow slack.
        for c in part.clusters() {
            assert!(c.len() <= 10, "cluster of {} gates", c.len());
        }
    }
}

//! Kernighan–Lin-flavoured boundary refinement.
//!
//! After greedy clustering, single nodes are moved between clusters
//! when the move shrinks the total interface size (inputs + outputs
//! summed over clusters) without violating the k×m bound or the
//! topological order of the cluster sequence. This mirrors the role of
//! the KL pass in the KL-cut algorithm the paper cites.

use blasys_logic::{Netlist, NodeId};

use crate::cluster::Partition;

/// Total interface cost of a partition (sum of boundary sizes).
fn interface_cost(part: &Partition) -> usize {
    part.clusters()
        .iter()
        .map(|c| c.inputs().len() + c.outputs().len())
        .sum()
}

/// One refinement pass. Returns `true` if any move was applied.
///
/// Legality of moving node `n` from cluster `a` to cluster `b`:
/// * `b > a`: every user of `n` must live in cluster `b` or later (or
///   be a primary output — those forbid the move, the value would be
///   produced too late only if users were earlier; POs are fine);
/// * `b < a`: every fanin of `n` must be produced in cluster `b` or
///   earlier (primary inputs and constants always qualify).
///
/// A move is kept when it strictly reduces the global interface cost
/// while both affected clusters stay within the k×m limits.
pub fn refine(nl: &Netlist, part: &mut Partition) -> bool {
    let (max_in, max_out) = part.limits();
    let mut users: Vec<Vec<NodeId>> = vec![Vec::new(); nl.len()];
    for (id, node) in nl.iter() {
        for f in node.fanins() {
            users[f.index()].push(id);
        }
    }
    let mut changed = false;
    let n_clusters = part.len();
    if n_clusters < 2 {
        return false;
    }
    let mut cost = interface_cost(part);

    // Candidate moves: boundary nodes to the neighbouring cluster that
    // already consumes/produces most of their connections.
    for ci in 0..n_clusters {
        let candidates: Vec<NodeId> = part.clusters()[ci].outputs().to_vec();
        for n in candidates {
            if part.cluster_of(n) != Some(ci) {
                continue; // moved away by an earlier iteration
            }
            // Try moving n to the cluster holding the majority of its
            // users (forward move) or of its fanins (backward move).
            let mut tally: std::collections::HashMap<usize, usize> = Default::default();
            for &u in &users[n.index()] {
                if let Some(cu) = part.cluster_of(u) {
                    if cu != ci {
                        *tally.entry(cu).or_default() += 1;
                    }
                }
            }
            for f in nl.node(n).fanins() {
                if let Some(cf) = part.cluster_of(f) {
                    if cf != ci {
                        *tally.entry(cf).or_default() += 1;
                    }
                }
            }
            // Most connections wins, lowest cluster index on ties: the
            // map's iteration order must not pick the target.
            let Some((&target, _)) = tally
                .iter()
                .max_by_key(|(&c, &v)| (v, std::cmp::Reverse(c)))
            else {
                continue;
            };
            if !move_is_legal(nl, part, &users, n, ci, target) {
                continue;
            }
            // Apply tentatively, measure, roll back if not better.
            apply_move(nl, part, n, ci, target);
            let legal_sizes = {
                let a = &part.clusters()[ci];
                let b = &part.clusters()[target];
                a.inputs().len() <= max_in
                    && a.outputs().len() <= max_out
                    && b.inputs().len() <= max_in
                    && b.outputs().len() <= max_out
            };
            let new_cost = interface_cost(part);
            if legal_sizes && new_cost < cost {
                cost = new_cost;
                changed = true;
            } else {
                apply_move(nl, part, n, target, ci); // roll back
            }
        }
    }
    changed
}

/// Check the topological legality of moving `n` from cluster `from` to
/// cluster `to`.
fn move_is_legal(
    nl: &Netlist,
    part: &Partition,
    users: &[Vec<NodeId>],
    n: NodeId,
    from: usize,
    to: usize,
) -> bool {
    if from == to || part.clusters()[from].len() <= 1 {
        return false;
    }
    if to > from {
        // Every gate user of n must be in cluster `to` or later.
        for &u in &users[n.index()] {
            match part.cluster_of(u) {
                Some(cu) if cu >= to => {}
                Some(_) => return false,
                None => {} // user is not a gate (impossible) — ignore
            }
        }
        // If n drives a PO its value still exists (cluster `to` output).
        true
    } else {
        // Every fanin of n must be produced at cluster `to` or earlier
        // (PIs/constants always are).
        for f in nl.node(n).fanins() {
            if let Some(cf) = part.cluster_of(f) {
                if cf > to {
                    return false;
                }
            }
        }
        // Users of n in clusters < `to`? Users are always after n's
        // cluster, and moving earlier only helps. But users inside
        // `from` must still be able to see n — they can, `to < from`.
        true
    }
}

/// Move `n` between clusters and recompute the two interfaces.
fn apply_move(nl: &Netlist, part: &mut Partition, n: NodeId, from: usize, to: usize) {
    {
        let clusters = part.clusters_mut();
        let pos = clusters[from]
            .nodes()
            .iter()
            .position(|&x| x == n)
            .expect("node must be in source cluster");
        let mut from_nodes = clusters[from].nodes().to_vec();
        from_nodes.remove(pos);
        let mut to_nodes = clusters[to].nodes().to_vec();
        to_nodes.push(n);
        set_cluster_nodes(clusters, from, from_nodes);
        set_cluster_nodes(clusters, to, to_nodes);
    }
    part.cluster_of_mut()[n.index()] = Some(to);
    // Only the two touched clusters can change interface (other
    // clusters' boundaries reference n as an external signal either way).
    part.recompute_one(nl, from);
    part.recompute_one(nl, to);
}

fn set_cluster_nodes(clusters: &mut [crate::cluster::Cluster], idx: usize, mut nodes: Vec<NodeId>) {
    // Only the node set is stashed here; the caller recomputes the
    // interface immediately afterwards.
    nodes.sort_unstable();
    clusters[idx] = crate::cluster::Cluster::bare(nodes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{grow, DecompConfig};
    use blasys_logic::builder::{add, input_bus, mark_output_bus, mul};
    use blasys_logic::Netlist;

    fn mult(width: usize) -> Netlist {
        let mut nl = Netlist::new("mul");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let p = mul(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "p", &p);
        nl
    }

    #[test]
    fn refinement_preserves_validity() {
        let nl = mult(5);
        let mut part = grow(&nl, &DecompConfig::default());
        let before = interface_cost(&part);
        for _ in 0..3 {
            if !refine(&nl, &mut part) {
                break;
            }
        }
        // `validate` also checks every gate sits in exactly one cluster.
        assert!(part.validate(&nl).is_ok());
        assert!(interface_cost(&part) <= before);
    }

    #[test]
    fn refinement_never_increases_cost() {
        let mut nl = Netlist::new("chain");
        let a = input_bus(&mut nl, "a", 12);
        let b = input_bus(&mut nl, "b", 12);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        let cfg = DecompConfig {
            max_inputs: 6,
            max_outputs: 6,
        };
        let mut part = grow(&nl, &cfg);
        let before = interface_cost(&part);
        refine(&nl, &mut part);
        assert!(interface_cost(&part) <= before);
        assert!(part.validate(&nl).is_ok());
    }
}

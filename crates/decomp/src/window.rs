//! Cluster windows: truth-table extraction and whole-circuit
//! substitution.
//!
//! `cluster_truth_table` materializes the `2^k × m` matrix `M` that
//! BLASYS hands to the factorization algorithm (Algorithm 1, line 4).
//! `substitute` rebuilds the full netlist with selected clusters
//! replaced by alternative implementations — the `Cir(si → T_{si,fi})`
//! operation used throughout the design-space exploration.

use std::collections::HashMap;

use blasys_logic::{GateKind, Netlist, NodeId, TruthTable};

use crate::cluster::{Cluster, Partition};

/// Exhaustively evaluate a cluster into its truth table.
///
/// Row bit `i` drives `cluster.inputs()[i]`; column `o` is
/// `cluster.outputs()[o]`. Constants inside the cluster are honored.
///
/// # Panics
///
/// Panics if the cluster has more than 26 inputs (never happens for
/// k×m-cut partitions with the paper's `k = 10`).
pub fn cluster_truth_table(nl: &Netlist, cluster: &Cluster) -> TruthTable {
    let k = cluster.inputs().len();
    assert!(k <= 26, "cluster too wide for exhaustive enumeration");
    let m = cluster.outputs().len();
    let rows = 1usize << k;
    let blocks = rows.div_ceil(64);

    let mut tt = TruthTable::zeroed(k, m);
    // Per-block evaluation of only the cluster's nodes.
    let mut values: HashMap<NodeId, u64> = HashMap::with_capacity(cluster.len() + k);
    for block in 0..blocks {
        values.clear();
        for (i, &pi) in cluster.inputs().iter().enumerate() {
            values.insert(pi, pattern_word(i, block));
        }
        for &n in cluster.nodes() {
            let node = nl.node(n);
            let fetch = |values: &HashMap<NodeId, u64>, f: NodeId| -> u64 {
                if let Some(&v) = values.get(&f) {
                    return v;
                }
                match nl.node(f).kind() {
                    GateKind::Const0 => 0,
                    GateKind::Const1 => !0,
                    _ => panic!("fanin {f} not available in cluster window"),
                }
            };
            let v = match node.kind() {
                GateKind::Const0 => 0,
                GateKind::Const1 => !0,
                k => {
                    let a = fetch(&values, node.fanin0().expect("gate fanin"));
                    let b = node.fanin1().map(|f| fetch(&values, f)).unwrap_or(0);
                    k.eval_words(a, b)
                }
            };
            values.insert(n, v);
        }
        let valid = (rows - block * 64).min(64);
        let mask = if valid == 64 {
            !0u64
        } else {
            (1u64 << valid) - 1
        };
        for (o, &out_node) in cluster.outputs().iter().enumerate() {
            let w = values[&out_node] & mask;
            let mut bits = w;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                tt.set(block * 64 + lane, o, true);
            }
        }
    }
    tt
}

fn pattern_word(i: usize, block: usize) -> u64 {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    if i < 6 {
        LOW[i]
    } else if block >> (i - 6) & 1 == 1 {
        !0
    } else {
        0
    }
}

/// Extract a cluster as a standalone netlist: primary inputs are the
/// boundary inputs (in `cluster.inputs()` order, named `x0..`), primary
/// outputs the boundary outputs (named `y0..`).
///
/// The gates are copied verbatim, so the result is the *reference
/// implementation* of the window — typically far smaller than
/// resynthesizing the window's truth table from scratch.
pub fn extract_cluster_netlist(nl: &Netlist, cluster: &Cluster, name: &str) -> Netlist {
    let mut out = Netlist::new(name.to_string());
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for (i, &b) in cluster.inputs().iter().enumerate() {
        map.insert(b, out.add_input(format!("x{i}")));
    }
    for &n in cluster.nodes() {
        let node = nl.node(n);
        let get =
            |map: &HashMap<NodeId, NodeId>, out: &mut Netlist, f: NodeId| match nl.node(f).kind() {
                GateKind::Const0 => out.constant(false),
                GateKind::Const1 => out.constant(true),
                _ => map[&f],
            };
        let new = match node.kind() {
            GateKind::Const0 => out.constant(false),
            GateKind::Const1 => out.constant(true),
            k if k.arity() == 1 => {
                let a = get(&map, &mut out, node.fanin0().unwrap());
                out.gate(k, a, a)
            }
            k => {
                let a = get(&map, &mut out, node.fanin0().unwrap());
                let b = get(&map, &mut out, node.fanin1().unwrap());
                out.gate(k, a, b)
            }
        };
        map.insert(n, new);
    }
    for (o, &n) in cluster.outputs().iter().enumerate() {
        out.mark_output(format!("y{o}"), map[&n]);
    }
    out
}

/// How to realize one cluster when rebuilding the circuit.
#[derive(Debug, Clone)]
pub enum ClusterImpl {
    /// Keep the original gates.
    Keep,
    /// Replace with a netlist whose primary inputs correspond
    /// positionally to `cluster.inputs()` and outputs to
    /// `cluster.outputs()`.
    Replace(Netlist),
}

/// Rebuild the circuit with each cluster realized per `impls`.
///
/// Signals produced by replaced clusters feed downstream clusters and
/// primary outputs exactly as the original nodes did, so the result is
/// a drop-in (possibly approximate) variant of `nl`.
///
/// # Panics
///
/// Panics if `impls.len() != partition.len()` or a replacement's
/// interface does not match its cluster's.
pub fn substitute(nl: &Netlist, partition: &Partition, impls: &[ClusterImpl]) -> Netlist {
    assert_eq!(
        impls.len(),
        partition.len(),
        "one implementation choice per cluster"
    );
    let mut out = Netlist::new(nl.name().to_string());
    // map[old node] = new node carrying the same signal.
    let mut map: Vec<Option<NodeId>> = vec![None; nl.len()];
    for (idx, &pi) in nl.inputs().iter().enumerate() {
        map[pi.index()] = Some(out.add_input(nl.input_name(idx).to_string()));
    }
    let resolve = |map: &[Option<NodeId>], out: &mut Netlist, f: NodeId| -> NodeId {
        match nl.node(f).kind() {
            GateKind::Const0 => out.constant(false),
            GateKind::Const1 => out.constant(true),
            _ => map[f.index()].expect("signal not yet materialized"),
        }
    };

    for (cluster, impl_choice) in partition.clusters().iter().zip(impls) {
        match impl_choice {
            ClusterImpl::Keep => {
                for &n in cluster.nodes() {
                    let node = nl.node(n);
                    let a = node
                        .fanin0()
                        .map(|f| resolve(&map, &mut out, f))
                        .unwrap_or(NodeId::from_index(0));
                    let b = node
                        .fanin1()
                        .map(|f| resolve(&map, &mut out, f))
                        .unwrap_or(a);
                    let new = match node.kind() {
                        GateKind::Const0 => out.constant(false),
                        GateKind::Const1 => out.constant(true),
                        k if k.arity() == 1 => out.gate(k, a, a),
                        k => out.gate(k, a, b),
                    };
                    map[n.index()] = Some(new);
                }
            }
            ClusterImpl::Replace(sub) => {
                assert_eq!(
                    sub.num_inputs(),
                    cluster.inputs().len(),
                    "replacement input arity mismatch"
                );
                assert_eq!(
                    sub.num_outputs(),
                    cluster.outputs().len(),
                    "replacement output arity mismatch"
                );
                // Inline `sub` into `out`.
                let mut sub_map: Vec<Option<NodeId>> = vec![None; sub.len()];
                for (i, &spi) in sub.inputs().iter().enumerate() {
                    let boundary = cluster.inputs()[i];
                    sub_map[spi.index()] = Some(resolve(&map, &mut out, boundary));
                }
                for (sid, snode) in sub.iter() {
                    if snode.kind() == GateKind::Input {
                        continue;
                    }
                    let a = snode
                        .fanin0()
                        .map(|f| sub_map[f.index()].expect("sub topo order"));
                    let b = snode
                        .fanin1()
                        .map(|f| sub_map[f.index()].expect("sub topo order"));
                    let new = match snode.kind() {
                        GateKind::Const0 => out.constant(false),
                        GateKind::Const1 => out.constant(true),
                        k if k.arity() == 1 => {
                            let a = a.unwrap();
                            out.gate(k, a, a)
                        }
                        k => out.gate(k, a.unwrap(), b.unwrap()),
                    };
                    sub_map[sid.index()] = Some(new);
                }
                for (o, &orig) in cluster.outputs().iter().enumerate() {
                    let driver = sub.outputs()[o].node();
                    map[orig.index()] = Some(sub_map[driver.index()].expect("driver mapped"));
                }
            }
        }
    }

    for po in nl.outputs() {
        let new = resolve(&map, &mut out, po.node());
        out.mark_output(po.name().to_string(), new);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{decompose, DecompConfig};
    use blasys_logic::builder::{add, input_bus, mark_output_bus};
    use blasys_logic::equiv::check_equiv;

    fn adder(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    #[test]
    fn window_table_matches_direct_simulation() {
        let nl = adder(6);
        let part = decompose(&nl, &DecompConfig::default());
        for cluster in part.clusters() {
            let tt = cluster_truth_table(&nl, cluster);
            assert_eq!(tt.num_inputs(), cluster.inputs().len());
            assert_eq!(tt.num_outputs(), cluster.outputs().len());
            // Spot-check a handful of rows against full-circuit logic by
            // evaluating the cluster nodes scalar-wise.
            for row in [0usize, 1, 3, (1 << tt.num_inputs()) - 1] {
                let mut vals: HashMap<NodeId, bool> = HashMap::new();
                for (i, &pi) in cluster.inputs().iter().enumerate() {
                    vals.insert(pi, row >> i & 1 == 1);
                }
                for &n in cluster.nodes() {
                    let node = nl.node(n);
                    let get = |vals: &HashMap<NodeId, bool>, f: NodeId| match nl.node(f).kind() {
                        GateKind::Const0 => false,
                        GateKind::Const1 => true,
                        _ => vals[&f],
                    };
                    let a = node.fanin0().map(|f| get(&vals, f)).unwrap_or(false);
                    let b = node.fanin1().map(|f| get(&vals, f)).unwrap_or(false);
                    vals.insert(n, node.kind().eval(a, b));
                }
                for (o, &on) in cluster.outputs().iter().enumerate() {
                    assert_eq!(tt.get(row, o), vals[&on], "row {row} out {o}");
                }
            }
        }
    }

    #[test]
    fn keep_everything_is_equivalent() {
        let nl = adder(8);
        let part = decompose(&nl, &DecompConfig::default());
        let impls = vec![ClusterImpl::Keep; part.len()];
        let rebuilt = substitute(&nl, &part, &impls);
        assert!(check_equiv(&nl, &rebuilt).is_equal());
    }

    #[test]
    fn replacing_with_exact_resynthesis_is_equivalent() {
        // Build each cluster's truth table and replace it with a naive
        // two-level netlist generated straight from the table.
        let nl = adder(5);
        let part = decompose(&nl, &DecompConfig::default());
        let impls: Vec<ClusterImpl> = part
            .clusters()
            .iter()
            .map(|c| {
                let tt = cluster_truth_table(&nl, c);
                ClusterImpl::Replace(naive_tt_netlist(&tt))
            })
            .collect();
        let rebuilt = substitute(&nl, &part, &impls);
        assert!(check_equiv(&nl, &rebuilt).is_equal());
    }

    /// Sum-of-minterms netlist for a truth table (test helper; real
    /// resynthesis lives in blasys-synth).
    fn naive_tt_netlist(tt: &TruthTable) -> Netlist {
        let mut nl = Netlist::new("naive");
        let inputs: Vec<NodeId> = (0..tt.num_inputs())
            .map(|i| nl.add_input(format!("x{i}")))
            .collect();
        for o in 0..tt.num_outputs() {
            let mut acc: Option<NodeId> = None;
            for row in 0..tt.rows() {
                if !tt.get(row, o) {
                    continue;
                }
                let mut term: Option<NodeId> = None;
                for (i, &pi) in inputs.iter().enumerate() {
                    let lit = if row >> i & 1 == 1 { pi } else { nl.not(pi) };
                    term = Some(match term {
                        None => lit,
                        Some(t) => nl.and(t, lit),
                    });
                }
                let t = term.unwrap_or_else(|| nl.constant(true));
                acc = Some(match acc {
                    None => t,
                    Some(a) => nl.or(a, t),
                });
            }
            let node = acc.unwrap_or_else(|| nl.constant(false));
            nl.mark_output(format!("y{o}"), node);
        }
        nl
    }

    #[test]
    fn substitution_with_constant_replacement_changes_function() {
        let nl = adder(4);
        let part = decompose(&nl, &DecompConfig::default());
        // Replace the first cluster with all-zero outputs.
        let mut impls = vec![ClusterImpl::Keep; part.len()];
        let c0 = &part.clusters()[0];
        let mut zeros = Netlist::new("zeros");
        for i in 0..c0.inputs().len() {
            zeros.add_input(format!("x{i}"));
        }
        let z = zeros.constant(false);
        for o in 0..c0.outputs().len() {
            zeros.mark_output(format!("y{o}"), z);
        }
        impls[0] = ClusterImpl::Replace(zeros);
        let rebuilt = substitute(&nl, &part, &impls);
        assert_eq!(rebuilt.num_inputs(), nl.num_inputs());
        assert_eq!(rebuilt.num_outputs(), nl.num_outputs());
        assert!(!check_equiv(&nl, &rebuilt).is_equal());
    }
}

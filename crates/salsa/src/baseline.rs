//! The SALSA-style flow: per-output-bit ladder advancement under a
//! whole-circuit error threshold.

use blasys_core::montecarlo::{Evaluator, McConfig};
use blasys_core::qor::{QorMetric, QorReport};
use blasys_decomp::{
    cluster_truth_table, decompose, extract_cluster_netlist, substitute, ClusterImpl, DecompConfig,
    Partition,
};
use blasys_logic::{Netlist, NodeId, TruthTable};
use blasys_par::{Parallelism, Pool};
use blasys_synth::{
    estimate, gate_cost, map_sop, minimize_column, shannon_columns, CellLibrary, DesignMetrics,
};

use crate::ladder::{column_ladder, ColumnVariant};

/// Configuration of the SALSA-style baseline.
#[derive(Debug, Clone, Default)]
pub struct SalsaConfig {
    /// Decomposition limits (use the same as the BLASYS run being
    /// compared against).
    pub decomp: DecompConfig,
    /// Monte-Carlo settings (same seed as BLASYS for a paired
    /// comparison).
    pub mc: McConfig,
    /// Explicit Monte-Carlo stimulus (`[input][block]`); `None` means
    /// uniform random from `mc`. Pass the same stimulus as the BLASYS
    /// run for a paired comparison.
    pub stimulus: Option<Vec<Vec<u64>>>,
    /// Worker threads for ladder construction and the initial cost
    /// scan (the greedy walk itself is sequential by design: every
    /// probe depends on the previous commit). Results are identical
    /// at every setting.
    pub parallelism: Parallelism,
}

/// Metric the threshold applies to.
const METRIC: QorMetric = QorMetric::AvgRelative;

/// Intermediate ladder rungs per column.
const LADDER_STEPS: usize = 5;

/// Outcome of a SALSA-style run.
#[derive(Debug, Clone)]
pub struct SalsaResult {
    /// Accurate baseline metrics (original cluster gates).
    pub baseline: DesignMetrics,
    /// Metrics of the approximate design.
    pub approx: DesignMetrics,
    /// Achieved whole-circuit QoR.
    pub qor: QorReport,
    /// Number of ladder advancements committed.
    pub moves: usize,
}

impl SalsaResult {
    /// Area saving in percent relative to the baseline.
    pub fn area_savings_pct(&self) -> f64 {
        (1.0 - self.approx.area_um2 / self.baseline.area_um2) * 100.0
    }
}

/// Run the SALSA-style baseline at an error threshold.
///
/// Processes every window column in least-significance-first order,
/// greedily advancing its simplification ladder while the
/// whole-circuit Monte-Carlo QoR stays within `threshold`.
///
/// # Panics
///
/// Panics if the netlist has no gates or more than 64 outputs.
pub fn run_salsa(nl: &Netlist, cfg: &SalsaConfig, threshold: f64) -> SalsaResult {
    let partition = decompose(nl, &cfg.decomp);
    assert!(!partition.is_empty(), "netlist must contain logic");
    let tables: Vec<TruthTable> = partition
        .clusters()
        .iter()
        .map(|c| cluster_truth_table(nl, c))
        .collect();

    // Ladders per (cluster, column) — independent minimization
    // problems, built in parallel.
    let pool = Pool::with_parallelism(cfg.parallelism);
    let ladders: Vec<Vec<Vec<ColumnVariant>>> = pool.run(tables.len(), |ci| {
        let tt = &tables[ci];
        (0..tt.num_outputs())
            .map(|col| column_ladder(tt, col, LADDER_STEPS))
            .collect()
    });

    let mut evaluator = match &cfg.stimulus {
        Some(stim) => Evaluator::with_stimulus(nl, &partition, stim.clone()),
        None => Evaluator::new(nl, &partition, &cfg.mc),
    };
    // Current rung per (cluster, column); current table rows per
    // cluster.
    let mut rung: Vec<Vec<usize>> = ladders
        .iter()
        .map(|cols| vec![0usize; cols.len()])
        .collect();
    let mut rows_now: Vec<Vec<u16>> = (0..partition.len())
        .map(|ci| evaluator.network().table(ci).to_vec())
        .collect();

    // Column processing order: ascending influence (significance) so
    // low-impact bits are approximated first, as SALSA allocates its
    // error budget on the least significant outputs first.
    let order = column_order(nl, &partition);

    // Current per-cluster replacement cost (exact = original gates).
    let mut cost_now: Vec<usize> = pool.run(partition.len(), |ci| {
        gate_cost(&build_cluster_impl(
            nl,
            &partition,
            ci,
            &tables[ci],
            &ladders[ci],
            &rung[ci],
        ))
    });

    let mut moves = 0usize;
    let mut probe = evaluator.probe_state();
    for (ci, col) in order {
        // Walk the ladder: commit rungs that both shrink the cluster
        // implementation (SALSA never accepts growth) and keep the
        // whole-circuit QoR within the threshold. A rung that fails
        // the cost gate is skipped (deeper rungs are simpler); a rung
        // that fails the QoR gate ends the walk (error only grows).
        for next in rung[ci][col] + 1..ladders[ci][col].len() {
            let mut cand_rung = rung[ci].clone();
            cand_rung[col] = next;
            let cand_impl =
                build_cluster_impl(nl, &partition, ci, &tables[ci], &ladders[ci], &cand_rung);
            let cand_cost = gate_cost(&cand_impl);
            if cand_cost >= cost_now[ci] {
                continue;
            }
            let candidate_rows = rows_with_column(&rows_now[ci], &ladders[ci][col][next].bits, col);
            // Bounded probe with the threshold as bound: a pruned
            // candidate's error provably exceeds the threshold, so
            // `None` takes the same branch a full probe would have.
            let report =
                evaluator.qor_probe_bounded(&mut probe, ci, &candidate_rows, METRIC, threshold);
            match report {
                Some(report) if report.value(METRIC) <= threshold => {
                    evaluator.commit(&mut probe, ci, &candidate_rows);
                    rows_now[ci] = candidate_rows;
                    rung[ci][col] = next;
                    cost_now[ci] = cand_cost;
                    moves += 1;
                }
                _ => break,
            }
        }
    }
    let qor = evaluator.qor_current();

    // Baseline: original cluster gates everywhere.
    let baseline_impls: Vec<ClusterImpl> = partition
        .clusters()
        .iter()
        .enumerate()
        .map(|(ci, c)| ClusterImpl::Replace(extract_cluster_netlist(nl, c, &format!("s{ci}_ref"))))
        .collect();
    let baseline_nl = substitute(nl, &partition, &baseline_impls).cleaned();
    let library = CellLibrary::typical_65nm();
    let baseline = estimate(&baseline_nl, &library);

    // Approximate design: committed rungs materialized per cluster.
    let approx_impls: Vec<ClusterImpl> = (0..partition.len())
        .map(|ci| {
            ClusterImpl::Replace(build_cluster_impl(
                nl,
                &partition,
                ci,
                &tables[ci],
                &ladders[ci],
                &rung[ci],
            ))
        })
        .collect();
    let approx_nl = substitute(nl, &partition, &approx_impls).cleaned();
    let approx = estimate(&approx_nl, &library);

    SalsaResult {
        baseline,
        approx,
        qor,
        moves,
    }
}

/// Build one cluster's replacement: original gates drive the columns
/// still exact; approximated columns are synthesized independently
/// (no cross-output sharing of approximations — SALSA's structural
/// limitation per the paper).
fn build_cluster_impl(
    nl: &Netlist,
    partition: &Partition,
    ci: usize,
    tt: &TruthTable,
    ladders: &[Vec<ColumnVariant>],
    rungs: &[usize],
) -> Netlist {
    let cluster = &partition.clusters()[ci];
    let k = tt.num_inputs();
    // Start from the original gates; `original` outputs y0..: exact
    // column implementations.
    let original = extract_cluster_netlist(nl, cluster, &format!("salsa_s{ci}"));
    let mut sub = Netlist::new(format!("salsa_s{ci}"));
    let inputs: Vec<NodeId> = (0..k).map(|i| sub.add_input(format!("x{i}"))).collect();
    // Inline the original gates.
    let mut map: Vec<Option<NodeId>> = vec![None; original.len()];
    for (i, &pi) in original.inputs().iter().enumerate() {
        map[pi.index()] = Some(inputs[i]);
    }
    for (oid, onode) in original.iter() {
        use blasys_logic::GateKind;
        if onode.kind() == GateKind::Input {
            continue;
        }
        let new = match onode.kind() {
            GateKind::Const0 => sub.constant(false),
            GateKind::Const1 => sub.constant(true),
            kind if kind.arity() == 1 => {
                let a = map[onode.fanin0().unwrap().index()].unwrap();
                sub.gate(kind, a, a)
            }
            kind => {
                let a = map[onode.fanin0().unwrap().index()].unwrap();
                let b = map[onode.fanin1().unwrap().index()].unwrap();
                sub.gate(kind, a, b)
            }
        };
        map[oid.index()] = Some(new);
    }
    for col in 0..tt.num_outputs() {
        let node = if rungs[col] == 0 {
            map[original.outputs()[col].node().index()].unwrap()
        } else {
            synthesize_column_best(&mut sub, &inputs, k, &ladders[col][rungs[col]])
        };
        sub.mark_output(format!("y{col}"), node);
    }
    sub.cleaned()
}

/// Replace one column of packed rows.
fn rows_with_column(rows: &[u16], bits: &[u64], col: usize) -> Vec<u16> {
    rows.iter()
        .enumerate()
        .map(|(r, &word)| {
            let bit = bits[r / 64] >> (r % 64) & 1;
            (word & !(1 << col)) | (bit as u16) << col
        })
        .collect()
}

/// The window columns SALSA may touch: only those driving primary
/// outputs — SALSA approximates each *output bit* individually and
/// never rewrites internal signals — ordered by ascending output
/// significance (least significant bits give up accuracy cheapest).
fn column_order(nl: &Netlist, partition: &Partition) -> Vec<(usize, usize)> {
    let mut po_index_of: std::collections::HashMap<blasys_logic::NodeId, usize> =
        Default::default();
    for (po_idx, o) in nl.outputs().iter().enumerate() {
        // Keep the lowest PO index when one node drives several.
        po_index_of.entry(o.node()).or_insert(po_idx);
    }
    let mut cols: Vec<(usize, usize, usize)> = Vec::new();
    for (ci, c) in partition.clusters().iter().enumerate() {
        for (col, n) in c.outputs().iter().enumerate() {
            if let Some(&po) = po_index_of.get(n) {
                cols.push((po, ci, col));
            }
        }
    }
    cols.sort_unstable();
    cols.into_iter().map(|(_, ci, col)| (ci, col)).collect()
}

/// Synthesize one column (best of SOP and Shannon), standalone per
/// column: SALSA does not share approximations across outputs.
fn synthesize_column_best(
    nl: &mut Netlist,
    inputs: &[NodeId],
    k: usize,
    variant: &ColumnVariant,
) -> NodeId {
    // Compare both mappings in scratch netlists, then instantiate the
    // winner in the real one.
    let tt = crate::ladder::variant_table(k, variant);
    let build = |use_shannon: bool| -> Netlist {
        let mut scratch = Netlist::new("scratch");
        let ins: Vec<NodeId> = (0..k).map(|i| scratch.add_input(format!("x{i}"))).collect();
        let node = if use_shannon {
            shannon_columns(&mut scratch, &ins, &tt)[0]
        } else {
            let sop = minimize_column(k, tt.column(0));
            map_sop(&mut scratch, &ins, &sop)
        };
        scratch.mark_output("y", node);
        scratch.cleaned()
    };
    let use_shannon = gate_cost(&build(true)) < gate_cost(&build(false));
    if use_shannon {
        shannon_columns(nl, inputs, &tt)[0]
    } else {
        let sop = minimize_column(k, tt.column(0));
        map_sop(nl, inputs, &sop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_circuits::{adder, multiplier};

    fn quick_cfg() -> SalsaConfig {
        SalsaConfig {
            mc: McConfig {
                samples: 2048,
                seed: 5,
            },
            ..SalsaConfig::default()
        }
    }

    #[test]
    fn stays_under_threshold() {
        let nl = adder(8);
        let r = run_salsa(&nl, &quick_cfg(), 0.05);
        assert!(r.qor.avg_relative <= 0.05 + 1e-12);
        assert!(r.moves > 0, "some approximation should be possible at 5%");
    }

    #[test]
    fn saves_area_at_generous_threshold() {
        let nl = multiplier(4);
        let r = run_salsa(&nl, &quick_cfg(), 0.25);
        assert!(
            r.approx.area_um2 < r.baseline.area_um2,
            "approx {} vs baseline {}",
            r.approx.area_um2,
            r.baseline.area_um2
        );
        assert!(r.area_savings_pct() > 0.0);
    }

    #[test]
    fn zero_threshold_changes_nothing_functionally() {
        let nl = adder(6);
        let r = run_salsa(&nl, &quick_cfg(), 0.0);
        assert_eq!(r.qor.avg_relative, 0.0);
    }

    #[test]
    fn higher_threshold_saves_at_least_as_much() {
        let nl = multiplier(4);
        let lo = run_salsa(&nl, &quick_cfg(), 0.05);
        let hi = run_salsa(&nl, &quick_cfg(), 0.25);
        assert!(hi.approx.area_um2 <= lo.approx.area_um2 + 1e-9);
    }
}

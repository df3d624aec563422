//! Factorization profiling (Algorithm 1, lines 3–10).
//!
//! For every subcircuit `s_i` with `m_i` outputs, profile every
//! factorization degree `f = 1 .. m_i − 1`: run BMF on the window's
//! truth table, record the approximate table `T_{si,f}`, synthesize
//! the compressor + decompressor netlist, and estimate its area (the
//! paper's design-metric model sums per-subcircuit areas during
//! exploration).

use std::sync::Arc;

use blasys_bmf::{metrics, Algebra, Algorithm, Factorization, Factorizer};
use blasys_decomp::{cluster_truth_table, extract_cluster_netlist, Partition};
use blasys_logic::{Netlist, TruthTable};
use blasys_obs::{Counter, Registry};
use blasys_par::Pool;
use blasys_synth::{estimate, synthesize_tt, CellLibrary};

use crate::flow::FlowError;
use crate::session::FlowContext;

/// One factorization degree of one subcircuit.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Factorization degree `f` (equals the output count for the exact
    /// variant).
    pub degree: usize,
    /// The approximate truth table `T_{si,f}` (packed rows).
    pub table_rows: Vec<u16>,
    /// Synthesized compressor + decompressor (or exact resynthesis for
    /// `f = m_i`).
    pub netlist: Netlist,
    /// Estimated area of the variant, µm².
    pub area_um2: f64,
    /// Estimated critical-path delay of the variant, ns (the same
    /// [`estimate()`] call that prices the area; exploration's depth
    /// axis sums these along the cluster DAG's longest path).
    pub delay_ns: f64,
    /// Local truth-table Hamming distance to the exact window.
    pub local_hamming: usize,
}

/// Per-subcircuit profile across every degree.
#[derive(Debug, Clone)]
pub struct SubcircuitProfile {
    /// Cluster index in the partition.
    pub cluster: usize,
    /// Window inputs `k_i`.
    pub num_inputs: usize,
    /// Window outputs `m_i`.
    pub num_outputs: usize,
    /// `variants[d]` holds degree `d + 1`; the last entry is the exact
    /// variant (`f = m_i`). A window without outputs (dead logic) has
    /// only its exact variant, at degree 0.
    pub variants: Vec<Variant>,
}

impl SubcircuitProfile {
    /// The variant at factorization degree `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` exceeds the output count, or is 0 for a window
    /// with outputs.
    pub fn variant(&self, f: usize) -> &Variant {
        assert!(
            f <= self.num_outputs && (f >= 1 || self.num_outputs == 0),
            "degree out of range"
        );
        &self.variants[f.max(1) - 1]
    }

    /// The exact variant (`f = m_i`).
    pub fn exact(&self) -> &Variant {
        self.variant(self.num_outputs)
    }
}

/// Options controlling profiling, derived from the session's
/// [`FlowConfig`](crate::session::FlowConfig) by
/// [`FlowSession::profile`](crate::session::FlowSession::profile).
#[derive(Debug, Clone)]
pub(crate) struct ProfileConfig {
    /// The factorizer (algorithm, algebra, weighting) to profile with.
    pub(crate) factorizer: Factorizer,
    /// Cell library for area estimation.
    pub(crate) library: CellLibrary,
    /// Per-cluster output weights for weighted-QoR factorization
    /// (`None` = uniform). Outer index: cluster.
    pub(crate) output_weights: Option<Vec<Vec<f64>>>,
    /// Also factorize each degree with the GreConD concept cover and
    /// keep whichever variant actually saves hardware.
    ///
    /// ASSO minimizes truth-table error without regard for the
    /// complexity of the factors, and its usage matrix `B` is often a
    /// high-entropy function that no synthesizer can compress — the
    /// exact problem the paper defers to future work as "literal-aware
    /// approximations". The hybrid rule makes that concrete: a variant
    /// whose synthesized area exceeds the exact subcircuit is useless,
    /// so among the candidate factorizations those smaller than exact
    /// are kept and the lowest-error one wins (falling back to the
    /// smallest one when none saves area).
    pub(crate) hybrid: bool,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            factorizer: Factorizer::new(),
            library: CellLibrary::typical_65nm(),
            output_weights: None,
            hybrid: true,
        }
    }
}

/// Profile every cluster of a partition (Algorithm 1, lines 3–10).
///
/// Windows are independent — each worker extracts its cluster's truth
/// table and reference netlist from the shared (read-only) inputs and
/// builds the full degree ladder — so they profile in parallel on
/// `pool`, with identical results at any worker count. Each completed
/// window is reported to the context's observer; profiling aborts
/// between windows when the context's token is tripped or its deadline
/// passes.
pub(crate) fn profile_partition_ctx(
    nl: &Netlist,
    partition: &Partition,
    cfg: &ProfileConfig,
    pool: &Pool,
    ctx: &FlowContext<'_>,
) -> Result<Vec<SubcircuitProfile>, FlowError> {
    let total = partition.len();
    let counters = ctx.registry.map(ProfileCounters::register);
    let window = |ci: usize, inner: &Pool| -> Option<SubcircuitProfile> {
        if ctx.cancelled() || ctx.expired() {
            return None;
        }
        ctx.window_start(ci);
        let cluster = &partition.clusters()[ci];
        let tt = cluster_truth_table(nl, cluster);
        let reference = extract_cluster_netlist(nl, cluster, &format!("s{ci}_ref"));
        let profile =
            profile_window_counted(ci, &tt, Some(reference), cfg, inner, counters.as_ref());
        ctx.window_profiled(&profile, total);
        Some(profile)
    };
    // Scheduling: with at least one window per worker, parallelize
    // across windows (coarse grains, inner BMF serial). With fewer
    // windows than workers, windows run serially and the parallelism
    // moves *inside* each window's BMF candidate scans. Factorizations
    // are bit-identical at any worker count, so both schedules produce
    // the same profiles.
    let profiles: Vec<Option<SubcircuitProfile>> = if total >= pool.threads() {
        pool.run(total, |ci| window(ci, Pool::serial()))
    } else {
        (0..total).map(|ci| window(ci, pool)).collect()
    };
    if profiles.iter().any(Option::is_none) {
        return Err(if ctx.cancelled() {
            FlowError::Cancelled
        } else {
            FlowError::BudgetExhausted
        });
    }
    Ok(profiles.into_iter().flatten().collect())
}

/// The candidate family a ladder rung's winner came from (the
/// `profile.winner.*` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// Output nulling on the exact netlist.
    Nulling,
    /// The configured factorizer with an ASSO algorithm (including
    /// exhaustive solves of small windows).
    Asso,
    /// A GreConD concept cover: the hybrid candidate, or the
    /// configured factorizer when its algorithm is GreConD.
    GreConD,
    /// The previous rung's winner truncated by one degree.
    Truncated,
}

/// `profile.*` selection counters, registered once per profile stage
/// when a metrics registry is attached. Both are deterministic: they
/// depend only on the ladders, never on worker count or timing.
pub(crate) struct ProfileCounters {
    /// `profile.winner.{nulling,asso,grecond,truncated}`: rungs won
    /// per candidate family.
    winners: [Arc<Counter>; 4],
    /// `profile.variants_synthesized`: approximate candidates
    /// synthesized and estimated by ladder selection.
    synthesized: Arc<Counter>,
}

impl ProfileCounters {
    pub(crate) fn register(registry: &Registry) -> ProfileCounters {
        ProfileCounters {
            winners: [
                registry.counter("profile.winner.nulling"),
                registry.counter("profile.winner.asso"),
                registry.counter("profile.winner.grecond"),
                registry.counter("profile.winner.truncated"),
            ],
            synthesized: registry.counter("profile.variants_synthesized"),
        }
    }
}

/// One approximate candidate of a ladder rung, before synthesis.
struct Candidate {
    family: Family,
    fac: Factorization,
    /// `Some(kept outputs)` for the output-nulling candidate, whose
    /// hardware is the exact netlist rather than a synthesized
    /// factorization.
    nulled: Option<u64>,
    local_hamming: usize,
}

/// Profile one window truth table at every degree, running the BMF
/// candidate scans on `pool` (see [`Factorizer::factorize_on`]; the
/// ladder is bit-identical at any worker count). `reference` is the
/// window's original gate-level logic: the exact variant uses it when
/// it is cheaper than a from-scratch resynthesis of the table (it
/// almost always is). Rung winners and synthesized candidates are
/// tallied on `counters` when given.
pub(crate) fn profile_window_counted(
    cluster: usize,
    tt: &TruthTable,
    reference: Option<Netlist>,
    cfg: &ProfileConfig,
    pool: &Pool,
    counters: Option<&ProfileCounters>,
) -> SubcircuitProfile {
    let k = tt.num_inputs();
    let m = tt.num_outputs();
    let matrix = table_to_matrix(tt);
    let weights = cfg
        .output_weights
        .as_ref()
        .and_then(|w| w.get(cluster))
        .cloned();
    let factorizer = match &weights {
        Some(w) => cfg.factorizer.clone().weights(w.clone()),
        None => cfg.factorizer.clone(),
    };

    // Exact variant first: its area gates the hybrid selection rule.
    // Prefer the original cluster gates over a from-scratch resynthesis
    // when they are cheaper (they almost always are).
    let resynth = synthesize_tt(tt, &format!("s{cluster}_exact"));
    let exact_netlist = match reference {
        Some(reference)
            if blasys_synth::gate_cost(&reference) < blasys_synth::gate_cost(&resynth) =>
        {
            reference
        }
        _ => resynth,
    };
    let exact_metrics = estimate(&exact_netlist, &cfg.library);
    let exact_area = exact_metrics.area_um2;

    // The configured factorizer, plus a GreConD concept cover under the
    // hybrid rule.
    let primary = match factorizer.algorithm_kind() {
        Algorithm::Asso => Family::Asso,
        Algorithm::GreConD => Family::GreConD,
    };
    let grecond = (cfg.hybrid
        && !matches!(factorizer.algebra_kind(), Algebra::Field)
        && primary != Family::GreConD)
        .then(|| factorizer.clone().algorithm(Algorithm::GreConD));

    // Build the ladder top-down (f = m−1 .. 1) so each degree can also
    // consider *truncating* the previous degree's choice — this keeps
    // the ladder area-monotone, which Algorithm 1's error-greedy
    // exploration implicitly relies on (its design-metric model sums
    // variant areas). A window without outputs has no rungs; degree 1
    // keeps its unused identity well-formed.
    let identity = Factorizer::new().factorize(&matrix, m.max(1));
    let mut chain_fac = identity.clone();
    let mut prev_area = exact_area;
    let mut prev_fac = identity;
    let mut variants_rev: Vec<Variant> = Vec::with_capacity(m);
    for f in (1..m).rev() {
        // Candidates in selection-index order; ties go to the lowest
        // index.
        let mut cands: Vec<Candidate> = Vec::with_capacity(4);
        let mut push = |family: Family, fac: Factorization, nulled: Option<u64>| {
            // A repeated factorization synthesizes to the same variant
            // as its earlier twin, so it can never win over it.
            if nulled.is_none() && cands.iter().any(|c| c.nulled.is_none() && c.fac == fac) {
                return;
            }
            let local_hamming = metrics::hamming(&fac.product(), &matrix);
            cands.push(Candidate {
                family,
                fac,
                nulled,
                local_hamming,
            });
        };

        // Output nulling on the reference implementation. The
        // identity-truncation chain keeps C rows as unit vectors, so
        // its hardware is exactly the exact netlist with the dropped
        // outputs tied to constant 0 — never larger than exact.
        chain_fac = blasys_bmf::truncated(&chain_fac, &matrix, weights.as_deref());
        if chain_fac.c().iter_rows().all(|r| r.count_ones() <= 1) {
            let kept: u64 = (0..f).fold(0u64, |acc, l| acc | chain_fac.c().row(l));
            push(Family::Nulling, chain_fac.clone(), Some(kept));
        }
        push(primary, factorizer.factorize_on(&matrix, f, pool), None);
        // On the exhaustive path the algorithm plays no part: GreConD
        // would return the primary factorization again.
        if let Some(fz) = grecond
            .as_ref()
            .filter(|fz| !fz.solves_exhaustively(&matrix, f))
        {
            push(Family::GreConD, fz.factorize_on(&matrix, f, pool), None);
        }
        push(
            Family::Truncated,
            blasys_bmf::truncated(&prev_fac, &matrix, weights.as_deref()),
            None,
        );

        // Selection: among candidates no larger than the previous rung,
        // lowest local error wins; otherwise fall back to the smallest.
        // Synthesize lazily in (error, index) order and stop at the
        // first candidate that fits — the lowest-error one that saves.
        let build = |c: &Candidate| -> (Netlist, f64, f64) {
            let netlist = match c.nulled {
                Some(kept) => with_nulled_outputs(&exact_netlist, kept),
                None => {
                    crate::approx::factorization_netlist(k, &c.fac, &format!("s{cluster}_f{f}"))
                }
            };
            let met = estimate(&netlist, &cfg.library);
            (netlist, met.area_um2, met.delay_ns)
        };
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by_key(|&i| cands[i].local_hamming);
        // Until a candidate saves, `pick` tracks the fallback: smallest
        // area, first index on ties.
        let mut pick: Option<(usize, (Netlist, f64, f64))> = None;
        let mut synthesized = 0;
        for &i in &order {
            let variant = build(&cands[i]);
            synthesized += 1;
            let saves = variant.1 <= prev_area;
            let smaller = pick
                .as_ref()
                .is_none_or(|(j, best)| variant.1.total_cmp(&best.1).then(i.cmp(j)).is_lt());
            if saves || smaller {
                pick = Some((i, variant));
            }
            if saves {
                break;
            }
        }
        let (winner, (netlist, area_um2, delay_ns)) =
            pick.expect("every rung has the primary candidate");
        let cand = cands.swap_remove(winner);
        if let Some(c) = counters {
            c.winners[cand.family as usize].inc();
            c.synthesized.add(synthesized);
        }
        variants_rev.push(Variant {
            degree: f,
            table_rows: crate::approx::factorization_rows(&cand.fac),
            netlist,
            area_um2,
            delay_ns,
            local_hamming: cand.local_hamming,
        });
        prev_area = area_um2.min(prev_area);
        prev_fac = cand.fac;
    }
    let mut variants: Vec<Variant> = variants_rev.into_iter().rev().collect();
    variants.push(Variant {
        degree: m,
        table_rows: (0..tt.rows()).map(|r| tt.row_value(r) as u16).collect(),
        netlist: exact_netlist,
        area_um2: exact_area,
        delay_ns: exact_metrics.delay_ns,
        local_hamming: 0,
    });
    if let Some(c) = cfg.factorizer.counters() {
        c.windows.inc();
    }
    SubcircuitProfile {
        cluster,
        num_inputs: k,
        num_outputs: m,
        variants,
    }
}

/// A copy of `base` with every output whose bit is clear in `kept`
/// replaced by constant 0 (then dead logic removed).
fn with_nulled_outputs(base: &Netlist, kept: u64) -> Netlist {
    use blasys_logic::GateKind;
    let mut out = Netlist::new(base.name().to_string());
    let mut map: Vec<Option<blasys_logic::NodeId>> = vec![None; base.len()];
    for (i, &pi) in base.inputs().iter().enumerate() {
        map[pi.index()] = Some(out.add_input(base.input_name(i).to_string()));
    }
    for (id, node) in base.iter() {
        if node.kind() == GateKind::Input {
            continue;
        }
        let new = match node.kind() {
            GateKind::Const0 => out.constant(false),
            GateKind::Const1 => out.constant(true),
            k if k.arity() == 1 => {
                let a = map[node.fanin0().unwrap().index()].unwrap();
                out.gate(k, a, a)
            }
            k => {
                let a = map[node.fanin0().unwrap().index()].unwrap();
                let b = map[node.fanin1().unwrap().index()].unwrap();
                out.gate(k, a, b)
            }
        };
        map[id.index()] = Some(new);
    }
    for (o, po) in base.outputs().iter().enumerate() {
        let driver = if kept >> o & 1 == 1 {
            map[po.node().index()].unwrap()
        } else {
            out.constant(false)
        };
        out.mark_output(po.name().to_string(), driver);
    }
    out.cleaned()
}

/// Convert a window truth table into the BMF input matrix `M`.
pub fn table_to_matrix(tt: &TruthTable) -> blasys_bmf::BoolMatrix {
    blasys_bmf::BoolMatrix::from_fn(tt.rows(), tt.num_outputs(), |r, c| tt.get(r, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_decomp::{decompose, DecompConfig};
    use blasys_logic::builder::{add, input_bus, mark_output_bus};
    use blasys_par::Parallelism;

    /// Every window's ladder, profiled at the default
    /// (`BLASYS_THREADS`) parallelism.
    fn profile_default(
        nl: &Netlist,
        part: &Partition,
        cfg: &ProfileConfig,
    ) -> Vec<SubcircuitProfile> {
        let pool = Pool::with_parallelism(Parallelism::default());
        profile_partition_ctx(nl, part, cfg, &pool, &FlowContext::NONE)
            .expect("no cancel token or deadline")
    }

    /// Test oracle for [`profile_window_counted`]: the eager
    /// per-rung selection it replaced. Every candidate (GreConD included,
    /// even where it repeats the exhaustive solve) is factorized,
    /// synthesized and estimated, then a stable sort keeps one. The lazy
    /// path must pick the same variant on every rung.
    fn profile_window_oracle(
        cluster: usize,
        tt: &TruthTable,
        reference: Option<Netlist>,
        cfg: &ProfileConfig,
        pool: &Pool,
    ) -> SubcircuitProfile {
        let k = tt.num_inputs();
        let m = tt.num_outputs();
        let matrix = table_to_matrix(tt);
        let factorizer = match cfg
            .output_weights
            .as_ref()
            .and_then(|w| w.get(cluster))
            .cloned()
        {
            Some(w) => cfg.factorizer.clone().weights(w),
            None => cfg.factorizer.clone(),
        };

        // Exact variant first: its area gates the hybrid selection rule.
        // Prefer the original cluster gates over a from-scratch resynthesis
        // when they are cheaper (they almost always are).
        let resynth = synthesize_tt(tt, &format!("s{cluster}_exact"));
        let exact_netlist = match reference {
            Some(reference)
                if blasys_synth::gate_cost(&reference) < blasys_synth::gate_cost(&resynth) =>
            {
                reference
            }
            _ => resynth,
        };
        let exact_metrics = estimate(&exact_netlist, &cfg.library);
        let exact_area = exact_metrics.area_um2;

        // Candidate factorizers for approximate degrees.
        let mut candidates: Vec<Factorizer> = vec![factorizer.clone()];
        if cfg.hybrid
            && !matches!(factorizer.algebra_kind(), Algebra::Field)
            && !matches!(factorizer.algorithm_kind(), Algorithm::GreConD)
        {
            candidates.push(factorizer.clone().algorithm(Algorithm::GreConD));
        }

        // Build the ladder top-down (f = m−1 .. 1) so each degree can also
        // consider *truncating* the previous degree's choice — this keeps
        // the ladder area-monotone, which Algorithm 1's error-greedy
        // exploration implicitly relies on (its design-metric model sums
        // variant areas).
        let weights_for_trunc = cfg
            .output_weights
            .as_ref()
            .and_then(|w| w.get(cluster))
            .cloned();
        let identity = Factorizer::new().factorize(&matrix, m);
        let mut chain_fac = identity.clone();
        let mut prev_area = exact_area;
        let mut prev_fac = identity;
        let mut variants_rev: Vec<Variant> = Vec::with_capacity(m);
        for f in (1..m).rev() {
            let mut built: Vec<(Variant, blasys_bmf::Factorization)> = Vec::new();

            // Candidate 0: output nulling on the reference implementation.
            // The identity-truncation chain keeps C rows as unit vectors,
            // so its hardware is exactly the exact netlist with the dropped
            // outputs tied to constant 0 — never larger than exact.
            chain_fac = blasys_bmf::truncated(&chain_fac, &matrix, weights_for_trunc.as_deref());
            if chain_fac.c().iter_rows().all(|r| r.count_ones() <= 1) {
                let kept: u64 = (0..f).fold(0u64, |acc, l| acc | chain_fac.c().row(l));
                let netlist = with_nulled_outputs(&exact_netlist, kept);
                let met = estimate(&netlist, &cfg.library);
                let local_hamming = metrics::hamming(&chain_fac.product(), &matrix);
                built.push((
                    Variant {
                        degree: f,
                        table_rows: crate::approx::factorization_rows(&chain_fac),
                        netlist,
                        area_um2: met.area_um2,
                        delay_ns: met.delay_ns,
                        local_hamming,
                    },
                    chain_fac.clone(),
                ));
            }

            let mut facs: Vec<blasys_bmf::Factorization> = candidates
                .iter()
                .map(|fz| fz.factorize_on(&matrix, f, pool))
                .collect();
            if prev_fac.degree() == f + 1 && f + 1 >= 2 {
                facs.push(blasys_bmf::truncated(
                    &prev_fac,
                    &matrix,
                    weights_for_trunc.as_deref(),
                ));
            }
            built.extend(facs.into_iter().map(|fac| {
                let rows = crate::approx::factorization_rows(&fac);
                let netlist =
                    crate::approx::factorization_netlist(k, &fac, &format!("s{cluster}_f{f}"));
                let met = estimate(&netlist, &cfg.library);
                let local_hamming = metrics::hamming(&fac.product(), &matrix);
                (
                    Variant {
                        degree: f,
                        table_rows: rows,
                        netlist,
                        area_um2: met.area_um2,
                        delay_ns: met.delay_ns,
                        local_hamming,
                    },
                    fac,
                )
            }));
            // Selection: among candidates no larger than the previous rung,
            // lowest local error wins; otherwise fall back to the smallest.
            built.sort_by(|(a, _), (b, _)| {
                let a_saves = a.area_um2 <= prev_area;
                let b_saves = b.area_um2 <= prev_area;
                b_saves.cmp(&a_saves).then_with(|| {
                    if a_saves && b_saves {
                        a.local_hamming.cmp(&b.local_hamming)
                    } else {
                        a.area_um2.partial_cmp(&b.area_um2).unwrap()
                    }
                })
            });
            let (variant, fac) = built.into_iter().next().expect("at least one candidate");
            prev_area = variant.area_um2.min(prev_area);
            prev_fac = fac;
            variants_rev.push(variant);
        }
        let mut variants: Vec<Variant> = variants_rev.into_iter().rev().collect();
        variants.push(Variant {
            degree: m,
            table_rows: (0..tt.rows()).map(|r| tt.row_value(r) as u16).collect(),
            netlist: exact_netlist,
            area_um2: exact_area,
            delay_ns: exact_metrics.delay_ns,
            local_hamming: 0,
        });
        if let Some(c) = cfg.factorizer.counters() {
            c.windows.inc();
        }
        SubcircuitProfile {
            cluster,
            num_inputs: k,
            num_outputs: m,
            variants,
        }
    }

    fn adder(width: usize) -> Netlist {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    #[test]
    fn profiles_cover_every_cluster_and_degree() {
        let nl = adder(6);
        let part = decompose(&nl, &DecompConfig::default());
        let profiles = profile_default(&nl, &part, &ProfileConfig::default());
        assert_eq!(profiles.len(), part.len());
        for (p, c) in profiles.iter().zip(part.clusters()) {
            assert_eq!(p.num_outputs, c.outputs().len());
            assert_eq!(p.variants.len(), p.num_outputs);
            for (d, v) in p.variants.iter().enumerate() {
                assert_eq!(v.degree, d + 1);
                assert_eq!(v.table_rows.len(), 1 << p.num_inputs);
                assert_eq!(v.netlist.num_inputs(), p.num_inputs);
                assert_eq!(v.netlist.num_outputs(), p.num_outputs);
            }
        }
    }

    #[test]
    fn exact_variant_has_zero_local_error() {
        let nl = adder(5);
        let part = decompose(&nl, &DecompConfig::default());
        let profiles = profile_default(&nl, &part, &ProfileConfig::default());
        for p in &profiles {
            assert_eq!(p.exact().local_hamming, 0);
            assert_eq!(p.exact().degree, p.num_outputs);
        }
    }

    #[test]
    fn local_error_nonincreasing_in_degree() {
        let nl = adder(6);
        let part = decompose(&nl, &DecompConfig::default());
        let profiles = profile_default(&nl, &part, &ProfileConfig::default());
        for p in &profiles {
            for w in p.variants.windows(2) {
                assert!(
                    w[1].local_hamming <= w[0].local_hamming,
                    "cluster {}: degree {} error {} vs degree {} error {}",
                    p.cluster,
                    w[1].degree,
                    w[1].local_hamming,
                    w[0].degree,
                    w[0].local_hamming
                );
            }
        }
    }

    #[test]
    fn profiles_identical_across_worker_counts_and_schedules() {
        // More workers than clusters pushes the parallelism inside the
        // per-window BMF scans; either schedule must reproduce the
        // serial profiles bit for bit.
        let mult8 = blasys_circuits::benchmark("Mult8")
            .expect("suite circuit")
            .build();
        for nl in [adder(5), mult8] {
            let part = decompose(&nl, &DecompConfig::default());
            let cfg = ProfileConfig::default();
            let profile = |pool: &Pool| {
                profile_partition_ctx(&nl, &part, &cfg, pool, &FlowContext::NONE).unwrap()
            };
            let serial = profile(Pool::serial());
            for threads in [2, part.len() + 3] {
                let par = profile(&Pool::new(threads));
                assert_eq!(serial.len(), par.len());
                for (s, p) in serial.iter().zip(&par) {
                    let label = format!("{} threads={threads}", nl.name());
                    assert_ladders_identical(&label, s, p);
                }
            }
        }
    }

    /// Asserts two ladders agree bit for bit: degrees, tables, area and
    /// delay bits, local error and gate counts.
    fn assert_ladders_identical(label: &str, want: &SubcircuitProfile, got: &SubcircuitProfile) {
        assert_eq!(want.variants.len(), got.variants.len(), "{label}");
        for (w, g) in want.variants.iter().zip(&got.variants) {
            let at = format!("{label} cluster {} f={}", want.cluster, w.degree);
            assert_eq!(w.degree, g.degree, "{at}");
            assert_eq!(w.table_rows, g.table_rows, "{at}");
            assert_eq!(w.area_um2.to_bits(), g.area_um2.to_bits(), "{at}");
            assert_eq!(w.delay_ns.to_bits(), g.delay_ns.to_bits(), "{at}");
            assert_eq!(w.local_hamming, g.local_hamming, "{at}");
            assert_eq!(w.netlist.gate_count(), g.netlist.gate_count(), "{at}");
        }
    }

    /// Profiles every window of `nl` with the eager oracle and with the
    /// lazy path at 1, 2 and 4 BMF workers; the ladders must match.
    fn assert_profiles_match_oracle(label: &str, nl: &Netlist, cfg: &ProfileConfig) {
        let part = decompose(nl, &DecompConfig::default());
        let pools = [Pool::new(1), Pool::new(2), Pool::new(4)];
        for (ci, cluster) in part.clusters().iter().enumerate() {
            let tt = cluster_truth_table(nl, cluster);
            let reference = extract_cluster_netlist(nl, cluster, &format!("s{ci}_ref"));
            let want = profile_window_oracle(ci, &tt, Some(reference.clone()), cfg, Pool::serial());
            for pool in &pools {
                let got = profile_window_counted(ci, &tt, Some(reference.clone()), cfg, pool, None);
                assert_ladders_identical(&format!("{label} {pool:?}"), &want, &got);
            }
        }
    }

    /// A random live netlist from a seeded script of two-input gates.
    fn random_netlist(seed: u64) -> Netlist {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut nl = Netlist::new("rand");
        let inputs = rng.gen_range(4usize..9);
        let mut nodes: Vec<_> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
        for _ in 0..rng.gen_range(20usize..90) {
            let a = nodes[rng.gen_range(0..nodes.len())];
            let b = nodes[rng.gen_range(0..nodes.len())];
            let g = match rng.gen_range(0u8..7) {
                0 => nl.and(a, b),
                1 => nl.or(a, b),
                2 => nl.xor(a, b),
                3 => nl.nand(a, b),
                4 => nl.nor(a, b),
                5 => nl.xnor(a, b),
                _ => nl.not(a),
            };
            nodes.push(g);
        }
        for o in 0..rng.gen_range(2usize..10) {
            let n = nodes[nodes.len() - 1 - (o * 5) % nodes.len().min(40)];
            nl.mark_output(format!("z{o}"), n);
        }
        nl.cleaned()
    }

    #[test]
    fn differential_random_netlists_match_the_eager_oracle() {
        for seed in 0..16 {
            let nl = random_netlist(seed);
            assert_profiles_match_oracle(&format!("seed {seed}"), &nl, &ProfileConfig::default());
            // Weighted factorization and the non-hybrid ladder.
            let part = decompose(&nl, &DecompConfig::default());
            let weighted = ProfileConfig {
                output_weights: Some(
                    part.clusters()
                        .iter()
                        .map(|c| metrics::value_weights(c.outputs().len()))
                        .collect(),
                ),
                hybrid: seed % 2 == 0,
                ..ProfileConfig::default()
            };
            assert_profiles_match_oracle(&format!("seed {seed} weighted"), &nl, &weighted);
        }
    }

    const TABLE1: [&str; 5] = ["Adder32", "Mult8", "BUT", "MAC", "SAD"];

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes unoptimized; CI runs it with --release"
    )]
    fn differential_table1_circuits_match_the_eager_oracle() {
        for name in TABLE1 {
            let nl = blasys_circuits::benchmark(name)
                .expect("suite circuit")
                .build();
            assert_profiles_match_oracle(name, &nl, &ProfileConfig::default());
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "minutes unoptimized; CI runs it with --release"
    )]
    fn differential_table1_blif_round_trips_match_the_eager_oracle() {
        use blasys_logic::blif::{from_blif, to_blif};
        for name in TABLE1 {
            let nl = blasys_circuits::benchmark(name)
                .expect("suite circuit")
                .build();
            let parsed = from_blif(&to_blif(&nl)).expect("round trip parses");
            assert_profiles_match_oracle(
                &format!("{name} (BLIF)"),
                &parsed,
                &ProfileConfig::default(),
            );
        }
    }

    #[test]
    fn window_counters_accumulate_during_profiling() {
        use blasys_bmf::FactorizeCounters;
        use std::sync::Arc;
        let nl = adder(4);
        let part = decompose(&nl, &DecompConfig::default());
        let registry = blasys_obs::Registry::default();
        let counters = Arc::new(FactorizeCounters::register(&registry));
        let cfg = ProfileConfig {
            factorizer: Factorizer::new().with_counters(counters),
            ..ProfileConfig::default()
        };
        let _ = profile_default(&nl, &part, &cfg);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("bmf.windows_factorized"),
            Some(part.len() as u64)
        );
        assert!(snap.counter("bmf.candidates_scored").unwrap() > 0);
    }

    #[test]
    fn winner_counters_tally_every_rung_deterministically() {
        let nl = adder(6);
        let part = decompose(&nl, &DecompConfig::default());
        let tally = |threads: usize| {
            let registry = blasys_obs::Registry::default();
            let ctx = FlowContext {
                registry: Some(&registry),
                ..FlowContext::NONE
            };
            let pool = Pool::new(threads);
            let profiles =
                profile_partition_ctx(&nl, &part, &ProfileConfig::default(), &pool, &ctx)
                    .expect("no cancel token or deadline");
            let snap = registry.snapshot();
            let wins: Vec<u64> = ["nulling", "asso", "grecond", "truncated"]
                .iter()
                .map(|family| snap.counter(&format!("profile.winner.{family}")).unwrap())
                .collect();
            let rungs: usize = profiles.iter().map(|p| p.num_outputs - 1).sum();
            assert_eq!(
                wins.iter().sum::<u64>(),
                rungs as u64,
                "one winner per rung"
            );
            let synthesized = snap.counter("profile.variants_synthesized").unwrap();
            assert!(synthesized >= rungs as u64, "every winner was synthesized");
            (wins, synthesized)
        };
        assert_eq!(tally(1), tally(3));
    }

    #[test]
    fn variant_netlist_realizes_its_table() {
        let nl = adder(4);
        let part = decompose(&nl, &DecompConfig::default());
        let profiles = profile_default(&nl, &part, &ProfileConfig::default());
        for p in &profiles {
            for v in &p.variants {
                let tt = TruthTable::from_netlist(&v.netlist);
                for row in 0..tt.rows() {
                    assert_eq!(
                        tt.row_value(row) as u16,
                        v.table_rows[row],
                        "cluster {} f={} row {}",
                        p.cluster,
                        v.degree,
                        row
                    );
                }
            }
        }
    }
}

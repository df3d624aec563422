//! Design-space exploration engines over the probe substrate.
//!
//! The paper's Algorithm 1 (lines 12–22) walks a single greedy
//! lowest-error trajectory: starting from the exact circuit
//! (`f_i = m_i` everywhere), each iteration probes, for every
//! subcircuit still above degree 1, the whole-circuit QoR if that
//! subcircuit's degree dropped by one, and commits the smallest error
//! increase. That walk is still the default, but the probe engine made
//! candidate evaluation cheap enough to afford better search, so the
//! exploration stage is pluggable via [`Explorer`]:
//!
//! * [`Explorer::Greedy`] — the paper's walk, kept verbatim as the
//!   reference implementation (and the differential oracle for the
//!   beam engine's k = 1 degenerate case).
//! * [`Explorer::Beam`] — k committed frontiers advance in lock-step;
//!   every frontier branch probes all its candidates, the pooled
//!   expansions are ranked deterministically by (error, branch index,
//!   cluster index), and the best k feasible, *distinct* children
//!   become the next frontier. Branch evaluators are clones of one
//!   pristine evaluator that share the immutable sampled model
//!   (stimulus, golden outputs — see [`Evaluator`]'s `Arc` sharing)
//!   and duplicate only per-branch committed values; the gate-level
//!   netlist is never cloned per branch. With `width == 1` the
//!   ranking degenerates to greedy's (error, cluster) order and the
//!   trajectory is **bit-identical** to [`Explorer::Greedy`].
//! * [`Explorer::Anneal`] — seeded simulated annealing over the
//!   degree lattice: random single-degree moves (down *or* up),
//!   feasibility-gated by the stop threshold, accepted by the
//!   Metropolis rule under a geometric temperature schedule. The
//!   inner loop is strictly serial and every RNG draw derives from
//!   [`AnnealSchedule::seed`], so runs are reproducible and
//!   independent of the worker count by construction.
//! * [`Explorer::Pareto3`] — multi-objective mode: commits exactly
//!   the greedy walk while archiving **every** completed candidate
//!   probe as an (error, area, depth) point, and distills the archive
//!   into a 3-D Pareto surface ([`crate::pareto::pareto_front3`])
//!   returned via [`Exploration::pareto_surface`]. The depth axis is
//!   the cluster-DAG longest path over per-variant estimated delays
//!   ([`TableNetwork::model_depth_ns`]).
//!
//! All engines run through the same session context: they stop at
//! committed-step boundaries on cancellation, wall or probe budgets
//! (so truncated trajectories are exact prefixes), stream committed
//! points through the [`FlowObserver`](crate::session::FlowObserver),
//! and tally `explore.*` counters on an attached metrics registry.
//!
//! # Parallel candidate sweep
//!
//! The per-step candidate probes are independent `&self` reads of the
//! shared evaluator model (see [`crate::montecarlo`]), so they run on
//! the session's [`Pool`] — one reusable
//! [`ProbeState`](crate::montecarlo::ProbeState) per worker. The
//! winner is reduced deterministically (lowest error, then lowest
//! branch, then lowest cluster index), which makes every trajectory
//! **bit-identical** for every
//! [`Parallelism`](blasys_par::Parallelism) setting: the serial path
//! is the same computation with one worker.
//!
//! # Bound-pruned probes
//!
//! With [`ExploreSpec::prune`] on (the default), the sweep threads a
//! best-so-far bound through the candidate probes: each completed
//! probe lowers a shared monotone bound (seeded with the stop
//! threshold), and every in-flight probe abandons block-wise the
//! moment a lower bound on its final error exceeds it
//! ([`Evaluator::qor_probe_bounded`]). That lower bound counts the
//! error the committed design already has on the lanes the candidate
//! cannot change, plus the exact error of the lanes it still has cached
//! from earlier steps (see the cross-step reuse section of
//! [`crate::montecarlo`]), so a candidate is judged on the error it
//! *adds*, not just on the prefix it has accumulated. Each sweep probes
//! the candidates with the lowest error at the last step first, and
//! starts every worker on one of them, so the bound tightens early.
//! Greedy, pareto3 and beam sweeps reuse cached lanes whether or not
//! they prune. This is a pure wall-clock
//! optimization — the committed trajectory is **bit-identical** with
//! pruning on or off, at any worker count, because:
//!
//! * a pruned candidate's final error is strictly above the bound,
//!   hence strictly above the step winner's error — it could never
//!   have won;
//! * the comparison is strict, so candidates tying the bound (and the
//!   winner itself) always run to completion, preserving the
//!   lowest-index tie-break;
//! * which *losers* get pruned may vary with thread timing, but
//!   losers contribute nothing to the trajectory;
//! * when the bound is seeded by the stop threshold and *every*
//!   candidate is pruned, the unpruned sweep's minimum would also have
//!   exceeded the threshold — both paths stop at the same step.
//!
//! Beam search keeps the `width` best distinct children, so it
//! tightens its bound to the `width`-th smallest error among the
//! *distinct* feasible child designs that have finished probing
//! (greedy's running minimum at `width == 1`): an expansion strictly
//! worse than `width` distinct finished children ranks behind all of
//! them and can never be kept, whichever lineage reaches them. Ties
//! survive, so the kept set and its rank order are the unpruned ones. Pareto3 must archive every feasible candidate, so
//! it keeps its bound **fixed at the stop threshold**: its surviving
//! probe set is exactly `{error ≤ threshold}` regardless of thread
//! timing. Annealing gates on the threshold alone.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use blasys_par::Pool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::montecarlo::{Evaluator, ProbeCache, TableNetwork};
use crate::pareto::{pareto_front3, TradeoffPoint};
use crate::profile::SubcircuitProfile;
use crate::qor::{QorMetric, QorReport};
use crate::session::{Exploration, ExploreSpec, FlowContext, StopReason};

/// When exploration stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCriterion {
    /// Stop as soon as the driving metric would exceed this threshold
    /// (the paper's Algorithm 1 condition).
    ErrorThreshold(f64),
    /// Walk the full trajectory down to `f_i = 1` everywhere
    /// (used to draw the Figure 5 trade-off curves).
    Exhaust,
}

/// Cooling schedule for [`Explorer::Anneal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealSchedule {
    /// Number of proposed moves (each costs one candidate probe).
    pub steps: usize,
    /// Initial temperature, in units of normalized model area.
    pub t0: f64,
    /// Geometric cooling factor per proposed move (`T_i = t0·c^i`).
    pub cooling: f64,
    /// RNG seed. `None` derives the seed from the session's
    /// Monte-Carlo stimulus seed ([`McConfig::seed`]).
    ///
    /// [`McConfig::seed`]: crate::montecarlo::McConfig::seed
    pub seed: Option<u64>,
}

impl Default for AnnealSchedule {
    fn default() -> AnnealSchedule {
        AnnealSchedule {
            steps: 256,
            t0: 0.05,
            cooling: 0.98,
            seed: None,
        }
    }
}

/// The search engine driving an exploration. See the [module
/// docs](self) for what each engine guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Explorer {
    /// The paper's greedy lowest-error walk (the default).
    #[default]
    Greedy,
    /// Beam search over `width` committed frontiers. `width == 1` is
    /// bit-identical to [`Explorer::Greedy`].
    Beam {
        /// Frontier width `k` (must be ≥ 1).
        width: usize,
    },
    /// Seeded simulated annealing over the degree lattice.
    Anneal(AnnealSchedule),
    /// Greedy walk + 3-D (error, area, depth) Pareto archive of every
    /// feasible candidate probe.
    Pareto3,
}

/// One committed step of the exploration.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    /// Step index (0 = exact starting point).
    pub step: usize,
    /// Cluster whose degree changed at this step (`None` for the
    /// starting point). Greedy, beam, and pareto3 only ever decrement;
    /// annealing may also re-increment a degree. For beam widths > 1
    /// the point records the *frontier leader*, whose parent need not
    /// be the previous point.
    pub changed_cluster: Option<usize>,
    /// Factorization degree per cluster after the step.
    pub degrees: Vec<usize>,
    /// Whole-circuit QoR after the step.
    pub qor: QorReport,
    /// Modeled area: sum of the active variants' areas (the paper's
    /// exploration-time design-metric model), µm².
    pub model_area_um2: f64,
    /// Modeled depth: longest path through the cluster DAG, charging
    /// each cluster its active variant's estimated delay, ns.
    pub model_depth_ns: f64,
}

/// Sum of the active variants' areas, µm² (the paper's
/// exploration-time design-metric model).
fn model_area(profiles: &[SubcircuitProfile], degrees: &[usize]) -> f64 {
    profiles
        .iter()
        .zip(degrees)
        .map(|(p, &f)| p.variant(f).area_um2)
        .sum()
}

/// Longest-path depth of the cluster DAG under the active variants'
/// estimated delays, ns.
fn model_depth(profiles: &[SubcircuitProfile], network: &TableNetwork, degrees: &[usize]) -> f64 {
    let delays: Vec<f64> = profiles
        .iter()
        .zip(degrees)
        .map(|(p, &f)| p.variant(f).delay_ns)
        .collect();
    network.model_depth_ns(&delays)
}

/// Task order of a sweep over candidates whose errors are guessed as
/// `guess` (task `t` probes candidate `order[t]`): the candidates are
/// ranked by guess, ties by index, and dealt round-robin into the
/// contiguous task ranges the pool seeds its workers with, so every
/// worker starts on one of the best guesses and the shared prune bound
/// tightens early. Results are put back in candidate order, so the
/// order decides only which losers get pruned, never the outcome.
fn sweep_order(guess: &[f64], workers: usize) -> Vec<usize> {
    let len = guess.len();
    let mut ranked: Vec<usize> = (0..len).collect();
    ranked.sort_by(|&a, &b| guess[a].total_cmp(&guess[b]));
    let workers = workers.clamp(1, len.max(1));
    let end = |w: usize| len * (w + 1) / workers;
    let mut next: Vec<usize> = (0..workers).map(|w| len * w / workers).collect();
    let mut order = vec![0; len];
    let mut w = 0;
    for c in ranked {
        while next[w] == end(w) {
            w = (w + 1) % workers;
        }
        order[next[w]] = c;
        next[w] += 1;
        w = (w + 1) % workers;
    }
    order
}

/// Run `probe(state, i)` for every candidate `i` in `0..guess.len()`
/// on `pool`, in [`sweep_order`], and return the results in candidate
/// order.
fn sweep<S: Send, R: Send>(
    pool: &Pool,
    states: &mut [S],
    guess: &[f64],
    probe: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let order = sweep_order(guess, pool.threads());
    let mut results: Vec<(usize, R)> = order
        .iter()
        .copied()
        .zip(pool.run_states(order.len(), states, |state, t| probe(state, order[t])))
        .collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// The exploration core behind
/// [`FlowSession::explore`](crate::session::FlowSession::explore):
/// dispatches to the configured [`Explorer`] engine, runs candidate
/// sweeps on `pool` (one probe state per worker), streams committed
/// points through the context's observer, and stops at step boundaries
/// on cancellation or an exceeded budget — so a truncated trajectory
/// is always a prefix of the uninterrupted one.
pub(crate) fn explore_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    spec: &ExploreSpec,
    pool: &Pool,
    ctx: &FlowContext<'_>,
) -> Exploration {
    match spec.explorer {
        Explorer::Greedy => greedy_ctx(evaluator, profiles, spec, pool, ctx, None),
        Explorer::Beam { width } => beam_ctx(evaluator, profiles, spec, width, pool, ctx),
        Explorer::Anneal(schedule) => anneal_ctx(evaluator, profiles, spec, schedule, ctx),
        Explorer::Pareto3 => {
            let mut archive = Vec::new();
            let mut exploration =
                greedy_ctx(evaluator, profiles, spec, pool, ctx, Some(&mut archive));
            exploration.pareto = Some(pareto_front3(&archive));
            exploration
        }
    }
}

/// The paper's greedy walk (the `Explorer::Greedy` engine), kept as
/// the reference implementation the beam engine's k = 1 case is
/// differentially tested against.
///
/// With `archive` supplied (the `Explorer::Pareto3` engine), every
/// feasible completed candidate probe is also recorded as an (error,
/// area, depth) trade-off point; the bound then stays fixed at the
/// stop threshold instead of tightening (see the module docs), so the
/// archived set is `{error ≤ threshold}` at any worker count.
fn greedy_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    spec: &ExploreSpec,
    pool: &Pool,
    ctx: &FlowContext<'_>,
    mut archive: Option<&mut Vec<TradeoffPoint>>,
) -> Exploration {
    let n = profiles.len();
    let mut degrees: Vec<usize> = profiles.iter().map(|p| p.num_outputs).collect();
    let base_area = model_area(profiles, &degrees).max(f64::MIN_POSITIVE);

    let mut trajectory = Vec::new();
    let depth0 = model_depth(profiles, evaluator.network(), &degrees);
    trajectory.push(TrajectoryPoint {
        step: 0,
        changed_cluster: None,
        degrees: degrees.clone(),
        qor: evaluator.qor_current(),
        model_area_um2: model_area(profiles, &degrees),
        model_depth_ns: depth0,
    });
    ctx.trajectory_point(&trajectory[0]);
    if let Some(archive) = archive.as_deref_mut() {
        let p = &trajectory[0];
        archive.push(TradeoffPoint {
            error: p.qor.value(spec.metric),
            area_um2: p.model_area_um2,
            norm_area: p.model_area_um2 / base_area,
            depth_ns: p.model_depth_ns,
            step: 0,
        });
    }

    let threshold = match spec.stop {
        StopCriterion::ErrorThreshold(t) => t,
        StopCriterion::Exhaust => f64::INFINITY,
    };

    // One probe overlay per worker, reused across every step (epoch
    // stamping makes reuse across commits sound — see `ProbeState`).
    let mut probe_states: Vec<_> = (0..pool.threads().min(n).max(1))
        .map(|_| evaluator.probe_state())
        .collect();
    // What every window's candidate showed at earlier steps, kept
    // across steps and invalidated by each commit.
    let mut cache = ProbeCache::new(evaluator);
    // Each window's candidate error at the last sweep that finished it
    // (+∞ when unknown or pruned): the sweep order's guess at the next
    // winner.
    let mut last_err = vec![f64::INFINITY; n];

    let mut step = 0usize;
    let mut probes_done = 0u64;
    let stop_reason = loop {
        if ctx.cancelled() {
            break StopReason::Cancelled;
        }
        if ctx.expired() {
            break StopReason::WallBudget;
        }
        // Candidates: clusters whose degree can still drop. Probe all
        // of them concurrently against the shared committed model and
        // reduce deterministically: lowest error wins, ties broken by
        // the lowest cluster index — exactly the order the serial scan
        // would have kept, so the trajectory does not depend on the
        // worker count.
        let candidates: Vec<usize> = (0..n).filter(|&ci| degrees[ci] > 1).collect();
        if candidates.is_empty() {
            break StopReason::Exhausted;
        }
        // The probe budget is checked against the *whole* upcoming
        // sweep, so capped runs are deterministic: a step either runs
        // all its candidates or does not start.
        if let Some(max) = spec.budget.max_probes {
            if probes_done + candidates.len() as u64 > max {
                break StopReason::ProbeBudget;
            }
        }
        // Shared monotone bound for pruned probes: the threshold to
        // start with, lowered to the best completed candidate's error
        // as probes finish. Stored as non-negative f64 bits (their
        // unsigned order matches the float order), so workers can
        // `fetch_min` it without locking. Timing only decides which
        // *losers* get pruned early — never who wins. In archive
        // (pareto3) mode the bound stays at the threshold so the set
        // of completed probes is timing-independent.
        // With pruning off the bound stays at +∞.
        let tighten = spec.prune && archive.is_none();
        let bound = AtomicU64::new(if spec.prune { threshold } else { f64::INFINITY }.to_bits());
        let guess: Vec<f64> = candidates.iter().map(|&ci| last_err[ci]).collect();
        let probes: Vec<Option<(f64, usize, QorReport)>> =
            sweep(pool, &mut probe_states, &guess, |state, i| {
                let ci = candidates[i];
                let rows = &profiles[ci].variant(degrees[ci] - 1).table_rows;
                // The bound is re-read before every block's prune
                // check, so in-flight probes see tightening from peers
                // that completed after they launched.
                let report =
                    evaluator.qor_probe_reusing(state, &cache, ci, rows, spec.metric, || {
                        f64::from_bits(bound.load(Ordering::Relaxed))
                    })?;
                let err = report.value(spec.metric);
                if tighten {
                    bound.fetch_min(err.to_bits(), Ordering::Relaxed);
                }
                Some((err, ci, report))
            });
        probes_done += candidates.len() as u64;
        for (&ci, probe) in candidates.iter().zip(&probes) {
            last_err[ci] = probe.as_ref().map_or(f64::INFINITY, |p| p.0);
        }
        if let Some(archive) = archive.as_deref_mut() {
            // Deterministic archive order: candidate index order, with
            // probes that ran past the threshold (pruned or completed)
            // filtered the same way on both prune paths.
            for probe in probes.iter().flatten() {
                let (err, ci, _) = probe;
                if *err <= threshold {
                    let mut cand = degrees.clone();
                    cand[*ci] -= 1;
                    let area = model_area(profiles, &cand);
                    archive.push(TradeoffPoint {
                        error: *err,
                        area_um2: area,
                        norm_area: area / base_area,
                        depth_ns: model_depth(profiles, evaluator.network(), &cand),
                        step: step + 1,
                    });
                }
            }
        }
        let best = probes
            .into_iter()
            .flatten()
            .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let Some((err, ci, report)) = best else {
            // Every candidate was pruned past the stop threshold — the
            // unpruned minimum would also have exceeded it.
            break StopReason::ThresholdReached;
        };
        if err > threshold {
            break StopReason::ThresholdReached; // next step would cross it
        }
        degrees[ci] -= 1;
        evaluator.commit_reusing(
            &mut probe_states[0],
            &mut cache,
            ci,
            &profiles[ci].variant(degrees[ci]).table_rows,
        );
        last_err[ci] = f64::INFINITY;
        step += 1;
        ctx.count("explore.branches", 1);
        ctx.count("explore.frontier_size", 1);
        let depth = model_depth(profiles, evaluator.network(), &degrees);
        trajectory.push(TrajectoryPoint {
            step,
            changed_cluster: Some(ci),
            degrees: degrees.clone(),
            qor: report,
            model_area_um2: model_area(profiles, &degrees),
            model_depth_ns: depth,
        });
        ctx.trajectory_point(trajectory.last().expect("just pushed"));
    };
    Exploration {
        trajectory,
        stop: stop_reason,
        probes: probes_done,
        pareto: None,
    }
}

/// One committed frontier of the beam engine: a branch evaluator
/// (sharing the pristine evaluator's sampled model, owning only its
/// committed values) plus its degree vector, its lane cache and its
/// candidates' last probed errors (see `greedy_ctx`). A child starts
/// from a copy of its parent's.
#[derive(Clone)]
struct Branch {
    evaluator: Evaluator,
    degrees: Vec<usize>,
    cache: ProbeCache,
    last_err: Vec<f64>,
}

/// The `Explorer::Beam` engine: k committed frontiers advance in
/// lock-step; see the [module docs](self) for the ranking and
/// determinism contract. The recorded trajectory is the per-step
/// frontier leader (rank 0), which makes truncated runs exact
/// prefixes and reduces to the greedy walk at `width == 1`.
fn beam_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    spec: &ExploreSpec,
    width: usize,
    pool: &Pool,
    ctx: &FlowContext<'_>,
) -> Exploration {
    assert!(width >= 1, "beam width must be at least 1");
    let n = profiles.len();
    let exact: Vec<usize> = profiles.iter().map(|p| p.num_outputs).collect();

    let mut trajectory = Vec::new();
    let depth0 = model_depth(profiles, evaluator.network(), &exact);
    trajectory.push(TrajectoryPoint {
        step: 0,
        changed_cluster: None,
        degrees: exact.clone(),
        qor: evaluator.qor_current(),
        model_area_um2: model_area(profiles, &exact),
        model_depth_ns: depth0,
    });
    ctx.trajectory_point(&trajectory[0]);

    let threshold = match spec.stop {
        StopCriterion::ErrorThreshold(t) => t,
        StopCriterion::Exhaust => f64::INFINITY,
    };

    // Probe overlays are shape-compatible across branches (every
    // branch evaluator clones the same network layout), so one set
    // serves the whole frontier's pooled sweep.
    let max_expansions = width.saturating_mul(n);
    let mut probe_states: Vec<_> = (0..pool.threads().min(max_expansions).max(1))
        .map(|_| evaluator.probe_state())
        .collect();

    let mut frontier: Vec<Branch> = vec![Branch {
        cache: ProbeCache::new(evaluator),
        evaluator: evaluator.clone(),
        degrees: exact,
        last_err: vec![f64::INFINITY; n],
    }];

    let mut step = 0usize;
    let mut probes_done = 0u64;
    let stop_reason = loop {
        if ctx.cancelled() {
            break StopReason::Cancelled;
        }
        if ctx.expired() {
            break StopReason::WallBudget;
        }
        // Pooled expansions, branch-major then cluster order. Every
        // branch carries the same total degree (each step replaces the
        // frontier with one-step children), so all branches exhaust on
        // the same step.
        let expansions: Vec<(usize, usize)> = frontier
            .iter()
            .enumerate()
            .flat_map(|(b, branch)| {
                (0..n)
                    .filter(move |&ci| branch.degrees[ci] > 1)
                    .map(move |ci| (b, ci))
            })
            .collect();
        if expansions.is_empty() {
            break StopReason::Exhausted;
        }
        // Child design of every expansion, as the index of the first
        // expansion reaching the same degree vector (two branches can
        // converge on one design).
        let mut first_seen: HashMap<Vec<usize>, usize> = HashMap::new();
        let designs: Vec<usize> = expansions
            .iter()
            .enumerate()
            .map(|(i, &(b, ci))| {
                let mut child = frontier[b].degrees.clone();
                child[ci] -= 1;
                *first_seen.entry(child).or_insert(i)
            })
            .collect();
        // Whole-sweep probe-budget check, like greedy: a step either
        // probes every expansion or does not start.
        if let Some(max) = spec.budget.max_probes {
            if probes_done + expansions.len() as u64 > max {
                break StopReason::ProbeBudget;
            }
        }
        ctx.count("explore.frontier_size", frontier.len() as u64);
        // Bound: the threshold to start with, then, once `width`
        // distinct child designs have finished feasibly, the largest
        // of their errors (the width-th smallest seen so far). An
        // expansion strictly worse than `width` distinct finished
        // children ranks behind all of them and cannot be kept, so
        // only strict losers are pruned (see the module docs). At
        // width == 1 this is greedy's running minimum. With pruning
        // off it stays at +∞.
        let bound = AtomicU64::new(if spec.prune { threshold } else { f64::INFINITY }.to_bits());
        // Buffers are sized by the expansions, never by `width` alone:
        // a width past the design count keeps every feasible child.
        let best_designs: Mutex<Vec<(f64, usize)>> =
            Mutex::new(Vec::with_capacity(width.min(expansions.len()) + 1));
        let frontier_ref = &frontier;
        let guess: Vec<f64> = expansions
            .iter()
            .map(|&(b, ci)| frontier[b].last_err[ci])
            .collect();
        let probes: Vec<Option<(f64, QorReport)>> =
            sweep(pool, &mut probe_states, &guess, |state, i| {
                let (b, ci) = expansions[i];
                let branch = &frontier_ref[b];
                let rows = &profiles[ci].variant(branch.degrees[ci] - 1).table_rows;
                let report = branch.evaluator.qor_probe_reusing(
                    state,
                    &branch.cache,
                    ci,
                    rows,
                    spec.metric,
                    || f64::from_bits(bound.load(Ordering::Relaxed)),
                )?;
                let err = report.value(spec.metric);
                if spec.prune && err <= threshold {
                    let mut best = best_designs.lock().unwrap_or_else(PoisonError::into_inner);
                    match best.iter_mut().find(|(_, d)| *d == designs[i]) {
                        Some(entry) => entry.0 = entry.0.min(err),
                        None => best.push((err, designs[i])),
                    }
                    best.sort_by(|a, b| a.0.total_cmp(&b.0));
                    best.truncate(width);
                    if best.len() == width {
                        bound.fetch_min(best[width - 1].0.to_bits(), Ordering::Relaxed);
                    }
                }
                Some((err, report))
            });
        probes_done += expansions.len() as u64;
        for (&(b, ci), probe) in expansions.iter().zip(&probes) {
            frontier[b].last_err[ci] = probe.as_ref().map_or(f64::INFINITY, |p| p.0);
        }
        // Deterministic ranking: (error, branch index, cluster index).
        // Expansions are already in (branch, cluster) order, so a
        // stable sort by error alone realizes exactly that — and at
        // width == 1 it degenerates to greedy's (error, cluster) order.
        let mut scored: Vec<(f64, usize, usize, usize, QorReport)> = probes
            .into_iter()
            .zip(expansions.iter().zip(&designs))
            .filter_map(|(p, (&(b, ci), &design))| {
                p.map(|(err, report)| (err, design, b, ci, report))
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let Some(leader) = scored.first() else {
            // Every expansion was pruned past the stop threshold.
            break StopReason::ThresholdReached;
        };
        if leader.0 > threshold {
            break StopReason::ThresholdReached;
        }
        // Keep the best `width` feasible children with distinct degree
        // vectors (two branches can converge on the same design; the
        // better-ranked lineage wins).
        let mut seen: HashSet<usize> = HashSet::new();
        let mut kept: Vec<(f64, usize, usize, QorReport)> =
            Vec::with_capacity(width.min(scored.len()));
        for (err, design, b, ci, report) in scored {
            if err > threshold || kept.len() == width {
                break;
            }
            if seen.insert(design) {
                kept.push((err, b, ci, report));
            }
        }
        ctx.count("explore.branches", kept.len() as u64);
        // Build the next frontier in rank order, moving each parent
        // evaluator into its last selected child and cloning for the
        // rest (clones share the sampled model — see `Evaluator`).
        let mut remaining = vec![0usize; frontier.len()];
        for &(_, b, _, _) in &kept {
            remaining[b] += 1;
        }
        // A parent with no kept child is dropped before any child is
        // built, so its evaluator and lane cache do not add to the
        // peak.
        let mut parents: Vec<Option<Branch>> = frontier
            .into_iter()
            .zip(&remaining)
            .map(|(branch, &r)| (r > 0).then_some(branch))
            .collect();
        let mut next: Vec<Branch> = Vec::with_capacity(kept.len());
        let mut leader_point: Option<(usize, QorReport)> = None;
        for (rank, (_, b, ci, report)) in kept.into_iter().enumerate() {
            remaining[b] -= 1;
            let mut branch = if remaining[b] == 0 {
                parents[b].take().expect("parent still present")
            } else {
                parents[b].as_ref().expect("parent still present").clone()
            };
            branch.degrees[ci] -= 1;
            branch.evaluator.commit_reusing(
                &mut probe_states[0],
                &mut branch.cache,
                ci,
                &profiles[ci].variant(branch.degrees[ci]).table_rows,
            );
            branch.last_err[ci] = f64::INFINITY;
            if rank == 0 {
                leader_point = Some((ci, report));
            }
            next.push(branch);
        }
        frontier = next;
        step += 1;
        let (ci, report) = leader_point.expect("kept is non-empty");
        let leader = &frontier[0];
        let depth = model_depth(profiles, leader.evaluator.network(), &leader.degrees);
        trajectory.push(TrajectoryPoint {
            step,
            changed_cluster: Some(ci),
            degrees: leader.degrees.clone(),
            qor: report,
            model_area_um2: model_area(profiles, &leader.degrees),
            model_depth_ns: depth,
        });
        ctx.trajectory_point(trajectory.last().expect("just pushed"));
    };
    Exploration {
        trajectory,
        stop: stop_reason,
        probes: probes_done,
        pareto: None,
    }
}

/// The `Explorer::Anneal` engine: strictly serial Metropolis search
/// over the degree lattice. Serial execution plus a single seeded RNG
/// stream makes runs reproducible and worker-count independent by
/// construction; each proposed move costs exactly one candidate probe,
/// so probe budgets truncate at exact move boundaries.
fn anneal_ctx(
    evaluator: &mut Evaluator,
    profiles: &[SubcircuitProfile],
    spec: &ExploreSpec,
    schedule: AnnealSchedule,
    ctx: &FlowContext<'_>,
) -> Exploration {
    let n = profiles.len();
    let mut degrees: Vec<usize> = profiles.iter().map(|p| p.num_outputs).collect();
    let base_area = model_area(profiles, &degrees).max(f64::MIN_POSITIVE);

    let mut trajectory = Vec::new();
    let depth0 = model_depth(profiles, evaluator.network(), &degrees);
    trajectory.push(TrajectoryPoint {
        step: 0,
        changed_cluster: None,
        degrees: degrees.clone(),
        qor: evaluator.qor_current(),
        model_area_um2: model_area(profiles, &degrees),
        model_depth_ns: depth0,
    });
    ctx.trajectory_point(&trajectory[0]);

    let threshold = match spec.stop {
        StopCriterion::ErrorThreshold(t) => t,
        StopCriterion::Exhaust => f64::INFINITY,
    };
    // Movable clusters never change: a window with one output has no
    // lattice moves at all; every other window always has a down or an
    // up move available.
    let movable: Vec<usize> = (0..n).filter(|&ci| profiles[ci].num_outputs > 1).collect();

    let mut rng = SmallRng::seed_from_u64(schedule.seed.unwrap_or(0));
    let mut state = evaluator.probe_state();
    let mut energy = 1.0f64; // normalized model area of the current state
    let mut temp = schedule.t0;
    let mut probes_done = 0u64;
    let mut stop_reason = StopReason::ScheduleComplete;

    for _ in 0..schedule.steps {
        if ctx.cancelled() {
            stop_reason = StopReason::Cancelled;
            break;
        }
        if ctx.expired() {
            stop_reason = StopReason::WallBudget;
            break;
        }
        if movable.is_empty() {
            stop_reason = StopReason::Exhausted;
            break;
        }
        if let Some(max) = spec.budget.max_probes {
            if probes_done + 1 > max {
                stop_reason = StopReason::ProbeBudget;
                break;
            }
        }
        // Propose: a movable cluster, then a lattice direction (forced
        // at the edges, a coin toss in the middle). Every draw comes
        // from the single seeded stream, so the proposal sequence is a
        // pure function of the seed.
        let ci = movable[rng.gen_range(0..movable.len())];
        let m = profiles[ci].num_outputs;
        let d = degrees[ci];
        let down_ok = d > 1;
        let up_ok = d < m;
        let down = match (down_ok, up_ok) {
            (true, true) => rng.gen::<bool>(),
            (true, false) => true,
            (false, true) => false,
            (false, false) => unreachable!("movable clusters always have a move"),
        };
        let new_d = if down { d - 1 } else { d + 1 };
        let rows = &profiles[ci].variant(new_d).table_rows;
        // Feasibility gate: the stop threshold. With pruning on, a
        // probe abandoned past the threshold would have been rejected
        // anyway, so the accept/reject sequence — and hence the
        // trajectory — is identical with pruning on or off.
        let report = if spec.prune {
            evaluator.qor_probe_bounded_by(&mut state, ci, rows, spec.metric, || threshold)
        } else {
            Some(evaluator.qor_probe(&mut state, ci, rows))
        };
        probes_done += 1;
        temp = if probes_done == 1 {
            schedule.t0
        } else {
            temp * schedule.cooling
        };
        let Some(report) = report else {
            ctx.count("explore.rejects", 1);
            continue;
        };
        let err = report.value(spec.metric);
        if err > threshold {
            ctx.count("explore.rejects", 1);
            continue;
        }
        // Metropolis on normalized model area: downhill (smaller) is
        // always taken, uphill with probability exp(−ΔE/T). The accept
        // draw happens only for uphill moves — a deterministic
        // condition, so the RNG stream stays reproducible.
        let mut cand = degrees.clone();
        cand[ci] = new_d;
        let cand_energy = model_area(profiles, &cand) / base_area;
        let delta = cand_energy - energy;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp.max(1e-12)).exp();
        if !accept {
            ctx.count("explore.rejects", 1);
            continue;
        }
        ctx.count("explore.accepts", 1);
        degrees = cand;
        energy = cand_energy;
        evaluator.commit(&mut state, ci, rows);
        let step = trajectory.len();
        let depth = model_depth(profiles, evaluator.network(), &degrees);
        trajectory.push(TrajectoryPoint {
            step,
            changed_cluster: Some(ci),
            degrees: degrees.clone(),
            qor: report,
            model_area_um2: model_area(profiles, &degrees),
            model_depth_ns: depth,
        });
        ctx.trajectory_point(trajectory.last().expect("just pushed"));
    }
    Exploration {
        trajectory,
        stop: stop_reason,
        probes: probes_done,
        pareto: None,
    }
}

/// The last trajectory point whose driving metric stays within
/// `threshold` (the design Algorithm 1 would synthesize).
pub fn best_under_threshold(
    trajectory: &[TrajectoryPoint],
    metric: QorMetric,
    threshold: f64,
) -> Option<&TrajectoryPoint> {
    trajectory
        .iter()
        .rev()
        .find(|p| p.qor.value(metric) <= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::McConfig;
    use crate::profile::{profile_partition_ctx, ProfileConfig};
    use blasys_decomp::{decompose, DecompConfig};
    use blasys_logic::builder::{add, input_bus, mark_output_bus};
    use blasys_logic::Netlist;
    use blasys_par::Parallelism;

    /// The trajectory of one exploration on a `parallelism`-sized pool.
    fn explore_with(
        ev: &mut Evaluator,
        profiles: &[SubcircuitProfile],
        spec: &ExploreSpec,
        parallelism: Parallelism,
    ) -> Vec<TrajectoryPoint> {
        let pool = Pool::with_parallelism(parallelism);
        explore_ctx(ev, profiles, spec, &pool, &FlowContext::NONE).into_trajectory()
    }

    /// [`explore_with`], plus the `explore.branches` and
    /// `explore.frontier_size` counts: children kept per step, summed,
    /// which exposes a frontier member lost to an unsound bound even
    /// when the leader trajectory does not change.
    fn explore_counted(
        ev: &mut Evaluator,
        profiles: &[SubcircuitProfile],
        spec: &ExploreSpec,
        parallelism: Parallelism,
    ) -> (Vec<TrajectoryPoint>, [Option<u64>; 2]) {
        let registry = blasys_obs::Registry::new();
        let ctx = FlowContext {
            registry: Some(&registry),
            ..FlowContext::NONE
        };
        let pool = Pool::with_parallelism(parallelism);
        let trajectory = explore_ctx(ev, profiles, spec, &pool, &ctx).into_trajectory();
        let snapshot = registry.snapshot();
        let counts = ["explore.branches", "explore.frontier_size"].map(|c| snapshot.counter(c));
        (trajectory, counts)
    }

    /// [`explore_with`] at the default (`BLASYS_THREADS`) parallelism.
    fn explore(
        ev: &mut Evaluator,
        profiles: &[SubcircuitProfile],
        spec: &ExploreSpec,
    ) -> Vec<TrajectoryPoint> {
        explore_with(ev, profiles, spec, Parallelism::default())
    }

    fn setup(width: usize) -> (Netlist, Vec<SubcircuitProfile>, Evaluator) {
        let mut nl = Netlist::new("add");
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        setup_netlist(nl, &DecompConfig::default())
    }

    fn setup_netlist(
        nl: Netlist,
        decomp: &DecompConfig,
    ) -> (Netlist, Vec<SubcircuitProfile>, Evaluator) {
        let part = decompose(&nl, decomp);
        let profiles = profile_partition_ctx(
            &nl,
            &part,
            &ProfileConfig::default(),
            Pool::serial(),
            &FlowContext::NONE,
        )
        .expect("no cancel token or deadline");
        let ev = Evaluator::new(
            &nl,
            &part,
            &McConfig {
                samples: 2048,
                seed: 11,
            },
        );
        (nl, profiles, ev)
    }

    #[test]
    fn trajectory_starts_exact_and_walks_down() {
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore(&mut ev, &profiles, &ExploreSpec::new());
        assert!(traj.len() > 1);
        assert_eq!(traj[0].qor.avg_relative, 0.0);
        assert!(traj[0].changed_cluster.is_none());
        // Exhaustive walk ends with all degrees at 1.
        let last = traj.last().unwrap();
        assert!(last.degrees.iter().all(|&d| d == 1));
        // Total steps = sum of (m_i - 1).
        let expected: usize = profiles.iter().map(|p| p.num_outputs - 1).sum();
        assert_eq!(traj.len() - 1, expected);
    }

    #[test]
    fn each_step_decrements_exactly_one_degree() {
        let (_nl, profiles, mut ev) = setup(6);
        let traj = explore(&mut ev, &profiles, &ExploreSpec::new());
        for w in traj.windows(2) {
            let before: usize = w[0].degrees.iter().sum();
            let after: usize = w[1].degrees.iter().sum();
            assert_eq!(after + 1, before);
            let ci = w[1].changed_cluster.unwrap();
            assert_eq!(w[0].degrees[ci], w[1].degrees[ci] + 1);
        }
        let _ = profiles;
    }

    #[test]
    fn model_area_shrinks_overall() {
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore(&mut ev, &profiles, &ExploreSpec::new());
        let first = traj.first().unwrap().model_area_um2;
        let last = traj.last().unwrap().model_area_um2;
        assert!(
            last < first * 0.8,
            "full approximation should cut modeled area meaningfully: {last} vs {first}"
        );
        let _ = profiles;
    }

    #[test]
    fn model_depth_is_positive_and_bounded_by_serial_sum() {
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore(&mut ev, &profiles, &ExploreSpec::new());
        for p in &traj {
            assert!(p.model_depth_ns > 0.0, "step {}", p.step);
            let serial_sum: f64 = profiles
                .iter()
                .zip(&p.degrees)
                .map(|(pr, &f)| pr.variant(f).delay_ns)
                .sum();
            assert!(p.model_depth_ns <= serial_sum + 1e-9, "step {}", p.step);
        }
    }

    #[test]
    fn threshold_stops_early_and_stays_under() {
        let (_nl, profiles, mut ev) = setup(8);
        let spec = ExploreSpec::new()
            .metric(QorMetric::AvgRelative)
            .threshold(0.05);
        let traj = explore(&mut ev, &profiles, &spec);
        for p in &traj {
            assert!(p.qor.avg_relative <= 0.05 + 1e-12);
        }
        // The exhaustive walk reaches higher error, so the thresholded
        // one must have stopped earlier than the full length.
        let expected_full: usize = profiles.iter().map(|p| p.num_outputs - 1).sum();
        assert!(traj.len() - 1 <= expected_full);
    }

    #[test]
    fn best_under_threshold_picks_deepest_point() {
        let (_nl, profiles, mut ev) = setup(6);
        let traj = explore(&mut ev, &profiles, &ExploreSpec::new());
        let best = best_under_threshold(&traj, QorMetric::AvgRelative, 0.02).unwrap();
        assert!(best.qor.avg_relative <= 0.02);
        // No later point is also under the threshold with smaller area
        // (the search returns the *last* qualifying point).
        for p in &traj[best.step + 1..] {
            assert!(p.qor.avg_relative > 0.02 || p.step <= best.step);
        }
        let _ = profiles;
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let (_nl, profiles, mut ev_serial) = setup(8);
        let (_nl2, _profiles2, mut ev_par) = setup(8);
        let spec = ExploreSpec::new();
        let serial = explore_with(&mut ev_serial, &profiles, &spec, Parallelism::Serial);
        let parallel = explore_with(&mut ev_par, &profiles, &spec, Parallelism::Threads(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.changed_cluster, p.changed_cluster);
            assert_eq!(s.degrees, p.degrees);
            assert_eq!(s.qor, p.qor, "step {}", s.step);
            assert_eq!(s.model_area_um2.to_bits(), p.model_area_um2.to_bits());
        }
    }

    fn assert_same_trajectory(a: &[TrajectoryPoint], b: &[TrajectoryPoint]) {
        assert_eq!(a.len(), b.len(), "trajectory length");
        for (s, p) in a.iter().zip(b) {
            assert_eq!(s.changed_cluster, p.changed_cluster, "step {}", s.step);
            assert_eq!(s.degrees, p.degrees, "step {}", s.step);
            assert_eq!(s.qor, p.qor, "step {}", s.step);
            assert_eq!(s.model_area_um2.to_bits(), p.model_area_um2.to_bits());
            assert_eq!(s.model_depth_ns.to_bits(), p.model_depth_ns.to_bits());
        }
    }

    #[test]
    fn pruned_sweep_is_bit_identical_to_unpruned() {
        for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let (_nl, profiles, mut ev_pruned) = setup(8);
                let (_n2, _p2, mut ev_plain) = setup(8);
                let spec = ExploreSpec {
                    stop,
                    ..ExploreSpec::new()
                };
                let pruned = explore_with(
                    &mut ev_pruned,
                    &profiles,
                    &spec.clone().prune(true),
                    parallelism,
                );
                let plain = explore_with(&mut ev_plain, &profiles, &spec.prune(false), parallelism);
                assert_same_trajectory(&pruned, &plain);
            }
        }
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
            let (_nl, profiles, mut ev_greedy) = setup(8);
            let (_n2, _p2, mut ev_beam) = setup(8);
            let spec = ExploreSpec {
                stop,
                ..ExploreSpec::new()
            };
            let greedy = explore(&mut ev_greedy, &profiles, &spec);
            let beam = explore(
                &mut ev_beam,
                &profiles,
                &spec.explorer(Explorer::Beam { width: 1 }),
            );
            assert_same_trajectory(&greedy, &beam);
        }
    }

    #[test]
    fn beam_leader_never_trails_greedy() {
        // At equal step counts the width-4 frontier leader's error is
        // never worse than greedy's committed error: the frontier
        // always contains the greedy child among its candidates.
        let (_nl, profiles, mut ev_greedy) = setup(8);
        let (_n2, _p2, mut ev_beam) = setup(8);
        let greedy = explore(&mut ev_greedy, &profiles, &ExploreSpec::new());
        let beam = explore(
            &mut ev_beam,
            &profiles,
            &ExploreSpec::new().explorer(Explorer::Beam { width: 4 }),
        );
        for (g, b) in greedy.iter().zip(&beam) {
            assert!(
                b.qor.avg_relative <= g.qor.avg_relative + 1e-12,
                "step {}: beam {} vs greedy {}",
                g.step,
                b.qor.avg_relative,
                g.qor.avg_relative
            );
        }
    }

    #[test]
    fn prune_bound_beam_topk_is_deterministic() {
        // The width-th best distinct finished child tightens the beam
        // bound; with pruning on or off, serial or at 4 workers, every
        // trajectory must match the unpruned serial one bit for bit.
        // A multiplier in small windows: its best and second-best
        // children are often far apart in probe order, so a bound that
        // is too tight would drop a frontier member.
        let small_windows = DecompConfig {
            max_inputs: 4,
            max_outputs: 4,
            ..DecompConfig::default()
        };
        let (_nl, profiles, pristine) =
            setup_netlist(blasys_circuits::multiplier(4), &small_windows);
        // Two branches converge on one child design at step 2 of the
        // exhaustive walk: the step-1 frontier holds two single-decrement
        // designs, and each can still take the other's decrement.
        assert!(profiles.iter().filter(|p| p.num_outputs > 1).count() >= 2);
        for width in [2, 3] {
            for metric in QorMetric::ALL {
                for stop in [StopCriterion::Exhaust, StopCriterion::ErrorThreshold(0.05)] {
                    let spec = ExploreSpec {
                        stop,
                        ..ExploreSpec::new()
                            .metric(metric)
                            .explorer(Explorer::Beam { width })
                    };
                    let reference = explore_counted(
                        &mut pristine.clone(),
                        &profiles,
                        &spec.clone().prune(false),
                        Parallelism::Serial,
                    );
                    if stop == StopCriterion::Exhaust {
                        assert!(reference.0.len() > 2, "the walk reaches a converging step");
                    }
                    for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                        for prune in [true, false] {
                            let got = explore_counted(
                                &mut pristine.clone(),
                                &profiles,
                                &spec.clone().prune(prune),
                                parallelism,
                            );
                            assert_same_trajectory(&reference.0, &got.0);
                            assert_eq!(
                                reference.1, got.1,
                                "{width} {metric:?} {stop:?} {parallelism:?} prune {prune}: \
                                 kept children per step"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn beam_wider_than_the_degree_lattice_matches_lattice_width() {
        // A width of at least the number of designs (the product of
        // the ladder lengths) never truncates the frontier, so every
        // such width walks the same trajectory and keeps the same
        // children. Huge widths must not size a buffer by the width.
        let small_windows = DecompConfig {
            max_inputs: 4,
            max_outputs: 4,
            ..DecompConfig::default()
        };
        let (_nl, profiles, pristine) = setup_netlist(blasys_circuits::adder(5), &small_windows);
        let lattice: usize = profiles.iter().map(|p| p.num_outputs.max(1)).product();
        assert!(profiles.len() >= 2 && lattice <= 64, "lattice {lattice}");
        let spec = |width| ExploreSpec::new().explorer(Explorer::Beam { width });
        let reference = explore_counted(
            &mut pristine.clone(),
            &profiles,
            &spec(lattice),
            Parallelism::Serial,
        );
        let steps = reference.0.len() as u64 - 1;
        assert!(
            reference.1[0] > Some(steps),
            "some step keeps several children"
        );
        for width in [1 << 40, usize::MAX] {
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let got =
                    explore_counted(&mut pristine.clone(), &profiles, &spec(width), parallelism);
                assert_same_trajectory(&reference.0, &got.0);
                assert_eq!(reference.1, got.1, "width {width} {parallelism:?}");
            }
        }
    }

    #[test]
    fn anneal_is_seed_deterministic() {
        let schedule = AnnealSchedule {
            steps: 64,
            seed: Some(9),
            ..AnnealSchedule::default()
        };
        let spec = ExploreSpec::new()
            .threshold(0.08)
            .explorer(Explorer::Anneal(schedule));
        let (_nl, profiles, mut ev_a) = setup(8);
        let (_n2, _p2, mut ev_b) = setup(8);
        let a = explore(&mut ev_a, &profiles, &spec);
        let b = explore(&mut ev_b, &profiles, &spec);
        assert_same_trajectory(&a, &b);
        // Every accepted state respects the feasibility gate.
        for p in &a {
            assert!(p.qor.avg_relative <= 0.08 + 1e-12);
        }
    }

    #[test]
    fn pareto3_trajectory_matches_greedy_and_surfaces_points() {
        let (_nl, profiles, mut ev_greedy) = setup(8);
        let (_n2, _p2, mut ev_p3) = setup(8);
        let greedy = explore(&mut ev_greedy, &profiles, &ExploreSpec::new());
        let p3 = explore_ctx(
            &mut ev_p3,
            &profiles,
            &ExploreSpec::new().explorer(Explorer::Pareto3),
            Pool::serial(),
            &FlowContext::NONE,
        );
        assert_same_trajectory(&greedy, p3.trajectory());
        let surface = p3.pareto_surface().expect("pareto3 emits a surface");
        assert!(!surface.is_empty());
        // The exact design (error 0) survives: nothing dominates it.
        assert!(surface.iter().any(|p| p.error == 0.0));
    }

    #[test]
    fn error_grows_monotonically_enough() {
        // Greedy picks the smallest error each step; the committed error
        // sequence should trend upward (allow tiny non-monotonicity from
        // error interaction).
        let (_nl, profiles, mut ev) = setup(8);
        let traj = explore(&mut ev, &profiles, &ExploreSpec::new());
        let first_third = traj[traj.len() / 3].qor.avg_relative;
        let last = traj.last().unwrap().qor.avg_relative;
        assert!(last >= first_third);
        let _ = profiles;
    }
}

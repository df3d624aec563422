//! End-to-end BLASYS flow: decompose → profile → explore → synthesize.

use blasys_decomp::{substitute, ClusterImpl, DecompConfig, Partition};
use blasys_lint::Diagnostic;
use blasys_logic::Netlist;
use blasys_synth::{estimate, CellLibrary, DesignMetrics};

use crate::certify::{prove_exact, CertifiedPoint};
use crate::explore::TrajectoryPoint;
use crate::profile::SubcircuitProfile;
use crate::qor::QorMetric;
use crate::session::{ExploreSpec, FlowConfig, FlowSession};

/// How per-cluster output weights are derived for weighted-QoR
/// factorization (Section 3.2 of the paper).
///
/// # Examples
///
/// Weighting factorization errors by output significance (the paper's
/// WQoR, compared against UQoR in `examples/weighted_qor.rs`):
///
/// ```
/// use blasys_circuits::multiplier;
/// use blasys_core::flow::OutputWeighting;
/// use blasys_core::{run, ExploreSpec, FlowConfig};
///
/// let cfg = FlowConfig::new()
///     .samples(512)
///     .weighting(OutputWeighting::ValueInfluence);
/// let result = run(&multiplier(2), cfg, &ExploreSpec::new()).unwrap();
/// assert_eq!(result.trajectory()[0].qor.avg_relative, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputWeighting {
    /// Uniform weights — standard L2 / Hamming BMF ("UQoR" in Fig. 4).
    #[default]
    Uniform,
    /// Weight each subcircuit output by the numerical significance of
    /// the primary-output bits it can reach (powers of two, the
    /// paper's "WQoR" scheme generalized to internal signals).
    ValueInfluence,
}

/// Run the complete flow once: [`FlowSession::open`] → `profile` →
/// one `explore` with `spec`, packaged into a [`BlasysResult`]. The
/// result is bit-identical to the same session calls made directly;
/// open a session instead when one circuit is explored several times.
///
/// See the [crate-level documentation](crate) for an example.
///
/// # Errors
///
/// Returns a [`FlowError`] when the netlist fails admission linting,
/// has no outputs, no inputs, no gates to approximate or more outputs
/// than the 64-bit QoR value model supports, and when the config's
/// cancel token or wall budget stops profiling.
pub fn run(nl: &Netlist, cfg: FlowConfig, spec: &ExploreSpec) -> Result<BlasysResult, FlowError> {
    let session = FlowSession::open(nl, cfg)?.profile()?;
    let exploration = session.explore(spec);
    Ok(session.into_result(exploration))
}

/// Why a netlist cannot be driven through the flow (the checks behind
/// [`FlowSession::open`] and [`FlowSession::profile`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The netlist failed admission linting: it violates storage
    /// invariants or carries error-level defects (see the carried
    /// [`Diagnostic`]s, which name the offending signals and nodes).
    InvalidNetlist(Vec<Diagnostic>),
    /// The netlist declares no primary outputs, so there is no QoR to
    /// measure.
    NoOutputs,
    /// The netlist declares no primary inputs.
    NoInputs,
    /// The netlist contains no gates to approximate (inputs wired
    /// straight to outputs, or constants only).
    NoGates,
    /// The numeric QoR model packs outputs into a `u64` value; wider
    /// interfaces are not supported.
    TooManyOutputs {
        /// The offending output count.
        outputs: usize,
    },
    /// A [`CancelToken`](crate::session::CancelToken) was tripped
    /// while a session stage that cannot keep partial work (profiling)
    /// was running.
    Cancelled,
    /// A session stage exceeded its
    /// [`wall_budget`](crate::session::FlowConfig::wall_budget).
    BudgetExhausted,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::InvalidNetlist(diags) => {
                let msgs: Vec<String> = diags.iter().map(|d| d.message.clone()).collect();
                write!(f, "invalid netlist: {}", msgs.join("; "))
            }
            FlowError::NoOutputs => write!(f, "netlist has no primary outputs"),
            FlowError::NoInputs => write!(f, "netlist has no primary inputs"),
            FlowError::NoGates => write!(f, "netlist contains no gates to approximate"),
            FlowError::TooManyOutputs { outputs } => write!(
                f,
                "netlist has {outputs} outputs; the QoR value model supports at most 64"
            ),
            FlowError::Cancelled => write!(f, "flow cancelled before profiling completed"),
            FlowError::BudgetExhausted => {
                write!(
                    f,
                    "flow wall-clock budget exhausted before profiling completed"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// Exact resynthesis without the exploration phase: every window of
/// the decomposition replaced by its exactly resynthesized variant —
/// the netlist of trajectory step 0, produced without running the
/// Monte-Carlo evaluator. Used by the SAT benchmarks and acceptance
/// tests to obtain a structurally different but functionally identical
/// design.
///
/// # Errors
///
/// The [`FlowSession::open`] checks: a netlist the flow cannot take.
pub fn exact_resynthesis(nl: &Netlist, decomp: &DecompConfig) -> Result<Netlist, FlowError> {
    let cfg = FlowConfig::new().decomposition(*decomp);
    let session = FlowSession::open(nl, cfg)?.profile()?;
    let impls: Vec<ClusterImpl> = session
        .profiles()
        .iter()
        .map(|p| ClusterImpl::Replace(p.exact().netlist.clone()))
        .collect();
    Ok(substitute(nl, session.partition(), &impls).cleaned())
}

/// Per-cluster output weights: each subcircuit output is weighted by
/// the *least* significant primary-output bit it can reach (powers of
/// two, exponent capped). In an arithmetic network this is the
/// signal's numeric column: a partial-product or sum signal of column
/// `c` first influences output bit `c`, so an error on it is worth
/// about `2^c` — the paper's powers-of-two weighting generalized to
/// internal signals. (Using the *highest* reachable bit degenerates to
/// uniform weights: almost every internal signal can reach the MSB.)
pub(crate) fn influence_weights(nl: &Netlist, partition: &Partition) -> Vec<Vec<f64>> {
    const EXP_CAP: u32 = 20;
    // reach[node] = bitset of POs reachable from node.
    let mut reach = vec![0u64; nl.len()];
    for (po_idx, o) in nl.outputs().iter().enumerate() {
        reach[o.node().index()] |= 1u64 << po_idx.min(63);
    }
    for i in (0..nl.len()).rev() {
        let r = reach[i];
        let node = nl.node(blasys_logic::NodeId::from_index(i));
        if node.kind().is_gate() {
            for f in node.fanins() {
                reach[f.index()] |= r;
            }
        }
    }
    partition
        .clusters()
        .iter()
        .map(|c| {
            c.outputs()
                .iter()
                .map(|&n| {
                    let r = reach[n.index()];
                    if r == 0 {
                        return 1.0;
                    }
                    let low = r.trailing_zeros();
                    (1u64 << low.min(EXP_CAP)) as f64
                })
                .collect()
        })
        .collect()
}

/// Everything the flow produced: the partition, the per-subcircuit
/// profiles, the exploration trajectory, and synthesis services to
/// materialize any trajectory point as a measured netlist.
#[derive(Debug, Clone)]
pub struct BlasysResult {
    original: Netlist,
    partition: Partition,
    profiles: Vec<SubcircuitProfile>,
    trajectory: Vec<TrajectoryPoint>,
    library: CellLibrary,
}

impl BlasysResult {
    /// Assemble a result from session-cached parts (the session API's
    /// [`FlowSession::result`](crate::session::FlowSession::result)).
    pub(crate) fn from_parts(
        original: Netlist,
        partition: Partition,
        profiles: Vec<SubcircuitProfile>,
        trajectory: Vec<TrajectoryPoint>,
        library: CellLibrary,
    ) -> BlasysResult {
        BlasysResult {
            original,
            partition,
            profiles,
            trajectory,
            library,
        }
    }

    /// The input netlist.
    pub fn original(&self) -> &Netlist {
        &self.original
    }

    /// The k×m-cut partition used.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Per-subcircuit factorization profiles.
    pub fn profiles(&self) -> &[SubcircuitProfile] {
        &self.profiles
    }

    /// The recorded exploration trajectory (first point = exact).
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// The cell library all metrics were estimated with.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Synthesize the netlist of one trajectory point: every cluster is
    /// replaced by its active variant's compressor/decompressor (the
    /// exact resynthesis for clusters still at full degree).
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn synthesize_step(&self, step: usize) -> Netlist {
        let point = &self.trajectory[step];
        let impls: Vec<ClusterImpl> = self
            .profiles
            .iter()
            .zip(&point.degrees)
            .map(|(p, &f)| ClusterImpl::Replace(p.variant(f).netlist.clone()))
            .collect();
        let synthesized = substitute(&self.original, &self.partition, &impls).cleaned();
        if cfg!(debug_assertions) {
            // Any violation here is a bug in substitute/cleaned, not
            // in the caller's input — assert, don't return.
            if let Err(diags) = blasys_lint::verify_interface(&self.original, &synthesized) {
                panic!("synthesize_step({step}) broke the PI/PO interface: {diags:?}");
            }
        }
        synthesized
    }

    /// Area / power / delay of one trajectory point's synthesized
    /// netlist.
    pub fn metrics_step(&self, step: usize) -> DesignMetrics {
        estimate(&self.synthesize_step(step), &self.library)
    }

    /// The accurate baseline: every cluster resynthesized exactly
    /// (step 0 of the trajectory).
    pub fn baseline_metrics(&self) -> DesignMetrics {
        self.metrics_step(0)
    }

    /// Index of the deepest trajectory point whose metric stays within
    /// `threshold`.
    ///
    /// # Examples
    ///
    /// Pick the deepest design within a 5 % error budget and
    /// synthesize it to gates (`examples/quickstart.rs` in miniature):
    ///
    /// ```
    /// use blasys_core::{run, ExploreSpec, FlowConfig, QorMetric};
    /// use blasys_logic::builder::{add, input_bus, mark_output_bus};
    /// use blasys_logic::Netlist;
    ///
    /// let mut nl = Netlist::new("add4");
    /// let a = input_bus(&mut nl, "a", 4);
    /// let b = input_bus(&mut nl, "b", 4);
    /// let s = add(&mut nl, &a, &b);
    /// mark_output_bus(&mut nl, "s", &s);
    ///
    /// let result = run(&nl, FlowConfig::new().samples(1024), &ExploreSpec::new()).unwrap();
    /// let step = result
    ///     .best_step_under(QorMetric::AvgRelative, 0.05)
    ///     .expect("step 0 is exact, so always within budget");
    /// assert!(result.trajectory()[step].qor.avg_relative <= 0.05);
    /// let approx = result.synthesize_step(step);
    /// assert!(result.metrics_step(step).area_um2 <= result.baseline_metrics().area_um2);
    /// assert!(approx.num_outputs() == nl.num_outputs());
    /// ```
    pub fn best_step_under(&self, metric: QorMetric, threshold: f64) -> Option<usize> {
        self.trajectory
            .iter()
            .rposition(|p| p.qor.value(metric) <= threshold)
    }

    /// Certify the exact worst-case absolute error of one trajectory
    /// point with the SAT engine and stamp it into the recorded
    /// [`QorReport`](crate::qor::QorReport)
    /// (`certified_worst_absolute`). Returns the full certificate
    /// (witness input, probe count, solver statistics).
    ///
    /// # Examples
    ///
    /// The certificate always dominates the sampled bound
    /// (`examples/approximate_multiplier.rs` validates designs this
    /// way before trusting them on a workload):
    ///
    /// ```
    /// use blasys_circuits::multiplier;
    /// use blasys_core::{run, ExploreSpec, FlowConfig};
    ///
    /// let nl = multiplier(2);
    /// let mut result = run(&nl, FlowConfig::new().samples(512), &ExploreSpec::new()).unwrap();
    /// let last = result.trajectory().len() - 1;
    /// let certified = result.certify_step(last).certificate.worst_absolute;
    /// assert!(certified >= result.trajectory()[last].qor.worst_absolute);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn certify_step(&mut self, step: usize) -> CertifiedPoint {
        self.certify_step_observed(step, &mut |_| {})
    }

    /// Like [`BlasysResult::certify_step`], streaming each SAT probe's
    /// solver statistics to `on_probe` (see
    /// [`CertifiedPoint::certify_observed`]).
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn certify_step_observed(
        &mut self,
        step: usize,
        on_probe: &mut dyn FnMut(&blasys_sat::SolverStats),
    ) -> CertifiedPoint {
        let synthesized = self.synthesize_step(step);
        let sampled = self.trajectory[step].qor.worst_absolute;
        let point =
            CertifiedPoint::certify_observed(step, &self.original, &synthesized, sampled, on_probe);
        self.trajectory[step].qor.certified_worst_absolute = Some(point.certificate.worst_absolute);
        point
    }

    /// SAT-prove that a trajectory point's synthesized netlist is
    /// *exactly* equivalent to the original — meaningful for step 0
    /// (exact resynthesis), where sampling can only say "probably
    /// equal" beyond 16 inputs.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    pub fn prove_step_exact(&self, step: usize) -> blasys_logic::Equivalence {
        prove_exact(&self.original, &self.synthesize_step(step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_circuits::{adder, multiplier};
    use blasys_logic::equiv::{check_equiv, EquivConfig};

    fn quick(nl: &Netlist) -> BlasysResult {
        run(
            nl,
            FlowConfig::new().samples(2048).seed(3),
            &ExploreSpec::new(),
        )
        .unwrap()
    }

    #[test]
    fn step0_synthesis_is_equivalent_to_original() {
        let nl = adder(8);
        let result = quick(&nl);
        let exact = result.synthesize_step(0);
        assert!(
            check_equiv(&nl, &exact, &EquivConfig::default()).is_equal(),
            "exact resynthesis must preserve function"
        );
    }

    #[test]
    fn full_approximation_shrinks_real_area() {
        let nl = multiplier(4);
        let result = quick(&nl);
        let base = result.baseline_metrics();
        let last = result.metrics_step(result.trajectory().len() - 1);
        assert!(
            last.area_um2 < base.area_um2,
            "fully approximated design must be smaller: {} vs {}",
            last.area_um2,
            base.area_um2
        );
    }

    #[test]
    fn measured_error_of_synthesized_step_matches_trajectory() {
        // The synthesized netlist at step s must show the same error the
        // table network reported (same stimulus, same seed).
        let nl = adder(6);
        let result = quick(&nl);
        let mid = result.trajectory().len() / 2;
        let approx = result.synthesize_step(mid);
        // Re-measure by direct simulation.
        use blasys_logic::sim::random_stimulus;
        use blasys_logic::Simulator;
        let blocks = 32;
        let stim = random_stimulus(&nl, blocks, 99);
        let mut sim_g = Simulator::new(&nl);
        let mut sim_a = Simulator::new(&approx);
        let mut acc = crate::qor::QorAccumulator::new(nl.num_outputs());
        let mut words = vec![0u64; nl.num_inputs()];
        #[allow(clippy::needless_range_loop)]
        for b in 0..blocks {
            for (i, w) in words.iter_mut().enumerate() {
                *w = stim[i][b];
            }
            let g = sim_g.run(&words).to_vec();
            let a = sim_a.run(&words);
            for lane in 0..64 {
                let mut gv = 0u64;
                let mut av = 0u64;
                for o in 0..g.len() {
                    gv |= (g[o] >> lane & 1) << o;
                    av |= (a[o] >> lane & 1) << o;
                }
                acc.push(gv, av);
            }
        }
        let direct = acc.finish();
        let recorded = result.trajectory()[mid].qor;
        // Different stimulus seeds, so allow sampling slack.
        assert!(
            (direct.avg_relative - recorded.avg_relative).abs()
                < 0.05 + recorded.avg_relative * 0.5,
            "direct {} vs recorded {}",
            direct.avg_relative,
            recorded.avg_relative
        );
    }

    #[test]
    fn weighted_flow_runs() {
        let nl = multiplier(4);
        let cfg = FlowConfig::new()
            .samples(1024)
            .weighting(OutputWeighting::ValueInfluence);
        let result = run(&nl, cfg, &ExploreSpec::new()).unwrap();
        assert!(result.trajectory().len() > 1);
    }

    #[test]
    fn best_step_under_respects_threshold() {
        let nl = adder(8);
        let result = quick(&nl);
        if let Some(step) = result.best_step_under(QorMetric::AvgRelative, 0.05) {
            assert!(result.trajectory()[step].qor.avg_relative <= 0.05);
        }
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use blasys_bmf::Algebra;
    use blasys_circuits::multiplier;

    fn run_with(nl: &Netlist, cfg: FlowConfig) -> BlasysResult {
        run(nl, cfg, &ExploreSpec::new()).unwrap()
    }

    #[test]
    fn field_algebra_flow_end_to_end() {
        let nl = multiplier(4);
        let result = run_with(&nl, FlowConfig::new().samples(1024).algebra(Algebra::Field));
        assert!(result.trajectory().len() > 1);
        // Step 0 remains exact under XOR decompressors too.
        assert_eq!(result.trajectory()[0].qor.avg_relative, 0.0);
    }

    #[test]
    fn custom_stimulus_changes_measured_error() {
        let nl = multiplier(4);
        // Stimulus with operand a locked to zero: any approximation of
        // the product path is invisible (product is always 0), so the
        // explored error profile must differ from uniform stimulus.
        let blocks = 32;
        let mut stim = vec![vec![0u64; blocks]; nl.num_inputs()];
        for (i, lanes) in stim.iter_mut().enumerate() {
            if i >= 4 {
                // b operand: pseudo-random lanes.
                for (b, w) in lanes.iter_mut().enumerate() {
                    *w = (i as u64 + 1)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(b as u32);
                }
            }
        }
        let biased = run_with(&nl, FlowConfig::new().stimulus(stim));
        // With a = 0 the exact product is always 0, so any variant that
        // keeps outputs at 0 shows zero error; the trajectory's final
        // error under biased stimulus must be no larger than uniform.
        let uniform = run_with(&nl, FlowConfig::new().samples(2048));
        let b_last = biased.trajectory().last().unwrap().qor.avg_relative;
        let u_last = uniform.trajectory().last().unwrap().qor.avg_relative;
        assert!(
            b_last <= u_last + 1e-9,
            "biased {b_last} vs uniform {u_last}"
        );
    }

    #[test]
    fn certification_pass_stamps_final_step() {
        let nl = multiplier(3);
        let mut result = run_with(&nl, FlowConfig::new().samples(1024));
        let point = result.certify_step(result.trajectory().len() - 1);
        let last = result.trajectory().last().unwrap();
        let certified = last
            .qor
            .certified_worst_absolute
            .expect("certify_step must stamp the final step");
        assert_eq!(certified, point.certificate.worst_absolute);
        // The certificate dominates the sampled bound.
        assert!(certified >= last.qor.worst_absolute);
        assert_eq!(last.qor.best_known_worst_absolute(), certified);
        // Exhaustive cross-check on the small multiplier.
        let approx = result.synthesize_step(result.trajectory().len() - 1);
        assert_eq!(
            certified,
            blasys_sat::brute_force_worst_absolute(&nl, &approx)
        );
    }

    #[test]
    fn prove_step0_exact_via_sat() {
        use blasys_circuits::adder;
        let nl = adder(8); // 16 inputs
        let mut result = run_with(&nl, FlowConfig::new().samples(2048).seed(17));
        use blasys_logic::Equivalence;
        assert_eq!(
            result.prove_step_exact(0),
            Equivalence::Equal { exhaustive: true }
        );
        // Certifying the exact step yields a zero bound.
        let point = result.certify_step(0);
        assert_eq!(point.certificate.worst_absolute, 0);
        assert!(point.certificate.proves_equivalence());
        assert_eq!(result.trajectory()[0].qor.certified_worst_absolute, Some(0));
    }

    #[test]
    fn smaller_windows_give_coarser_tradeoffs() {
        let nl = multiplier(4);
        let small = run_with(&nl, FlowConfig::new().samples(1024).limits(4, 4));
        let large = run_with(&nl, FlowConfig::new().samples(1024).limits(8, 8));
        // Smaller windows -> more clusters.
        assert!(small.partition().len() >= large.partition().len());
    }
}

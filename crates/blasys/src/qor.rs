//! Quality-of-results metrics.
//!
//! The paper reports *average relative error* and *average absolute
//! error* over Monte-Carlo samples (Equations 1 and 2), plus raw
//! truth-table Hamming distance for the illustrative example. Outputs
//! are interpreted as unsigned integers assembled LSB-first from the
//! primary output list.

/// Which scalar metric drives design-space exploration and thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QorMetric {
    /// `mean(|R − R'| / max(R, 1))` — the paper's Equation 1 (with the
    /// usual guard for `R = 0` samples).
    #[default]
    AvgRelative,
    /// `mean(|R − R'|)`, normalized by the maximum representable
    /// output when reported as "normalized average absolute error".
    AvgAbsolute,
    /// Fraction of output *bits* that differ (sampled Hamming rate).
    BitErrorRate,
}

impl QorMetric {
    /// Every metric variant, in declaration order — the single source
    /// of truth for exhaustive iteration (CLI flag round-trip tests,
    /// report serialization).
    pub const ALL: [QorMetric; 3] = [
        QorMetric::AvgRelative,
        QorMetric::AvgAbsolute,
        QorMetric::BitErrorRate,
    ];

    /// One sample's contribution to this metric's accumulator sum, in
    /// the units [`QorAccumulator::partial_value_with`] takes: the
    /// relative error, the absolute error, or the differing bit count.
    /// Computed with the same operations as [`QorAccumulator::push`],
    /// so the terms are exactly what the accumulator adds.
    pub fn sample_term(self, golden: u64, approx: u64) -> f64 {
        let diff = golden.abs_diff(approx);
        match self {
            QorMetric::AvgRelative => diff as f64 / golden.max(1) as f64,
            QorMetric::AvgAbsolute => diff as f64,
            QorMetric::BitErrorRate => (golden ^ approx).count_ones() as f64,
        }
    }
}

/// Aggregated error statistics of one accuracy evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QorReport {
    /// Average relative error (Equation 1).
    pub avg_relative: f64,
    /// Average absolute error (Equation 2), un-normalized.
    pub avg_absolute: f64,
    /// Average absolute error divided by the highest representable
    /// output value (the normalization used in Figure 5).
    pub norm_absolute: f64,
    /// Fraction of differing output bits.
    pub bit_error_rate: f64,
    /// Largest absolute error observed. This is a *sampled* lower bound
    /// on the true worst case: Monte-Carlo misses rare inputs.
    pub worst_absolute: u64,
    /// Fraction of samples with any error at all.
    pub error_rate: f64,
    /// Number of Monte-Carlo samples aggregated. For reports produced
    /// by the [`Evaluator`](crate::montecarlo::Evaluator) this is the
    /// *actual* evaluated count
    /// ([`Evaluator::samples`](crate::montecarlo::Evaluator::samples)):
    /// the requested count rounded up to a multiple of 64, since the
    /// stimulus packs 64 samples per machine word.
    pub samples: usize,
    /// SAT-certified exact worst-case absolute error, filled in by the
    /// post-exploration certification pass
    /// ([`BlasysResult::certify_step`](crate::flow::BlasysResult::certify_step)).
    /// Always `>= worst_absolute`; `None` until a certificate is
    /// computed.
    pub certified_worst_absolute: Option<u64>,
}

impl QorReport {
    /// The scalar value of the chosen metric.
    pub fn value(&self, metric: QorMetric) -> f64 {
        match metric {
            QorMetric::AvgRelative => self.avg_relative,
            QorMetric::AvgAbsolute => self.norm_absolute,
            QorMetric::BitErrorRate => self.bit_error_rate,
        }
    }
}

/// Streaming accumulator building a [`QorReport`] from per-sample
/// `(golden, approximate)` output pairs.
#[derive(Debug, Clone, Default)]
pub struct QorAccumulator {
    sum_rel: f64,
    sum_abs: f64,
    bit_errors: u64,
    err_samples: u64,
    worst: u64,
    n: u64,
    output_bits: u32,
}

impl QorAccumulator {
    /// New accumulator for outputs of the given bit width.
    pub fn new(output_bits: usize) -> QorAccumulator {
        QorAccumulator {
            output_bits: output_bits as u32,
            ..QorAccumulator::default()
        }
    }

    /// Add one sample.
    pub fn push(&mut self, golden: u64, approx: u64) {
        let diff = golden.abs_diff(approx);
        self.sum_abs += diff as f64;
        self.sum_rel += diff as f64 / golden.max(1) as f64;
        self.bit_errors += (golden ^ approx).count_ones() as u64;
        if diff != 0 {
            self.err_samples += 1;
        }
        self.worst = self.worst.max(diff);
        self.n += 1;
    }

    /// Record `k` error-free samples in one step.
    ///
    /// Bit-identical to `k` calls of [`QorAccumulator::push`] with
    /// equal pairs: an equal pair contributes exactly `+0.0` to both
    /// float sums (which are never negative zero), zero to every
    /// counter, and cannot raise the maximum — only the sample count
    /// moves. This lets the packed evaluator skip per-sample work for
    /// whole blocks of matching samples.
    pub fn push_correct(&mut self, k: usize) {
        self.n += k as u64;
    }

    /// The value [`QorReport::value`] would report for `metric` if all
    /// remaining samples of a `total_samples`-sample evaluation were
    /// error-free.
    ///
    /// Every driving metric is a sum of non-negative per-sample terms
    /// divided by a constant, so this partial value is **monotone**:
    /// it can only grow as more samples are pushed, and it is a lower
    /// bound on the final value. That makes it sound to abandon a
    /// candidate evaluation block-wise the moment its partial value
    /// exceeds an incumbent's final value — the candidate can never
    /// win (see
    /// [`Evaluator::qor_probe_bounded`](crate::montecarlo::Evaluator::qor_probe_bounded)).
    ///
    /// The arithmetic matches [`QorAccumulator::finish`] operation for
    /// operation, so when all `total_samples` samples have been pushed
    /// the partial value is bit-identical to the finished report's.
    pub fn partial_value(&self, metric: QorMetric, total_samples: usize) -> f64 {
        self.partial_value_with(metric, total_samples, 0.0)
    }

    /// The value [`QorReport::value`] would report for `metric` if the
    /// remaining samples of a `total_samples`-sample evaluation added
    /// `rest` to the metric's sum, in [`QorMetric::sample_term`] units.
    /// With `rest` a lower bound on what the remaining samples add,
    /// this is a lower bound on the final value that is tighter than
    /// [`QorAccumulator::partial_value`] (which is `rest == 0.0`).
    pub fn partial_value_with(&self, metric: QorMetric, total_samples: usize, rest: f64) -> f64 {
        let n = total_samples as f64;
        match metric {
            QorMetric::AvgRelative => (self.sum_rel + rest) / n,
            QorMetric::AvgAbsolute => (self.sum_abs + rest) / n / self.max_value().max(1.0),
            QorMetric::BitErrorRate => {
                (self.bit_errors as f64 + rest) / (n * self.output_bits.max(1) as f64)
            }
        }
    }

    /// Highest representable output value at this bit width.
    fn max_value(&self) -> f64 {
        if self.output_bits >= 64 {
            u64::MAX as f64
        } else {
            ((1u128 << self.output_bits) - 1) as f64
        }
    }

    /// Finalize into a report.
    ///
    /// # Panics
    ///
    /// Panics if no samples were pushed.
    pub fn finish(&self) -> QorReport {
        assert!(self.n > 0, "at least one sample required");
        let n = self.n as f64;
        let max_value = self.max_value();
        QorReport {
            avg_relative: self.sum_rel / n,
            avg_absolute: self.sum_abs / n,
            norm_absolute: self.sum_abs / n / max_value.max(1.0),
            bit_error_rate: self.bit_errors as f64 / (n * self.output_bits.max(1) as f64),
            worst_absolute: self.worst,
            error_rate: self.err_samples as f64 / n,
            samples: self.n as usize,
            certified_worst_absolute: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_circuit_has_zero_error() {
        let mut acc = QorAccumulator::new(8);
        for v in [0u64, 5, 255, 17] {
            acc.push(v, v);
        }
        let r = acc.finish();
        assert_eq!(r.avg_relative, 0.0);
        assert_eq!(r.avg_absolute, 0.0);
        assert_eq!(r.bit_error_rate, 0.0);
        assert_eq!(r.worst_absolute, 0);
        assert_eq!(r.error_rate, 0.0);
        assert_eq!(r.samples, 4);
    }

    #[test]
    fn relative_error_matches_equation_1() {
        let mut acc = QorAccumulator::new(8);
        acc.push(100, 90); // rel 0.1
        acc.push(50, 60); // rel 0.2
        let r = acc.finish();
        assert!((r.avg_relative - 0.15).abs() < 1e-12);
        assert!((r.avg_absolute - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_golden_guarded() {
        let mut acc = QorAccumulator::new(4);
        acc.push(0, 3);
        let r = acc.finish();
        assert_eq!(r.avg_relative, 3.0); // |0-3| / max(0,1)
        assert_eq!(r.worst_absolute, 3);
    }

    #[test]
    fn normalized_absolute_uses_output_width() {
        let mut acc = QorAccumulator::new(4); // max 15
        acc.push(0, 15);
        let r = acc.finish();
        assert!((r.norm_absolute - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bit_error_rate_counts_bits() {
        let mut acc = QorAccumulator::new(8);
        acc.push(0b0000_0000, 0b0000_0011); // 2 of 8 bits
        let r = acc.finish();
        assert!((r.bit_error_rate - 0.25).abs() < 1e-12);
        assert!((r.error_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_value_is_monotone_and_matches_finish() {
        let samples: [(u64, u64); 4] = [(100, 90), (50, 60), (7, 7), (0, 3)];
        for metric in [
            QorMetric::AvgRelative,
            QorMetric::AvgAbsolute,
            QorMetric::BitErrorRate,
        ] {
            let mut acc = QorAccumulator::new(8);
            let mut prev = 0.0;
            for &(g, a) in &samples {
                acc.push(g, a);
                let partial = acc.partial_value(metric, samples.len());
                assert!(partial >= prev, "{metric:?} partial must not shrink");
                prev = partial;
            }
            // All samples pushed: partial is bit-identical to final.
            assert_eq!(
                acc.partial_value(metric, samples.len()).to_bits(),
                acc.finish().value(metric).to_bits(),
                "{metric:?}"
            );
            assert_eq!(acc.n, samples.len() as u64);
        }
    }

    #[test]
    fn partial_value_lower_bounds_final() {
        // Half-way through, the partial value assumes the rest is
        // error-free, so it can never exceed the true final value.
        let mut acc = QorAccumulator::new(8);
        acc.push(100, 80);
        let partial = acc.partial_value(QorMetric::AvgRelative, 2);
        acc.push(100, 50);
        let fin = acc.finish().value(QorMetric::AvgRelative);
        assert!(partial <= fin);
        assert!((partial - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sample_terms_sum_to_the_finished_value() {
        // `as usize` indexes per-metric arrays in `ALL` order.
        for (i, metric) in QorMetric::ALL.into_iter().enumerate() {
            assert_eq!(metric as usize, i);
        }
        let samples: [(u64, u64); 4] = [(100, 90), (50, 60), (7, 7), (0, 3)];
        for metric in QorMetric::ALL {
            let mut acc = QorAccumulator::new(8);
            let mut rest = 0.0;
            for &(g, a) in &samples {
                acc.push(g, a);
                rest += metric.sample_term(g, a);
            }
            let empty = QorAccumulator::new(8);
            assert_eq!(
                empty
                    .partial_value_with(metric, samples.len(), rest)
                    .to_bits(),
                acc.finish().value(metric).to_bits(),
                "{metric:?}"
            );
        }
    }

    #[test]
    fn metric_selector() {
        let mut acc = QorAccumulator::new(8);
        acc.push(100, 90);
        let r = acc.finish();
        assert_eq!(r.value(QorMetric::AvgRelative), r.avg_relative);
        assert_eq!(r.value(QorMetric::AvgAbsolute), r.norm_absolute);
        assert_eq!(r.value(QorMetric::BitErrorRate), r.bit_error_rate);
    }
}

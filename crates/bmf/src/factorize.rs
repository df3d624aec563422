//! High-level factorization front-end.
//!
//! [`Factorizer`] is the builder-style entry point used by the BLASYS
//! core: it selects the algorithm (ASSO with threshold sweep by
//! default, as in the paper), the algebra (semi-ring OR vs field XOR
//! decompressors) and the QoR weighting, and handles the trivial
//! `f ≥ min(n, m)` cases exactly.

use std::sync::Arc;
use std::time::Instant;

use crate::asso::{asso_sweep_counted, asso_sweep_ladder, AssoParams};
use crate::grecon::grecond;
use crate::matrix::BoolMatrix;
use crate::metrics::{hamming, weighted_error};
use crate::obs::FactorizeCounters;
use crate::xor::{factorize_xor, XorParams};

/// The algebra the decompressor network is built in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algebra {
    /// AND/OR Boolean semi-ring — OR-gate decompressor (paper default).
    #[default]
    SemiRing,
    /// GF(2) field — XOR-gate decompressor.
    Field,
}

/// Which factorization heuristic to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Algorithm {
    /// ASSO with a sweep over six association thresholds, keeping the
    /// best-scoring one (paper default).
    #[default]
    Asso,
    /// GreConD-style greedy concept cover (never covers 0s).
    GreConD,
}

/// Association thresholds [`Algorithm::Asso`] sweeps; the best-scoring
/// one wins.
const ASSO_THRESHOLDS: [f64; 6] = [0.3, 0.5, 0.7, 0.85, 0.95, 1.0];

/// Result of a factorization: `M ≈ B ∘ C`.
#[derive(Debug, Clone, PartialEq)]
pub struct Factorization {
    b: BoolMatrix,
    c: BoolMatrix,
    algebra: Algebra,
}

impl Factorization {
    /// Assemble from parts (shapes must be compatible).
    ///
    /// # Panics
    ///
    /// Panics if `b.num_cols() != c.num_rows()`.
    pub fn new(b: BoolMatrix, c: BoolMatrix, algebra: Algebra) -> Factorization {
        assert_eq!(b.num_cols(), c.num_rows(), "inner dimension mismatch");
        Factorization { b, c, algebra }
    }

    /// The `n × f` usage matrix (the *compressor* truth table).
    pub fn b(&self) -> &BoolMatrix {
        &self.b
    }

    /// The `f × m` basis matrix (the *decompressor* wiring).
    pub fn c(&self) -> &BoolMatrix {
        &self.c
    }

    /// The algebra the product is evaluated in.
    pub fn algebra(&self) -> Algebra {
        self.algebra
    }

    /// Factorization degree `f`.
    pub fn degree(&self) -> usize {
        self.b.num_cols()
    }

    /// The reconstructed matrix `B ∘ C`.
    pub fn product(&self) -> BoolMatrix {
        match self.algebra {
            Algebra::SemiRing => self.b.or_product(&self.c),
            Algebra::Field => self.b.xor_product(&self.c),
        }
    }

    /// Hamming distance between the reconstruction and `m`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn error(&self, m: &BoolMatrix) -> f64 {
        hamming(&self.product(), m) as f64
    }

    /// Column-weighted reconstruction error.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or weight count mismatches.
    pub fn weighted_error(&self, m: &BoolMatrix, weights: &[f64]) -> f64 {
        weighted_error(&self.product(), m, weights)
    }
}

/// Widest matrix the exhaustive path accepts (columns).
const EXACT_MAX_COLS: usize = 5;
/// Tallest matrix the exhaustive path accepts (rows).
const EXACT_MAX_ROWS: usize = 64;
/// Distinct row values of an exhaustive-path matrix (`2^EXACT_MAX_COLS`).
const EXACT_WIDTH: usize = 1 << EXACT_MAX_COLS;
/// Subsets of an exhaustive-path basis (`f < EXACT_MAX_COLS`).
const EXACT_SUBSETS: usize = 1 << (EXACT_MAX_COLS - 1);

/// Builder-style factorization front-end.
///
/// # Example
///
/// ```
/// use blasys_bmf::{Algebra, BoolMatrix, Factorizer};
/// use blasys_bmf::metrics::value_weights;
///
/// let m = BoolMatrix::from_fn(16, 4, |i, j| (i >> j) & 1 == 1);
/// let fac = Factorizer::new()
///     .algebra(Algebra::SemiRing)
///     .weights(value_weights(4))
///     .factorize(&m, 2);
/// assert_eq!(fac.degree(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Factorizer {
    algorithm: Algorithm,
    algebra: Algebra,
    weights: Option<Vec<f64>>,
    counters: Option<Arc<FactorizeCounters>>,
}

/// Alternating refinement rounds after the greedy phase (ASSO), which
/// also sets the XOR solver's round cap.
const REFINE_ROUNDS: usize = 1;

impl Factorizer {
    /// A factorizer with the paper defaults: ASSO + threshold sweep,
    /// OR semi-ring, uniform weights, one refinement round.
    pub fn new() -> Factorizer {
        Factorizer::default()
    }

    /// Select the factorization algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Factorizer {
        self.algorithm = algorithm;
        self
    }

    /// Select semi-ring (OR) or field (XOR) algebra.
    pub fn algebra(mut self, algebra: Algebra) -> Factorizer {
        self.algebra = algebra;
        self
    }

    /// Set per-column QoR weights (the paper's weighted-QoR mode).
    pub fn weights(mut self, weights: Vec<f64>) -> Factorizer {
        self.weights = Some(weights);
        self
    }

    /// Attach a `bmf.*` counter block; every clone of this factorizer
    /// accumulates into it.
    pub fn with_counters(mut self, counters: Arc<FactorizeCounters>) -> Factorizer {
        self.counters = Some(counters);
        self
    }

    /// The attached counter block, if any.
    pub fn counters(&self) -> Option<&Arc<FactorizeCounters>> {
        self.counters.as_ref()
    }

    /// The algebra this factorizer is configured for.
    pub fn algebra_kind(&self) -> Algebra {
        self.algebra
    }

    /// The algorithm this factorizer is configured for.
    pub fn algorithm_kind(&self) -> &Algorithm {
        &self.algorithm
    }

    /// Factorize `m` at degree `f`.
    ///
    /// Degrees `f ≥ m.num_cols()` return an exact identity-style
    /// factorization (matching Algorithm 1's starting point where
    /// `f_i = m_i` means "unchanged subcircuit"). Tiny instances
    /// (≤ 64 rows, ≤ 5 columns, semi-ring algebra) are solved *optimally*
    /// by exhaustive basis enumeration instead of heuristically.
    /// Records wall time and candidate counts on the attached
    /// [`FactorizeCounters`], if any.
    ///
    /// # Panics
    ///
    /// Panics if `f == 0`.
    pub fn factorize(&self, m: &BoolMatrix, f: usize) -> Factorization {
        let t0 = Instant::now();
        let fac = self.factorize_inner(m, f);
        if let Some(c) = &self.counters {
            c.factorize_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        fac
    }

    /// [`factorize`](Factorizer::factorize) at every degree `1..=top`:
    /// entry `f − 1` is bit-identical to `factorize(m, f)`.
    ///
    /// Degrees on the heuristic semi-ring path share one greedy pass:
    /// ASSO builds its candidate basis and runs its greedy loop once per
    /// threshold, to the highest such degree, and refines each degree's
    /// prefix of it; GreConD runs once and is sliced. Exhaustive, field
    /// and `f ≥ cols` degrees are solved one by one as in `factorize`.
    /// Records one wall-time observation for the whole ladder (none
    /// for an empty one).
    pub fn factorize_ladder(&self, m: &BoolMatrix, top: usize) -> Vec<Factorization> {
        if top == 0 {
            return Vec::new();
        }
        let t0 = Instant::now();
        // The exhaustive test does not depend on `f` below the column
        // count, so degrees `1..=shared` are exactly the heuristic ones.
        let shared = if matches!(self.algebra, Algebra::SemiRing) && !self.solves_exhaustively(m, 1)
        {
            top.min(m.num_cols().saturating_sub(1))
        } else {
            0
        };
        let mut ladder: Vec<Factorization> = match &self.algorithm {
            _ if shared == 0 => Vec::new(),
            Algorithm::Asso => {
                let counters = self.counters.as_deref();
                asso_sweep_ladder(m, shared, &ASSO_THRESHOLDS, &self.asso_base(), counters)
                    .into_iter()
                    .map(|(b, c)| Factorization::new(b, c, Algebra::SemiRing))
                    .collect()
            }
            Algorithm::GreConD => {
                let (b, c) = grecond(m, shared);
                (1..=shared)
                    .map(|f| {
                        Factorization::new(b.leading_cols(f), c.leading_rows(f), Algebra::SemiRing)
                    })
                    .collect()
            }
        };
        ladder.extend((shared + 1..=top).map(|f| self.factorize_inner(m, f)));
        if let Some(c) = &self.counters {
            c.factorize_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        ladder
    }

    /// Whether [`factorize`](Factorizer::factorize) solves `(m, f)` by
    /// exhaustive basis enumeration (≤ 64 rows, ≤ 5 columns, `f` below
    /// the column count, semi-ring algebra). The configured
    /// [`Algorithm`] plays no part on that path: factorizers that
    /// differ only in their algorithm return the same factorization.
    pub fn solves_exhaustively(&self, m: &BoolMatrix, f: usize) -> bool {
        let cols = m.num_cols();
        f < cols
            && cols <= EXACT_MAX_COLS
            && m.num_rows() <= EXACT_MAX_ROWS
            && matches!(self.algebra, Algebra::SemiRing)
    }

    fn factorize_inner(&self, m: &BoolMatrix, f: usize) -> Factorization {
        assert!(f >= 1, "factorization degree must be at least 1");
        let cols = m.num_cols();
        if self.solves_exhaustively(m, f) {
            return self.exact_small(m, f);
        }
        if f >= cols {
            // Identity factorization: B = M (padded), C = I (padded).
            let mut b = BoolMatrix::zeroed(m.num_rows(), f);
            for i in 0..m.num_rows() {
                b.set_row(i, m.row(i));
            }
            let c = BoolMatrix::from_fn(f, cols, |l, j| l == j);
            return Factorization::new(b, c, self.algebra);
        }
        match self.algebra {
            Algebra::SemiRing => {
                let (b, c) = match &self.algorithm {
                    Algorithm::Asso => {
                        let counters = self.counters.as_deref();
                        asso_sweep_counted(m, f, &ASSO_THRESHOLDS, &self.asso_base(), counters)
                    }
                    Algorithm::GreConD => grecond(m, f),
                };
                Factorization::new(b, c, Algebra::SemiRing)
            }
            Algebra::Field => {
                let params = XorParams {
                    weights: self.weights.clone(),
                    max_rounds: 4 + 2 * REFINE_ROUNDS,
                };
                let (b, c) = factorize_xor(m, f, &params);
                Factorization::new(b, c, Algebra::Field)
            }
        }
    }

    /// The ASSO parameters every threshold of the sweep shares.
    fn asso_base(&self) -> AssoParams {
        AssoParams {
            weights: self.weights.clone(),
            refine_rounds: REFINE_ROUNDS,
            ..AssoParams::default()
        }
    }
}

/// Derive a degree `f−1` factorization from a degree-`f` one by
/// dropping the basis row whose removal hurts least, then re-solving
/// the usage matrix optimally (exhaustive over `2^(f−1)` subsets).
///
/// This "nested truncation" keeps factor complexity monotone across
/// degrees: the truncated factors are structurally a subset of the
/// parent's, so their hardware is never larger.
///
/// # Panics
///
/// Panics if `fac.degree() < 2` or `fac.degree() > 13`.
pub fn truncated(fac: &Factorization, m: &BoolMatrix, weights: Option<&[f64]>) -> Factorization {
    let f = fac.degree();
    assert!(f >= 2, "cannot truncate below degree 1");
    assert!(f <= 13, "exhaustive usage solve limited to small degrees");
    let cols = m.num_cols();
    let n = m.num_rows();
    let uniform;
    let w: &[f64] = match weights {
        Some(w) => w,
        None => {
            uniform = vec![1.0; cols];
            &uniform
        }
    };
    let wsum = |mut bits: u64| -> f64 {
        let mut s = 0.0;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            s += w[j];
        }
        s
    };
    let is_field = matches!(fac.algebra(), Algebra::Field);
    let mut best: Option<(f64, BoolMatrix, BoolMatrix)> = None;
    for drop in 0..f {
        let kept: Vec<usize> = (0..f).filter(|&l| l != drop).collect();
        let mut c = BoolMatrix::zeroed(f - 1, cols);
        for (l_new, &l_old) in kept.iter().enumerate() {
            c.set_row(l_new, fac.c().row(l_old));
        }
        // Optimal usage per row over the reduced basis.
        let mut acc_of = vec![0u64; 1usize << (f - 1)];
        for s in 1usize..1 << (f - 1) {
            let low = s.trailing_zeros() as usize;
            let prev = acc_of[s & (s - 1)];
            acc_of[s] = if is_field {
                prev ^ c.row(low)
            } else {
                prev | c.row(low)
            };
        }
        let mut b = BoolMatrix::zeroed(n, f - 1);
        let mut err = 0.0;
        for i in 0..n {
            let target = m.row(i);
            let (mut best_s, mut best_e) = (0usize, f64::INFINITY);
            for (s, &v) in acc_of.iter().enumerate() {
                let e = wsum(v ^ target);
                if e < best_e {
                    best_e = e;
                    best_s = s;
                }
            }
            err += best_e;
            b.set_row(i, best_s as u64);
        }
        if best.as_ref().is_none_or(|(e, _, _)| err < *e) {
            best = Some((err, b, c));
        }
    }
    let (_, b, c) = best.expect("degree >= 2 always yields a candidate");
    Factorization::new(b, c, fac.algebra())
}

impl Factorizer {
    /// Optimal OR-semi-ring factorization of a tiny matrix by
    /// exhaustive enumeration of the basis rows (all non-zero column
    /// patterns) with the exact per-row usage solve.
    ///
    /// Table-driven: `etab[t][v]` holds the weighted error of
    /// reconstructing row value `t` as `v`, built once per call. Each
    /// basis combination fills its ≤ 16 subset ORs into a stack array,
    /// takes one minimum per *distinct* row value (on first use), and
    /// sums those minima in row order — the same f64 additions in the
    /// same order as a per-row scan, so errors (and hence the winner)
    /// are bit-identical. With non-negative weights the sum stops as
    /// soon as it reaches the best error so far, which can no longer be
    /// beaten. No combination allocates; the usage matrix is solved
    /// once, for the winner only.
    fn exact_small(&self, m: &BoolMatrix, f: usize) -> Factorization {
        let cols = m.num_cols();
        let n = m.num_rows();
        let width = 1usize << cols;
        let subsets = 1usize << f;
        let uniform;
        let weights: &[f64] = match &self.weights {
            Some(w) => w,
            None => {
                uniform = vec![1.0; cols];
                &uniform
            }
        };
        let wsum = |mut bits: usize| -> f64 {
            let mut s = 0.0;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                s += weights[j];
            }
            s
        };
        let mut etab = [0.0f64; EXACT_WIDTH * EXACT_WIDTH];
        for t in 0..width {
            for v in 0..width {
                etab[t * width + v] = wsum(v ^ t);
            }
        }
        let monotone = weights.iter().all(|&w| w >= 0.0);
        // Distinct row values in first-seen order, and each row's slot.
        let mut slot_of = [usize::MAX; EXACT_WIDTH];
        let mut distinct = [0usize; EXACT_WIDTH];
        let mut num_distinct = 0;
        let mut row_slot = [0usize; EXACT_MAX_ROWS];
        for (i, slot) in row_slot.iter_mut().enumerate().take(n) {
            let t = m.row(i) as usize;
            if slot_of[t] == usize::MAX {
                slot_of[t] = num_distinct;
                distinct[num_distinct] = t;
                num_distinct += 1;
            }
            *slot = slot_of[t];
        }
        let (distinct, row_slot) = (&distinct[..num_distinct], &row_slot[..n]);
        // Basis pattern `p` is the non-zero column pattern `p + 1`.
        let patterns = width - 1;
        let subset_ors = |chosen: &[usize]| -> [usize; EXACT_SUBSETS] {
            let mut or_of = [0usize; EXACT_SUBSETS];
            for s in 1..subsets {
                let low = s.trailing_zeros() as usize;
                or_of[s] = or_of[s & (s - 1)] | (chosen[low] + 1);
            }
            or_of
        };
        let mut best: Option<(f64, [usize; EXACT_MAX_COLS])> = None;
        let mut scored = 0u64;
        let mut chosen = [0usize; EXACT_MAX_COLS];
        // Lexicographic combinations, in the same order as a
        // depth-first recursion.
        let mut depth = 0;
        let mut next = 0;
        loop {
            if depth == f {
                scored += 1;
                let or_of = subset_ors(&chosen[..f]);
                // With non-negative weights the row-order partial sum
                // never decreases, so once it reaches the best error
                // this combination cannot win (strict `<`).
                let bound = best.as_ref().filter(|_| monotone).map(|b| b.0);
                let mut mins = [0.0f64; EXACT_WIDTH];
                let mut known = 0u64;
                let mut err = 0.0;
                let mut beaten = false;
                for &k in row_slot {
                    if known >> k & 1 == 0 {
                        known |= 1 << k;
                        let row = &etab[distinct[k] * width..][..width];
                        let mut best_e = f64::INFINITY;
                        for &v in &or_of[..subsets] {
                            if row[v] < best_e {
                                best_e = row[v];
                            }
                        }
                        mins[k] = best_e;
                    }
                    err += mins[k];
                    if bound.is_some_and(|b| err >= b) {
                        beaten = true;
                        break;
                    }
                }
                if !beaten && best.as_ref().is_none_or(|(e, _)| err < *e) {
                    best = Some((err, chosen));
                }
            } else if next < patterns {
                chosen[depth] = next;
                depth += 1;
                next += 1;
                continue;
            }
            // Backtrack to the deepest level that can still advance.
            if depth == 0 {
                break;
            }
            depth -= 1;
            next = chosen[depth] + 1;
        }
        if let Some(c) = &self.counters {
            c.candidates_scored.add(scored);
        }
        let (_, chosen) = best.expect("at least one basis combination");
        let or_of = subset_ors(&chosen[..f]);
        let mut b = BoolMatrix::zeroed(n, f);
        for i in 0..n {
            let row = &etab[m.row(i) as usize * width..][..width];
            let (mut best_s, mut best_e) = (0usize, f64::INFINITY);
            for (s, &v) in or_of[..subsets].iter().enumerate() {
                if row[v] < best_e {
                    best_e = row[v];
                    best_s = s;
                }
            }
            b.set_row(i, best_s as u64);
        }
        let mut c = BoolMatrix::zeroed(f, cols);
        for (l, &p) in chosen[..f].iter().enumerate() {
            c.set_row(l, p as u64 + 1);
        }
        Factorization::new(b, c, Algebra::SemiRing)
    }
}

#[cfg(test)]
impl Factorizer {
    /// Test oracle for [`exact_small`](Factorizer::exact_small): the
    /// straightforward per-combination scan (subset-OR DP plus a
    /// per-row first-minimum usage solve, allocating per combination)
    /// that the table-driven path must reproduce bit for bit.
    fn exact_small_oracle(&self, m: &BoolMatrix, f: usize) -> Factorization {
        let cols = m.num_cols();
        let n = m.num_rows();
        let uniform;
        let weights: &[f64] = match &self.weights {
            Some(w) => w,
            None => {
                uniform = vec![1.0; cols];
                &uniform
            }
        };
        let wsum = |mut bits: u64| -> f64 {
            let mut s = 0.0;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                s += weights[j];
            }
            s
        };
        let patterns: Vec<u64> = (1u64..1 << cols).collect();
        // Enumerate combinations of `f` basis patterns (with smaller
        // index first to avoid permutations).
        fn combos(
            patterns: &[u64],
            basis: &mut Vec<usize>,
            depth: usize,
            start: usize,
            eval: &mut dyn FnMut(&[usize]),
        ) {
            if depth == basis.len() {
                eval(basis);
                return;
            }
            for i in start..patterns.len() {
                basis[depth] = i;
                combos(patterns, basis, depth + 1, i + 1, eval);
            }
        }
        let mut best: Option<(f64, Vec<u64>, Vec<u64>)> = None;
        let mut scored = 0u64;
        let mut eval = |chosen: &[usize]| {
            scored += 1;
            // Optimal usage per row via subset-OR DP.
            let mut or_of = vec![0u64; 1usize << f];
            for s in 1usize..1 << f {
                let low = s.trailing_zeros() as usize;
                or_of[s] = or_of[s & (s - 1)] | patterns[chosen[low]];
            }
            let mut err = 0.0;
            let mut usage = Vec::with_capacity(n);
            for i in 0..n {
                let target = m.row(i);
                let (mut best_s, mut best_e) = (0usize, f64::INFINITY);
                for (s, &or_val) in or_of.iter().enumerate() {
                    let e = wsum(or_val ^ target);
                    if e < best_e {
                        best_e = e;
                        best_s = s;
                    }
                }
                err += best_e;
                usage.push(best_s as u64);
            }
            if best.as_ref().is_none_or(|(e, _, _)| err < *e) {
                let c_rows: Vec<u64> = chosen.iter().map(|&i| patterns[i]).collect();
                best = Some((err, usage, c_rows));
            }
        };
        combos(&patterns, &mut vec![0usize; f], 0, 0, &mut eval);
        if let Some(c) = &self.counters {
            c.candidates_scored.add(scored);
        }
        let (_, usage, c_rows) = best.expect("at least one basis combination");
        let mut b = BoolMatrix::zeroed(n, f);
        for (i, &u) in usage.iter().enumerate() {
            b.set_row(i, u);
        }
        let mut c = BoolMatrix::zeroed(f, cols);
        for (l, &row) in c_rows.iter().enumerate() {
            c.set_row(l, row);
        }
        Factorization::new(b, c, Algebra::SemiRing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: deterministic random matrices without a rand dep.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn sample() -> BoolMatrix {
        BoolMatrix::from_fn(16, 5, |i, j| (i * 3 + j * j) % 4 == 1 || i == 2 * j)
    }

    #[test]
    fn identity_factorization_at_full_degree() {
        let m = sample();
        for f in 5..=7 {
            let fac = Factorizer::new().factorize(&m, f);
            assert_eq!(fac.error(&m), 0.0, "f={f} must be exact");
            assert_eq!(fac.degree(), f);
        }
    }

    #[test]
    fn semiring_and_field_both_work() {
        let m = sample();
        for algebra in [Algebra::SemiRing, Algebra::Field] {
            let fac = Factorizer::new().algebra(algebra).factorize(&m, 3);
            assert_eq!(fac.algebra(), algebra);
            assert_eq!(fac.product().num_rows(), 16);
            assert_eq!(fac.product().num_cols(), 5);
        }
    }

    #[test]
    fn grecond_path_never_overcovers() {
        let m = sample();
        let fac = Factorizer::new()
            .algorithm(Algorithm::GreConD)
            .factorize(&m, 2);
        let p = fac.product();
        for i in 0..m.num_rows() {
            assert_eq!(p.row(i) & !m.row(i), 0);
        }
    }

    #[test]
    fn weighted_error_accessor() {
        let m = sample();
        let fac = Factorizer::new().factorize(&m, 2);
        let w = vec![1.0; 5];
        assert_eq!(fac.error(&m), fac.weighted_error(&m, &w));
    }

    #[test]
    fn degenerate_single_column() {
        let m = BoolMatrix::from_fn(8, 1, |i, _| i % 2 == 0);
        let fac = Factorizer::new().factorize(&m, 1);
        assert_eq!(fac.error(&m), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_degree_rejected() {
        let m = sample();
        let _ = Factorizer::new().factorize(&m, 0);
    }

    #[test]
    fn tiny_instances_are_solved_optimally() {
        // 16 rows x 4 cols triggers the exhaustive path; cross-check
        // against the heuristic on a matrix where greedy ASSO is known
        // to be suboptimal.
        let m = BoolMatrix::from_fn(16, 4, |i, j| (i >> j) & 1 == 1 || i % 5 == j);
        for f in 1..4 {
            let exact = Factorizer::new().factorize(&m, f);
            // Build a wider copy so the heuristic path runs on the same
            // function (pad with a zero column and ignore it).
            let wide = BoolMatrix::from_fn(16, 6, |i, j| j < 4 && m.get(i, j));
            let heur = Factorizer::new().factorize(&wide, f);
            let heur_err: usize = (0..16)
                .map(|i| {
                    let got = heur.product().row(i) & 0b1111;
                    (got ^ m.row(i)).count_ones() as usize
                })
                .sum();
            assert!(
                exact.error(&m) as usize <= heur_err,
                "f={f}: exact {} vs heuristic {heur_err}",
                exact.error(&m)
            );
        }
    }

    #[test]
    fn exact_small_recovers_exactly_factorable() {
        let m = BoolMatrix::from_rows(4, &[0b0011, 0b1100, 0b1111, 0b0000]);
        let fac = Factorizer::new().factorize(&m, 2);
        assert_eq!(fac.error(&m), 0.0);
    }

    #[test]
    fn exact_small_matches_the_per_combination_oracle() {
        use crate::metrics::value_weights;
        let mut next = splitmix(0x9e37_79b9_7f4a_7c15);
        for trial in 0..24 {
            let cols = 2 + trial % 4;
            let rows = [1, 7, 16, 33, 64][trial % 5];
            let density = next() % 3;
            let m = BoolMatrix::from_fn(rows, cols, |_, _| next() % 4 <= density);
            // Non-dyadic weights make the f64 summation order visible;
            // a negative weight disables the early-exit bound.
            let ragged: Vec<f64> = (0..cols).map(|j| 0.1 + 0.37 * j as f64).collect();
            let signed: Vec<f64> = (0..cols).map(|j| 0.7 * j as f64 - 0.45).collect();
            for weights in [None, Some(value_weights(cols)), Some(ragged), Some(signed)] {
                let fz = match &weights {
                    Some(w) => Factorizer::new().weights(w.clone()),
                    None => Factorizer::new(),
                };
                for f in 1..cols {
                    assert!(fz.solves_exhaustively(&m, f));
                    assert_eq!(
                        fz.exact_small(&m, f),
                        fz.exact_small_oracle(&m, f),
                        "trial {trial} rows={rows} cols={cols} f={f} {weights:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_small_scores_as_many_combinations_as_the_oracle() {
        use crate::obs::FactorizeCounters;
        let m = BoolMatrix::from_fn(32, 5, |i, j| (i * 7 + j * 3) % 5 < 2);
        for f in 1..5 {
            let new = blasys_obs::Registry::default();
            let old = blasys_obs::Registry::default();
            Factorizer::new()
                .with_counters(Arc::new(FactorizeCounters::register(&new)))
                .exact_small(&m, f);
            Factorizer::new()
                .with_counters(Arc::new(FactorizeCounters::register(&old)))
                .exact_small_oracle(&m, f);
            assert_eq!(
                new.snapshot().counter("bmf.candidates_scored"),
                old.snapshot().counter("bmf.candidates_scored"),
                "f={f}"
            );
        }
    }

    #[test]
    fn counters_record_factorization_work() {
        use crate::obs::FactorizeCounters;
        use std::sync::Arc;
        let registry = blasys_obs::Registry::default();
        let counters = Arc::new(FactorizeCounters::register(&registry));
        let m = BoolMatrix::from_fn(16, 4, |i, j| (i >> j) & 1 == 1);
        let fz = Factorizer::new().with_counters(counters.clone());
        let _ = fz.factorize(&m, 2);
        let snap = registry.snapshot();
        assert!(snap.counter("bmf.candidates_scored").unwrap() > 0);
        assert_eq!(counters.factorize_ns.count(), 1);
    }

    #[test]
    fn truncation_reduces_degree_by_one() {
        let m = BoolMatrix::from_fn(32, 6, |i, j| (i * 7 + j * 3) % 5 < 2);
        let fac = Factorizer::new().factorize(&m, 4);
        let cut = truncated(&fac, &m, None);
        assert_eq!(cut.degree(), 3);
        // Basis rows of the truncation are a subset of the parent's.
        for l in 0..3 {
            let row = cut.c().row(l);
            assert!(
                (0..4).any(|p| fac.c().row(p) == row),
                "truncated basis must nest"
            );
        }
    }

    #[test]
    fn truncation_error_bounded_by_parent_plus_dropped() {
        let m = BoolMatrix::from_fn(64, 5, |i, j| (i >> j) & 1 == 1 && i % 3 != 0);
        let fac = Factorizer::new().factorize(&m, 3);
        let parent_err = fac.error(&m);
        let cut = truncated(&fac, &m, None);
        // Truncation can't do better than the parent (it has less
        // expressive power) but must stay a valid factorization.
        assert!(cut.error(&m) >= parent_err - 1e-9);
        assert_eq!(cut.product().num_cols(), m.num_cols());
    }

    #[test]
    fn truncation_works_for_field_algebra() {
        let m = BoolMatrix::from_fn(16, 4, |i, j| (i ^ (i >> 1)) >> j & 1 == 1);
        let fac = Factorizer::new().algebra(Algebra::Field).factorize(&m, 3);
        let cut = truncated(&fac, &m, None);
        assert_eq!(cut.degree(), 2);
        assert_eq!(cut.algebra(), Algebra::Field);
    }

    /// A random `rows × cols` matrix drawn from a few row patterns (so
    /// tall matrices keep a small candidate basis), with sparse noise
    /// and column `zero_col` (if any) cleared.
    fn patterned(
        next: &mut impl FnMut() -> u64,
        rows: usize,
        cols: usize,
        zero_col: Option<usize>,
    ) -> BoolMatrix {
        let mask = if cols == 64 { !0 } else { (1u64 << cols) - 1 };
        let clear = zero_col.map_or(0, |j| 1u64 << j);
        let patterns: Vec<u64> = (0..2 + next() % 6).map(|_| next() & mask).collect();
        let rows: Vec<u64> = (0..rows)
            .map(|_| {
                let mut r = patterns[(next() % patterns.len() as u64) as usize];
                if next().is_multiple_of(8) {
                    r ^= 1 << (next() % cols as u64);
                }
                r & !clear
            })
            .collect();
        BoolMatrix::from_rows(cols, &rows)
    }

    #[test]
    fn asso_ladder_matches_per_degree_sweep() {
        use crate::asso::{asso_sweep_counted, asso_sweep_ladder, greedy};
        use crate::grecon::grecond;
        use crate::metrics::value_weights;
        use crate::obs::FactorizeCounters;
        let mut next = splitmix(0x1adde5);
        let shapes = [
            (1, 1),
            (7, 2),
            (16, 3),
            (64, 5),
            (65, 6),
            (256, 9),
            (1024, 4),
            (1024, 16),
            (96, 16),
        ];
        for (trial, &(rows, cols)) in shapes.iter().cycle().take(2 * shapes.len()).enumerate() {
            let zero_col = (trial % 2 == 1).then(|| (next() % cols as u64) as usize);
            let m = patterned(&mut next, rows, cols, zero_col);
            // Every degree up to one past the column count, capped where
            // the per-degree oracle's exhaustive usage re-solve (2^f
            // subsets per row) gets slow on tall, wide matrices.
            let top = (cols + 1).min(if rows > 256 { 6 } else { 10 });
            for weights in [None, Some(value_weights(cols))] {
                let base = AssoParams {
                    weights: weights.clone(),
                    ..AssoParams::default()
                };
                let registry = blasys_obs::Registry::default();
                let counters = FactorizeCounters::register(&registry);
                let ladder = asso_sweep_ladder(&m, top, &ASSO_THRESHOLDS, &base, Some(&counters));
                assert_eq!(ladder.len(), top);
                let mut per_degree = 0;
                for (f, got) in (1..=top).zip(&ladder) {
                    let oracle = blasys_obs::Registry::default();
                    let want = asso_sweep_counted(
                        &m,
                        f,
                        &ASSO_THRESHOLDS,
                        &base,
                        Some(&FactorizeCounters::register(&oracle)),
                    );
                    assert_eq!(got, &want, "trial {trial} {rows}x{cols} f={f} {weights:?}");
                    per_degree += oracle.snapshot().counter("bmf.candidates_scored").unwrap();
                }
                // One greedy pass per threshold scores each round's
                // candidates once, not once per degree.
                let shared = registry
                    .snapshot()
                    .counter("bmf.candidates_scored")
                    .unwrap();
                assert!(shared <= per_degree, "{shared} > {per_degree}");
            }
            let (b, c) = grecond(&m, top);
            for f in 1..=top {
                assert_eq!(
                    (b.leading_cols(f), c.leading_rows(f)),
                    grecond(&m, f),
                    "trial {trial} {rows}x{cols} GreConD f={f}"
                );
            }
        }

        // Rank one: after the first round nothing scores above zero, so
        // the greedy loop breaks early at every threshold and the
        // ladder's higher degrees share the zero-padded prefix.
        let m = BoolMatrix::from_fn(40, 6, |i, j| i % 3 != 0 && j % 2 == 0);
        let weights = [1.0; 6];
        for &t in &ASSO_THRESHOLDS {
            let (_, c, rounds) = greedy(&m, 5, t, &weights, None);
            assert_eq!(rounds, 1, "threshold {t}");
            assert!((1..5).all(|l| c.row(l) == 0));
        }
        let base = AssoParams::default();
        let ladder = asso_sweep_ladder(&m, 5, &ASSO_THRESHOLDS, &base, None);
        for (f, got) in (1..=5).zip(&ladder) {
            assert_eq!(
                got,
                &asso_sweep_counted(&m, f, &ASSO_THRESHOLDS, &base, None)
            );
        }
    }

    #[test]
    fn factorize_ladder_matches_factorize_at_every_degree() {
        use crate::metrics::value_weights;
        use crate::obs::FactorizeCounters;
        let mut next = splitmix(0x1a_dde2);
        for (rows, cols) in [(8, 1), (16, 4), (64, 5), (128, 5), (256, 8)] {
            let m = patterned(&mut next, rows, cols, None);
            for (algorithm, algebra) in [
                (Algorithm::Asso, Algebra::SemiRing),
                (Algorithm::GreConD, Algebra::SemiRing),
                (Algorithm::Asso, Algebra::Field),
            ] {
                for weights in [None, Some(value_weights(cols))] {
                    let registry = blasys_obs::Registry::default();
                    let counters = Arc::new(FactorizeCounters::register(&registry));
                    let mut fz = Factorizer::new()
                        .algorithm(algorithm.clone())
                        .algebra(algebra)
                        .with_counters(counters.clone());
                    if let Some(w) = &weights {
                        fz = fz.weights(w.clone());
                    }
                    assert!(fz.factorize_ladder(&m, 0).is_empty());
                    let ladder = fz.factorize_ladder(&m, cols + 1);
                    assert_eq!(
                        counters.factorize_ns.count(),
                        1,
                        "one observation per non-empty ladder"
                    );
                    assert_eq!(ladder.len(), cols + 1);
                    for (f, got) in (1..=cols + 1).zip(&ladder) {
                        assert_eq!(
                            got,
                            &fz.factorize(&m, f),
                            "{rows}x{cols} {algorithm:?} {algebra:?} f={f} {weights:?}"
                        );
                    }
                }
            }
        }
    }
}

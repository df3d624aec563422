//! The ASSO Boolean matrix factorization algorithm, with the BLASYS
//! weighted-QoR extension.
//!
//! ASSO (Miettinen et al., *The Discrete Basis Problem* / MDL4BMF)
//! factorizes `M ≈ B ∘ C` under the Boolean semi-ring:
//!
//! 1. build *candidate basis vectors* from the column association
//!    matrix: candidate `i` has a 1 in column `j` iff the confidence
//!    `conf(i ⇒ j) = |col_i ∧ col_j| / |col_i|` is at least a threshold
//!    `τ`;
//! 2. greedily pick `f` (candidate, usage-column) pairs maximizing a
//!    cover function that rewards newly covered 1s and penalizes
//!    erroneously covered 0s (unit weights `w⁺ = w⁻ = 1`).
//!
//! BLASYS modifies the cover function so every cell of column `j` is
//! additionally scaled by a per-column weight — powers of two for
//! numerically interpreted output buses (Section 3.2 of the paper).
//! This module implements both, plus an optional alternating refinement
//! pass (exact per-row usage re-solve, coordinate-descent basis
//! update).

use blasys_par::{in_worker, Pool};

use crate::matrix::BoolMatrix;
use crate::metrics::weighted_error;
use crate::obs::FactorizeCounters;

/// Tuning parameters for [`asso`].
#[derive(Debug, Clone, PartialEq)]
pub struct AssoParams {
    /// Association confidence threshold `τ ∈ (0, 1]`.
    pub threshold: f64,
    /// Per-column cell weights; `None` means uniform (standard ASSO).
    pub weights: Option<Vec<f64>>,
    /// Alternating refinement rounds applied after the greedy phase
    /// (0 reproduces plain ASSO).
    pub refine_rounds: usize,
}

impl Default for AssoParams {
    fn default() -> AssoParams {
        AssoParams {
            threshold: 1.0,
            weights: None,
            refine_rounds: 1,
        }
    }
}

/// Weighted popcount of `bits` under per-column weights.
#[inline]
fn wsum(mut bits: u64, weights: &[f64]) -> f64 {
    let mut s = 0.0;
    while bits != 0 {
        let j = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        s += weights[j];
    }
    s
}

/// Precomputed [`wsum`] lookup for ≤ 16 columns (every truth-table
/// matrix the flow factorizes).
///
/// `table[bits]` equals `wsum(bits, weights)` **bit for bit**: each
/// entry extends the entry without its highest set bit by one more
/// addend, which reproduces the scan loop's ascending-index left fold
/// exactly — swapping the per-call scan for a lookup cannot change any
/// score. Wider matrices fall back to the scan.
pub(crate) struct WsumTable {
    table: Vec<f64>,
}

impl WsumTable {
    pub(crate) fn build(weights: &[f64]) -> Option<WsumTable> {
        if weights.len() > 16 {
            return None;
        }
        let mut table = vec![0.0f64; 1usize << weights.len()];
        for bits in 1..table.len() {
            let h = usize::BITS as usize - 1 - bits.leading_zeros() as usize;
            table[bits] = table[bits ^ (1 << h)] + weights[h];
        }
        Some(WsumTable { table })
    }

    #[inline]
    pub(crate) fn get(&self, bits: u64) -> f64 {
        self.table[bits as usize]
    }
}

/// Run ASSO on `m` with factorization degree `f`.
///
/// Returns `(B, C)` with `B` of shape `n × f` and `C` of shape `f × m`,
/// approximating `m ≈ B ∘ C` under the OR semi-ring. When the greedy
/// phase runs out of useful candidates the remaining basis rows are
/// zero (they do not affect the product).
///
/// # Panics
///
/// Panics if `f == 0` or `m` has zero columns.
pub fn asso(m: &BoolMatrix, f: usize, params: &AssoParams) -> (BoolMatrix, BoolMatrix) {
    asso_on(m, f, params, Pool::serial())
}

/// [`asso`] with an explicit execution context for the candidate
/// scoring loop.
///
/// Candidate columns are scored independently per greedy round, so the
/// scan parallelizes over contiguous candidate ranges. The reduction
/// keeps the **first** strictly-best candidate in ascending candidate
/// order — exactly the serial scan's winner — so the factorization is
/// bit-identical at any worker count. Inside a worker of an enclosing
/// parallel region the scan silently runs serial (nested scopes are
/// illegal and pointless).
pub fn asso_on(
    m: &BoolMatrix,
    f: usize,
    params: &AssoParams,
    pool: &Pool,
) -> (BoolMatrix, BoolMatrix) {
    asso_counted(m, f, params, pool, None)
}

pub(crate) fn asso_counted(
    m: &BoolMatrix,
    f: usize,
    params: &AssoParams,
    pool: &Pool,
    counters: Option<&FactorizeCounters>,
) -> (BoolMatrix, BoolMatrix) {
    assert!(f >= 1, "factorization degree must be at least 1");
    let cols = m.num_cols();
    assert!(cols >= 1, "matrix must have at least one column");
    let n = m.num_rows();
    let uniform;
    let weights: &[f64] = match &params.weights {
        Some(w) => {
            assert_eq!(w.len(), cols, "one weight per column");
            w
        }
        None => {
            uniform = vec![1.0; cols];
            &uniform
        }
    };
    let pool = if in_worker() { Pool::serial() } else { pool };

    let candidates = candidate_basis(m, params);
    let wtab = WsumTable::build(weights);
    // Scratch-free scoring: the old loop allocated a `usage` row vector
    // per candidate and threw all but the winner's away. Scoring is now
    // a pure fold and only the winner's usage is re-derived, once per
    // round.
    let score_of = |cand: u64, covered: &[u64]| -> f64 {
        let mut score = 0.0;
        match &wtab {
            Some(t) => {
                for (i, &cov) in covered.iter().enumerate() {
                    let newly = cand & !cov;
                    let row = m.row(i);
                    let gain = t.get(newly & row) - t.get(newly & !row);
                    if gain > 0.0 {
                        score += gain;
                    }
                }
            }
            None => {
                for (i, &cov) in covered.iter().enumerate() {
                    let newly = cand & !cov;
                    let row = m.row(i);
                    let gain = wsum(newly & row, weights) - wsum(newly & !row, weights);
                    if gain > 0.0 {
                        score += gain;
                    }
                }
            }
        }
        score
    };

    let mut b = BoolMatrix::zeroed(n, f);
    let mut c = BoolMatrix::zeroed(f, cols);
    // Covered cells so far: OR over chosen (usage, basis) pairs.
    let mut covered = vec![0u64; n];

    let tasks = if candidates.len() >= 16 {
        pool.threads().min(candidates.len()).max(1)
    } else {
        1
    };
    let chunk = candidates.len().div_ceil(tasks.max(1)).max(1);
    for l in 0..f {
        if let Some(cnt) = counters {
            cnt.candidates_scored.add(candidates.len() as u64);
        }
        // Chunk-local first-best under strict `>`, reduced over chunks
        // in ascending order under strict `>`: equals the serial
        // first-best for any chunking.
        let locals: Vec<Option<(f64, u64)>> = pool.run(tasks, |t| {
            // Trailing tasks may get an empty chunk (`lo` past the end).
            let lo = (t * chunk).min(candidates.len());
            let hi = ((t + 1) * chunk).min(candidates.len());
            let mut best: Option<(f64, u64)> = None;
            for &cand in &candidates[lo..hi] {
                if cand == 0 {
                    continue;
                }
                let score = score_of(cand, &covered);
                if best.as_ref().is_none_or(|(s, _)| score > *s) {
                    best = Some((score, cand));
                }
            }
            best
        });
        let mut best: Option<(f64, u64)> = None;
        for local in locals.into_iter().flatten() {
            if best.as_ref().is_none_or(|(s, _)| local.0 > *s) {
                best = Some(local);
            }
        }
        match best {
            Some((score, cand)) if score > 0.0 => {
                c.set_row(l, cand);
                // Re-derive the winner's usage against the same
                // pre-round cover the scores saw.
                for (i, cov) in covered.iter_mut().enumerate().take(n) {
                    let newly = cand & !*cov;
                    let good = newly & m.row(i);
                    let bad = newly & !m.row(i);
                    let gain = wsum(good, weights) - wsum(bad, weights);
                    if gain > 0.0 {
                        b.set(i, l, true);
                        *cov |= cand;
                    }
                }
            }
            _ => break, // remaining basis rows stay zero
        }
    }

    for _ in 0..params.refine_rounds {
        let improved_b = refine_usage(m, &b, &c, weights);
        b = improved_b;
        refine_basis(m, &mut b, &mut c, weights);
    }
    (b, c)
}

/// Build the candidate basis-vector set: association-matrix rows at
/// threshold `τ`, extended with the distinct rows of `M` (a cheap
/// quality extension useful for truth tables).
fn candidate_basis(m: &BoolMatrix, params: &AssoParams) -> Vec<u64> {
    let cols = m.num_cols();
    // Column bitsets for pairwise dot products.
    let col_bits: Vec<Vec<u64>> = (0..cols).map(|j| m.column_bits(j)).collect();
    let ones: Vec<usize> = (0..cols).map(|j| m.column_count_ones(j)).collect();
    let mut cands = Vec::with_capacity(cols);
    for i in 0..cols {
        if ones[i] == 0 {
            continue;
        }
        let mut row = 0u64;
        for j in 0..cols {
            let dot: usize = col_bits[i]
                .iter()
                .zip(&col_bits[j])
                .map(|(a, b)| (a & b).count_ones() as usize)
                .sum();
            if dot as f64 >= params.threshold * ones[i] as f64 {
                row |= 1 << j;
            }
        }
        cands.push(row);
    }
    let mut rows: Vec<u64> = m.iter_rows().filter(|&r| r != 0).collect();
    rows.sort_unstable();
    rows.dedup();
    cands.extend(rows);
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// Exact per-row usage re-solve: for each row of `M`, choose the subset
/// of basis rows whose OR minimizes the weighted error. Exhaustive over
/// `2^f` subsets when `f ≤ 12`, greedy otherwise.
fn refine_usage(m: &BoolMatrix, b: &BoolMatrix, c: &BoolMatrix, weights: &[f64]) -> BoolMatrix {
    let f = c.num_rows();
    let n = m.num_rows();
    let mut out = BoolMatrix::zeroed(n, f);
    if f <= 12 {
        // DP over subsets: or_of[s] = or_of[s \ lowbit] | basis[lowbit].
        let mut or_of = vec![0u64; 1 << f];
        for s in 1usize..1 << f {
            let low = s.trailing_zeros() as usize;
            or_of[s] = or_of[s & (s - 1)] | c.row(low);
        }
        for i in 0..n {
            let target = m.row(i);
            let mut best_s = 0usize;
            let mut best_e = f64::INFINITY;
            for (s, &or_val) in or_of.iter().enumerate() {
                let e = wsum(or_val ^ target, weights);
                if e < best_e {
                    best_e = e;
                    best_s = s;
                }
            }
            out.set_row(i, best_s as u64);
        }
    } else {
        for i in 0..n {
            let target = m.row(i);
            let mut acc = 0u64;
            let mut chosen = 0u64;
            loop {
                let mut best_l = None;
                let mut best_e = wsum(acc ^ target, weights);
                for l in 0..f {
                    if chosen >> l & 1 == 1 {
                        continue;
                    }
                    let e = wsum((acc | c.row(l)) ^ target, weights);
                    if e < best_e {
                        best_e = e;
                        best_l = Some(l);
                    }
                }
                match best_l {
                    Some(l) => {
                        chosen |= 1 << l;
                        acc |= c.row(l);
                    }
                    None => break,
                }
            }
            out.set_row(i, chosen);
        }
    }
    // `out` rows are packed usage subsets; reinterpret as the B matrix.
    let keep = b.num_cols();
    debug_assert_eq!(keep, f);
    out
}

/// Coordinate-descent basis update: for every basis row `l` and column
/// `j`, re-decide entry `c[l][j]` optimally given everything else.
fn refine_basis(m: &BoolMatrix, b: &mut BoolMatrix, c: &mut BoolMatrix, weights: &[f64]) {
    let f = c.num_rows();
    let cols = m.num_cols();
    let n = m.num_rows();
    for l in 0..f {
        // Rows using basis l.
        let users: Vec<usize> = (0..n).filter(|&i| b.get(i, l)).collect();
        if users.is_empty() {
            continue;
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..cols {
            // For each user row, is cell (i,j) covered by another basis?
            let mut gain_on = 0.0;
            for &i in &users {
                let covered_by_other = (0..f).any(|l2| l2 != l && b.get(i, l2) && c.get(l2, j));
                if covered_by_other {
                    continue; // this entry cannot change cell (i, j)
                }
                if m.get(i, j) {
                    gain_on += weights[j];
                } else {
                    gain_on -= weights[j];
                }
            }
            c.set(l, j, gain_on > 0.0);
        }
    }
}

/// Convenience wrapper: run ASSO over a sweep of thresholds and keep
/// the factorization with the lowest weighted error (the paper sweeps
/// the factorization threshold per subcircuit, Section 4).
pub fn asso_sweep(
    m: &BoolMatrix,
    f: usize,
    thresholds: &[f64],
    base: &AssoParams,
) -> (BoolMatrix, BoolMatrix) {
    asso_sweep_counted(m, f, thresholds, base, Pool::serial(), None)
}

/// [`asso_sweep`] with an execution context, passed down to each
/// per-threshold [`asso_on`] run, and optional counters. The threshold
/// loop itself stays serial (the per-round candidate scans inside it
/// are the hot part), so the winning factorization is the serial one
/// verbatim.
pub(crate) fn asso_sweep_counted(
    m: &BoolMatrix,
    f: usize,
    thresholds: &[f64],
    base: &AssoParams,
    pool: &Pool,
    counters: Option<&FactorizeCounters>,
) -> (BoolMatrix, BoolMatrix) {
    let uniform;
    let weights: &[f64] = match &base.weights {
        Some(w) => w,
        None => {
            uniform = vec![1.0; m.num_cols()];
            &uniform
        }
    };
    let mut best: Option<(f64, BoolMatrix, BoolMatrix)> = None;
    for &t in thresholds {
        let params = AssoParams {
            threshold: t,
            ..base.clone()
        };
        let (b, c) = asso_counted(m, f, &params, pool, counters);
        let err = weighted_error(&b.or_product(&c), m, weights);
        if best.as_ref().is_none_or(|(e, _, _)| err < *e) {
            best = Some((err, b, c));
        }
    }
    let (_, b, c) = best.expect("at least one threshold required");
    (b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{hamming, value_weights};

    fn params() -> AssoParams {
        AssoParams::default()
    }

    #[test]
    fn exact_rank1_matrix_recovered() {
        // Outer product of [1,1,0,1] and [1,0,1].
        let m = BoolMatrix::from_rows(3, &[0b101, 0b101, 0b000, 0b101]);
        let (b, c) = asso(&m, 1, &params());
        assert_eq!(hamming(&b.or_product(&c), &m), 0);
    }

    #[test]
    fn exact_rank2_matrix_recovered() {
        let m = BoolMatrix::from_rows(4, &[0b0011, 0b1100, 0b1111, 0b0000]);
        let (b, c) = asso(&m, 2, &params());
        assert_eq!(hamming(&b.or_product(&c), &m), 0);
    }

    #[test]
    fn error_nonincreasing_in_degree() {
        // A structured 8x5 matrix.
        let m = BoolMatrix::from_fn(8, 5, |i, j| (i * 7 + j * 3) % 4 == 0 || i == j);
        let mut prev = usize::MAX;
        for f in 1..=5 {
            let (b, c) = asso(&m, f, &params());
            let e = hamming(&b.or_product(&c), &m);
            assert!(e <= prev, "degree {f}: error {e} > previous {prev}");
            prev = e;
        }
    }

    #[test]
    fn weighted_prefers_high_columns() {
        // Column 2 (weight 4) should be matched in preference to
        // columns 0/1 when a conflict forces a choice.
        let m = BoolMatrix::from_rows(3, &[0b100, 0b011, 0b100, 0b011]);
        let w = value_weights(3);
        let p = AssoParams {
            weights: Some(w.clone()),
            ..params()
        };
        let (b, c) = asso(&m, 1, &p);
        let approx = b.or_product(&c);
        // Weighted error with f=1 must keep the MSB column correct in
        // at least as many rows as the unweighted run.
        let werr = weighted_error(&approx, &m, &w);
        let (bu, cu) = asso(&m, 1, &params());
        let uerr = weighted_error(&bu.or_product(&cu), &m, &w);
        assert!(
            werr <= uerr,
            "weighted {werr} should not lose to uniform {uerr}"
        );
    }

    #[test]
    fn zero_matrix_factorizes_to_zero() {
        let m = BoolMatrix::zeroed(6, 4);
        let (b, c) = asso(&m, 2, &params());
        assert_eq!(hamming(&b.or_product(&c), &m), 0);
        assert_eq!(b.count_ones() + c.count_ones(), 0);
    }

    #[test]
    fn all_ones_matrix_is_rank1() {
        let m = BoolMatrix::from_fn(5, 5, |_, _| true);
        let (b, c) = asso(&m, 1, &params());
        assert_eq!(hamming(&b.or_product(&c), &m), 0);
    }

    #[test]
    fn sweep_at_least_as_good_as_single_threshold() {
        let m = BoolMatrix::from_fn(16, 6, |i, j| (i ^ j) & 1 == 0 && i % 3 != 2);
        let base = params();
        let (b1, c1) = asso(&m, 2, &base);
        let single = hamming(&b1.or_product(&c1), &m);
        let (bs, cs) = asso_sweep(&m, 2, &[0.3, 0.5, 0.7, 0.9, 1.0], &base);
        let swept = hamming(&bs.or_product(&cs), &m);
        assert!(swept <= single);
    }

    #[test]
    fn shapes_are_correct() {
        let m = BoolMatrix::from_fn(8, 4, |i, j| i + j % 2 == 0);
        let (b, c) = asso(&m, 3, &params());
        assert_eq!(b.num_rows(), 8);
        assert_eq!(b.num_cols(), 3);
        assert_eq!(c.num_rows(), 3);
        assert_eq!(c.num_cols(), 4);
    }

    #[test]
    fn parallel_scan_is_bit_identical() {
        // Several matrix shapes, weighted and uniform, across worker
        // counts: the factorization must match the serial scan exactly.
        let shapes: Vec<BoolMatrix> = vec![
            BoolMatrix::from_fn(24, 6, |i, j| (i * 7 + j * 3) % 4 == 0 || i == j),
            BoolMatrix::from_fn(40, 8, |i, j| (i ^ j) & 3 != 1),
            BoolMatrix::from_fn(64, 10, |i, j| (i * j) % 5 < 2),
            // Enough candidates that 25 workers leave trailing chunks
            // empty.
            BoolMatrix::from_fn(48, 36, |i, j| (i * 5 + j * 11) % 7 < 3 || i % 9 == j % 4),
        ];
        let pools = [2, 4, 7, 25].map(Pool::new);
        for m in &shapes {
            for weighted in [false, true] {
                let p = AssoParams {
                    weights: weighted.then(|| value_weights(m.num_cols())),
                    ..AssoParams::default()
                };
                for f in [1, 2, 3] {
                    let serial = asso(m, f, &p);
                    for pool in &pools {
                        let par = asso_on(m, f, &p, pool);
                        assert_eq!(serial, par, "f={f} {pool:?} weighted={weighted}");
                    }
                }
            }
        }
    }

    #[test]
    fn wsum_table_matches_scan_exactly() {
        let weights = value_weights(11);
        let t = WsumTable::build(&weights).unwrap();
        for bits in 0u64..1 << 11 {
            assert_eq!(
                t.get(bits).to_bits(),
                wsum(bits, &weights).to_bits(),
                "bits {bits:#b}"
            );
        }
        assert!(WsumTable::build(&[1.0; 17]).is_none());
    }

    #[test]
    fn refinement_never_hurts() {
        let m = BoolMatrix::from_fn(12, 5, |i, j| (i * 5 + j) % 3 == 0);
        let raw = AssoParams {
            refine_rounds: 0,
            ..params()
        };
        let refined = AssoParams {
            refine_rounds: 2,
            ..params()
        };
        let (b0, c0) = asso(&m, 2, &raw);
        let (b1, c1) = asso(&m, 2, &refined);
        let e0 = hamming(&b0.or_product(&c0), &m);
        let e1 = hamming(&b1.or_product(&c1), &m);
        assert!(e1 <= e0, "refined {e1} vs raw {e0}");
    }
}

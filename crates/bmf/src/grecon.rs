//! GreConD-style greedy concept cover, an alternative BMF used as an
//! ablation baseline against ASSO.
//!
//! GreConD (Belohlavek & Vychodil) builds factors from *formal
//! concepts*: each factor is a (row set, column set) pair such that all
//! selected cells are 1 in `M`. It therefore never covers a 0 — the
//! residual error is purely the 1s left uncovered — which contrasts
//! with ASSO's willingness to trade false 1s for coverage.

use crate::matrix::BoolMatrix;

/// Factorize `m ≈ B ∘ C` (OR semi-ring) with at most `f` concept
/// factors. The product is always `≤ M` entry-wise ("from below").
///
/// Factor `l` never depends on `f`, which only bounds the loop: the
/// first `f'` columns of `B` and rows of `C` are exactly
/// `grecond(m, f')` for any `f' ≤ f`.
///
/// # Panics
///
/// Panics if `f == 0`.
pub fn grecond(m: &BoolMatrix, f: usize) -> (BoolMatrix, BoolMatrix) {
    assert!(f >= 1, "factorization degree must be at least 1");
    let n = m.num_rows();
    let cols = m.num_cols();
    let mut b = BoolMatrix::zeroed(n, f);
    let mut c = BoolMatrix::zeroed(f, cols);
    // Uncovered 1-cells.
    let mut uncovered: Vec<u64> = (0..n).map(|i| m.row(i)).collect();

    for l in 0..f {
        // Greedily grow an attribute set d maximizing newly covered 1s.
        let mut d: u64 = 0;
        let mut best_cover = 0usize;
        loop {
            let mut best_j = None;
            for j in 0..cols {
                if d >> j & 1 == 1 {
                    continue;
                }
                let dj = d | 1 << j;
                let cover = coverage(m, &uncovered, dj);
                if cover > best_cover {
                    best_cover = cover;
                    best_j = Some(j);
                }
            }
            match best_j {
                Some(j) => d |= 1 << j,
                None => break,
            }
        }
        if d == 0 || best_cover == 0 {
            break;
        }
        // Close the concept: extend d to every attribute shared by all
        // supporting objects (does not reduce coverage, may increase it).
        let support: Vec<usize> = (0..n).filter(|&i| m.row(i) & d == d).collect();
        let mut closed = (0..cols).fold(0u64, |acc, j| acc | 1 << j);
        for &i in &support {
            closed &= m.row(i);
        }
        debug_assert_eq!(closed & d, d);
        c.set_row(l, closed);
        for &i in &support {
            b.set(i, l, true);
            uncovered[i] &= !closed;
        }
        if uncovered.iter().all(|&u| u == 0) {
            break;
        }
    }
    (b, c)
}

/// Number of currently uncovered 1-cells the attribute set `d` would
/// cover (over its full object support).
fn coverage(m: &BoolMatrix, uncovered: &[u64], d: u64) -> usize {
    let mut total = 0usize;
    for (i, &u) in uncovered.iter().enumerate() {
        if m.row(i) & d == d {
            total += (u & d).count_ones() as usize;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::hamming;

    #[test]
    fn product_never_exceeds_input() {
        let m = BoolMatrix::from_fn(10, 6, |i, j| (i * j) % 4 != 3 && i % 2 == 0);
        for f in 1..=4 {
            let (b, c) = grecond(&m, f);
            let p = b.or_product(&c);
            for i in 0..m.num_rows() {
                assert_eq!(p.row(i) & !m.row(i), 0, "false positive at f={f} row {i}");
            }
        }
    }

    #[test]
    fn exact_cover_when_enough_factors() {
        let m = BoolMatrix::from_rows(4, &[0b0011, 0b1100, 0b1111, 0b0000]);
        let (b, c) = grecond(&m, 4);
        assert_eq!(hamming(&b.or_product(&c), &m), 0);
    }

    #[test]
    fn error_nonincreasing_in_degree() {
        let m = BoolMatrix::from_fn(12, 6, |i, j| (i + 2 * j) % 3 == 0);
        let mut prev = usize::MAX;
        for f in 1..=6 {
            let (b, c) = grecond(&m, f);
            let e = hamming(&b.or_product(&c), &m);
            assert!(e <= prev);
            prev = e;
        }
    }

    #[test]
    fn zero_matrix_stays_zero() {
        let m = BoolMatrix::zeroed(5, 5);
        let (b, c) = grecond(&m, 2);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    fn identity_needs_full_rank() {
        let m = BoolMatrix::from_fn(4, 4, |i, j| i == j);
        let (b, c) = grecond(&m, 4);
        assert_eq!(hamming(&b.or_product(&c), &m), 0);
        let (b2, c2) = grecond(&m, 2);
        // With only 2 factors at most 2 diagonal cells can be covered
        // (identity has Boolean rank 4).
        assert!(hamming(&b2.or_product(&c2), &m) >= 2);
    }
}

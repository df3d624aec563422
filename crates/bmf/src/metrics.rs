//! Error metrics between Boolean matrices.

use crate::matrix::BoolMatrix;

/// Hamming distance: the number of differing entries.
///
/// For Boolean matrices this is exactly the squared Frobenius / L2 norm
/// `||M − M'||²` the NNMF literature minimizes (Section 3.2 of the
/// paper).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn hamming(a: &BoolMatrix, b: &BoolMatrix) -> usize {
    assert_eq!(a.num_rows(), b.num_rows(), "shape mismatch");
    assert_eq!(a.num_cols(), b.num_cols(), "shape mismatch");
    a.iter_rows()
        .zip(b.iter_rows())
        .map(|(ra, rb)| (ra ^ rb).count_ones() as usize)
        .sum()
}

/// Column-weighted error `||(M − M') w||²`-style cost: each differing
/// entry in column `j` contributes `weights[j]`.
///
/// The paper's weighted-QoR modification of ASSO minimizes exactly this
/// with `weights[j] = 2^j` for numerically interpreted outputs.
///
/// # Panics
///
/// Panics if shapes differ or `weights.len() != a.num_cols()`.
pub fn weighted_error(a: &BoolMatrix, b: &BoolMatrix, weights: &[f64]) -> f64 {
    assert_eq!(a.num_rows(), b.num_rows(), "shape mismatch");
    assert_eq!(a.num_cols(), b.num_cols(), "shape mismatch");
    assert_eq!(weights.len(), a.num_cols(), "one weight per column");
    let mut err = 0.0;
    for (ra, rb) in a.iter_rows().zip(b.iter_rows()) {
        let mut diff = ra ^ rb;
        while diff != 0 {
            let j = diff.trailing_zeros() as usize;
            diff &= diff - 1;
            err += weights[j];
        }
    }
    err
}

/// The powers-of-two weight vector `[1, 2, 4, ...]` the paper proposes
/// for numerically interpreted output buses (LSB first).
///
/// Computed as exact `f64` powers of two, which stay exact (and
/// strictly increasing) far past the 64-bit integer range — a `u64`
/// shift would have to clamp around column 62/63 and silently give
/// every wider column the same weight.
pub fn value_weights(cols: usize) -> Vec<f64> {
    (0..cols).map(|j| (2.0f64).powi(j as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_counts_differences() {
        let a = BoolMatrix::from_rows(4, &[0b0000, 0b1111]);
        let b = BoolMatrix::from_rows(4, &[0b0001, 0b1111]);
        assert_eq!(hamming(&a, &b), 1);
        assert_eq!(hamming(&a, &a), 0);
    }

    #[test]
    fn weighted_error_uses_column_weights() {
        let a = BoolMatrix::from_rows(3, &[0b000]);
        let b = BoolMatrix::from_rows(3, &[0b101]);
        let w = value_weights(3);
        assert_eq!(weighted_error(&a, &b, &w), 1.0 + 4.0);
    }

    #[test]
    fn uniform_weights_match_hamming() {
        let a = BoolMatrix::from_rows(4, &[0b1010, 0b0101]);
        let b = BoolMatrix::from_rows(4, &[0b0110, 0b0000]);
        let w = vec![1.0; 4];
        assert_eq!(weighted_error(&a, &b, &w) as usize, hamming(&a, &b));
    }

    #[test]
    fn value_weights_are_powers_of_two() {
        assert_eq!(value_weights(4), vec![1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn value_weights_stay_exact_past_column_62() {
        // Regression: the old `(1u64 << j.min(62)) as f64` clamped the
        // exponent, giving every column past 62 the same 2^62 weight.
        let w = value_weights(70);
        assert_eq!(w.len(), 70);
        for (j, &wj) in w.iter().enumerate() {
            assert_eq!(wj, (2.0f64).powi(j as i32), "column {j}");
        }
        // Strictly increasing all the way out — no clamping plateau.
        assert!(w.windows(2).all(|p| p[1] == 2.0 * p[0]));
        // Unchanged below the old clamp (exact powers of two in f64).
        assert_eq!(w[62], (1u64 << 62) as f64);
        // And genuinely larger above it.
        assert!(w[69] > w[62]);
        assert_eq!(w[69] / w[62], 128.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_checked() {
        let a = BoolMatrix::zeroed(2, 3);
        let b = BoolMatrix::zeroed(3, 3);
        let _ = hamming(&a, &b);
    }
}

//! Bit-packed Boolean matrices with up to 64 columns.
//!
//! Truth tables in BLASYS have at most `m = 10` output columns, so one
//! `u64` word per row is sufficient and keeps row operations (the inner
//! loop of every factorization algorithm) single-instruction.

use std::fmt;

/// A dense Boolean matrix with at most 64 columns, one word per row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BoolMatrix {
    cols: usize,
    rows: Vec<u64>,
}

impl BoolMatrix {
    /// Maximum supported column count.
    pub const MAX_COLS: usize = 64;

    /// An all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `cols > 64`.
    pub fn zeroed(rows: usize, cols: usize) -> BoolMatrix {
        assert!(cols <= Self::MAX_COLS, "at most 64 columns supported");
        BoolMatrix {
            cols,
            rows: vec![0; rows],
        }
    }

    /// Build from row words; bit `j` of `rows[i]` is entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `cols > 64` or a row has bits set beyond `cols`.
    pub fn from_rows(cols: usize, rows: &[u64]) -> BoolMatrix {
        assert!(cols <= Self::MAX_COLS, "at most 64 columns supported");
        let mask = Self::col_mask(cols);
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(r & !mask, 0, "row {i} has bits beyond column {cols}");
        }
        BoolMatrix {
            cols,
            rows: rows.to_vec(),
        }
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> bool,
    ) -> BoolMatrix {
        let mut m = BoolMatrix::zeroed(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if f(i, j) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    fn col_mask(cols: usize) -> u64 {
        if cols == 64 {
            !0
        } else {
            (1u64 << cols) - 1
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(col < self.cols);
        self.rows[row] >> col & 1 == 1
    }

    /// Set entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(col < self.cols);
        if value {
            self.rows[row] |= 1 << col;
        } else {
            self.rows[row] &= !(1 << col);
        }
    }

    /// The packed word of one row (bit `j` = column `j`).
    pub fn row(&self, row: usize) -> u64 {
        self.rows[row]
    }

    /// Overwrite one row from a packed word.
    ///
    /// # Panics
    ///
    /// Panics if bits beyond the column count are set.
    pub fn set_row(&mut self, row: usize, word: u64) {
        assert_eq!(word & !Self::col_mask(self.cols), 0, "stray bits");
        self.rows[row] = word;
    }

    /// Iterate over packed rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.iter().copied()
    }

    /// The first `f` rows.
    pub(crate) fn leading_rows(&self, f: usize) -> BoolMatrix {
        BoolMatrix {
            cols: self.cols,
            rows: self.rows[..f].to_vec(),
        }
    }

    /// The first `f` columns.
    pub(crate) fn leading_cols(&self, f: usize) -> BoolMatrix {
        let mask = Self::col_mask(f);
        BoolMatrix {
            cols: f,
            rows: self.rows.iter().map(|&r| r & mask).collect(),
        }
    }

    /// Column `j` as a packed bitset over rows (64 rows per word).
    pub fn column_bits(&self, col: usize) -> Vec<u64> {
        assert!(col < self.cols);
        let words = self.rows.len().div_ceil(64);
        let mut out = vec![0u64; words];
        for (i, &r) in self.rows.iter().enumerate() {
            if r >> col & 1 == 1 {
                out[i / 64] |= 1 << (i % 64);
            }
        }
        out
    }

    /// Total number of ones.
    pub fn count_ones(&self) -> usize {
        self.rows.iter().map(|r| r.count_ones() as usize).sum()
    }

    /// Number of ones in one column.
    pub fn column_count_ones(&self, col: usize) -> usize {
        assert!(col < self.cols);
        self.rows.iter().filter(|&&r| r >> col & 1 == 1).count()
    }

    /// Transposed copy.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than 64 rows (the transpose would
    /// exceed the column limit).
    pub fn transposed(&self) -> BoolMatrix {
        assert!(
            self.rows.len() <= Self::MAX_COLS,
            "too many rows to transpose"
        );
        BoolMatrix::from_fn(self.cols, self.rows.len(), |i, j| self.get(j, i))
    }

    /// Boolean semi-ring product `self ∘ other` (AND for products, OR
    /// for sums). `self` is `n × f`, `other` is `f × m`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn or_product(&self, other: &BoolMatrix) -> BoolMatrix {
        assert_eq!(self.cols, other.num_rows(), "inner dimension mismatch");
        let mut out = BoolMatrix::zeroed(self.num_rows(), other.num_cols());
        for (i, &brow) in self.rows.iter().enumerate() {
            let mut acc = 0u64;
            let mut bits = brow;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                acc |= other.rows[l];
            }
            out.rows[i] = acc;
        }
        out
    }

    /// GF(2) field product (AND for products, XOR for sums).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn xor_product(&self, other: &BoolMatrix) -> BoolMatrix {
        assert_eq!(self.cols, other.num_rows(), "inner dimension mismatch");
        let mut out = BoolMatrix::zeroed(self.num_rows(), other.num_cols());
        for (i, &brow) in self.rows.iter().enumerate() {
            let mut acc = 0u64;
            let mut bits = brow;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                acc ^= other.rows[l];
            }
            out.rows[i] = acc;
        }
        out
    }
}

impl fmt::Display for BoolMatrix {
    /// Rows of `0`/`1` characters, one line per row (column 0 leftmost).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.num_rows() {
            for j in 0..self.cols {
                f.write_str(if self.get(i, j) { "1" } else { "0" })?;
            }
            if i + 1 < self.num_rows() {
                f.write_str("\n")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut m = BoolMatrix::zeroed(3, 5);
        m.set(0, 0, true);
        m.set(2, 4, true);
        assert!(m.get(0, 0));
        assert!(m.get(2, 4));
        assert!(!m.get(1, 2));
        m.set(0, 0, false);
        assert!(!m.get(0, 0));
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn from_rows_validates() {
        let m = BoolMatrix::from_rows(3, &[0b101, 0b010]);
        assert_eq!(m.num_rows(), 2);
        assert!(m.get(0, 0) && !m.get(0, 1) && m.get(0, 2));
    }

    #[test]
    #[should_panic(expected = "bits beyond")]
    fn from_rows_rejects_stray_bits() {
        let _ = BoolMatrix::from_rows(2, &[0b100]);
    }

    #[test]
    fn or_product_example() {
        // Figure 1 of the paper illustrates OR-semiring products; check a
        // hand-computed case. B: 3x2, C: 2x2.
        let b = BoolMatrix::from_rows(2, &[0b01, 0b10, 0b11]);
        let c = BoolMatrix::from_rows(2, &[0b01, 0b11]);
        let m = b.or_product(&c);
        assert_eq!(m.row(0), 0b01); // row selects basis 0
        assert_eq!(m.row(1), 0b11); // basis 1
        assert_eq!(m.row(2), 0b11); // OR of both
    }

    #[test]
    fn xor_product_differs_from_or() {
        let b = BoolMatrix::from_rows(2, &[0b11]);
        let c = BoolMatrix::from_rows(2, &[0b01, 0b01]);
        assert_eq!(b.or_product(&c).row(0), 0b01);
        assert_eq!(b.xor_product(&c).row(0), 0b00); // 1 XOR 1 = 0
    }

    #[test]
    fn column_bits_match_get() {
        let m = BoolMatrix::from_fn(70, 3, |i, j| (i + j) % 3 == 0);
        for j in 0..3 {
            let col = m.column_bits(j);
            for i in 0..70 {
                assert_eq!(col[i / 64] >> (i % 64) & 1 == 1, m.get(i, j));
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = BoolMatrix::from_fn(5, 7, |i, j| i * 3 + j % 2 == j);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn column_count_ones_counts() {
        let m = BoolMatrix::from_rows(2, &[0b01, 0b01, 0b11]);
        assert_eq!(m.column_count_ones(0), 3);
        assert_eq!(m.column_count_ones(1), 1);
    }

    #[test]
    fn display_renders_bits() {
        let m = BoolMatrix::from_rows(2, &[0b01, 0b10]);
        assert_eq!(m.to_string(), "10\n01");
    }
}

//! Per-column simplification ladders.
//!
//! A column (one output bit of one window) is minimized into prime
//! cubes; dropping a cube flips the onset rows only it covered —
//! a quantifiable, monotone simplification. When the column is mostly
//! ones the ladder works on the complement (dropping flips zeros to
//! ones, converging to constant 1 instead of constant 0).

use blasys_logic::TruthTable;
use blasys_synth::cube::input_masks;
use blasys_synth::minimize_column;

/// One rung of a column's simplification ladder.
#[derive(Debug, Clone)]
pub struct ColumnVariant {
    /// Number of cubes kept (of the exact minimized cover).
    pub kept_cubes: usize,
    /// The approximate column as a row bitset.
    pub bits: Vec<u64>,
    /// Rows whose value differs from the exact column.
    pub flips: usize,
}

/// Build the ladder for one column of a window truth table, from exact
/// (first) to a constant (last). `steps` bounds the number of
/// intermediate rungs.
pub fn column_ladder(tt: &TruthTable, column: usize, steps: usize) -> Vec<ColumnVariant> {
    let k = tt.num_inputs();
    let rows = tt.rows();
    let words = rows.div_ceil(64);
    let exact: Vec<u64> = tt.column(column).to_vec();
    let ones: usize = exact.iter().map(|w| w.count_ones() as usize).sum();

    // Work on whichever phase has the sparser onset.
    let complemented = ones * 2 > rows;
    let side: Vec<u64> = if complemented {
        let mut v: Vec<u64> = exact.iter().map(|w| !w).collect();
        let tail = rows % 64;
        if tail != 0 {
            v[words - 1] &= (1u64 << tail) - 1;
        }
        v
    } else {
        exact.clone()
    };

    let cover = minimize_column(k, &side);
    let masks = input_masks(k);
    let covs: Vec<Vec<u64>> = cover
        .cubes()
        .iter()
        .map(|c| c.coverage(k, &masks))
        .collect();

    // Drop order: repeatedly drop the cube with the fewest private
    // onset rows (least local damage first).
    let mut alive: Vec<bool> = vec![true; cover.cube_count()];
    let mut drop_order: Vec<usize> = Vec::with_capacity(cover.cube_count());
    for _ in 0..cover.cube_count() {
        let mut best: Option<(usize, usize)> = None;
        for (i, &a) in alive.iter().enumerate() {
            if !a {
                continue;
            }
            let private = private_rows(i, &alive, &covs, &side);
            if best.is_none_or(|(p, _)| private < p) {
                best = Some((private, i));
            }
        }
        let (_, i) = best.unwrap();
        alive[i] = false;
        drop_order.push(i);
    }

    // Snapshot rungs at roughly geometric spacing.
    let n = cover.cube_count();
    let mut keeps: Vec<usize> = vec![n];
    let mut frac = 0.75f64;
    for _ in 0..steps {
        let kcubes = (n as f64 * frac).round() as usize;
        keeps.push(kcubes);
        frac *= 0.55;
    }
    keeps.push(0);
    keeps.sort_unstable();
    keeps.dedup();
    keeps.reverse();

    keeps
        .into_iter()
        .map(|kept| {
            // Remaining cubes = all except the first (n - kept) dropped.
            let dropped: std::collections::HashSet<usize> =
                drop_order.iter().take(n - kept).copied().collect();
            let mut bits = vec![0u64; words];
            for (i, cov) in covs.iter().enumerate() {
                if dropped.contains(&i) {
                    continue;
                }
                for (b, w) in bits.iter_mut().zip(cov) {
                    *b |= w;
                }
            }
            if complemented {
                for b in bits.iter_mut() {
                    *b = !*b;
                }
                let tail = rows % 64;
                if tail != 0 {
                    bits[words - 1] &= (1u64 << tail) - 1;
                }
            }
            let flips: usize = bits
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a ^ b).count_ones() as usize)
                .sum();
            ColumnVariant {
                kept_cubes: kept,
                bits,
                flips,
            }
        })
        .collect()
}

/// Onset rows covered by cube `i` and no other alive cube.
fn private_rows(i: usize, alive: &[bool], covs: &[Vec<u64>], onset: &[u64]) -> usize {
    let mut private = 0usize;
    for w in 0..onset.len() {
        let mut others = 0u64;
        for (j, cov) in covs.iter().enumerate() {
            if j != i && alive[j] {
                others |= cov[w];
            }
        }
        private += (covs[i][w] & onset[w] & !others).count_ones() as usize;
    }
    private
}

/// Keep only the literal structure of a variant for synthesis: the
/// variant's column as a 1-output truth table.
pub fn variant_table(k: usize, variant: &ColumnVariant) -> TruthTable {
    let mut tt = TruthTable::zeroed(k, 1);
    tt.set_column(0, variant.bits.clone());
    tt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tt() -> TruthTable {
        TruthTable::from_fn(6, 3, |row| {
            let a = row & 0b111;
            let b = row >> 3;
            ((a * b) & 0b111) as u64
        })
    }

    #[test]
    fn ladder_starts_exact_ends_constant() {
        let tt = sample_tt();
        for col in 0..3 {
            let ladder = column_ladder(&tt, col, 4);
            assert!(ladder.len() >= 2);
            assert_eq!(ladder[0].flips, 0, "first rung must be exact");
            let last = ladder.last().unwrap();
            assert_eq!(last.kept_cubes, 0);
            // Constant column: all zero or all one.
            let ones: usize = last.bits.iter().map(|w| w.count_ones() as usize).sum();
            assert!(ones == 0 || ones == tt.rows());
        }
    }

    #[test]
    fn flips_monotone_nondecreasing() {
        let tt = sample_tt();
        let ladder = column_ladder(&tt, 1, 5);
        for w in ladder.windows(2) {
            assert!(w[1].kept_cubes <= w[0].kept_cubes);
        }
        // The exact rung has zero flips and the constant rung the most
        // (monotonicity per step is not guaranteed for complemented
        // phases, but the endpoints must order correctly).
        assert!(ladder.last().unwrap().flips >= ladder[0].flips);
    }

    #[test]
    fn dense_column_uses_complement_phase() {
        // A column that is 1 almost everywhere must converge to
        // constant 1, not constant 0.
        let tt = TruthTable::from_fn(5, 1, |row| u64::from(row != 3));
        let ladder = column_ladder(&tt, 0, 3);
        let last = ladder.last().unwrap();
        let ones: usize = last.bits.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(ones, tt.rows(), "dense column should end at constant 1");
        assert_eq!(last.flips, 1);
    }

    #[test]
    fn variant_table_roundtrip() {
        let tt = sample_tt();
        let ladder = column_ladder(&tt, 0, 3);
        let vt = variant_table(6, &ladder[0]);
        for row in 0..tt.rows() {
            assert_eq!(vt.get(row, 0), tt.get(row, 0));
        }
    }
}

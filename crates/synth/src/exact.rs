//! Exact two-level minimization (Quine–McCluskey + branch-and-bound
//! cover), used as a test oracle for the heuristic minimizer on small
//! functions.

use crate::cube::{input_masks, Cube, Sop};

/// Exact minimum-cube cover of a fully specified function.
///
/// Generates all prime implicants by iterated merging, then finds a
/// minimum cover by branch-and-bound (essential primes first). Only
/// intended for small `k`; cost is exponential.
///
/// # Panics
///
/// Panics if `k > 10` (the oracle is for small functions only).
pub fn minimize_exact(k: usize, onset: &[u64]) -> Sop {
    assert!(k <= 10, "exact minimizer is an oracle for small k");
    let rows = 1usize << k;
    let on: Vec<usize> = (0..rows)
        .filter(|&r| onset[r / 64] >> (r % 64) & 1 == 1)
        .collect();
    if on.is_empty() {
        return Sop::constant_false(k);
    }
    if on.len() == rows {
        return Sop::constant_true(k);
    }

    let primes = prime_implicants(k, &on);
    let masks = input_masks(k);
    // Row coverage per prime, restricted to the onset.
    let covs: Vec<Vec<usize>> = primes
        .iter()
        .map(|p| {
            let cov = p.coverage(k, &masks);
            on.iter()
                .copied()
                .filter(|&r| cov[r / 64] >> (r % 64) & 1 == 1)
                .collect()
        })
        .collect();

    // Branch and bound over onset rows.
    let mut best: Option<Vec<usize>> = None;
    let mut chosen: Vec<usize> = Vec::new();
    let row_index: std::collections::HashMap<usize, usize> =
        on.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut covered = vec![false; on.len()];
    // Primes covering each onset row.
    let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); on.len()];
    for (p, cov) in covs.iter().enumerate() {
        for &r in cov {
            by_row[row_index[&r]].push(p);
        }
    }
    search(
        &mut chosen,
        &mut covered,
        &by_row,
        &covs,
        &row_index,
        &mut best,
    );
    let sel = best.expect("cover must exist");
    Sop::new(k, sel.into_iter().map(|p| primes[p]).collect())
}

fn search(
    chosen: &mut Vec<usize>,
    covered: &mut Vec<bool>,
    by_row: &[Vec<usize>],
    covs: &[Vec<usize>],
    row_index: &std::collections::HashMap<usize, usize>,
    best: &mut Option<Vec<usize>>,
) {
    if let Some(b) = best {
        if chosen.len() >= b.len() {
            return; // bound
        }
    }
    // Pick the uncovered row with the fewest covering primes.
    let next = (0..covered.len())
        .filter(|&i| !covered[i])
        .min_by_key(|&i| by_row[i].len());
    let Some(row) = next else {
        *best = Some(chosen.clone());
        return;
    };
    for &p in &by_row[row] {
        let newly: Vec<usize> = covs[p]
            .iter()
            .map(|r| row_index[r])
            .filter(|&i| !covered[i])
            .collect();
        for &i in &newly {
            covered[i] = true;
        }
        chosen.push(p);
        search(chosen, covered, by_row, covs, row_index, best);
        chosen.pop();
        for &i in &newly {
            covered[i] = false;
        }
    }
}

/// All prime implicants of the onset by iterated pairwise merging.
fn prime_implicants(k: usize, on: &[usize]) -> Vec<Cube> {
    let mut current: Vec<Cube> = on.iter().map(|&r| Cube::minterm(r, k)).collect();
    let mut primes: Vec<Cube> = Vec::new();
    while !current.is_empty() {
        let mut merged_flag = vec![false; current.len()];
        let mut next: Vec<Cube> = Vec::new();
        for i in 0..current.len() {
            for j in (i + 1)..current.len() {
                let (a, b) = (current[i], current[j]);
                if a.care() != b.care() {
                    continue;
                }
                let diff = a.value() ^ b.value();
                if diff.count_ones() == 1 {
                    let v = diff.trailing_zeros() as usize;
                    next.push(a.without_literal(v));
                    merged_flag[i] = true;
                    merged_flag[j] = true;
                }
            }
        }
        for (i, c) in current.iter().enumerate() {
            if !merged_flag[i] {
                primes.push(*c);
            }
        }
        next.sort_unstable();
        next.dedup();
        current = next;
    }
    primes.sort_unstable();
    primes.dedup();
    primes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::minimize_column;

    fn onset_from_fn(k: usize, f: impl Fn(usize) -> bool) -> Vec<u64> {
        let rows = 1usize << k;
        let mut v = vec![0u64; rows.div_ceil(64)];
        for r in 0..rows {
            if f(r) {
                v[r / 64] |= 1 << (r % 64);
            }
        }
        v
    }

    /// (k, function, expected minimal cube count).
    type MinimaCase = (usize, fn(usize) -> bool, usize);

    #[test]
    fn exact_matches_known_minima() {
        let cases: Vec<MinimaCase> = vec![
            (3, |r| (r as u32).count_ones() >= 2, 3), // majority
            (3, |r| (r.count_ones() & 1) == 1, 4),    // parity
            (2, |r| r != 0, 2),                       // or
            (4, |r| r == 0b1111, 1),                  // and
        ];
        for (k, f, expect) in cases {
            let sop = minimize_exact(k, &onset_from_fn(k, f));
            assert_eq!(sop.cube_count(), expect);
            for row in 0..1usize << k {
                assert_eq!(sop.eval_row(row), f(row));
            }
        }
    }

    #[test]
    fn heuristic_matches_exact_on_small_random_functions() {
        for seed in 0..40u64 {
            let k = 4;
            let f = |r: usize| {
                let x = (r as u64 + 1).wrapping_mul(seed.wrapping_mul(0x9E37) + 0xABCDEF);
                (x >> 13) & 1 == 1
            };
            let onset = onset_from_fn(k, f);
            let exact = minimize_exact(k, &onset);
            let heur = minimize_column(k, &onset);
            for row in 0..1usize << k {
                assert_eq!(heur.eval_row(row), f(row), "equivalence seed={seed}");
            }
            // The heuristic should stay within one cube of optimal on
            // these tiny functions.
            assert!(
                heur.cube_count() <= exact.cube_count() + 1,
                "seed {seed}: heuristic {} vs exact {}",
                heur.cube_count(),
                exact.cube_count()
            );
        }
    }

    #[test]
    fn constants() {
        let k = 3;
        assert_eq!(
            minimize_exact(k, &onset_from_fn(k, |_| false)).cube_count(),
            0
        );
        let t = minimize_exact(k, &onset_from_fn(k, |_| true));
        assert_eq!(t.cube_count(), 1);
        assert_eq!(t.literal_count(), 0);
    }
}

//! Espresso-style heuristic two-level minimization.
//!
//! Operates directly on row bitsets over the `2^k` input space (the
//! windows BLASYS minimizes have `k ≤ 10`, i.e. at most 16 words), in
//! the classic EXPAND → IRREDUNDANT (→ REDUCE → re-EXPAND) loop:
//!
//! * **expand** raises each cube to a prime implicant by dropping
//!   literals while the cube stays inside `onset ∪ dcset`;
//! * **irredundant** greedily selects a minimal subset of primes
//!   covering the onset (largest uncovered gain first);
//! * **reduce** shrinks each selected cube to the smallest cube still
//!   covering its *essential* rows, giving the next expand pass freedom
//!   to move in a different direction.
//!
//! Multiple literal orders are tried in the expand phase and the best
//! cover (fewest cubes, then fewest literals) wins. The result is
//! always *exactly* equivalent to the specification on rows outside
//! the don't-care set — approximation in BLASYS comes from the matrix
//! factorization, never from the minimizer.

use crate::cube::{input_masks, Cube, Sop};

/// Bitset helpers over row-space words.
fn bs_and_not(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x & !y).collect()
}

fn bs_is_zero(a: &[u64]) -> bool {
    a.iter().all(|&w| w == 0)
}

fn bs_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// A fully specified single-output minimization problem.
#[derive(Debug, Clone)]
pub struct MinimizeSpec<'a> {
    /// Number of inputs `k` (rows = `2^k`).
    pub num_inputs: usize,
    /// Bitset of rows where the function must be 1.
    pub onset: &'a [u64],
    /// Bitset of rows where the function value is free.
    pub dcset: &'a [u64],
}

/// REDUCE / re-EXPAND refinement iterations after the first
/// EXPAND → IRREDUNDANT pass.
const ITERATIONS: usize = 1;

/// Literal orders EXPAND tries, from forward then reverse (2 = both);
/// the better cover wins.
const ORDERS: usize = 2;

/// Minimize a single-output function given as onset/dcset bitsets.
///
/// The returned cover agrees with the onset on every row not in the
/// dcset and never covers a row outside `onset ∪ dcset`.
///
/// # Panics
///
/// Panics if `num_inputs > 26` or the bitsets have the wrong length.
pub fn minimize(spec: &MinimizeSpec<'_>) -> Sop {
    let k = spec.num_inputs;
    assert!(k <= 26, "row-space minimizer limited to 26 inputs");
    let words = (1usize << k).div_ceil(64);
    assert_eq!(spec.onset.len(), words, "onset word count");
    assert_eq!(spec.dcset.len(), words, "dcset word count");
    if bs_is_zero(spec.onset) {
        return Sop::constant_false(k);
    }
    let masks = input_masks(k);
    let care: Vec<u64> = spec
        .onset
        .iter()
        .zip(spec.dcset)
        .map(|(a, b)| a | b)
        .collect();
    // With an empty offset, constant true is a valid (and minimal) cover.
    let offset = bs_and_not(&bs_ones(k), &care);
    if bs_is_zero(&offset) {
        return Sop::constant_true(k);
    }

    let orders: [Vec<usize>; 2] = [(0..k).collect(), (0..k).rev().collect()];

    let mut best: Option<Sop> = None;
    for order in orders.iter().take(ORDERS) {
        let sop = run_loop(spec, &care, &masks, order);
        let better = match &best {
            None => true,
            Some(b) => {
                (sop.cube_count(), sop.literal_count()) < (b.cube_count(), b.literal_count())
            }
        };
        if better {
            best = Some(sop);
        }
    }
    best.unwrap()
}

fn bs_ones(k: usize) -> Vec<u64> {
    let rows = 1usize << k;
    let words = rows.div_ceil(64);
    let mut v = vec![!0u64; words];
    let tail = rows % 64;
    if tail != 0 {
        v[words - 1] = (1u64 << tail) - 1;
    }
    v
}

fn bs_or(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x | y).collect()
}

fn run_loop(spec: &MinimizeSpec<'_>, care: &[u64], masks: &[Vec<u64>], order: &[usize]) -> Sop {
    let k = spec.num_inputs;
    // Seed: one cube per onset minterm.
    let mut cubes: Vec<Cube> = rows_of(spec.onset)
        .map(|row| Cube::minterm(row, k))
        .collect();

    let mut cover = irredundant(
        &expand_all(&cubes, care, masks, k, order),
        spec.onset,
        masks,
        k,
    );
    for _ in 0..ITERATIONS {
        cubes = reduce(&cover, spec.onset, masks, k);
        // Alternate expansion direction between iterations.
        let rev: Vec<usize> = order.iter().rev().copied().collect();
        let next = irredundant(
            &expand_all(&cubes, care, masks, k, &rev),
            spec.onset,
            masks,
            k,
        );
        if (next.cube_count(), next.literal_count()) < (cover.cube_count(), cover.literal_count()) {
            cover = next;
        } else {
            break;
        }
    }
    cover
}

fn rows_of(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut bitsleft = word;
        std::iter::from_fn(move || {
            if bitsleft == 0 {
                return None;
            }
            let b = bitsleft.trailing_zeros() as usize;
            bitsleft &= bitsleft - 1;
            Some(w * 64 + b)
        })
    })
}

/// Expand every cube to a prime (maximal cube inside `care`), dropping
/// literals in the given order; dedup and drop contained cubes.
fn expand_all(
    cubes: &[Cube],
    care: &[u64],
    masks: &[Vec<u64>],
    k: usize,
    order: &[usize],
) -> Vec<Cube> {
    let mut primes: Vec<Cube> = Vec::with_capacity(cubes.len());
    for &c in cubes {
        let mut cur = c;
        for &v in order {
            if cur.care() >> v & 1 == 0 {
                continue;
            }
            let cand = cur.without_literal(v);
            if bs_subset(&cand.coverage(k, masks), care) {
                cur = cand;
            }
        }
        primes.push(cur);
    }
    primes.sort_unstable();
    primes.dedup();
    // Remove cubes strictly contained in another prime.
    let snapshot = primes.clone();
    primes.retain(|c| !snapshot.iter().any(|d| d != c && d.contains(c)));
    primes
}

/// Greedy irredundant cover of the onset using the given primes.
fn irredundant(primes: &[Cube], onset: &[u64], masks: &[Vec<u64>], k: usize) -> Sop {
    let covs: Vec<Vec<u64>> = primes.iter().map(|c| c.coverage(k, masks)).collect();
    let mut uncovered = onset.to_vec();
    let mut chosen: Vec<Cube> = Vec::new();
    while !bs_is_zero(&uncovered) {
        let mut best = None;
        let mut best_key = (0usize, usize::MAX);
        for (i, cov) in covs.iter().enumerate() {
            let gain: usize = cov
                .iter()
                .zip(&uncovered)
                .map(|(c, u)| (c & u).count_ones() as usize)
                .sum();
            if gain == 0 {
                continue;
            }
            let key = (gain, primes[i].literal_count());
            if best.is_none() || key.0 > best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                best = Some(i);
                best_key = key;
            }
        }
        let i = best.expect("onset rows must be coverable by primes");
        chosen.push(primes[i]);
        uncovered = bs_and_not(&uncovered, &covs[i]);
    }
    // Final redundancy sweep: drop cubes whose onset rows are covered by
    // the rest.
    let mut result = chosen.clone();
    let mut idx = 0;
    while idx < result.len() {
        let rest_cov = result
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != idx)
            .fold(vec![0u64; onset.len()], |acc, (_, c)| {
                bs_or(&acc, &c.coverage(k, masks))
            });
        let own = result[idx].coverage(k, masks);
        let essential: Vec<u64> = own
            .iter()
            .zip(onset.iter().zip(&rest_cov))
            .map(|(o, (on, r))| o & on & !r)
            .collect();
        if bs_is_zero(&essential) {
            result.remove(idx);
        } else {
            idx += 1;
        }
    }
    Sop::new(k, result)
}

/// Shrink each cube to the smallest cube covering its essential onset
/// rows. Processed *sequentially* against the partially reduced cover
/// (as in classic espresso) so the joint cover stays valid: a row
/// covered by several cubes is retained by exactly the cubes that
/// still need it at their turn.
fn reduce(cover: &Sop, onset: &[u64], masks: &[Vec<u64>], k: usize) -> Vec<Cube> {
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    let mut covs: Vec<Vec<u64>> = cubes.iter().map(|c| c.coverage(k, masks)).collect();
    for i in 0..cubes.len() {
        let rest = covs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .fold(vec![0u64; onset.len()], |acc, (_, c)| bs_or(&acc, c));
        let essential: Vec<u64> = covs[i]
            .iter()
            .zip(onset.iter().zip(&rest))
            .map(|(o, (on, r))| o & on & !r)
            .collect();
        if bs_is_zero(&essential) {
            continue;
        }
        // Smallest enclosing cube of the essential rows.
        let rows: Vec<usize> = rows_of(&essential).collect();
        let mut care = if k == 32 { !0u32 } else { (1u32 << k) - 1 };
        let value = rows[0] as u32;
        for &r in &rows[1..] {
            care &= !(r as u32 ^ value);
        }
        cubes[i] = Cube::new(care, value & care);
        covs[i] = cubes[i].coverage(k, masks);
    }
    cubes
}

/// Minimize a function given by a truth-table column (fully specified).
pub fn minimize_column(k: usize, onset: &[u64]) -> Sop {
    let words = (1usize << k).div_ceil(64);
    let dc = vec![0u64; words];
    minimize(&MinimizeSpec {
        num_inputs: k,
        onset,
        dcset: &dc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn check_equivalent(k: usize, sop: &Sop, f: impl Fn(usize) -> bool) {
        for row in 0..1usize << k {
            assert_eq!(sop.eval_row(row), f(row), "row {row:b}");
        }
    }

    #[test]
    fn and_function_single_cube() {
        let k = 4;
        let f = |r: usize| r == 0b1111;
        let sop = minimize_column(k, &onset_from_fn(k, f));
        check_equivalent(k, &sop, f);
        assert_eq!(sop.cube_count(), 1);
        assert_eq!(sop.literal_count(), 4);
    }

    #[test]
    fn or_function_minimal() {
        let k = 3;
        let f = |r: usize| r != 0;
        let sop = minimize_column(k, &onset_from_fn(k, f));
        check_equivalent(k, &sop, f);
        assert_eq!(sop.cube_count(), 3); // x0 | x1 | x2
        assert_eq!(sop.literal_count(), 3);
    }

    #[test]
    fn xor_needs_2_pow_k_minus_1_cubes() {
        let k = 3;
        let f = |r: usize| (r.count_ones() & 1) == 1;
        let sop = minimize_column(k, &onset_from_fn(k, f));
        check_equivalent(k, &sop, f);
        assert_eq!(sop.cube_count(), 4); // parity is incompressible
    }

    #[test]
    fn constant_functions() {
        let k = 4;
        let t = minimize_column(k, &onset_from_fn(k, |_| true));
        check_equivalent(k, &t, |_| true);
        assert_eq!(t.literal_count(), 0);
        let f = minimize_column(k, &onset_from_fn(k, |_| false));
        check_equivalent(k, &f, |_| false);
        assert_eq!(f.cube_count(), 0);
    }

    #[test]
    fn classic_kmap_example() {
        // f = !x1!x0 + x1x0 over 2 vars extended with a don't-care var:
        // known minimal: 2 cubes.
        let k = 3;
        let f = |r: usize| (r & 0b11 == 0b00) || (r & 0b11 == 0b11);
        let sop = minimize_column(k, &onset_from_fn(k, f));
        check_equivalent(k, &sop, f);
        assert_eq!(sop.cube_count(), 2);
        assert_eq!(sop.literal_count(), 4); // third var eliminated
    }

    #[test]
    fn dont_cares_enable_smaller_covers() {
        // onset = {3}, dc = everything else except {0}: minimal cover is
        // a single literal (or even constant-true would violate row 0).
        let k = 2;
        let onset = onset_from_fn(k, |r| r == 3);
        let dc = onset_from_fn(k, |r| r == 1 || r == 2);
        let sop = minimize(&MinimizeSpec {
            num_inputs: k,
            onset: &onset,
            dcset: &dc,
        });
        // Must be 1 on row 3, 0 on row 0; rows 1,2 free.
        assert!(sop.eval_row(3));
        assert!(!sop.eval_row(0));
        assert_eq!(sop.cube_count(), 1);
        assert_eq!(sop.literal_count(), 1);
    }

    #[test]
    fn majority_function() {
        let k = 3;
        let f = |r: usize| (r as u32).count_ones() >= 2;
        let sop = minimize_column(k, &onset_from_fn(k, f));
        check_equivalent(k, &sop, f);
        assert_eq!(sop.cube_count(), 3); // ab + bc + ac
        assert_eq!(sop.literal_count(), 6);
    }

    #[test]
    fn random_functions_stay_equivalent() {
        // Deterministic pseudo-random functions over 6 inputs.
        for seed in 0..20u64 {
            let k = 6;
            let f = |r: usize| {
                let x =
                    (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed.wrapping_mul(0xDEAD_BEEF);
                (x >> 17) & 1 == 1
            };
            let sop = minimize_column(k, &onset_from_fn(k, f));
            check_equivalent(k, &sop, f);
        }
    }

    #[test]
    fn adder_carry_is_compact() {
        // carry(a,b,cin) = majority — spread over 6 inputs to exercise
        // wider windows: carry of bit 1 of a 2-bit adder.
        let k = 6;
        // inputs: a0,a1,b0,b1 at 0..4; compute carry out of a+b (2-bit).
        let f = |r: usize| {
            let a = r & 0b11;
            let b = (r >> 2) & 0b11;
            (a + b) & 0b100 != 0
        };
        let sop = minimize_column(k, &onset_from_fn(k, f));
        check_equivalent(k, &sop, f);
        assert!(sop.cube_count() <= 6, "got {}", sop.cube_count());
    }

    #[test]
    fn ten_input_window_runs_fast_and_exact() {
        // The paper's window size: k = 10. A structured function.
        let k = 10;
        let f = |r: usize| ((r * 37) ^ (r >> 3)) & 0b1001 == 0b1001;
        let sop = minimize_column(k, &onset_from_fn(k, f));
        check_equivalent(k, &sop, f);
    }
}

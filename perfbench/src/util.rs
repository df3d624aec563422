//! Small shared helpers: seeded stimulus, fingerprints, statistics and
//! process memory.

use blasys_core::{SubcircuitProfile, TrajectoryPoint};
use blasys_logic::Netlist;

/// Monte-Carlo samples per flow (the CLI default).
pub const SAMPLES: usize = 10_000;

/// SplitMix64: the benchmark's own generator, so its inputs do not
/// depend on any RNG inside the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent sub-seed for one named use of the workload
/// seed, so that e.g. each circuit's stimulus differs.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(seed);
    fp.bytes(tag.as_bytes());
    fp.value()
}

/// Uniform stimulus `stim[input][block]` covering [`SAMPLES`] samples.
pub fn uniform_stimulus(nl: &Netlist, seed: u64) -> Vec<Vec<u64>> {
    let blocks = SAMPLES.div_ceil(64);
    let mut rng = SplitMix::new(seed);
    (0..nl.num_inputs())
        .map(|_| (0..blocks).map(|_| rng.next_u64()).collect())
        .collect()
}

/// Workload stimulus for a Table-1 circuit: the accumulation traces of
/// `blasys_bench::stimulus_for` for MAC and SAD, uniform otherwise.
pub fn stimulus(name: &str, nl: &Netlist, seed: u64) -> Vec<Vec<u64>> {
    let seed = sub_seed(seed, name);
    blasys_bench::stimulus_for(name, nl, SAMPLES, seed)
        .unwrap_or_else(|| uniform_stimulus(nl, seed))
}

/// FNV-1a, 64 bit: a stable hash for trajectory fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Every trajectory point's degrees and QoR bits.
    pub fn trajectory(&mut self, points: &[TrajectoryPoint]) {
        for p in points {
            self.u64(p.degrees.len() as u64);
            for &d in &p.degrees {
                self.u64(d as u64);
            }
            let q = &p.qor;
            for v in [
                q.avg_relative,
                q.avg_absolute,
                q.norm_absolute,
                q.bit_error_rate,
                q.error_rate,
            ] {
                self.f64(v);
            }
            self.u64(q.worst_absolute);
            self.u64(q.samples as u64);
        }
    }

    /// Every profile ladder's variant areas.
    pub fn ladders(&mut self, profiles: &[SubcircuitProfile]) {
        for p in profiles {
            self.u64(p.variants.len() as u64);
            for v in &p.variants {
                self.f64(v.area_um2);
            }
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The first round's fingerprint; a note for every later round whose
/// fingerprint differs (the same inputs should give the same results).
pub fn round_fingerprints(notes: &mut Vec<String>, rounds: impl IntoIterator<Item = u64>) -> u64 {
    let mut first = None;
    for (i, fp) in rounds.into_iter().enumerate() {
        let first = *first.get_or_insert(fp);
        if fp != first {
            notes.push(format!(
                "NONDETERMINISTIC: round {i} fingerprint {fp:016x} differs from round 0 ({first:016x})"
            ));
        }
    }
    first.unwrap_or(0)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `q` (in `(0, 1)`) of unsorted
/// values: a mean of all order statistics, weighted by the chance that
/// each one is the sample quantile. Latencies of different request
/// classes leave gaps in the distribution; where a rank-based quantile
/// falls into one, it jumps across the gap whenever one request changes
/// class, while this estimate moves smoothly.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = beta_cdf(a, b, (i + 1) as f64 / n);
        sum += x * (upto - below);
        below = upto;
    }
    sum
}

/// Regularized incomplete beta function `I_x(a, b)`, by its continued
/// fraction (modified Lentz).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |d: f64| if d.abs() < TINY { TINY } else { d };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=300 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        h *= d * c;
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1 − x) = π / sin(πx).
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Whether another round of the timed phase fits: the run started at
/// `start`, measures at least one round, and stops before a round that
/// would be expected (from the last one) to end after `seconds`.
pub fn another_round(start: std::time::Instant, round_s: &[f64], seconds: f64) -> bool {
    let last = round_s.last().copied().unwrap_or(0.0);
    start.elapsed().as_secs_f64() + last <= seconds
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Whether quantile `q` of `samples` values has at least ten samples
/// beyond it.
pub fn tail_ok(samples: usize, q: f64) -> bool {
    (samples as f64 * (1.0 - q)).floor() >= 10.0
}

/// `100 × (1 − geomean(ratios))`.
pub fn saving_pct(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "saving over no results");
    let mean_log = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    100.0 * (1.0 - mean_log.exp())
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_known_values() {
        // Symmetric data: every HD quantile mirrors, the median is exact.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 50.5).abs() < 1e-9);
        assert!((hd_quantile(&v, 0.1) + hd_quantile(&v, 0.9) - 101.0).abs() < 1e-9);
        // One value: the estimate is that value.
        assert!((hd_quantile(&[7.0], 0.9) - 7.0).abs() < 1e-12);
        // A gap between two classes of 90 and 10 values: the rank-based
        // p90 sits on the gap's edge, HD between the classes.
        let mut gap = vec![1.0; 90];
        gap.extend([100.0; 10]);
        let p90 = hd_quantile(&gap, 0.9);
        assert!(p90 > 1.0 && p90 < 100.0, "{p90}");
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((beta_cdf(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
    }
}

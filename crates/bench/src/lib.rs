//! Shared infrastructure of the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! BLASYS paper (see `DESIGN.md` for the experiment index):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `fig3`   | Figure 3 — factorization degrees on the 4×4 example |
//! | `table1` | Table 1 — accurate design metrics |
//! | `fig4`   | Figure 4 — weighted vs uniform QoR on Mult8 |
//! | `fig5`   | Figure 5 — trade-off curves for all six benchmarks |
//! | `table2` | Table 2 — savings at the 5 % threshold |
//! | `table3` | Table 3 — BLASYS vs SALSA at 5 % / 25 % |
//!
//! All binaries honor two environment variables:
//! `BLASYS_SAMPLES` (Monte-Carlo samples, default 10 000 — the paper
//! uses 1 000 000) and `BLASYS_BENCHES` (comma-separated benchmark
//! filter, default all six) — plus a `--threads N` command-line flag
//! (equivalently the `BLASYS_THREADS` environment variable) selecting
//! the worker count for the flow's parallel phases. Results are
//! bit-identical at any thread count.

use blasys_circuits::{all_benchmarks, Benchmark};
use blasys_core::montecarlo::McConfig;
use blasys_core::{FlowConfig, Parallelism};
use blasys_logic::Netlist;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Paper reference numbers, for side-by-side printing.
pub mod paper {
    /// Table 1: (name, inputs/outputs, area µm², power µW, delay ns).
    pub const TABLE1: [(&str, &str, f64, f64, f64); 6] = [
        ("Adder32", "64/33", 320.8, 81.1, 3.23),
        ("Mult8", "16/16", 1731.6, 263.5, 2.03),
        ("BUT", "16/18", 297.4, 80.6, 1.79),
        ("MAC", "48/33", 6013.1, 470.5, 2.36),
        ("SAD", "48/33", 1446.5, 195.1, 2.43),
        ("FIR", "64/16", 8568.0, 466.3, 1.56),
    ];

    /// Table 2: (name, area %, power %, delay %) savings at 5 %.
    pub const TABLE2: [(&str, f64, f64, f64); 6] = [
        ("Adder32", 44.78, 63.79, 12.07),
        ("Mult8", 28.77, 26.87, 12.32),
        ("BUT", 7.87, 11.25, 2.23),
        ("MAC", 47.55, 55.58, 64.41),
        ("SAD", 32.80, 41.47, 69.14),
        ("FIR", 19.52, 22.26, 12.18),
    ];

    /// Table 3: (name, BLASYS@5, SALSA@5, BLASYS@25, SALSA@25) area
    /// savings in percent.
    pub const TABLE3: [(&str, f64, f64, f64, f64); 6] = [
        ("Adder32", 44.9, 20.5, 48.2, 23.2),
        ("Mult8", 28.8, 1.8, 63.2, 8.9),
        ("BUT", 7.9, 5.0, 26.4, 24.7),
        ("MAC", 47.6, 1.7, 65.9, 8.2),
        ("SAD", 32.8, 3.3, 38.1, 15.8),
        ("FIR", 19.5, 3.2, 34.0, 15.8),
    ];

    /// Figure 3: (f, Hamming distance, area µm²) plus the exact design
    /// at 22.3 µm².
    pub const FIG3: [(usize, usize, f64); 3] = [(3, 3, 19.1), (2, 6, 16.2), (1, 13, 9.4)];

    /// Figure 3 exact area, µm².
    pub const FIG3_EXACT_AREA: f64 = 22.3;
}

/// Monte-Carlo sample count from `BLASYS_SAMPLES` (default 10 000).
pub fn sample_count() -> usize {
    sample_count_or(10_000)
}

/// Monte-Carlo sample count from `BLASYS_SAMPLES`, with a
/// caller-chosen default — the shared env knob of the experiment
/// binaries and every example (CI runs them with a small count).
pub fn sample_count_or(default: usize) -> usize {
    std::env::var("BLASYS_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Worker-thread setting from the `--threads N` (or `--threads=N`)
/// command-line flag, falling back to the `BLASYS_THREADS`
/// environment variable (`N = 0` or `auto` → one worker per hardware
/// thread; default serial).
pub fn parallelism_from_args() -> Parallelism {
    let args: Vec<String> = std::env::args().collect();
    parallelism_from(&args)
}

/// Scan an explicit argument list for the `--threads` flag (both
/// spellings), falling back to `BLASYS_THREADS`. The value grammar is
/// [`Parallelism::parse`] — the same parser the `blasys` CLI and the
/// environment variable use, so every entry point accepts identical
/// spellings.
pub fn parallelism_from(args: &[String]) -> Parallelism {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = match arg.strip_prefix("--threads") {
            // Bare `--threads`: the value is the next argument; a
            // trailing flag with no value falls back to the env var.
            Some("") => match it.next() {
                Some(v) => v.clone(),
                None => break,
            },
            // `--threads=N`; an unrelated flag sharing the prefix
            // (e.g. `--threads-report`) keeps the scan going.
            Some(rest) => match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None => continue,
            },
            None => continue,
        };
        // Same spelling rules as BLASYS_THREADS (one shared parser).
        return Parallelism::parse(&value);
    }
    Parallelism::from_env()
}

/// The benchmark set, filtered by `BLASYS_BENCHES` (comma-separated,
/// case-insensitive names).
pub fn selected_benchmarks() -> Vec<Benchmark> {
    let all = all_benchmarks();
    match std::env::var("BLASYS_BENCHES") {
        Ok(filter) if !filter.trim().is_empty() => {
            let wanted: Vec<String> = filter
                .split(',')
                .map(|s| s.trim().to_ascii_lowercase())
                .collect();
            all.into_iter()
                .filter(|b| wanted.iter().any(|w| w == &b.name.to_ascii_lowercase()))
                .collect()
        }
        _ => all,
    }
}

/// The standard BLASYS flow configuration used by every experiment
/// binary (paper parameters: k = m = 10, ASSO + sweep, OR semi-ring),
/// honoring the `--threads` flag.
pub fn standard_flow() -> FlowConfig {
    FlowConfig::new()
        .samples(sample_count())
        .seed(0xB1A5_1234)
        .parallelism(parallelism_from_args())
}

/// The standard Monte-Carlo config matching [`standard_flow`].
pub fn standard_mc() -> McConfig {
    McConfig {
        samples: sample_count(),
        seed: 0xB1A5_1234,
    }
}

/// Workload-appropriate Monte-Carlo stimulus for a benchmark.
///
/// For MAC and SAD the 32-bit accumulator input is drawn from an
/// *accumulation trace* (the running sum of 0–31 random products /
/// absolute differences) instead of uniformly from `[0, 2^32)`:
/// a uniform accumulator makes the product path's relative error
/// vanish (`|R−R'|/R ≈ product/2^31 ≈ 10^-5`), so even dropping the
/// multiplier entirely passes any threshold — the experiment would be
/// degenerate. With short accumulation windows the product path
/// carries ~10 % of the output value on average and the 5 % threshold
/// genuinely constrains the exploration. The paper does not specify
/// its input distribution; this choice matches how a MAC is driven at
/// the start of an accumulation. Other benchmarks return `None`
/// (uniform stimulus).
pub fn stimulus_for(name: &str, nl: &Netlist, samples: usize, seed: u64) -> Option<Vec<Vec<u64>>> {
    let per_term: fn(&mut SmallRng) -> u64 = match name {
        "MAC" => |rng| (rng.gen::<u64>() & 0xFF) * (rng.gen::<u64>() & 0xFF),
        "SAD" => |rng| (rng.gen::<u64>() & 0xFF).abs_diff(rng.gen::<u64>() & 0xFF),
        _ => return None,
    };
    let blocks = samples.div_ceil(64).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stim: Vec<Vec<u64>> = vec![vec![0u64; blocks]; nl.num_inputs()];
    // Input index by name for bit placement.
    let find = |prefix: &str, bit: usize| -> Option<usize> {
        let want = format!("{prefix}{bit}");
        (0..nl.num_inputs()).find(|&i| nl.input_name(i) == want)
    };
    #[allow(clippy::needless_range_loop)]
    for block in 0..blocks {
        for lane in 0..64 {
            let a = rng.gen::<u64>() & 0xFF;
            let b = rng.gen::<u64>() & 0xFF;
            let terms = rng.gen_range(0..32u32);
            let mut acc = 0u64;
            for _ in 0..terms {
                acc = acc.wrapping_add(per_term(&mut rng));
            }
            acc &= 0xFFFF_FFFF;
            for (prefix, value, width) in [("a", a, 8usize), ("b", b, 8), ("acc", acc, 32)] {
                for bit in 0..width {
                    if value >> bit & 1 == 1 {
                        if let Some(i) = find(prefix, bit) {
                            stim[i][block] |= 1u64 << lane;
                        }
                    }
                }
            }
        }
    }
    Some(stim)
}

/// [`standard_flow`] with benchmark-appropriate stimulus installed.
pub fn standard_flow_for(b: &Benchmark, nl: &Netlist) -> FlowConfig {
    let flow = standard_flow();
    match stimulus_for(b.name, nl, sample_count(), 0xB1A5_1234) {
        Some(stim) => flow.stimulus(stim),
        None => flow,
    }
}

/// Right-pad to a column width.
pub fn pad(s: &str, w: usize) -> String {
    format!("{s:<w$}")
}

/// Format a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Render a simple aligned table (header row, rule, data rows) into a
/// string, one trailing newline per row.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line: String = headers
        .iter()
        .enumerate()
        .map(|(i, h)| pad(h, widths[i] + 2))
        .collect();
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(line.trim_end().len()));
    out.push('\n');
    for row in rows {
        let line: String = row
            .iter()
            .enumerate()
            .map(|(i, c)| pad(c, widths[i] + 2))
            .collect();
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Print a simple aligned table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(headers, rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_benchmark_set_is_all_six() {
        std::env::remove_var("BLASYS_BENCHES");
        assert_eq!(selected_benchmarks().len(), 6);
    }

    #[test]
    fn paper_tables_consistent() {
        assert_eq!(paper::TABLE1.len(), 6);
        assert_eq!(paper::TABLE2.len(), 6);
        assert_eq!(paper::TABLE3.len(), 6);
        for ((a, ..), (b, ..)) in paper::TABLE1.iter().zip(paper::TABLE2.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pad("ab", 4), "ab  ");
    }

    #[test]
    fn threads_flag_parses_both_spellings() {
        let parse = |args: &[&str]| {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parallelism_from(&owned)
        };
        assert_eq!(parse(&["bin", "--threads", "4"]), Parallelism::Threads(4));
        assert_eq!(parse(&["bin", "--threads=8"]), Parallelism::Threads(8));
        assert_eq!(parse(&["bin", "--threads=auto"]), Parallelism::Auto);
        assert_eq!(parse(&["bin", "--threads", "0"]), Parallelism::Auto);
        assert_eq!(parse(&["bin", "--threads", "1"]), Parallelism::Serial);
        assert_eq!(parse(&["bin", "--threads=bogus"]), Parallelism::Serial);
    }
}

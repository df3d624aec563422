//! Figure 3 reproduction: factorize the paper's 4-input / 4-output
//! example at f = 3, 2, 1 and report Hamming distance and synthesized
//! area next to the paper's numbers.
//!
//! Run: `cargo run -p blasys-bench --bin fig3 --release`

use blasys_bench::{f1, paper, print_table};
use blasys_bmf::Factorizer;
use blasys_circuits::fig3_truth_table;
use blasys_core::approx::{factorization_netlist, factorization_rows};
use blasys_core::profile::table_to_matrix;
use blasys_synth::{estimate, synthesize_tt, CellLibrary};

fn main() {
    let tt = fig3_truth_table();
    let matrix = table_to_matrix(&tt);
    let lib = CellLibrary::typical_65nm();

    let exact = synthesize_tt(&tt, "fig3_exact");
    let exact_area = estimate(&exact, &lib).area_um2;

    let mut rows = vec![vec![
        "exact".to_string(),
        "-".to_string(),
        f1(exact_area),
        "-".to_string(),
        f1(paper::FIG3_EXACT_AREA),
    ]];

    let factorizer = Factorizer::new();
    for &(f, paper_h, paper_area) in paper::FIG3.iter() {
        let fac = factorizer.factorize(&matrix, f);
        let hamming: usize = factorization_rows(&fac)
            .iter()
            .enumerate()
            .map(|(r, &v)| (v as u64 ^ tt.row_value(r)).count_ones() as usize)
            .sum();
        let nl = factorization_netlist(4, &fac, &format!("fig3_f{f}"));
        let area = estimate(&nl, &lib).area_um2;
        rows.push(vec![
            format!("f = {f}"),
            hamming.to_string(),
            f1(area),
            paper_h.to_string(),
            f1(paper_area),
        ]);
    }

    println!("Figure 3 — BMF degrees on the 4x4 example circuit");
    println!("(semi-ring BMF, exhaustive optimal basis for this tiny window;");
    println!(" areas from the 65nm-flavoured model, paper used Synopsys DC)");
    println!();
    print_table(
        &[
            "variant",
            "hamming",
            "area um2",
            "paper hamming",
            "paper um2",
        ],
        &rows,
    );
    println!();
    println!("expected shape: hamming grows and area falls as f decreases");
}

//! Table 1 reproduction: characteristics of the accurate designs
//! (I/O counts and area / power / delay of the exact benchmarks).
//!
//! Run: `cargo run -p blasys-bench --bin table1 --release`

use blasys_bench::{f1, f2, paper, print_table, selected_benchmarks};
use blasys_synth::{estimate, CellLibrary};

fn main() {
    let lib = CellLibrary::typical_65nm();
    let mut rows = Vec::new();
    for b in selected_benchmarks() {
        let nl = b.build();
        let m = estimate(&nl, &lib);
        let p = paper::TABLE1.iter().find(|(n, ..)| *n == b.name);
        let (pa, pp, pd) = p
            .map(|&(_, _, a, pw, d)| (a, pw, d))
            .unwrap_or((0.0, 0.0, 0.0));
        rows.push(vec![
            b.name.to_string(),
            format!("{}/{}", nl.num_inputs(), nl.num_outputs()),
            m.gate_count.to_string(),
            f1(m.area_um2),
            f1(m.power_uw),
            f2(m.delay_ns),
            format!("{} / {} / {}", f1(pa), f1(pp), f2(pd)),
        ]);
    }
    println!("Table 1 — accurate design metrics");
    println!("(this model's absolute numbers differ from Synopsys DC; compare shapes/ratios)");
    println!();
    print_table(
        &[
            "design",
            "I/O",
            "gates",
            "area um2",
            "power uW",
            "delay ns",
            "paper area/power/delay",
        ],
        &rows,
    );
}

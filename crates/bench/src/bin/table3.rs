//! Table 3 reproduction: BLASYS vs the SALSA-style per-output baseline
//! at 5 % and 25 % error thresholds (area savings).
//!
//! Run: `cargo run -p blasys-bench --bin table3 --release`

use blasys_bench::{
    f1, paper, print_table, sample_count, selected_benchmarks, standard_flow_for, standard_mc,
    stimulus_for,
};
use blasys_core::{run, ExploreSpec, QorMetric};
use blasys_salsa::{run_salsa, SalsaConfig};

fn main() {
    let thresholds = [0.05, 0.25];
    let mut rows = Vec::new();
    for b in selected_benchmarks() {
        let nl = b.build();
        eprintln!("[table3] running {} ({} gates)...", b.name, nl.gate_count());
        let mut cells = vec![b.name.to_string()];
        for &t in &thresholds {
            // Threshold-mode exploration stops as soon as the budget
            // binds (walking the full trajectory is wasteful here).
            let spec = ExploreSpec::new().threshold(t);
            let result = run(&nl, standard_flow_for(&b, &nl), &spec).expect("suite circuits run");
            let base = result.baseline_metrics();
            let blasys_pct = result
                .best_step_under(QorMetric::AvgRelative, t)
                .map(|step| {
                    let m = result.metrics_step(step);
                    (1.0 - m.area_um2 / base.area_um2) * 100.0
                })
                .unwrap_or(0.0);
            let salsa = run_salsa(
                &nl,
                &SalsaConfig {
                    mc: standard_mc(),
                    stimulus: stimulus_for(b.name, &nl, sample_count(), 0xB1A5_1234),
                    ..SalsaConfig::default()
                },
                t,
            );
            cells.push(f1(blasys_pct));
            cells.push(f1(salsa.area_savings_pct()));
        }
        let p = paper::TABLE3
            .iter()
            .find(|(n, ..)| *n == b.name)
            .map(|&(_, b5, s5, b25, s25)| (b5, s5, b25, s25))
            .unwrap_or((0.0, 0.0, 0.0, 0.0));
        cells.push(format!("{}/{} {}/{}", f1(p.0), f1(p.1), f1(p.2), f1(p.3)));
        rows.push(cells);
    }
    println!("Table 3 — area savings, BLASYS vs SALSA-style baseline");
    println!();
    print_table(
        &[
            "design",
            "BLASYS@5%",
            "SALSA@5%",
            "BLASYS@25%",
            "SALSA@25%",
            "paper B/S@5 B/S@25",
        ],
        &rows,
    );
    println!();
    println!(
        "expected shape: BLASYS >= SALSA everywhere; largest gaps on multiplier-like circuits"
    );
}

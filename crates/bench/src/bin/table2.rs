//! Table 2 reproduction: area / power / delay savings of the BLASYS
//! design at a 5 % average-relative-error threshold.
//!
//! Run: `cargo run -p blasys-bench --bin table2 --release`
//! Optional: `BLASYS_SAMPLES=100000 BLASYS_BENCHES=Adder32,Mult8 ...`

use blasys_bench::{f1, paper, print_table, selected_benchmarks, standard_flow_for};
use blasys_core::{run, ExploreSpec, QorMetric};

fn main() {
    let threshold = 0.05;
    let mut rows = Vec::new();
    for b in selected_benchmarks() {
        let nl = b.build();
        eprintln!("[table2] running {} ({} gates)...", b.name, nl.gate_count());
        let spec = ExploreSpec::new().threshold(threshold);
        let result = run(&nl, standard_flow_for(&b, &nl), &spec).expect("suite circuits run");
        let base = result.baseline_metrics();
        let step = result
            .best_step_under(QorMetric::AvgRelative, threshold)
            .unwrap_or(0);
        let m = result.metrics_step(step);
        let s = m.savings_vs(&base);
        let err = result.trajectory()[step].qor.avg_relative;
        let p = paper::TABLE2
            .iter()
            .find(|(n, ..)| *n == b.name)
            .map(|&(_, a, pw, d)| (a, pw, d))
            .unwrap_or((0.0, 0.0, 0.0));
        rows.push(vec![
            b.name.to_string(),
            format!("{:.3}", err),
            f1(s.area_pct),
            f1(s.power_pct),
            f1(s.delay_pct),
            format!("{} / {} / {}", f1(p.0), f1(p.1), f1(p.2)),
        ]);
    }
    println!("Table 2 — savings at 5% average relative error");
    println!();
    print_table(
        &[
            "design",
            "err",
            "area %",
            "power %",
            "delay %",
            "paper area/power/delay %",
        ],
        &rows,
    );
    println!();
    println!("expected shape: material area & power savings on every benchmark at 5%");
}

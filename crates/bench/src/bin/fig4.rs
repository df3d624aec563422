//! Figure 4 reproduction: weighted QoR (WQoR) vs uniform QoR (UQoR)
//! factorization on Mult8 — normalized design area against average
//! relative error, normalized average absolute error and Hamming
//! (bit-error) rate.
//!
//! Run: `cargo run -p blasys-bench --bin fig4 --release`

use blasys_bench::{print_table, standard_flow};
use blasys_circuits::multiplier;
use blasys_core::flow::OutputWeighting;
use blasys_core::pareto::tradeoff_curve;
use blasys_core::{run, ExploreSpec, QorMetric};

fn main() {
    let nl = multiplier(8);
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for (label, weighting) in [
        ("UQoR", OutputWeighting::Uniform),
        ("WQoR", OutputWeighting::ValueInfluence),
    ] {
        eprintln!("[fig4] running {label}...");
        let cfg = standard_flow().weighting(weighting);
        let result = run(&nl, cfg, &ExploreSpec::new().exhaust()).expect("Mult8 runs");
        let traj = result.trajectory();
        // Sample the trajectory at every ~5% of normalized area.
        for p in traj.iter() {
            if p.step % 5 != 0 && p.step + 1 != traj.len() {
                continue;
            }
            rows.push(vec![
                label.to_string(),
                p.step.to_string(),
                format!("{:.3}", p.model_area_um2 / traj[0].model_area_um2),
                format!("{:.4}", p.qor.avg_relative),
                format!("{:.3e}", p.qor.norm_absolute),
                format!("{:.4}", p.qor.bit_error_rate),
            ]);
        }
        // Area under the (error, area) curve within the usable error
        // regime (≤ 25%) — smaller is better — plus the smallest area
        // reachable within fixed budgets.
        let curve = tradeoff_curve(traj, QorMetric::AvgRelative);
        let mut auc = 0.0;
        for w in curve.windows(2) {
            if w[0].error > 0.25 {
                break;
            }
            let hi = w[1].error.min(0.25);
            let de = (hi - w[0].error).max(0.0);
            auc += de * (w[0].norm_area + w[1].norm_area) / 2.0;
        }
        let area_at = |budget: f64| {
            curve
                .iter()
                .filter(|p| p.error <= budget)
                .map(|p| p.norm_area)
                .fold(f64::INFINITY, f64::min)
        };
        summaries.push((label, auc, area_at(0.05), area_at(0.10), area_at(0.25)));
    }

    println!("Figure 4 — weighted vs uniform QoR factorization on Mult8");
    println!();
    print_table(
        &[
            "scheme",
            "step",
            "norm area",
            "avg rel err",
            "norm abs err",
            "bit err rate",
        ],
        &rows,
    );
    println!();
    for (label, auc, a5, a10, a25) in &summaries {
        println!(
            "{label}: curve integral (err<=25%, lower=better) {auc:.4} | norm area @5% {a5:.3} @10% {a10:.3} @25% {a25:.3}"
        );
    }
    println!("expected shape: WQoR dominates UQoR for value-based error metrics");
}

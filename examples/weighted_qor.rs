//! Weighted vs uniform QoR factorization (the paper's Section 3.2 /
//! Figure 4 idea): when outputs are numerically interpreted, weighting
//! factorization errors by bit significance yields better value
//! accuracy at the same circuit complexity.
//!
//! Run: `cargo run --example weighted_qor --release`
//!
//! The core snippets are doc-tested on
//! [`OutputWeighting`](blasys_repro::blasys::flow::OutputWeighting) and
//! [`tradeoff_curve`](blasys_repro::blasys::pareto::tradeoff_curve).

use blasys_repro::blasys::flow::OutputWeighting;
use blasys_repro::blasys::pareto::{pareto_front, tradeoff_curve};
use blasys_repro::blasys::{run, ExploreSpec, FlowConfig, QorMetric};
use blasys_repro::circuits::multiplier;

fn main() {
    let nl = multiplier(6);
    println!("Mult6: {} gates", nl.gate_count());

    let samples = blasys_bench::sample_count_or(10_000);
    for (label, weighting) in [
        ("uniform  (UQoR)", OutputWeighting::Uniform),
        ("weighted (WQoR)", OutputWeighting::ValueInfluence),
    ] {
        let cfg = FlowConfig::new().samples(samples).weighting(weighting);
        let result = match run(&nl, cfg, &ExploreSpec::new()) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let curve = tradeoff_curve(result.trajectory(), QorMetric::AvgRelative);
        let front = pareto_front(&curve);
        // Summarize: smallest normalized area reachable within a few
        // error budgets.
        let area_at = |budget: f64| {
            front
                .iter()
                .filter(|p| p.error <= budget)
                .map(|p| p.norm_area)
                .fold(f64::INFINITY, f64::min)
        };
        println!(
            "{label}: pareto points {:3} | norm area @2% {:.3} @5% {:.3} @10% {:.3}",
            front.len(),
            area_at(0.02),
            area_at(0.05),
            area_at(0.10)
        );
    }
    println!("\nexpected: WQoR reaches equal or smaller area at the same value-error budget");
}

//! Approximating a custom datapath: a small Manhattan-distance unit
//! (|x1-x2| + |y1-y2|), the kind of error-resilient kernel the paper's
//! introduction motivates. Demonstrates BLIF export of the results and
//! formal comparison of the exact resynthesis.
//!
//! Run: `cargo run --example custom_datapath --release`
//!
//! The core snippets are doc-tested on
//! [`to_blif`](blasys_repro::logic::blif::to_blif) and
//! [`prove_exact`](blasys_repro::blasys::prove_exact).

use blasys_repro::blasys::{run, ExploreSpec, FlowConfig, QorMetric};
use blasys_repro::logic::blif::to_blif;
use blasys_repro::logic::builder::{abs_diff, add, input_bus, mark_output_bus};
use blasys_repro::logic::equiv::{check_equiv, EquivConfig};
use blasys_repro::logic::Netlist;

fn main() {
    // Manhattan distance between two 6-bit points.
    let mut nl = Netlist::new("manhattan6");
    let x1 = input_bus(&mut nl, "x1_", 6);
    let x2 = input_bus(&mut nl, "x2_", 6);
    let y1 = input_bus(&mut nl, "y1_", 6);
    let y2 = input_bus(&mut nl, "y2_", 6);
    let dx = abs_diff(&mut nl, &x1, &x2);
    let dy = abs_diff(&mut nl, &y1, &y2);
    let d = add(&mut nl, &dx, &dy);
    mark_output_bus(&mut nl, "d", &d);
    println!(
        "manhattan6: {} gates, depth {}",
        nl.gate_count(),
        nl.depth()
    );

    let cfg = FlowConfig::new().samples(blasys_bench::sample_count_or(10_000));
    let result = match run(&nl, cfg, &ExploreSpec::new()) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // The step-0 synthesis is formally equivalent to the input design.
    let exact = result.synthesize_step(0);
    let equiv = check_equiv(&nl, &exact, &EquivConfig::default());
    println!("exact resynthesis equivalent: {}", equiv.is_equal());

    // Export an approximate variant as BLIF for downstream tools.
    if let Some(step) = result.best_step_under(QorMetric::AvgRelative, 0.08) {
        let approx = result.synthesize_step(step);
        let blif = to_blif(&approx);
        println!(
            "\n8% design: {} gates (from {}), avg rel err {:.4}",
            approx.gate_count(),
            exact.gate_count(),
            result.trajectory()[step].qor.avg_relative
        );
        println!("BLIF preview (first 6 lines):");
        for line in blif.lines().take(6) {
            println!("  {line}");
        }
    }
}

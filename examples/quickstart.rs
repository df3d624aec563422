//! Quickstart: approximate a 16-bit adder with BLASYS and inspect the
//! accuracy / area trade-off.
//!
//! Run: `cargo run --example quickstart --release`
//!
//! The core of this walkthrough is doc-tested on
//! [`BlasysResult::best_step_under`](blasys_repro::blasys::BlasysResult::best_step_under);
//! the command-line equivalent is `blasys run <file.blif>` (see
//! `docs/USAGE.md`).

use blasys_repro::blasys::{run, ExploreSpec, FlowConfig, QorMetric};
use blasys_repro::logic::builder::{add, input_bus, mark_output_bus};
use blasys_repro::logic::Netlist;

fn main() {
    // 1. Build (or load) a combinational circuit. The builder DSL
    //    assembles datapaths from word-level operators; BLIF import is
    //    also available (`blasys_logic::blif::from_blif`).
    let mut nl = Netlist::new("adder16");
    let a = input_bus(&mut nl, "a", 16);
    let b = input_bus(&mut nl, "b", 16);
    let sum = add(&mut nl, &a, &b);
    mark_output_bus(&mut nl, "sum", &sum);
    println!("original: {} gates", nl.gate_count());

    // 2. Run the BLASYS flow: decompose into k x m windows, factorize
    //    every window at every degree, then greedily walk the
    //    accuracy/complexity trade-off (Algorithm 1 of the paper).
    //    Flow errors (e.g. a circuit with no gates) come back as
    //    `FlowError`s.
    let cfg = FlowConfig::new()
        .limits(10, 10) // the paper's k = m = 10
        .samples(blasys_bench::sample_count_or(10_000)); // BLASYS_SAMPLES override for CI
    let result = match run(&nl, cfg, &ExploreSpec::new()) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // 3. Walk the recorded trajectory: each point is one committed
    //    approximation step.
    println!("\n step | avg rel err | modeled area (um^2)");
    for point in result.trajectory().iter().step_by(4) {
        println!(
            " {:4} |   {:8.5} | {:8.1}",
            point.step, point.qor.avg_relative, point.model_area_um2
        );
    }

    // 4. Pick the deepest design within a 5% error budget and
    //    synthesize it to gates.
    let step = result
        .best_step_under(QorMetric::AvgRelative, 0.05)
        .expect("5% budget is reachable");
    let approx = result.synthesize_step(step);
    let base = result.baseline_metrics();
    let metrics = result.metrics_step(step);
    println!(
        "\nat 5% budget: {} gates -> {} gates, area {:.1} -> {:.1} um^2 ({:.1}% saved)",
        result.synthesize_step(0).gate_count(),
        approx.gate_count(),
        base.area_um2,
        metrics.area_um2,
        (1.0 - metrics.area_um2 / base.area_um2) * 100.0
    );
}

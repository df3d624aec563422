//! Approximate multiplier for image-processing style workloads: build
//! the paper's Mult8 testcase, approximate it at several error budgets
//! and validate each design on a software model of the workload
//! (scaling pixel values by coefficients).
//!
//! Run: `cargo run --example approximate_multiplier --release`
//!
//! The validation idea (never trust a sampled bound alone) is
//! doc-tested on
//! [`BlasysResult::certify_step`](blasys_repro::blasys::BlasysResult::certify_step).

use blasys_repro::blasys::{run, ExploreSpec, FlowConfig, QorMetric};
use blasys_repro::circuits::multiplier;
use blasys_repro::logic::Simulator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let nl = multiplier(8);
    println!(
        "Mult8: {} gates, {} inputs, {} outputs",
        nl.gate_count(),
        nl.num_inputs(),
        nl.num_outputs()
    );

    let cfg = FlowConfig::new().samples(blasys_bench::sample_count_or(20_000));
    let result = match run(&nl, cfg, &ExploreSpec::new()) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let base = result.baseline_metrics();

    println!("\n budget | achieved err | area saved | mean pixel error");
    for budget in [0.01, 0.05, 0.10, 0.25] {
        let Some(step) = result.best_step_under(QorMetric::AvgRelative, budget) else {
            continue;
        };
        let approx = result.synthesize_step(step);
        let metrics = result.metrics_step(step);

        // Validate on a pixel-scaling workload: out = pixel * gain.
        let mut sim = Simulator::new(&approx);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut total_err = 0.0f64;
        let mut n = 0usize;
        for _ in 0..200 {
            let pixel = rng.gen::<u64>() & 0xFF;
            let gain = rng.gen::<u64>() & 0xFF;
            let mut words = vec![0u64; approx.num_inputs()];
            for bit in 0..8 {
                if pixel >> bit & 1 == 1 {
                    words[bit] = !0; // a0..a7 are the first inputs
                }
                if gain >> bit & 1 == 1 {
                    words[8 + bit] = !0; // then b0..b7
                }
            }
            let out = sim.run(&words);
            let mut got = 0u64;
            for (o, w) in out.iter().enumerate() {
                got |= (w & 1) << o;
            }
            total_err += got.abs_diff(pixel * gain) as f64;
            n += 1;
        }
        println!(
            " {:5.0}% |    {:8.5} |   {:6.1}% | {:10.1}",
            budget * 100.0,
            result.trajectory()[step].qor.avg_relative,
            (1.0 - metrics.area_um2 / base.area_um2) * 100.0,
            total_err / n as f64
        );
    }
}

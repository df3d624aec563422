//! Cross-crate integration tests: the full BLASYS pipeline on real
//! benchmark circuits.

use blasys_repro::blasys::{run, BlasysResult, ExploreSpec, FlowConfig, QorMetric};
use blasys_repro::circuits::{adder, butterfly, multiplier};
use blasys_repro::logic::equiv::check_equiv;
use blasys_repro::salsa::{run_salsa, SalsaConfig};

fn quick(nl: &blasys_repro::logic::Netlist) -> BlasysResult {
    let cfg = FlowConfig::new().samples(4096).seed(17);
    run(nl, cfg, &ExploreSpec::new()).unwrap()
}

#[test]
fn adder_flow_full_pipeline() {
    let nl = adder(8);
    let result = quick(&nl);

    // Exact starting point is functionally identical to the input.
    let exact = result.synthesize_step(0);
    assert!(check_equiv(&nl, &exact).is_equal());

    // Trajectory invariants.
    let traj = result.trajectory();
    assert!(traj.len() > 5);
    assert_eq!(traj[0].qor.avg_relative, 0.0);
    assert!(traj.last().unwrap().qor.avg_relative > 0.0);

    // Modeled area never exceeds the exact model (ladders are
    // area-monotone after the nested-truncation fix).
    let base = traj[0].model_area_um2;
    for p in traj {
        assert!(
            p.model_area_um2 <= base * 1.05,
            "step {}: model area {} above exact {}",
            p.step,
            p.model_area_um2,
            base
        );
    }
}

#[test]
fn multiplier_saves_area_at_5pct() {
    let nl = multiplier(6);
    let result = quick(&nl);
    let base = result.baseline_metrics();
    let step = result
        .best_step_under(QorMetric::AvgRelative, 0.05)
        .expect("5% reachable on a multiplier");
    let m = result.metrics_step(step);
    assert!(
        m.area_um2 < base.area_um2,
        "approximate design must be smaller ({} vs {})",
        m.area_um2,
        base.area_um2
    );
}

#[test]
fn butterfly_flow_runs_and_is_deterministic() {
    let nl = butterfly(6);
    let r1 = quick(&nl);
    let r2 = quick(&nl);
    let t1: Vec<f64> = r1.trajectory().iter().map(|p| p.qor.avg_relative).collect();
    let t2: Vec<f64> = r2.trajectory().iter().map(|p| p.qor.avg_relative).collect();
    assert_eq!(t1, t2, "same seed must reproduce the same trajectory");
}

#[test]
fn blasys_beats_salsa_on_multiplier() {
    // The paper's Table 3 headline: joint multi-output factorization
    // outperforms per-output approximation on multiplier-like logic.
    let nl = multiplier(6);
    let threshold = 0.25;
    let result = quick(&nl);
    let base = result.baseline_metrics();
    let blasys_saving = result
        .best_step_under(QorMetric::AvgRelative, threshold)
        .map(|s| 1.0 - result.metrics_step(s).area_um2 / base.area_um2)
        .unwrap_or(0.0);
    let salsa = run_salsa(
        &nl,
        &SalsaConfig {
            mc: blasys_repro::blasys::montecarlo::McConfig {
                samples: 4096,
                seed: 17,
            },
            ..SalsaConfig::default()
        },
        threshold,
    );
    let salsa_saving = salsa.area_savings_pct() / 100.0;
    assert!(
        blasys_saving > salsa_saving,
        "BLASYS {blasys_saving:.3} must beat SALSA {salsa_saving:.3} at 25% on a multiplier"
    );
}

#[test]
fn synthesized_approximation_respects_budget_out_of_sample() {
    // Validate the chosen design against stimulus the explorer never
    // saw (different seed): the measured error may drift but must stay
    // in the same regime (< 3x budget).
    use blasys_repro::logic::sim::random_stimulus;
    use blasys_repro::logic::Simulator;

    let nl = adder(8);
    let result = quick(&nl);
    let budget = 0.05;
    let Some(step) = result.best_step_under(QorMetric::AvgRelative, budget) else {
        return;
    };
    let approx = result.synthesize_step(step);
    let blocks = 64;
    let stim = random_stimulus(&nl, blocks, 777);
    let mut sim_g = Simulator::new(&nl);
    let mut sim_a = Simulator::new(&approx);
    let mut words = vec![0u64; nl.num_inputs()];
    let mut sum_rel = 0.0;
    #[allow(clippy::needless_range_loop)]
    for b in 0..blocks {
        for (i, w) in words.iter_mut().enumerate() {
            *w = stim[i][b];
        }
        let g = sim_g.run(&words).to_vec();
        let a = sim_a.run(&words);
        for lane in 0..64 {
            let mut gv = 0u64;
            let mut av = 0u64;
            for o in 0..g.len() {
                gv |= (g[o] >> lane & 1) << o;
                av |= (a[o] >> lane & 1) << o;
            }
            sum_rel += gv.abs_diff(av) as f64 / gv.max(1) as f64;
        }
    }
    let err = sum_rel / (blocks * 64) as f64;
    assert!(
        err < budget * 3.0,
        "out-of-sample error {err} too far above budget"
    );
}

/// FIR parsed back from BLIF carries dead logic, which the decomposer
/// gathers into a window without outputs. Profiling gives that window
/// its exact variant alone, and the flow explores and synthesizes
/// around it.
#[test]
fn fir_after_blif_round_trip_profiles_and_explores() {
    use blasys_repro::blasys::session::FlowSession;
    use blasys_repro::logic::blif::{from_blif, to_blif};

    let fir = blasys_repro::circuits::benchmark("FIR")
        .expect("suite circuit")
        .build();
    let parsed = from_blif(&to_blif(&fir)).expect("round trip parses");
    let session = FlowSession::open(&parsed, FlowConfig::new().samples(512))
        .and_then(FlowSession::profile)
        .expect("FIR profiles");
    let dead: Vec<_> = session
        .profiles()
        .iter()
        .filter(|p| p.num_outputs == 0)
        .collect();
    assert!(
        !dead.is_empty(),
        "the round trip leaves a window without outputs"
    );
    for p in dead {
        assert_eq!(p.variants.len(), 1, "cluster {}", p.cluster);
        assert_eq!(p.exact().degree, 0, "cluster {}", p.cluster);
    }
    let exploration = session.explore(&ExploreSpec::new().probe_budget(600));
    let result = session.result(&exploration);
    let last = result.trajectory().len() - 1;
    assert!(last > 0, "the budget covers at least one step");
    let approx = result.synthesize_step(last);
    assert_eq!(approx.num_outputs(), fir.num_outputs());
}

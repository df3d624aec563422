//! Cross-crate acceptance tests for the SAT subsystem: exact
//! equivalence proofs beyond the exhaustive-simulation limit and
//! certified worst-case error bounds that match ground truth.

use blasys_repro::blasys::flow::exact_resynthesis;
use blasys_repro::blasys::qor::QorAccumulator;
use blasys_repro::blasys::{run, CertifiedPoint, ExploreSpec, FlowConfig};
use blasys_repro::bmf::Factorizer;
use blasys_repro::circuits::{adder, fig3_truth_table};
use blasys_repro::decomp::DecompConfig;
use blasys_repro::logic::equiv::{check_equiv, Equivalence};
use blasys_repro::logic::sim::eval_scalar_with;
use blasys_repro::logic::Simulator;
use blasys_repro::sat::{brute_force_worst_absolute, certify_worst_absolute, check_equiv_sat};
use blasys_repro::synth::synthesize_tt;

#[test]
fn sat_proves_exact_resynthesis_beyond_exhaustive_limit() {
    // 24 inputs: past the 16-input exhaustive limit, so simulation can
    // only ever answer "probably equal" — the SAT backend proves it.
    let nl = adder(12);
    assert!(nl.num_inputs() >= 20, "must exceed the exhaustive regime");
    let resynth = exact_resynthesis(&nl, &DecompConfig::default()).unwrap();

    // The sampled checker cannot produce a proof here.
    let sampled = check_equiv(&nl, &resynth);
    assert_eq!(sampled, Equivalence::Equal { exhaustive: false });

    // The SAT backend can.
    assert_eq!(
        check_equiv_sat(&nl, &resynth),
        Equivalence::Equal { exhaustive: true }
    );
}

#[test]
fn certified_error_of_approximated_adder8_matches_brute_force() {
    // Run the real BLASYS flow on the paper-style 8-bit adder and
    // certify an explored (genuinely approximate) trajectory point.
    let nl = adder(8);
    let cfg = FlowConfig::new().samples(4096).seed(23);
    let mut result = run(&nl, cfg, &ExploreSpec::new()).unwrap();
    let last = result.trajectory().len() - 1;
    for step in [last / 2, last] {
        let point: CertifiedPoint = result.certify_step(step);
        let synthesized = result.synthesize_step(step);
        let brute = brute_force_worst_absolute(&nl, &synthesized);
        assert_eq!(
            point.certificate.worst_absolute, brute,
            "certificate must equal exhaustive ground truth at step {step}"
        );
        assert!(
            point.consistent(),
            "sampled worst must not exceed certified"
        );
        assert_eq!(
            result.trajectory()[step].qor.certified_worst_absolute,
            Some(brute),
            "certificate must be stamped into the trajectory"
        );
        // The witness achieves the bound.
        if brute > 0 {
            let w = point.certificate.witness.clone().expect("witness");
            assert_eq!(
                blasys_repro::sat::witness_error(&nl, &synthesized, &w),
                brute
            );
        }
    }
}

#[test]
fn fig3_certified_bound_dominates_sampled_worst() {
    // The paper's Figure 3 example: factorize the 4x4 table at f = 2
    // and compare the sampled worst absolute error against the
    // certificate. Sampling a strict subset of the 16 rows can miss the
    // true worst case; the certificate never does.
    let tt = fig3_truth_table();
    let exact = synthesize_tt(&tt, "fig3");
    let matrix = blasys_repro::blasys::profile::table_to_matrix(&tt);
    let fac = Factorizer::new().factorize(&matrix, 2);
    let approx = blasys_repro::blasys::approx::factorization_netlist(4, &fac, "fig3_f2");

    // Sampled worst over a handful of rows (seeded, deliberately few).
    let mut acc = QorAccumulator::new(tt.num_outputs());
    let mut sim_g = Simulator::new(&exact);
    let mut sim_a = Simulator::new(&approx);
    let mut state = 0xF163_u64;
    for _ in 0..6 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let row = state >> 33 & 0xF;
        acc.push(
            eval_scalar_with(&mut sim_g, row),
            eval_scalar_with(&mut sim_a, row),
        );
    }
    let sampled = acc.finish();

    let cert = certify_worst_absolute(&exact, &approx);
    assert!(
        cert.worst_absolute >= sampled.worst_absolute,
        "certified {} must dominate sampled {}",
        cert.worst_absolute,
        sampled.worst_absolute
    );
    // And the certificate is the exhaustive truth.
    assert_eq!(
        cert.worst_absolute,
        brute_force_worst_absolute(&exact, &approx)
    );
}

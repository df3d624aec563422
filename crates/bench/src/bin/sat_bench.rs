//! SAT vs simulation equivalence checking across the benchmark suite,
//! plus a certification demo on an approximate adder.
//!
//! For every Table 1 benchmark the original circuit is exactly
//! resynthesized (decompose → per-window espresso + techmap →
//! substitute, i.e. trajectory step 0 without the exploration) and the
//! resulting structurally-different netlist is compared against the
//! original with both checkers:
//!
//! * `sat`         — CDCL on the pairwise miter: a *proof* at any width;
//! * `check_equiv` — simulation: truth-table enumeration up to 16
//!   inputs (a proof), bit-parallel random sampling beyond ("probably
//!   equal").
//!
//! Run: `cargo run --release --bin sat_bench`
//! (`BLASYS_BENCHES=Mult8,BUT` filters the suite.)

use std::time::Instant;

use blasys_bench::{pad, print_table, selected_benchmarks};
use blasys_core::flow::exact_resynthesis;
use blasys_decomp::DecompConfig;
use blasys_logic::equiv::{check_equiv, Equivalence};
use blasys_logic::Netlist;
use blasys_sat::{brute_force_worst_absolute, certify_worst_absolute, check_equiv_sat};

fn verdict_str(verdict: &Equivalence) -> String {
    match verdict {
        Equivalence::Equal { exhaustive: true } => "equal (proof)".into(),
        Equivalence::Equal { exhaustive: false } => "probably equal".into(),
        Equivalence::Differs { .. } => "DIFFERS".into(),
    }
}

fn main() {
    println!("== Equivalence checking: original vs exact resynthesis ==\n");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for b in selected_benchmarks() {
        let nl = b.build();
        let resynth = exact_resynthesis(&nl, &DecompConfig::default()).expect("suite circuits run");
        let k = nl.num_inputs();

        // SAT: exact at any width.
        let t = Instant::now();
        let sat = check_equiv_sat(&nl, &resynth);
        let sat_time = t.elapsed();
        rows.push(vec![
            b.name.to_string(),
            format!("{k}"),
            "sat".into(),
            verdict_str(&sat),
            format!("{sat_time:.2?}"),
        ]);

        // Simulation: a proof only where it enumerates.
        let t = Instant::now();
        let sim = check_equiv(&nl, &resynth);
        rows.push(vec![
            String::new(),
            String::new(),
            "check_equiv".into(),
            verdict_str(&sim),
            format!("{:.2?}", t.elapsed()),
        ]);
    }
    print_table(&["benchmark", "inputs", "method", "verdict", "time"], &rows);

    println!("\n== Certified worst-case error: truncated 8-bit adder ==\n");
    // The classic approximate adder: low sum bits forced to zero.
    let golden = blasys_circuits::adder(8);
    for chopped in [2usize, 4] {
        let approx = truncate_outputs(&golden, chopped);
        let t = Instant::now();
        let cert = certify_worst_absolute(&golden, &approx);
        let sat_time = t.elapsed();
        let t = Instant::now();
        let brute = brute_force_worst_absolute(&golden, &approx);
        let brute_time = t.elapsed();
        println!(
            "{} certified {:>4}  ({} probes, {} conflicts, {sat_time:.2?})  brute-force {:>4} ({brute_time:.2?})  {}",
            pad(&format!("chop {chopped}:"), 9),
            cert.worst_absolute,
            cert.probes,
            cert.stats.conflicts,
            brute,
            if cert.worst_absolute == brute {
                "MATCH"
            } else {
                "MISMATCH"
            }
        );
    }
}

/// Copy of `nl` with the `chopped` lowest outputs replaced by constant 0.
fn truncate_outputs(nl: &Netlist, chopped: usize) -> Netlist {
    let mut out = Netlist::new(format!("{}_chop{chopped}", nl.name()));
    let pis: Vec<_> = (0..nl.num_inputs())
        .map(|i| out.add_input(nl.input_name(i).to_string()))
        .collect();
    let outputs = blasys_sat::miter::import(&mut out, nl, &pis);
    let zero = out.constant(false);
    for (o, node) in outputs.iter().enumerate() {
        let driven = if o < chopped { zero } else { *node };
        out.mark_output(nl.outputs()[o].name().to_string(), driven);
    }
    out.cleaned()
}

//! `suite_flow`: a cold `blasys run`-equivalent flow on Adder32, Mult8,
//! BUT, MAC and SAD at `Threads(2)`, with Table-2 stimulus.
//!
//! Per circuit: parse → open → profile → greedy explore (avg-relative,
//! 5 %) → baseline and chosen-step synthesize/estimate → SAT
//! `certify_step` on the chosen step (not on Mult8, whose multiplier
//! miter is seconds of noisy SAT time).

use std::sync::Arc;
use std::time::Instant;

use blasys_core::{
    BlasysResult, CertifiedPoint, ExploreSpec, FlowConfig, FlowSession, Parallelism, QorMetric,
};
use blasys_logic::blif::{from_blif, to_blif};
use blasys_logic::Netlist;

use crate::flow::{flow_layers, instrument, registry_for, FlowCounts, StepClock};
use crate::metrics::{answer_metrics, Outcome};
use crate::oracle;
use crate::trace::Tracer;
use crate::util::{self, median, saving_pct, Fingerprint, SAMPLES};

pub const CIRCUITS: [&str; 5] = ["Adder32", "Mult8", "BUT", "MAC", "SAD"];
const THRESHOLD: f64 = 0.05;
const WORKERS: usize = 2;
/// Set-up is short and its BUT profile varies from pass to pass, so it
/// is repeated and its median reported.
const SETUP_REPEATS: usize = 9;

/// One circuit's generated input.
pub struct Input {
    pub name: &'static str,
    /// The generator's netlist: the oracle's golden reference.
    pub golden: Netlist,
    /// What the program is handed.
    pub blif: String,
    pub stimulus: Vec<Vec<u64>>,
}

/// Input generation: the suite's circuits as BLIF text plus seeded
/// stimulus.
pub fn inputs(seed: u64) -> Vec<Input> {
    CIRCUITS
        .iter()
        .map(|&name| {
            let golden = blasys_circuits::benchmark(name)
                .expect("suite circuit exists")
                .build();
            Input {
                name,
                blif: to_blif(&golden),
                stimulus: util::stimulus(name, &golden, seed),
                golden,
            }
        })
        .collect()
}

struct Flow {
    result: BlasysResult,
    step: usize,
    area_ratio: f64,
    power_ratio: f64,
    cert: Option<CertifiedPoint>,
    counts: FlowCounts,
    step_ms: Vec<f64>,
    /// Wall time of the `explore_with` call.
    explore_s: f64,
}

fn run_flow(
    input: &Input,
    op: u64,
    tracer: &Arc<Tracer>,
    reg: &Option<Arc<blasys_obs::Registry>>,
) -> Result<Flow, String> {
    let t = tracer.as_ref();
    t.span("flow", op, || {
        let nl = t
            .span("parse", op, || from_blif(&input.blif))
            .map_err(|e| e.to_string())?;
        let cfg = FlowConfig::new()
            .samples(SAMPLES)
            .stimulus(input.stimulus.clone())
            .parallelism(Parallelism::Threads(WORKERS));
        let cfg = instrument(cfg, tracer, reg, op);
        let session = t
            .span("open", op, || FlowSession::open(&nl, cfg))
            .map_err(|e| e.to_string())?;
        let session = t
            .span("profile", op, || session.profile())
            .map_err(|e| e.to_string())?;
        t.span("evaluator_build", op, || session.samples());
        let clock = StepClock::default();
        let spec = ExploreSpec::new()
            .metric(QorMetric::AvgRelative)
            .threshold(THRESHOLD);
        let t0 = Instant::now();
        let walk = t.span("explore", op, || session.explore_with(&spec, Some(&clock)));
        let explore_s = t0.elapsed().as_secs_f64();
        let counts = FlowCounts {
            windows: session.clusters(),
            probes: walk.probes(),
            steps: walk.trajectory().len().saturating_sub(1),
            sat_conflicts: 0,
        };
        let mut result = session.into_result(walk);
        let step = result
            .best_step_under(QorMetric::AvgRelative, THRESHOLD)
            .unwrap_or(0);
        let (base, chosen) = t.span("estimate", op, || {
            (result.baseline_metrics(), result.metrics_step(step))
        });
        let cert =
            (input.name != "Mult8").then(|| t.span("certify", op, || result.certify_step(step)));
        Ok(Flow {
            counts: FlowCounts {
                sat_conflicts: cert.as_ref().map_or(0, |c| c.certificate.stats.conflicts),
                ..counts
            },
            result,
            step,
            area_ratio: chosen.area_um2 / base.area_um2,
            power_ratio: chosen.power_uw / base.power_uw,
            cert,
            step_ms: clock.gaps_ms(),
            explore_s,
        })
    })
}

/// The oracle's verdict on one finished flow.
fn check(input: &Input, flow: &Flow) -> Result<(), String> {
    let traj = flow.result.trajectory();
    let k = flow.step;
    let mut worst_at_k = 0;
    for s in [0, k / 2, k] {
        let approx = flow.result.synthesize_step(s);
        let m = oracle::check(&input.golden, &approx, &input.stimulus, &traj[s].qor)
            .map_err(|e| format!("step {s}: {e}"))?;
        worst_at_k = m.worst_absolute;
    }
    let err = traj[k].qor.avg_relative;
    if err > THRESHOLD {
        return Err(format!("chosen step {k} errs {err} > {THRESHOLD}"));
    }
    if let Some(cert) = &flow.cert {
        let certified = cert.certificate.worst_absolute;
        if certified < cert.sampled_worst_absolute || certified < worst_at_k {
            return Err(format!(
                "certified worst {certified} below sampled {} / oracle {worst_at_k}",
                cert.sampled_worst_absolute
            ));
        }
        if traj[k].qor.certified_worst_absolute != Some(certified) {
            return Err("certificate not stamped into the chosen step".into());
        }
    }
    Ok(())
}

fn fingerprint(flows: &[Flow]) -> u64 {
    let mut fp = Fingerprint::new();
    for f in flows {
        fp.trajectory(f.result.trajectory());
        fp.ladders(f.result.profiles());
        fp.u64(f.step as u64);
        fp.u64(
            f.cert
                .as_ref()
                .map_or(u64::MAX, |c| c.certificate.worst_absolute),
        );
    }
    fp.value()
}

pub fn run(seed: u64, seconds: f64, tracer: &Arc<Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let off = Arc::new(Tracer::new(false));

    // Set-up: input generation plus a warm-up flow on BUT, repeated.
    let mut setup_s = Vec::new();
    let mut inputs_now = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        tracer.span("setup", 0, || {
            inputs_now = inputs(seed);
            let but = inputs_now
                .iter()
                .find(|i| i.name == "BUT")
                .expect("BUT is in the suite");
            let warm = run_flow(but, 0, &off, &None);
            out.op("warm-up flow BUT", warm.map(|_| ()));
        });
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs_now;

    let reg = registry_for(tracer);
    let mut round_s = Vec::new();
    let mut fps = Vec::new();
    let mut steps = Vec::new();
    let mut explore_s = 0.0;
    let mut op = 0u64;
    let t_all = Instant::now();
    let (ratios, counts) = loop {
        let t0 = Instant::now();
        let round: Vec<Result<Flow, String>> = tracer.span("round", 0, || {
            inputs
                .iter()
                .map(|input| {
                    op += 1;
                    let id = op;
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_flow(input, id, tracer, &reg)
                    }))
                    .unwrap_or_else(|_| Err("flow panicked".into()))
                })
                .collect()
        });
        round_s.push(t0.elapsed().as_secs_f64());

        // Oracle, outside the timed region. Each round's results are
        // dropped after their checks, so memory does not grow with the
        // round count.
        let mut flows = Vec::new();
        tracer.span("check", 0, || {
            for (input, r) in inputs.iter().zip(round) {
                let what = format!("flow {}", input.name);
                match r {
                    Ok(f) => {
                        out.op(&what, check(input, &f));
                        flows.push(f);
                    }
                    Err(e) => out.op(&what, Err(e)),
                }
            }
        });
        if flows.len() < inputs.len() {
            return out;
        }
        fps.push(fingerprint(&flows));
        steps.extend(flows.iter().flat_map(|f| f.step_ms.iter().copied()));
        explore_s += flows.iter().map(|f| f.explore_s).sum::<f64>();
        let ratios: Vec<(f64, f64)> = flows
            .iter()
            .map(|f| (f.area_ratio, f.power_ratio))
            .collect();
        let counts = flows.iter().fold(FlowCounts::default(), |a, f| FlowCounts {
            windows: a.windows + f.counts.windows,
            probes: a.probes + f.counts.probes,
            steps: a.steps + f.counts.steps,
            sat_conflicts: a.sat_conflicts + f.counts.sat_conflicts,
        });
        if !util::another_round(t_all, &round_s, seconds) {
            break (ratios, counts);
        }
    };

    out.fingerprint = util::round_fingerprints(&mut out.notes, fps);
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("run_s", median(&round_s));
    out.e2e.insert(
        "area_saving_pct",
        saving_pct(&ratios.iter().map(|r| r.0).collect::<Vec<_>>()),
    );
    out.e2e.insert(
        "power_saving_pct",
        saving_pct(&ratios.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    // Explore steps per second spent exploring: the rest of a round is
    // mostly profiling, and a rate over the whole round would only
    // mirror `run_s`.
    answer_metrics(&mut out, &steps, steps.len(), explore_s);

    if let Some(reg) = &reg {
        out.layers = flow_layers(tracer, reg, counts, WORKERS);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two seeds give different stimulus but the same circuit set and
    /// sample count.
    #[test]
    fn seeds_change_stimulus_not_shape() {
        let a = inputs(1);
        let b = inputs(2);
        assert_eq!(a.len(), CIRCUITS.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.blif, y.blif);
            assert_eq!(x.stimulus.len(), x.golden.num_inputs());
            assert_eq!(x.stimulus[0].len(), SAMPLES.div_ceil(64));
            assert_eq!(x.stimulus.len(), y.stimulus.len());
            assert_ne!(x.stimulus, y.stimulus, "{} stimulus is seeded", x.name);
        }
        assert_eq!(
            inputs(1)[3].stimulus,
            a[3].stimulus,
            "same seed, same input"
        );
    }

    /// Profiling one BLIF-parsed netlist twice should give the same
    /// ladders, as it does for generator netlists. On the current code
    /// it does not, which is why `suite_flow` fingerprints differ from
    /// run to run. Run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "known program defect: profiles of BLIF-parsed netlists are nondeterministic"]
    fn blif_profiles_are_deterministic() {
        let but = inputs(1)
            .into_iter()
            .find(|i| i.name == "BUT")
            .expect("BUT input");
        let nl = from_blif(&but.blif).expect("BUT parses");
        let ladder = || {
            let session = FlowSession::open(&nl, FlowConfig::new().samples(640))
                .and_then(FlowSession::profile)
                .expect("BUT profiles");
            let mut fp = Fingerprint::new();
            fp.ladders(session.profiles());
            fp.value()
        };
        let first = ladder();
        assert!((0..4).all(|_| ladder() == first));
    }

    /// FIR after a BLIF round trip should profile like any other
    /// circuit. It panics on the current code (a window without outputs
    /// reaches the factorizer with degree 0), so FIR stays out of the
    /// BLIF-fed workloads. Run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "known program defect: profiling FIR parsed from BLIF panics"]
    fn fir_blif_round_trip_profiles() {
        let fir = blasys_circuits::benchmark("FIR")
            .expect("FIR is in the suite")
            .build();
        let parsed = from_blif(&to_blif(&fir)).expect("round trip parses");
        let session = FlowSession::open(&parsed, FlowConfig::new().samples(640)).expect("opens");
        assert!(session.profile().is_ok());
    }
}

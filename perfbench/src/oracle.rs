//! The independent QoR oracle: gate-level simulation of the original
//! netlist and of a synthesized trajectory point on the benchmark's own
//! stimulus, with the error statistics recomputed here rather than
//! taken from the program's packed evaluator.

use blasys_core::QorReport;
use blasys_logic::sim::Simulator;
use blasys_logic::Netlist;

/// Error statistics recomputed by the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// `mean(|R − R'| / max(R, 1))`.
    pub avg_relative: f64,
    /// `max |R − R'|`.
    pub worst_absolute: u64,
    pub samples: usize,
}

/// Simulate `golden` and `approx` on `stimulus[input][block]` (inputs
/// in `golden`'s order) and measure the error of `approx`. Inputs and
/// outputs of `approx` are matched to `golden`'s by name; output
/// values are assembled LSB-first in `golden`'s output order.
pub fn measure(
    golden: &Netlist,
    approx: &Netlist,
    stimulus: &[Vec<u64>],
) -> Result<Measured, String> {
    if stimulus.len() != golden.num_inputs() {
        return Err("stimulus does not match the input count".into());
    }
    if golden.num_outputs() > 64 {
        return Err("more than 64 outputs".into());
    }
    let in_map = (0..approx.num_inputs())
        .map(|i| {
            let name = approx.input_name(i);
            (0..golden.num_inputs())
                .find(|&g| golden.input_name(g) == name)
                .ok_or_else(|| format!("approximate input `{name}` is not a golden input"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let out_map = golden
        .outputs()
        .iter()
        .map(|o| {
            approx
                .outputs()
                .iter()
                .position(|a| a.name() == o.name())
                .ok_or_else(|| format!("golden output `{}` is missing", o.name()))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let blocks = stimulus.first().map_or(0, Vec::len);
    let mut gsim = Simulator::new(golden);
    let mut asim = Simulator::new(approx);
    let mut gin = vec![0u64; golden.num_inputs()];
    let mut ain = vec![0u64; approx.num_inputs()];
    let mut sum_rel = 0.0f64;
    let mut worst = 0u64;
    for b in 0..blocks {
        for (w, words) in gin.iter_mut().zip(stimulus) {
            *w = words[b];
        }
        for (i, w) in ain.iter_mut().enumerate() {
            *w = stimulus[in_map[i]][b];
        }
        let gout = gsim.run(&gin).to_vec();
        let aout = asim.run(&ain);
        for lane in 0..64 {
            let mut r = 0u64;
            let mut r2 = 0u64;
            for (o, &a) in out_map.iter().enumerate() {
                r |= ((gout[o] >> lane) & 1) << o;
                r2 |= ((aout[a] >> lane) & 1) << o;
            }
            let diff = r.abs_diff(r2);
            sum_rel += diff as f64 / r.max(1) as f64;
            worst = worst.max(diff);
        }
    }
    let samples = blocks * 64;
    Ok(Measured {
        avg_relative: sum_rel / samples as f64,
        worst_absolute: worst,
        samples,
    })
}

/// Tolerance on the recomputed mean relative error.
pub const MEAN_TOLERANCE: f64 = 1e-12;

/// Check a reported QoR against the oracle's measurement of the netlist
/// it describes: the worst case must agree exactly, the mean to within
/// [`MEAN_TOLERANCE`], and the sample counts must match.
pub fn check(
    golden: &Netlist,
    approx: &Netlist,
    stimulus: &[Vec<u64>],
    reported: &QorReport,
) -> Result<Measured, String> {
    let m = measure(golden, approx, stimulus)?;
    if m.samples != reported.samples {
        return Err(format!(
            "samples: oracle {} vs reported {}",
            m.samples, reported.samples
        ));
    }
    if m.worst_absolute != reported.worst_absolute {
        return Err(format!(
            "worst_absolute: oracle {} vs reported {}",
            m.worst_absolute, reported.worst_absolute
        ));
    }
    if (m.avg_relative - reported.avg_relative).abs() > MEAN_TOLERANCE {
        return Err(format!(
            "avg_relative: oracle {:e} vs reported {:e}",
            m.avg_relative, reported.avg_relative
        ));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::uniform_stimulus;
    use blasys_core::{ExploreSpec, FlowConfig, FlowSession};

    /// Flag a wrong answer: step 0's netlist checked against a deeper
    /// step's reported QoR must fail, while each step checked against
    /// its own report passes.
    #[test]
    fn oracle_flags_mismatched_step() {
        let nl = blasys_circuits::adder(8);
        let stim = uniform_stimulus(&nl, 7);
        let session = FlowSession::open(&nl, FlowConfig::new().stimulus(stim.clone()))
            .and_then(FlowSession::profile)
            .expect("flow opens");
        let walk = session.explore(&ExploreSpec::new().exhaust());
        let result = session.result(&walk);
        let k = result.trajectory().len() - 1;
        assert!(
            result.trajectory()[k].qor.worst_absolute > 0,
            "deepest step errs"
        );
        for step in [0, k / 2, k] {
            let approx = result.synthesize_step(step);
            check(&nl, &approx, &stim, &result.trajectory()[step].qor)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        let exact = result.synthesize_step(0);
        assert!(check(&nl, &exact, &stim, &result.trajectory()[k].qor).is_err());
    }

    #[test]
    fn oracle_measures_known_error() {
        // A 2-bit "adder" whose approximation drops the carry output.
        let mut g = Netlist::new("g");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let s = g.xor(a, b);
        let c = g.and(a, b);
        g.mark_output("s", s);
        g.mark_output("c", c);
        let mut h = Netlist::new("h");
        let a = h.add_input("a");
        let b = h.add_input("b");
        let s = h.xor(a, b);
        let zero = h.constant(false);
        h.mark_output("s", s);
        h.mark_output("c", zero);
        // Lane pattern: a=1,b=1 on every lane → R = 2, R' = 0.
        let stim = vec![vec![u64::MAX], vec![u64::MAX]];
        let m = measure(&g, &h, &stim).expect("measurable");
        assert_eq!(m.worst_absolute, 2);
        assert_eq!(m.avg_relative, 1.0);
        assert_eq!(m.samples, 64);
    }
}

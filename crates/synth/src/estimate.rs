//! Area / power / delay estimation — the Design Compiler stand-in.
//!
//! * **area** — sum of mapped cell areas;
//! * **delay** — topological longest path with per-cell intrinsic delay
//!   plus a per-fanout load term;
//! * **power** — switching-activity dynamic power plus cell leakage.
//!   Signal probabilities come from bit-parallel random simulation;
//!   the per-cycle toggle rate of a temporally independent signal with
//!   probability `p` is `2·p·(1−p)`.
//!
//! Absolute numbers are calibrated to *plausible* 65 nm magnitudes;
//! only relative accurate-vs-approximate comparisons are meaningful
//! (see `DESIGN.md`).

use blasys_logic::sim::random_stimulus;
use blasys_logic::{GateKind, Netlist, Simulator};

use crate::library::CellLibrary;

/// Estimated design metrics of a mapped netlist.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DesignMetrics {
    /// Total cell area, µm².
    pub area_um2: f64,
    /// Total power (dynamic + leakage), µW.
    pub power_uw: f64,
    /// Critical-path delay, ns.
    pub delay_ns: f64,
    /// Number of mapped cells.
    pub gate_count: usize,
}

impl DesignMetrics {
    /// Relative saving of `self` w.r.t. a baseline, per metric, in
    /// percent (positive = smaller/faster than baseline).
    pub fn savings_vs(&self, baseline: &DesignMetrics) -> MetricSavings {
        let pct = |new: f64, old: f64| {
            if old == 0.0 {
                0.0
            } else {
                (1.0 - new / old) * 100.0
            }
        };
        MetricSavings {
            area_pct: pct(self.area_um2, baseline.area_um2),
            power_pct: pct(self.power_uw, baseline.power_uw),
            delay_pct: pct(self.delay_ns, baseline.delay_ns),
        }
    }
}

/// Percentage savings relative to a baseline design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSavings {
    /// Area saving in percent.
    pub area_pct: f64,
    /// Power saving in percent.
    pub power_pct: f64,
    /// Delay reduction in percent.
    pub delay_pct: f64,
}

/// Random 64-sample blocks simulated for activity extraction.
const ACTIVITY_BLOCKS: usize = 16;
/// RNG seed of the activity-extraction stimulus.
const ACTIVITY_SEED: u64 = 0x0DDB_1A5E;
/// Supply voltage, V.
const VOLTAGE_V: f64 = 1.2;
/// Clock frequency the dynamic power is reported at, MHz.
const CLOCK_MHZ: f64 = 250.0;
/// Wire load per fanout, fF.
const WIRE_CAP_FF: f64 = 0.8;

/// Estimate area, power and delay of a netlist mapped onto `lib`.
pub fn estimate(nl: &Netlist, lib: &CellLibrary) -> DesignMetrics {
    let mut area = 0.0;
    let mut leakage_nw = 0.0;
    let mut gate_count = 0usize;
    for (_, node) in nl.iter() {
        if let Some(cell) = lib.cell(node.kind()) {
            area += cell.area_um2;
            leakage_nw += cell.leakage_nw;
            gate_count += 1;
        }
    }

    // --- Delay: longest path with load-dependent terms. ---
    let fanouts = nl.fanout_counts();
    let mut arrival = vec![0.0f64; nl.len()];
    let mut max_arrival = 0.0f64;
    for (id, node) in nl.iter() {
        if let Some(cell) = lib.cell(node.kind()) {
            let in_arr = node
                .fanins()
                .map(|f| arrival[f.index()])
                .fold(0.0f64, f64::max);
            let t = in_arr + cell.delay_ps + cell.delay_per_fanout_ps * fanouts[id.index()] as f64;
            arrival[id.index()] = t;
            max_arrival = max_arrival.max(t);
        }
    }
    let delay_ns = nl
        .outputs()
        .iter()
        .map(|o| arrival[o.node().index()])
        .fold(0.0f64, f64::max)
        / 1000.0;

    // --- Power: activity-weighted dynamic + leakage. ---
    let probs = signal_probabilities(nl);
    let mut dynamic_w = 0.0f64;
    for (id, node) in nl.iter() {
        // Load each node drives: input caps of fanout cells + wire.
        if node.kind() == GateKind::Const0 || node.kind() == GateKind::Const1 {
            continue;
        }
        let fo = fanouts[id.index()] as f64;
        if fo == 0.0 {
            continue;
        }
        // Approximate: each fanout pin contributes the average mappable
        // input cap; plus wire cap per fanout.
        let pin_cap = 1.4e-15;
        let cap = fo * (pin_cap + WIRE_CAP_FF * 1e-15);
        let p = probs[id.index()];
        let alpha = 2.0 * p * (1.0 - p);
        dynamic_w += alpha * cap * VOLTAGE_V * VOLTAGE_V * CLOCK_MHZ * 1e6;
    }
    let power_uw = dynamic_w * 1e6 + leakage_nw * 1e-3;

    DesignMetrics {
        area_um2: area,
        power_uw,
        delay_ns,
        gate_count,
    }
}

/// Per-node signal probabilities from random simulation.
fn signal_probabilities(nl: &Netlist) -> Vec<f64> {
    let stim = random_stimulus(nl, ACTIVITY_BLOCKS, ACTIVITY_SEED);
    let mut ones = vec![0u64; nl.len()];
    let mut sim = Simulator::new(nl);
    let mut words = vec![0u64; nl.num_inputs()];
    #[allow(clippy::needless_range_loop)]
    for b in 0..ACTIVITY_BLOCKS {
        for (i, w) in words.iter_mut().enumerate() {
            *w = stim[i][b];
        }
        sim.run(&words);
        for (i, o) in ones.iter_mut().enumerate() {
            *o += sim.value(blasys_logic::NodeId::from_index(i)).count_ones() as u64;
        }
    }
    let total = (ACTIVITY_BLOCKS * 64) as f64;
    ones.into_iter().map(|c| c as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_logic::builder::{add, input_bus, mark_output_bus};

    fn adder(width: usize) -> Netlist {
        let mut nl = Netlist::new(format!("add{width}"));
        let a = input_bus(&mut nl, "a", width);
        let b = input_bus(&mut nl, "b", width);
        let s = add(&mut nl, &a, &b);
        mark_output_bus(&mut nl, "s", &s);
        nl
    }

    #[test]
    fn bigger_circuits_cost_more() {
        let lib = CellLibrary::typical_65nm();
        let m4 = estimate(&adder(4), &lib);
        let m16 = estimate(&adder(16), &lib);
        assert!(m16.area_um2 > 2.0 * m4.area_um2);
        assert!(m16.power_uw > m4.power_uw);
        assert!(m16.delay_ns > m4.delay_ns);
        assert!(m16.gate_count > m4.gate_count);
    }

    #[test]
    fn empty_netlist_is_free() {
        let mut nl = Netlist::new("empty");
        let a = nl.add_input("a");
        nl.mark_output("z", a);
        let m = estimate(&nl, &CellLibrary::typical_65nm());
        assert_eq!(m.gate_count, 0);
        assert_eq!(m.area_um2, 0.0);
        assert_eq!(m.delay_ns, 0.0);
    }

    #[test]
    fn savings_computation() {
        let base = DesignMetrics {
            area_um2: 100.0,
            power_uw: 50.0,
            delay_ns: 2.0,
            gate_count: 10,
        };
        let smaller = DesignMetrics {
            area_um2: 60.0,
            power_uw: 25.0,
            delay_ns: 1.0,
            gate_count: 6,
        };
        let s = smaller.savings_vs(&base);
        assert!((s.area_pct - 40.0).abs() < 1e-9);
        assert!((s.power_pct - 50.0).abs() < 1e-9);
        assert!((s.delay_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn estimator_is_deterministic() {
        let nl = adder(8);
        let lib = CellLibrary::typical_65nm();
        let a = estimate(&nl, &lib);
        let b = estimate(&nl, &lib);
        assert_eq!(a, b);
    }

    #[test]
    fn magnitudes_are_plausible_for_65nm() {
        // A 32-bit ripple adder should land within an order of magnitude
        // of the paper's Table 1 entry (320.8 µm², 81.1 µW, 3.23 ns).
        let nl = adder(32);
        let m = estimate(&nl, &CellLibrary::typical_65nm());
        assert!(m.area_um2 > 100.0 && m.area_um2 < 3000.0, "{}", m.area_um2);
        assert!(m.power_uw > 5.0 && m.power_uw < 1000.0, "{}", m.power_uw);
        assert!(m.delay_ns > 0.5 && m.delay_ns < 30.0, "{}", m.delay_ns);
    }
}

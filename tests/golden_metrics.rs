//! Golden values of the fixed-setting synthesis substrate.
//!
//! The espresso minimizer and the area / power / delay estimator run
//! with one fixed set of settings. These tests pin the exact numbers
//! they produce (`f64::to_bits` for the metrics), so any change to
//! those settings, or to the code that applies them, shows up as a
//! failure rather than as a silent shift of every reported saving.

use blasys_repro::circuits::{adder, multiplier};
use blasys_repro::logic::{Netlist, TruthTable};
use blasys_repro::synth::{
    estimate, minimize_column, synthesize_tt, CellLibrary, DesignMetrics, Sop,
};

fn metrics(nl: &Netlist) -> DesignMetrics {
    estimate(nl, &CellLibrary::typical_65nm())
}

fn cover(k: usize, column: &[u64]) -> Sop {
    minimize_column(k, column)
}

fn synth(tt: &TruthTable) -> Netlist {
    synthesize_tt(tt, "golden")
}

fn bits(m: &DesignMetrics) -> (u64, u64, u64, usize) {
    (
        m.area_um2.to_bits(),
        m.power_uw.to_bits(),
        m.delay_ns.to_bits(),
        m.gate_count,
    )
}

/// A 4-input, 2-output function (the `blasys-synth` crate example).
fn mod3() -> TruthTable {
    TruthTable::from_fn(4, 2, |row| (row % 3) as u64)
}

/// A 6-input, 3-output function: low three bits of `a·b + c` on
/// 2-bit operands.
fn mac2() -> TruthTable {
    TruthTable::from_fn(6, 3, |row| {
        let (a, b, c) = (row & 0b11, (row >> 2) & 0b11, (row >> 4) & 0b11);
        ((a * b + c) & 0b111) as u64
    })
}

#[test]
fn estimate_pins_adder8() {
    let m = metrics(&adder(8));
    assert_eq!(
        bits(&m),
        (
            0x4052_b851_eb85_1eb7,
            0x403f_0fc2_18c7_5c4c,
            0x3fe7_3b64_5a1c_ac08,
            37
        ),
        "{m:?}"
    );
}

#[test]
fn estimate_pins_multiplier4() {
    let m = metrics(&multiplier(4));
    assert_eq!(
        bits(&m),
        (
            0x405e_3d70_a3d7_0a36,
            0x4043_d2fa_f5f9_1601,
            0x3feb_be76_c8b4_3958,
            64
        ),
        "{m:?}"
    );
}

#[test]
fn espresso_pins_cube_counts() {
    for (tt, want) in [
        (mod3(), vec![(5, 20), (5, 20)]),
        (mac2(), vec![(3, 7), (13, 58), (8, 34)]),
    ] {
        let got: Vec<(usize, usize)> = (0..tt.num_outputs())
            .map(|o| {
                let sop = cover(tt.num_inputs(), tt.column(o));
                (sop.cube_count(), sop.literal_count())
            })
            .collect();
        assert_eq!(got, want);
    }
}

#[test]
fn synthesize_tt_pins_gate_counts() {
    assert_eq!(synth(&mod3()).gate_count(), 22);
    assert_eq!(synth(&mac2()).gate_count(), 56);
}

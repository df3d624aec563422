//! Golden fingerprints of whole `anneal` trajectories.
//!
//! Simulated annealing runs its fixed default schedule from the
//! session's Monte-Carlo seed. These tests pin a hash over every bit
//! of every recorded point (degrees, `f64::to_bits` of each QoR field
//! and model metric), the stop reason and the probe count, so a change
//! to the schedule, the seed plumbing or the probe engine shows up as a
//! failure rather than as a silently different trajectory. The explorer
//! is obtained by name, the way the CLI and `blasys serve` obtain it.

use blasys_repro::blasys::report::{parse_explorer, stop_reason_name};
use blasys_repro::blasys::{Exploration, ExploreSpec, FlowConfig, FlowSession};
use blasys_repro::circuits::{adder, multiplier};
use blasys_repro::logic::Netlist;

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(e: &Exploration) -> u64 {
    let mut words = vec![e.probes(), e.trajectory().len() as u64];
    words.extend(stop_reason_name(e.stop_reason()).bytes().map(u64::from));
    for p in e.trajectory() {
        let q = &p.qor;
        words.push(p.step as u64);
        words.push(p.changed_cluster.map_or(u64::MAX, |c| c as u64));
        words.extend(p.degrees.iter().map(|&d| d as u64));
        words.extend([
            q.avg_relative.to_bits(),
            q.avg_absolute.to_bits(),
            q.norm_absolute.to_bits(),
            q.bit_error_rate.to_bits(),
            q.worst_absolute,
            q.error_rate.to_bits(),
            q.samples as u64,
            p.model_area_um2.to_bits(),
            p.model_depth_ns.to_bits(),
        ]);
    }
    fnv(words)
}

/// The default `anneal` schedule at a 10 % threshold, seeded by the
/// session: (points, probes, fingerprint).
fn anneal(nl: &Netlist) -> (usize, u64, u64) {
    let session = FlowSession::open(nl, FlowConfig::new().samples(2048))
        .expect("open")
        .profile()
        .expect("profile");
    let spec = ExploreSpec::new()
        .threshold(0.1)
        .explorer(parse_explorer("anneal").expect("anneal parses"));
    let e = session.explore(&spec);
    (e.trajectory().len(), e.probes(), fingerprint(&e))
}

#[test]
fn anneal_pins_adder8() {
    assert_eq!(anneal(&adder(8)), (13, 256, 0xbb26_27b0_a3c9_0d4f));
}

#[test]
fn anneal_pins_multiplier4() {
    assert_eq!(anneal(&multiplier(4)), (26, 256, 0x1e1b_7533_040d_6f54));
}

//! Simulation throughput benchmarks: bit-parallel gate-level
//! simulation and cluster-table Monte-Carlo probes (the runtime-
//! dominant operation per the paper's Section 4.2, including the MC
//! sample-count sensitivity ablation).

use blasys_circuits::{adder, multiplier};
use blasys_core::montecarlo::{Evaluator, McConfig};
use blasys_decomp::{decompose, DecompConfig};
use blasys_logic::sim::random_stimulus;
use blasys_logic::Simulator;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_gate_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("gate_sim");
    g.sample_size(10);
    for (name, nl) in [("adder32", adder(32)), ("mult8", multiplier(8))] {
        let blocks = 64;
        let stim = random_stimulus(&nl, blocks, 1);
        g.throughput(Throughput::Elements((blocks * 64) as u64));
        g.bench_function(format!("{name}_{}samples", blocks * 64), |b| {
            let mut sim = Simulator::new(&nl);
            let mut words = vec![0u64; nl.num_inputs()];
            b.iter(|| {
                let mut acc = 0u64;
                #[allow(clippy::needless_range_loop)]
                for blk in 0..blocks {
                    for (i, w) in words.iter_mut().enumerate() {
                        *w = stim[i][blk];
                    }
                    acc ^= sim.run(&words)[0];
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_mc_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("mc_probe");
    g.sample_size(10);
    let nl = multiplier(8);
    let part = decompose(&nl, &DecompConfig::default());
    // Sample-count sensitivity: the probe cost is linear in samples.
    for samples in [1_024usize, 10_240] {
        let ev = Evaluator::new(&nl, &part, &McConfig { samples, seed: 2 });
        let zeros = vec![0u16; ev.network().table(0).len()];
        g.throughput(Throughput::Elements(samples as u64));
        // One-shot probe: allocates a fresh overlay per call.
        g.bench_function(format!("mult8_probe_{samples}"), |b| {
            b.iter(|| ev.qor_probe(&mut ev.probe_state(), 0, &zeros))
        });
        // Hot-loop probe: overlay + scratch reused across probes (the
        // exploration sweep's per-worker configuration).
        let mut state = ev.probe_state();
        g.bench_function(format!("mult8_probe_reused_state_{samples}"), |b| {
            b.iter(|| ev.qor_probe(&mut state, 0, &zeros))
        });
        // Retained pre-PR scalar accumulator, as the regression
        // baseline for the packed incremental engine (`qor_bench`
        // measures the same pair on the BLIF corpus).
        g.bench_function(format!("mult8_probe_reference_{samples}"), |b| {
            b.iter(|| ev.qor_probe_reference(&mut state, 0, &zeros))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gate_sim, bench_mc_probe);
criterion_main!(benches);

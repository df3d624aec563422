//! Two-level minimizer and multi-level Shannon mapper benchmarks on
//! window-sized functions (the inner loop of variant synthesis).

use blasys_logic::TruthTable;
use blasys_synth::espresso::minimize_column;
use blasys_synth::{shannon_columns, synthesize_tt};
use criterion::{criterion_group, criterion_main, Criterion};

fn onset(k: usize, f: impl Fn(usize) -> bool) -> Vec<u64> {
    let rows = 1usize << k;
    let mut v = vec![0u64; rows.div_ceil(64)];
    for r in 0..rows {
        if f(r) {
            v[r / 64] |= 1 << (r % 64);
        }
    }
    v
}

fn bench_espresso(c: &mut Criterion) {
    let mut g = c.benchmark_group("espresso");
    g.sample_size(10);
    for k in [8usize, 10] {
        let structured = onset(k, |r| {
            let a = r & ((1 << (k / 2)) - 1);
            let b = r >> (k / 2);
            (a * b) & 0b100 != 0
        });
        g.bench_function(format!("minimize_structured_k{k}"), |b| {
            b.iter(|| minimize_column(k, &structured))
        });
        let noisy = onset(k, |r| (r.wrapping_mul(2654435761)) >> 13 & 1 == 1);
        g.bench_function(format!("minimize_noisy_k{k}"), |b| {
            b.iter(|| minimize_column(k, &noisy))
        });
    }
    let tt = TruthTable::from_fn(10, 6, |row| {
        let a = (row & 0x1F) as u64;
        let b = (row >> 5) as u64;
        (a * b) & 0x3F
    });
    g.bench_function("synthesize_tt_k10_m6", |b| {
        b.iter(|| synthesize_tt(&tt, "w"))
    });
    g.bench_function("shannon_k10_m6", |b| {
        b.iter(|| {
            let mut nl = blasys_logic::Netlist::new("s");
            let inputs: Vec<_> = (0..10).map(|i| nl.add_input(format!("x{i}"))).collect();
            shannon_columns(&mut nl, &inputs, &tt)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_espresso);
criterion_main!(benches);

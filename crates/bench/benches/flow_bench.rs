//! End-to-end flow benchmarks and design-choice ablations from
//! `DESIGN.md`: decomposition size k = m, OR vs XOR decompressors, and
//! hybrid vs pure-ASSO profiling. Uses a small multiplier so the whole
//! suite stays fast.

use std::sync::Arc;

use blasys_bmf::Algebra;
use blasys_circuits::multiplier;
use blasys_core::{run, BlasysResult, ExploreSpec, FlowConfig, Parallelism};
use blasys_logic::Netlist;
use blasys_obs::Registry;
use criterion::{criterion_group, criterion_main, Criterion};

fn small_flow() -> FlowConfig {
    FlowConfig::new()
        .samples(1_024)
        .seed(7)
        .parallelism(Parallelism::Serial)
}

/// One full flow with `cfg` and the default exploration.
fn flow(nl: &Netlist, cfg: FlowConfig) -> BlasysResult {
    flow_with(nl, cfg, &ExploreSpec::new())
}

fn flow_with(nl: &Netlist, cfg: FlowConfig, spec: &ExploreSpec) -> BlasysResult {
    run(nl, cfg, spec).expect("multipliers run")
}

fn bench_flow(c: &mut Criterion) {
    let nl = multiplier(4);
    let mut g = c.benchmark_group("flow");
    g.sample_size(10);

    g.bench_function("mult4_exhaustive", |b| b.iter(|| flow(&nl, small_flow())));

    // Parallel scaling: same flow, same (bit-identical) result, more
    // workers for window profiling + the exploration candidate sweep.
    for threads in [2usize, 4] {
        g.bench_function(format!("mult4_threads{threads}"), |b| {
            b.iter(|| flow(&nl, small_flow().threads(threads)))
        });
    }
    // Ablation: bound-pruned candidate probes off (the committed
    // trajectory is bit-identical; only wall-clock differs).
    g.bench_function("mult4_no_prune", |b| {
        b.iter(|| flow_with(&nl, small_flow(), &ExploreSpec::new().prune(false)))
    });

    // Observability overhead: same flow with a live metrics registry
    // attached (engine/stage counters hot on every probe). Compare
    // against `mult4_exhaustive` — the delta is the instrumentation
    // cost quoted in docs/USAGE.md.
    g.bench_function("mult4_instrumented", |b| {
        b.iter(|| flow(&nl, small_flow().metrics(Arc::new(Registry::new()))))
    });

    let nl6 = multiplier(6);
    g.bench_function("mult6_serial", |b| b.iter(|| flow(&nl6, small_flow())));
    g.bench_function("mult6_threads4", |b| {
        b.iter(|| flow(&nl6, small_flow().threads(4)))
    });

    // Ablation: decomposition size.
    for km in [4usize, 6, 8, 10] {
        g.bench_function(format!("mult4_k{km}m{km}"), |b| {
            b.iter(|| flow(&nl, small_flow().limits(km, km)))
        });
    }

    // Ablation: OR semi-ring vs XOR field decompressors.
    g.bench_function("mult4_field_xor", |b| {
        b.iter(|| flow(&nl, small_flow().algebra(Algebra::Field)))
    });

    // Ablation: hybrid variant selection off (pure ASSO).
    g.bench_function("mult4_pure_asso", |b| {
        b.iter(|| flow(&nl, small_flow().hybrid(false)))
    });

    g.finish();
}

/// Profile-stage wall time without exploration: open (decompose and
/// worker pool) plus the BMF degree ladder per window, serial vs
/// parallel. `mult4` has more windows than workers (window-level
/// parallelism); the `threads8` row forces more workers than windows,
/// pushing the parallelism inside each window's ASSO candidate scans.
/// Profiles are bit-identical across all rows.
fn bench_profile_stage(c: &mut Criterion) {
    use blasys_core::FlowSession;

    let nl = multiplier(4);
    let mut g = c.benchmark_group("profile");
    g.sample_size(10);
    for (name, threads) in [
        ("mult4_serial", 1usize),
        ("mult4_threads2", 2),
        ("mult4_threads4", 4),
        ("mult4_threads8", 8),
    ] {
        let cfg = FlowConfig::new().threads(threads);
        g.bench_function(name, |b| {
            b.iter(|| FlowSession::open(&nl, cfg.clone()).and_then(|s| s.profile()))
        });
    }
    g.finish();
}

/// Explorer-engine cost on the same `mult4` flow: greedy reference vs
/// a width-4 beam (~width× candidate sweeps per step) vs a 256-step
/// annealing schedule. The greedy row doubles as the denominator for
/// the beam-width cost table in docs/USAGE.md.
fn bench_explorers(c: &mut Criterion) {
    use blasys_core::Explorer;

    let nl = multiplier(4);
    let mut g = c.benchmark_group("explore");
    g.sample_size(10);
    for (name, explorer) in [
        ("mult4_greedy", Explorer::Greedy),
        ("mult4_beam4", Explorer::Beam { width: 4 }),
        ("mult4_anneal", Explorer::Anneal(Default::default())),
    ] {
        let spec = ExploreSpec::new().explorer(explorer);
        g.bench_function(name, |b| b.iter(|| flow_with(&nl, small_flow(), &spec)));
    }
    g.finish();
}

/// Static-analysis cost: the full `blasys-lint` pass registry over the
/// largest shipped circuits, on both surfaces the CLI lints — the
/// parsed BLIF document (admission-path lints) and the built netlist
/// (liveness fallbacks plus the simulation-signature duplicate-cone
/// scan, the dominant term).
fn bench_lint(c: &mut Criterion) {
    use blasys_lint::{run_lints, LintConfig, LintTarget};
    use blasys_logic::blif::{parse_blif_doc, to_blif};

    let nl = multiplier(6).cleaned();
    let text = to_blif(&nl);
    let doc = parse_blif_doc(&text).expect("round trip parses");
    let cfg = LintConfig::default();

    let mut g = c.benchmark_group("lint");
    g.sample_size(10);
    g.bench_function("mult6_doc", |b| {
        b.iter(|| run_lints(&LintTarget::new().with_doc(&doc), &cfg))
    });
    g.bench_function("mult6_netlist", |b| {
        b.iter(|| run_lints(&LintTarget::new().with_netlist(&nl), &cfg))
    });
    g.bench_function("mult6_combined", |b| {
        b.iter(|| run_lints(&LintTarget::new().with_doc(&doc).with_netlist(&nl), &cfg))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_flow,
    bench_profile_stage,
    bench_explorers,
    bench_lint
);
criterion_main!(benches);

//! `qor_bench` — probe-throughput benchmark for the packed
//! incremental QoR engine.
//!
//! Measures a full exploration-style candidate sweep (every cluster
//! probed with its next-lower-degree BMF table — exactly what
//! `explore` probes at step 1) through three paths:
//!
//! * `reference` — the retained pre-PR accumulator
//!   (`Evaluator::qor_probe_reference`): every primary output
//!   resolved per block, per-sample values assembled bit by bit and
//!   pushed one by one;
//! * `packed`    — the incremental engine (`Evaluator::qor_probe`):
//!   cone-PO splicing into the cached committed values, word-level
//!   transpose, error-free samples batch-counted;
//! * `pruned`    — `packed` plus the explore-style best-so-far bound
//!   (`Evaluator::qor_probe_bounded`): losing candidates abandoned
//!   block-wise, cone recomputation included.
//!
//! It then times the exploration loop with pruning off and on, serial
//! and at 4 workers, and verifies the four committed trajectories are
//! **bit-identical** (same clusters, same degrees, same QoR reports):
//! pruning and threading are pure wall-clock optimizations.
//!
//! Usage: `qor_bench [FILE.blif ...] [--reps N] [--json PATH]`, plus
//! the standard `BLASYS_SAMPLES` knob (default 10 000 samples; default
//! circuits `benchmarks/mult4.blif` and `benchmarks/butterfly4.blif`).
//! `--json` writes every measurement (name, samples, threads,
//! wall-ns, speedup) as a stable JSON document (`-` = stdout).

use std::time::Instant;

use blasys_bench::sample_count;
use blasys_core::explore::explore_on;
use blasys_core::montecarlo::{Evaluator, McConfig};
use blasys_core::profile::{profile_partition_on, ProfileConfig};
use blasys_core::qor::QorMetric;
use blasys_core::{ExploreSpec, Json, Pool, TrajectoryPoint};
use blasys_decomp::{decompose, DecompConfig};
use blasys_logic::blif::from_blif;
use blasys_logic::Netlist;

fn load(path: &str) -> Netlist {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run from the repository root)"));
    from_blif(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn time<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

fn assert_identical(a: &[TrajectoryPoint], b: &[TrajectoryPoint], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: trajectory length");
    for (s, p) in a.iter().zip(b) {
        assert_eq!(
            s.changed_cluster, p.changed_cluster,
            "{what} step {}",
            s.step
        );
        assert_eq!(s.degrees, p.degrees, "{what} step {}", s.step);
        assert_eq!(s.qor, p.qor, "{what} step {}", s.step);
    }
}

/// Benchmark one circuit; returns the sweep speedup pruned/reference
/// plus a JSON record of every measurement for `--json`.
fn bench_circuit(path: &str, samples: usize, reps: usize) -> (f64, Json) {
    let nl = load(path);
    let part = decompose(&nl, &DecompConfig::default());
    let mc = McConfig {
        samples,
        seed: 0xB1A5_1234,
    };
    let metric = QorMetric::AvgRelative;
    let profiles = profile_partition_on(&nl, &part, &ProfileConfig::default(), Pool::serial())
        .expect("no cancel token or deadline");
    let ev = Evaluator::new(&nl, &part, &mc);
    let n = ev.network().len();
    // The step-1 exploration candidates: each cluster at degree m−1
    // (clusters already at one output keep their exact table — a
    // same-table probe, which explore also performs).
    let candidates: Vec<Vec<u16>> = profiles
        .iter()
        .map(|p| {
            p.variant(p.num_outputs.saturating_sub(1).max(1))
                .table_rows
                .clone()
        })
        .collect();
    println!(
        "\n== {path}: {} PI / {} PO, {} clusters, {} samples, {} reps ==",
        nl.num_inputs(),
        nl.num_outputs(),
        n,
        ev.samples(),
        reps,
    );

    // Sanity: packed and reference report identically before timing.
    let mut st = ev.probe_state();
    for (c, rows) in candidates.iter().enumerate() {
        let packed = ev.qor_probe(&mut st, c, rows);
        let scalar = ev.qor_probe_reference(&mut st, c, rows);
        assert_eq!(packed, scalar, "cluster {c}: packed != reference");
    }

    // One sweep = probe every candidate and pick the winner, exactly
    // like one explore step. The pruned sweep threads the running
    // best error through as the bound.
    let sweep_reference = |st: &mut _| -> usize {
        (0..n)
            .map(|c| {
                (
                    ev.qor_probe_reference(st, c, &candidates[c]).value(metric),
                    c,
                )
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap()
            .1
    };
    let sweep_packed = |st: &mut _| -> usize {
        (0..n)
            .map(|c| (ev.qor_probe(st, c, &candidates[c]).value(metric), c))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap()
            .1
    };
    let sweep_pruned = |st: &mut _| -> usize {
        let mut bound = f64::MAX; // finite so pruning engages
        let mut best = (f64::INFINITY, usize::MAX);
        for (c, rows) in candidates.iter().enumerate() {
            if let Some(r) = ev.qor_probe_bounded(st, c, rows, metric, bound) {
                let e = r.value(metric);
                bound = bound.min(e);
                if e < best.0 {
                    best = (e, c);
                }
            }
        }
        best.1
    };
    let w_ref = sweep_reference(&mut st); // warm-up + winners
    let w_packed = sweep_packed(&mut st);
    let w_pruned = sweep_pruned(&mut st);
    assert_eq!(w_ref, w_packed, "sweep winners must agree");
    assert_eq!(w_ref, w_pruned, "pruning must not change the winner");

    let probes = (reps * n) as f64;
    let pushed = probes * ev.samples() as f64;
    let (t_ref, _) = time(|| (0..reps).map(|_| sweep_reference(&mut st)).last());
    let (t_packed, _) = time(|| (0..reps).map(|_| sweep_packed(&mut st)).last());
    let (t_pruned, _) = time(|| (0..reps).map(|_| sweep_pruned(&mut st)).last());
    // The throughput column counts *candidate* samples retired per
    // second; for the pruned row most are retired by abandoning the
    // candidate, not by evaluating them, so it is marked "effective".
    let row = |name: &str, t: f64, effective: bool| {
        println!(
            "  {name:<10} {probes:>6.0} probes  {:>9.2} ms  {:>8.1} Msamples/s{} {:>6.2}x",
            t * 1e3,
            pushed / t / 1e6,
            if effective { " (eff.)" } else { "       " },
            t_ref / t,
        );
    };
    row("reference", t_ref, false);
    row("packed", t_packed, false);
    row("pruned", t_pruned, true);
    let sweep_json = |name: &str, t: f64| {
        Json::obj([
            ("name", Json::str(name)),
            ("samples", Json::UInt(ev.samples() as u64)),
            ("threads", Json::UInt(1)),
            ("wall_ns", Json::UInt((t * 1e9) as u64)),
            ("speedup", Json::Num(t_ref / t)),
        ])
    };
    let mut measurements = vec![
        sweep_json("sweep/reference", t_ref),
        sweep_json("sweep/packed", t_packed),
        sweep_json("sweep/pruned", t_pruned),
    ];

    // Exploration: pruning off/on, serial and 4 workers — identical
    // trajectories throughout (same committed tables, same QoR).
    let mut results: Vec<(String, Vec<TrajectoryPoint>)> = Vec::new();
    let mut t_explore_serial = 0.0f64;
    for (workers, par_name) in [(1u64, "serial"), (4, "4 threads")] {
        let pool = Pool::new(workers as usize);
        for prune in [false, true] {
            let mut ev = Evaluator::new(&nl, &part, &mc);
            let spec = ExploreSpec::new().exhaust().prune(prune);
            let (t, traj) = time(|| explore_on(&mut ev, &profiles, &spec, &pool).into_trajectory());
            println!(
                "  explore ({par_name:<9} prune {}) {:>9.1} ms  {} steps",
                if prune { "on " } else { "off" },
                t * 1e3,
                traj.len() - 1,
            );
            if workers == 1 && !prune {
                t_explore_serial = t;
            }
            measurements.push(Json::obj([
                ("name", Json::str(format!("explore/prune={prune}"))),
                ("samples", Json::UInt(ev.samples() as u64)),
                ("threads", Json::UInt(workers)),
                ("wall_ns", Json::UInt((t * 1e9) as u64)),
                ("speedup", Json::Num(t_explore_serial / t)),
            ]));
            results.push((format!("{par_name}/prune={prune}"), traj));
        }
    }
    for (name, traj) in &results[1..] {
        assert_identical(&results[0].1, traj, name);
    }
    println!("  trajectories bit-identical across prune x threading: OK");
    println!(
        "  sweep speedup vs pre-PR accumulator: packed {:.2}x, pruned {:.2}x",
        t_ref / t_packed,
        t_ref / t_pruned,
    );
    let doc = Json::obj([
        ("circuit", Json::str(path)),
        ("clusters", Json::UInt(n as u64)),
        ("reps", Json::UInt(reps as u64)),
        ("benchmarks", Json::Arr(measurements)),
    ]);
    (t_ref / t_pruned, doc)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut reps = 20usize;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a count");
            }
            "--json" => {
                json_out = Some(it.next().expect("--json needs a path").to_string());
            }
            f => files.push(f.to_string()),
        }
    }
    if files.is_empty() {
        files = vec![
            "benchmarks/mult4.blif".into(),
            "benchmarks/butterfly4.blif".into(),
        ];
    }
    let samples = sample_count();
    let mut worst: f64 = f64::INFINITY;
    let mut circuits = Vec::new();
    for f in &files {
        let (speedup, doc) = bench_circuit(f, samples, reps);
        worst = worst.min(speedup);
        circuits.push(doc);
    }
    println!("\nworst-case sweep speedup across circuits: {worst:.2}x");
    if let Some(path) = json_out {
        let doc = Json::obj([
            ("samples", Json::UInt(samples as u64)),
            ("circuits", Json::Arr(circuits)),
            ("worst_sweep_speedup", Json::Num(worst)),
        ]);
        let text = doc.pretty();
        if path == "-" {
            print!("{text}");
        } else {
            std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote benchmark results to {path}");
        }
    }
}

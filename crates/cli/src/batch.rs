//! `blasys batch` — run a corpus of BLIF circuits across the
//! `blasys-par` pool and print an aggregate summary table.
//!
//! Each circuit is driven through **one** staged session: decomposed
//! and profiled once, then explored once per requested threshold
//! (`--thresholds` turns the single `--error-threshold` into a
//! ladder, reusing the cached profile for every rung).
//!
//! Every circuit is pre-flight linted on admission (see
//! [`parse_blif_file`]): a structurally broken BLIF — combinational
//! cycle, undriven or multiply-driven net, undefined output — is
//! skipped and reported in the failure list without aborting the rest
//! of the corpus.

use std::path::PathBuf;

use blasys_bench::print_table;
use blasys_core::report::metric_name;
use blasys_core::session::FlowSession;
use blasys_par::{Parallelism, Pool};

use crate::opts::{
    parse_blif_file, parse_thresholds, require, set_positional, value, CliError, FlowOpts,
};

pub fn main(args: &[String]) -> Result<(), CliError> {
    let mut dir: Option<String> = None;
    let mut opts = FlowOpts::default();
    let mut thresholds: Option<Vec<f64>> = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(n) = opts.take(args, i)? {
            i += n;
            continue;
        }
        let a = args[i].as_str();
        if a == "--thresholds" {
            thresholds = Some(parse_thresholds(value(args, i)?)?);
            i += 2;
            continue;
        }
        set_positional(&mut dir, a)?;
        i += 1;
    }
    let dir = require(dir, "benchmark directory")?;
    let ladder = thresholds.unwrap_or_else(|| vec![opts.threshold]);
    let multi = ladder.len() > 1;

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| CliError::runtime(format!("cannot read directory {dir}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .is_some_and(|x| x.eq_ignore_ascii_case("blif"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(CliError::runtime(format!("no .blif files in {dir}")));
    }

    // Circuits are the parallel axis here, so each individual flow must
    // stay serial (the pool rejects nested parallel scopes). Unlike the
    // single-circuit commands, batch defaults to one worker per
    // hardware thread.
    let pool = Pool::with_parallelism(opts.parallelism.unwrap_or_else(|| {
        match std::env::var("BLASYS_THREADS") {
            Ok(s) => Parallelism::parse(&s),
            Err(_) => Parallelism::Auto,
        }
    }));
    eprintln!(
        "{} circuits on {} worker(s), metric {}, threshold{} {}",
        files.len(),
        pool.threads(),
        metric_name(opts.metric),
        if multi { "s" } else { "" },
        ladder
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );

    let root = opts.span("batch");
    let results: Vec<Result<Vec<Vec<String>>, String>> = pool.run(files.len(), |fi| {
        let path = &files[fi];
        let shown = path.file_name().unwrap_or_default().to_string_lossy();
        let run = || -> Result<Vec<Vec<String>>, CliError> {
            let nl = parse_blif_file(&path.to_string_lossy())?;
            // One session per circuit: the profile pass is shared by
            // every threshold rung.
            let session = FlowSession::open(&nl, opts.flow_config_with(Parallelism::Serial))
                .and_then(FlowSession::profile)
                .map_err(|e| CliError::flow(&shown, e))?;
            let mut rows = Vec::new();
            for &t in &ladder {
                let exploration = session.explore(&opts.explore_spec().threshold(t));
                let result = session.result(&exploration);
                let step = result.best_step_under(opts.metric, t).unwrap_or(0);
                let point = &result.trajectory()[step];
                let metrics = result.metrics_step(step);
                let savings = metrics.savings_vs(&result.baseline_metrics());
                let mut row = vec![shown.to_string()];
                if multi {
                    row.push(t.to_string());
                }
                row.extend([
                    format!("{}/{}", nl.num_inputs(), nl.num_outputs()),
                    result.partition().len().to_string(),
                    format!("{}/{}", step, result.trajectory().len() - 1),
                    format!("{:.5}", point.qor.value(opts.metric)),
                    format!("{:.1}", metrics.area_um2),
                    format!("{:+.1}%", savings.area_pct),
                ]);
                rows.push(row);
            }
            Ok(rows)
        };
        run().map_err(|e| {
            let msg = match e {
                CliError::Usage(m)
                | CliError::Runtime(m)
                | CliError::Flow(m)
                | CliError::DeniedWarnings(m) => m,
            };
            format!("{shown}: {msg}")
        })
    });

    drop(root);
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for r in results {
        match r {
            Ok(circuit_rows) => rows.extend(circuit_rows),
            Err(msg) => failures.push(msg),
        }
    }
    let mut header = vec!["circuit"];
    if multi {
        header.push("threshold");
    }
    header.extend(["i/o", "clusters", "step", "error", "area_um2", "area_saved"]);
    print_table(&header, &rows);
    for f in &failures {
        eprintln!("failed: {f}");
    }
    opts.finish()?;
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::runtime(format!(
            "{} of {} circuits failed",
            failures.len(),
            files.len()
        )))
    }
}

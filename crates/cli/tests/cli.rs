//! End-to-end tests of the `blasys` binary, spawned as a real process
//! against the shipped `benchmarks/` corpus.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn benchmarks_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks")
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blasys-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn blasys(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blasys"))
        .args(args)
        .output()
        .expect("spawn blasys")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Fast flow settings shared by the tests (the binary under test is a
/// debug build).
const FAST: &[&str] = &["--samples", "512", "--seed", "7"];

#[test]
fn reported_sample_count_is_the_rounded_actual_count() {
    // `--samples 1000` rounds up to 16 blocks × 64 = 1024 evaluated
    // samples; every surfaced count must be the actual one, never the
    // requested 1000.
    let dir = scratch("samples-rounding");
    let report = dir.join("report.json");
    let bench = benchmarks_dir().join("adder4.blif");
    let out = blasys(&[
        "run",
        bench.to_str().unwrap(),
        "--samples",
        "1000",
        "--seed",
        "7",
        "--report",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let r = std::fs::read_to_string(&report).expect("read report");
    assert!(
        r.contains("\"samples\": 1024"),
        "report must carry the rounded count: {r}"
    );
    assert!(!r.contains("\"samples\": 1000"), "requested count leaked");
}

#[test]
fn run_emits_netlists_and_report() {
    let dir = scratch("run");
    let blif_out = dir.join("out.blif");
    let v_out = dir.join("out.v");
    let report = dir.join("report.json");
    let bench = benchmarks_dir().join("adder4.blif");
    let out = blasys(
        &[
            &["run", bench.to_str().unwrap()],
            FAST,
            &["--error-threshold", "0.05"],
            &["--blif", blif_out.to_str().unwrap()],
            &["--verilog", v_out.to_str().unwrap()],
            &["--report", report.to_str().unwrap()],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // The emitted BLIF must re-parse with the same interface.
    let text = std::fs::read_to_string(&blif_out).expect("read emitted BLIF");
    let back = blasys_logic::blif::from_blif(&text).expect("emitted BLIF re-parses");
    assert_eq!(back.num_inputs(), 8);
    assert_eq!(back.num_outputs(), 5);

    // The Verilog must look like one well-formed structural module.
    let v = std::fs::read_to_string(&v_out).expect("read emitted Verilog");
    assert!(v.starts_with("module "));
    assert!(v.trim_end().ends_with("endmodule"));
    assert_eq!(v.matches("module ").count(), 1, "exactly one module header");
    assert_eq!(v.matches("endmodule").count(), 1);
    assert!(v.contains("input a0;"));
    assert!(v.contains("assign "));

    // The JSON report carries the achieved error and the savings.
    let r = std::fs::read_to_string(&report).expect("read report");
    for key in [
        "\"circuit\"",
        "\"avg_relative\"",
        "\"worst_absolute\"",
        "\"savings\"",
        "\"area_pct\"",
        "\"clusters\"",
    ] {
        assert!(r.contains(key), "report missing {key}: {r}");
    }
}

#[test]
fn run_report_defaults_to_stdout() {
    let bench = benchmarks_dir().join("mult3.blif");
    let out = blasys(&[&["run", bench.to_str().unwrap()], FAST].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let s = stdout(&out);
    assert!(
        s.trim_start().starts_with('{'),
        "stdout must be the JSON report: {s}"
    );
    assert!(s.contains("\"qor\""));
}

#[test]
fn certify_reports_a_consistent_bound() {
    let bench = benchmarks_dir().join("mult3.blif");
    let out = blasys(
        &[
            &["certify", bench.to_str().unwrap()],
            FAST,
            &["--error-threshold", "0.2"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("\"certified_worst_absolute\""));
    assert!(s.contains("\"consistent\": true"), "{s}");
    assert!(s.contains("\"probes\""));
}

#[test]
fn sweep_writes_csv_rows() {
    let bench = benchmarks_dir().join("mult4.blif");
    let out = blasys(
        &[
            &["sweep", bench.to_str().unwrap()],
            FAST,
            &["--thresholds", "0.05,0.25"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let s = stdout(&out);
    let mut lines = s.lines();
    assert_eq!(
        lines.next(),
        Some("threshold,step,error,model_area_um2,area_um2,area_saved_pct")
    );
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty(), "no ladder rows: {s}");
    for row in rows {
        assert_eq!(row.split(',').count(), 6, "bad CSV row {row}");
    }
}

#[test]
fn sweep_json_has_pareto_front() {
    let bench = benchmarks_dir().join("mult3.blif");
    let out = blasys(
        &[
            &["sweep", bench.to_str().unwrap()],
            FAST,
            &["--format", "json"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("\"pareto_front\""));
    assert!(s.contains("\"ladder\""));
}

#[test]
fn batch_summarizes_the_corpus_in_parallel() {
    let dir = benchmarks_dir();
    let out = blasys(&[&["batch", dir.to_str().unwrap()], FAST, &["--threads", "2"]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let table = stdout(&out);
    for name in ["adder4", "adder8", "mult3", "mult4", "butterfly4"] {
        assert!(table.contains(name), "summary missing {name}: {table}");
    }
    assert!(stderr(&out).contains("2 worker"), "{}", stderr(&out));
}

#[test]
fn profile_lists_every_degree() {
    let bench = benchmarks_dir().join("adder4.blif");
    let out = blasys(&["profile", bench.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("cluster"));
    assert!(s.contains("hamming"));
    assert!(
        s.lines().count() > 3,
        "expected at least one degree ladder: {s}"
    );
}

#[test]
fn progress_streams_stage_window_and_step_events() {
    let bench = benchmarks_dir().join("mult3.blif");
    let out = blasys(&[&["sweep", bench.to_str().unwrap()], FAST, &["--progress"]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let e = stderr(&out);
    for marker in [
        "decompose: start",
        "decompose: done",
        "profile: start",
        "profile: window 1/",
        "profile: done",
        "explore: start",
        "explore: step 0",
        "explore: done",
    ] {
        assert!(e.contains(marker), "missing `{marker}` in progress: {e}");
    }
    // Progress goes to stderr only; stdout stays machine-readable CSV.
    let s = stdout(&out);
    assert!(s.starts_with("threshold,"), "stdout polluted: {s}");
    // The summary printed when the run finishes reuses the span clock.
    assert!(
        e.contains("timing: decompose"),
        "missing timing summary: {e}"
    );
}

/// Quote-aware structural JSON check: balanced braces/brackets and a
/// terminated top level — enough to catch truncated or interleaved
/// writer output without a parser.
fn assert_valid_json(text: &str) {
    let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
    for c in text.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close: {text}");
            }
            _ => {}
        }
    }
    assert!(!in_string && depth == 0, "malformed JSON: {text}");
}

#[test]
fn sweep_trace_out_writes_chrome_trace_and_metrics_snapshot() {
    let dir = scratch("sweep-trace");
    let trace = dir.join("trace.json");
    let bench = benchmarks_dir().join("mult3.blif");
    let out = blasys(
        &[
            &["sweep", bench.to_str().unwrap()],
            FAST,
            &["--trace-out", trace.to_str().unwrap(), "--metrics"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // The trace loads as chrome-trace JSON: a traceEvents array with
    // balanced B/E phases (Perfetto rejects anything less).
    let t = std::fs::read_to_string(&trace).expect("read trace");
    assert_valid_json(&t);
    assert!(
        t.starts_with("{\"traceEvents\": ["),
        "not a chrome trace: {t}"
    );
    assert_eq!(
        t.matches("\"ph\": \"B\"").count(),
        t.matches("\"ph\": \"E\"").count(),
        "unbalanced spans in trace: {t}"
    );
    for span in ["sweep", "decompose", "profile", "explore", "window"] {
        assert!(
            t.contains(&format!("\"name\": \"{span}\"")),
            "missing `{span}` span in trace: {t}"
        );
    }

    // --metrics prints the snapshot JSON to stderr; stdout stays CSV.
    let e = stderr(&out);
    assert!(e.contains("\"qor.probes\""), "missing snapshot: {e}");
    assert!(stdout(&out).starts_with("threshold,"), "stdout polluted");
}

#[test]
fn batch_threshold_ladder_reuses_one_profile_per_circuit() {
    let dir = benchmarks_dir();
    let out = blasys(
        &[
            &["batch", dir.to_str().unwrap()],
            FAST,
            &["--threads", "2", "--thresholds", "0.02,0.25", "--progress"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let table = stdout(&out);
    assert!(
        table.contains("threshold"),
        "ladder column missing: {table}"
    );
    // Two rows per circuit: each name appears once per rung.
    assert_eq!(
        table.matches("mult4").count(),
        2,
        "one row per rung: {table}"
    );
    // The session profiled each circuit once but explored twice: the
    // progress stream must show more explore starts than profile
    // starts.
    let e = stderr(&out);
    let profiles = e.matches("profile: start").count();
    let explores = e.matches("explore: start").count();
    assert_eq!(profiles, 5, "one profile pass per circuit: {e}");
    assert_eq!(explores, 10, "one exploration per circuit per rung: {e}");
}

#[test]
fn unapproximable_circuit_exits_2_with_flow_error_text() {
    // Parses fine, but there is nothing to approximate: outputs are
    // constants, so the flow rejects it with a FlowError (exit 2), not
    // a panic or a runtime (exit 1) failure.
    let dir = scratch("flow-error");
    let gateless = dir.join("gateless.blif");
    std::fs::write(
        &gateless,
        ".model gateless\n.inputs a\n.outputs f\n.names f\n.end\n",
    )
    .unwrap();
    for cmd in ["run", "certify", "profile", "sweep"] {
        let out = blasys(&[cmd, gateless.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("no gates to approximate"),
            "{cmd} must print the FlowError display text: {}",
            stderr(&out)
        );
    }
}

#[test]
fn malformed_blif_exits_1() {
    let dir = scratch("malformed");
    let bad = dir.join("bad.blif");
    std::fs::write(&bad, ".model m\n.inputs a\n.outputs f\n.latch a f\n.end\n").unwrap();
    let out = blasys(&["run", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "no report on failure");
}

#[test]
fn missing_file_exits_1() {
    let out = blasys(&["certify", "/nonexistent/x.blif"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        vec!["run"],                                       // missing file
        vec!["run", "x.blif", "--bogus"],                  // unknown flag
        vec!["run", "x.blif", "--metric", "nope"],         // bad metric
        vec!["run", "x.blif", "--threads", "many"],        // bad thread count
        vec!["sweep", "x.blif", "--format", "yaml"],       // bad format
        vec!["frobnicate"],                                // unknown command
        vec!["run", "x.blif", "--explorer", "beam:0"],     // zero-width beam
        vec!["run", "x.blif", "--explorer", "hillclimb"],  // unknown engine
        vec!["sweep", "x.blif", "--explorer", "beam:"],    // missing width
        vec!["run", "x.blif", "--error-threshold", "nan"], // NaN threshold
        vec!["batch", "dir", "--thresholds", "0.05,-1"],   // negative rung
    ] {
        let out = blasys(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
    // The explorer diagnostic names the flag and the accepted grammar.
    let out = blasys(&["run", "x.blif", "--explorer", "beam:0"]);
    assert!(
        stderr(&out).contains("unknown explorer"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("beam:<k>"), "{}", stderr(&out));
}

#[test]
fn run_accepts_every_explorer_and_records_it_in_the_report() {
    let dir = scratch("explorers");
    let bench = benchmarks_dir().join("adder4.blif");
    for (flag, recorded) in [
        ("greedy", "\"explorer\": \"greedy\""),
        ("beam:2", "\"explorer\": \"beam:2\""),
        ("anneal", "\"explorer\": \"anneal\""),
        ("pareto3", "\"explorer\": \"pareto3\""),
    ] {
        let report = dir.join(format!("report-{}.json", flag.replace(':', "-")));
        let out = blasys(
            &[
                &["run", bench.to_str().unwrap()],
                FAST,
                &["--explorer", flag, "--report", report.to_str().unwrap()],
            ]
            .concat(),
        );
        assert!(out.status.success(), "{flag}: {}", stderr(&out));
        let r = std::fs::read_to_string(&report).expect("read report");
        assert!(r.contains(recorded), "{flag} report missing tag: {r}");
        if let Some(width) = flag.strip_prefix("beam:") {
            assert!(
                r.contains(&format!("\"beam_width\": {width}")),
                "beam report missing width: {r}"
            );
        } else {
            assert!(!r.contains("\"beam_width\""), "{flag} leaked width: {r}");
        }
    }
    // `beam` alone is shorthand for the default width.
    let out = blasys(
        &[
            &["run", bench.to_str().unwrap()],
            FAST,
            &["--explorer", "beam"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("\"explorer\": \"beam:4\""));
}

#[test]
fn sweep_json_with_pareto3_emits_the_surface() {
    let bench = benchmarks_dir().join("mult3.blif");
    let out = blasys(
        &[
            &["sweep", bench.to_str().unwrap()],
            FAST,
            &["--format", "json", "--explorer", "pareto3"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let s = stdout(&out);
    assert_valid_json(&s);
    assert!(s.contains("\"explorer\": \"pareto3\""), "{s}");
    assert!(s.contains("\"pareto3_surface\""), "{s}");
    assert!(s.contains("\"model_depth_ns\""), "{s}");
    // The greedy sweep stays surface-free.
    let out = blasys(
        &[
            &["sweep", bench.to_str().unwrap()],
            FAST,
            &["--format", "json"],
        ]
        .concat(),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let s = stdout(&out);
    assert!(s.contains("\"explorer\": \"greedy\""), "{s}");
    assert!(!s.contains("\"pareto3_surface\""), "{s}");
}

#[test]
fn export_benchmarks_round_trips_through_batch() {
    let dir = scratch("export");
    let out = blasys(&["export-benchmarks", dir.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), 5, "{names:?}");
    // Exported corpus matches the shipped one byte for byte.
    for name in names {
        let exported = std::fs::read_to_string(dir.join(&name)).unwrap();
        let shipped = std::fs::read_to_string(benchmarks_dir().join(&name))
            .unwrap_or_else(|_| panic!("shipped benchmarks/{name} missing"));
        assert_eq!(
            exported, shipped,
            "benchmarks/{name} out of date; rerun export-benchmarks"
        );
    }
}

#[test]
fn cyclic_blif_exits_2_naming_the_cycle() {
    // A combinational cycle is caught by the admission lints before
    // any flow stage runs; the error names the signals on the loop.
    let dir = scratch("cyclic");
    let cyc = dir.join("cyc.blif");
    std::fs::write(
        &cyc,
        ".model cyc\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n",
    )
    .unwrap();
    for cmd in ["run", "certify", "profile", "sweep"] {
        let out = blasys(&[cmd, cyc.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        let e = stderr(&out);
        assert!(e.contains("invalid netlist"), "{cmd}: {e}");
        assert!(
            e.contains("combinational cycle") && e.contains('f') && e.contains('g'),
            "{cmd} must name the cycle: {e}"
        );
    }
}

#[test]
fn lint_exit_code_contract() {
    let dir = scratch("lint-exits");
    let clean = dir.join("clean.blif");
    std::fs::write(
        &clean,
        ".model clean\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
    )
    .unwrap();
    let warny = dir.join("warny.blif");
    std::fs::write(
        &warny,
        ".model warny\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b dead\n1 1\n.end\n",
    )
    .unwrap();
    let broken = dir.join("broken.blif");
    std::fs::write(
        &broken,
        ".model broken\n.inputs a\n.outputs f\n.names ghost a f\n11 1\n.end\n",
    )
    .unwrap();

    // Clean file: exit 0, summary line only.
    let out = blasys(&["lint", clean.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("0 error(s), 0 warning(s)"),
        "{}",
        stdout(&out)
    );

    // Warnings alone keep exit 0 without --deny, 3 with it.
    let out = blasys(&["lint", warny.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("L0005-dead-logic"),
        "{}",
        stdout(&out)
    );
    let out = blasys(&["lint", warny.to_str().unwrap(), "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("denied"), "{}", stderr(&out));

    // Error findings: exit 2, diagnostics printed before the failure.
    let out = blasys(&["lint", broken.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("L0002-undriven-signal"),
        "{}",
        stdout(&out)
    );

    // Usage errors still exit 2.
    let out = blasys(&["lint", clean.to_str().unwrap(), "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    let out = blasys(&["lint", clean.to_str().unwrap(), "--deny", "notes"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn lint_json_is_machine_readable() {
    let dir = scratch("lint-json");
    let warny = dir.join("warny.blif");
    std::fs::write(
        &warny,
        ".model warny\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b dead\n1 1\n.end\n",
    )
    .unwrap();
    let out = blasys(&["lint", warny.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let s = stdout(&out);
    assert_valid_json(&s);
    assert!(s.contains("\"lint\": \"L0005-dead-logic\""), "{s}");
    assert!(s.contains("\"severity\": \"warn\""), "{s}");
    assert!(s.contains("\"signals\""), "{s}");
    assert!(s.contains("\"counts\""), "{s}");
}

#[test]
fn lint_passes_the_shipped_corpus_with_denied_warnings() {
    for entry in std::fs::read_dir(benchmarks_dir()).expect("benchmarks dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("blif") {
            continue;
        }
        let out = blasys(&["lint", path.to_str().unwrap(), "--deny", "warnings"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: {}{}",
            path.display(),
            stdout(&out),
            stderr(&out)
        );
    }
}

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `blasys lint --format json` on every shipped benchmark, pinned as
/// (file, exit code, byte length, hash of stdout). The path is given
/// relative to the repository root, as a user would type it.
#[test]
fn lint_json_pins_the_shipped_corpus() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<String> = std::fs::read_dir(benchmarks_dir())
        .expect("benchmarks dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".blif"))
        .collect();
    files.sort();
    let got: Vec<(String, Option<i32>, usize, u64)> = files
        .into_iter()
        .map(|name| {
            let out = Command::new(env!("CARGO_BIN_EXE_blasys"))
                .current_dir(&root)
                .args(["lint", &format!("benchmarks/{name}"), "--format", "json"])
                .output()
                .expect("spawn blasys");
            (name, out.status.code(), out.stdout.len(), fnv(&out.stdout))
        })
        .collect();
    let want = [
        ("adder4.blif", Some(0), 150, 0xea5c_9f1f_f2c2_a0ae),
        ("adder8.blif", Some(0), 150, 0x14e7_7226_adaa_b28a),
        ("butterfly4.blif", Some(0), 2148, 0x1fa4_19ef_db85_8c4c),
        ("mult3.blif", Some(0), 401, 0x882a_68c5_0b83_b2d1),
        ("mult4.blif", Some(0), 149, 0x8e54_dbdf_e122_b6e2),
    ];
    let want: Vec<_> = want
        .into_iter()
        .map(|(n, c, l, h)| (n.to_string(), c, l, h))
        .collect();
    assert_eq!(got, want);
}

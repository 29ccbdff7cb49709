//! The `sharqfec-bench` command-line contract, driven through the real
//! binary, and the `--check` verdicts on the committed summaries.
//!
//! * exit 0 — the subcommand ran clean, or the checked summary passed;
//! * exit 2 — bad usage (one `error: …` line plus the usage text, never a
//!   panic backtrace), an unreadable or malformed `--check` file, or a
//!   violated invariant (each named on stderr).

use sharqfec_bench::cli::{check_summary, Sweep};
use sharqfec_bench::{grids, policy, scale, scenario, traffic};
use sharqfec_netsim::json::{self, Json};
use sharqfec_netsim::runner::{SummaryCell, SweepSummary};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sharqfec-bench"))
        .args(args)
        .output()
        .expect("the harness binary runs")
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed(name: &str) -> String {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A scratch directory unique to one test (tests run in parallel).
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Each cell's scenario, seed, and metrics or error, read out of a
/// generic [`json::parse`] tree: the oracle the directed
/// `SweepSummary::parse` must agree with (`null` as `None`).
type CellView = (String, u64, Result<Vec<(String, Option<f64>)>, String>);

fn tree_cells(tree: &Json) -> Vec<CellView> {
    let text = |c: &Json, key| c.get(key).and_then(Json::as_str).map(str::to_string);
    let number = |v: &Json| match *v {
        Json::Int(n) => Some(n as f64),
        Json::Float(f) => Some(f),
        _ => None,
    };
    let cell = |c: &Json| {
        let result = match (text(c, "status").as_deref(), c.get("metrics")) {
            (Some("ok"), Some(Json::Obj(m))) => Ok(m.iter().map(|(k, v)| (k.clone(), number(v)))),
            _ => Err(text(c, "error").expect("a panicked cell's error")),
        };
        let seed = c.get("seed").and_then(Json::as_u64).expect("seed");
        (
            text(c, "scenario").expect("scenario"),
            seed,
            result.map(Iterator::collect),
        )
    };
    let cells = tree.get("cells").and_then(Json::as_arr).expect("cells");
    cells.iter().map(cell).collect()
}

fn summary_cells(summary: &SweepSummary) -> Vec<CellView> {
    let view = |c: &SummaryCell| (c.scenario.clone(), c.seed, c.result.clone());
    summary.cells.iter().map(view).collect()
}

fn verdict<S: Sweep>(sweep: &S, text: &str) -> Vec<String> {
    check_summary(sweep, &SweepSummary::parse(text).expect("summary parses"))
}

#[test]
fn bad_usage_is_one_error_line_plus_usage_and_exit_2() {
    let unreadable = scratch("bad_usage").join("absent.json");
    let malformed = scratch("bad_usage").join("truncated.json");
    let text = committed("BENCH_scale_sweep");
    std::fs::write(&malformed, &text[..text.len() / 2]).unwrap();
    let cases: [(&[&str], &str); 14] = [
        (&[], "missing subcommand"),
        (&["microbench"], "unknown subcommand \"microbench\""),
        (
            &["ablation", "--frobnicate"],
            "unknown argument \"--frobnicate\"",
        ),
        (&["ablation", "--seed"], "--seed takes a number"),
        (
            &["ablation", "--seed", "forty-two"],
            "--seed takes a number, got \"forty-two\"",
        ),
        (&["ablation", "--threads", "0"], "--threads must be >= 1"),
        (
            &["scale", "--policy", "ewma"],
            "--policy does not apply to scale",
        ),
        (&["fig01", "--seed", "1"], "--seed does not apply to fig01"),
        (&["ablation", "--policy", "oracle"], "got \"oracle\""),
        (&["fig14-21", "--fig", "22"], "--fig takes a figure number"),
        (&["scale", "--shards", "0"], "a positive shard count"),
        (&["scale", "--shards", "1,2"], "a positive shard count"),
        (
            &["scale", "--check", unreadable.to_str().unwrap()],
            "could not read",
        ),
        (
            &["scale", "--check", malformed.to_str().unwrap()],
            "is not a sweep summary: byte",
        ),
    ];
    for (args, expected) in cases {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error: ") && first.contains(expected),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("usage: sharqfec-bench <subcommand>"),
            "{args:?}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn scale_smoke_writes_a_summary_that_passes_its_own_check() {
    let out_dir = scratch("scale_smoke");
    let out = out_dir.to_str().unwrap();
    let run = bench(&["scale", "--smoke", "--out", out]);
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.starts_with("SHARQFEC-vs-SRM scaling sweep (32 packets"));
    assert!(stdout.contains("srm/n=1000"));

    let summary = out_dir.join("BENCH_scale_sweep.json");
    let check = bench(&["scale", "--check", summary.to_str().unwrap()]);
    assert_eq!(check.status.code(), Some(0), "{check:?}");
    assert!(String::from_utf8_lossy(&check.stdout).contains(": ok ("));
}

#[test]
fn a_violated_invariant_exits_2_naming_the_problem() {
    // SHARQFEC's session traffic pushed above SRM's at the crossover bound.
    let healthy = committed("BENCH_scale_sweep");
    let broken = healthy.replace(
        "\"session_norm\": 11164051",
        "\"session_norm\": 99999999999",
    );
    assert_ne!(healthy, broken);
    let path = scratch("violated").join("BENCH_scale_sweep.json");
    std::fs::write(&path, broken).unwrap();
    let out = bench(&["scale", "--check", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("problem(s):"), "{stderr}");
    assert!(stderr.contains("no crossover at n=10000"), "{stderr}");
    assert!(
        !stderr.contains("usage:"),
        "a failed check is not a usage error"
    );
}

#[test]
fn every_committed_summary_parses_and_passes_its_check() {
    let mut seen = 0;
    for entry in std::fs::read_dir(results_dir()).expect("results/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let fail = |e: json::ParseError| format!("{}: {e}", path.display());
            let summary = SweepSummary::parse(&text).map_err(fail).unwrap();
            let tree = json::parse(&text).map_err(fail).unwrap();
            assert_eq!(
                tree_cells(&tree),
                summary_cells(&summary),
                "{}",
                path.display()
            );
            seen += 1;
        }
    }
    assert_eq!(seen, 7, "six sweep summaries and the scale smoke pin");

    let none = Vec::<String>::new();
    assert_eq!(
        verdict(&policy::SWEEP, &committed("BENCH_policy_sweep")),
        none
    );
    for name in ["BENCH_scale_sweep", "BENCH_scale_smoke"] {
        assert_eq!(verdict(&scale::Scale, &committed(name)), none);
    }
    assert_eq!(
        verdict(&scenario::Scenarios, &committed("BENCH_scenario_sweep")),
        none
    );
    assert_eq!(
        verdict(&grids::ABLATION, &committed("ablation_sweep")),
        none
    );
    assert_eq!(verdict(&grids::FAULT, &committed("fault_sweep")), none);
    assert_eq!(
        verdict(&traffic::Traffic, &committed("fig14_21_traffic")),
        none
    );
    // A summary checked against the wrong sweep is named as such.
    assert!(verdict(&grids::FAULT, &committed("ablation_sweep"))[0].contains("expected"));
}

/// The benchmark's own documents read through the workspace reader, and
/// every count `expected.json` pins stays an exact integer.
#[test]
fn benchmark_documents_parse_with_exact_counts() {
    let read = |rel: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel);
        let text = std::fs::read_to_string(&path).unwrap();
        json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let spec = read("BENCHMARK.json");
    assert!(matches!(spec.get("run_seconds"), Some(Json::Int(_))));
    let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap();
    let Json::Obj(table) = read("benchmark/expected.json") else {
        panic!("expected.json is an object");
    };
    assert_eq!(table.len(), workloads.len());
    for ((name, entry), workload) in table.iter().zip(workloads) {
        let Json::Obj(counts) = entry else {
            panic!("{name} is not an object");
        };
        assert_eq!(
            workload.get("name").and_then(Json::as_str),
            Some(name.as_str())
        );
        assert!(!counts.is_empty(), "{name}");
        for (key, count) in counts {
            assert!(matches!(count, Json::Int(_)), "{name}.{key}: {count:?}");
        }
    }
}

/// The verdict depends on the summary's content, not its layout: the
/// same document collapsed onto one line and spread one token per line
/// passes when it is healthy and fails for the same reasons when it is
/// not.
#[test]
fn check_verdicts_are_layout_independent() {
    let healthy = committed("BENCH_scale_sweep");
    let drifted = healthy.replace("\"audit_violations\": 0}}", "\"audit_violations\": 1}}");
    assert_ne!(healthy, drifted);
    for (text, passes) in [(healthy, true), (drifted, false)] {
        let one_line = text.replace('\n', " ");
        let spread = text
            .replace(", ", ",\n\t")
            .replace('{', "{\n")
            .replace('}', "\n}")
            .replace(": ", " :\r\n ");
        let written = verdict(&scale::Scale, &text);
        assert_eq!(written.is_empty(), passes, "{written:?}");
        assert_eq!(verdict(&scale::Scale, &one_line), written);
        assert_eq!(verdict(&scale::Scale, &spread), written);
    }
}

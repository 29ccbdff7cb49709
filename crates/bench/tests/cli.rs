//! The `sharqfec-bench` command-line contract, driven through the real
//! binary, and the `--check` verdicts on the committed summaries.
//!
//! * exit 0 — the subcommand ran clean, or the checked summary passed;
//! * exit 2 — bad usage (one `error: …` line plus the usage text, never a
//!   panic backtrace), an unreadable or malformed `--check` file, or a
//!   violated invariant (each named on stderr).

use sharqfec_bench::cli::{check_summary, Sweep};
use sharqfec_bench::{grids, policy, scale, scenario, traffic};
use sharqfec_netsim::runner::SweepSummary;
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
            SweepSummary::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            seen += 1;
        }
    }
    assert_eq!(seen, 6, "results/ holds the six sweep summaries");

    let none = Vec::<String>::new();
    assert_eq!(
        verdict(&policy::SWEEP, &committed("BENCH_policy_sweep")),
        none
    );
    assert_eq!(
        verdict(&scale::Scale, &committed("BENCH_scale_sweep")),
        none
    );
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

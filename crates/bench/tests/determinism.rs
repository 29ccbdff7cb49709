//! Determinism as a gate: every sweep, run twice in one process, writes
//! byte-identical summaries once the fields that legitimately differ
//! between runs are blanked (as `ci.sh`'s `strip_timing` does).  Event
//! order is what a change to the event queue, routing or any map on the
//! event path can break, and two runs in one process are where a
//! `RandomState` map shows.  `scale` and `scenario` run their `--smoke`
//! grids; `fig14-21`, `ablation`, `fault` and `policy` have none, so they
//! run their full grids at 32 packets.
//!
//! The audit reports are compared too: a run exits 0 only if every cell's
//! auditor reported no violation, and such a report is its event count,
//! which the summary carries per cell (`audit_events`).  One Figure 10
//! cell and one scenario cell also compare their whole audit verdict text.

use sharqfec::Variant;
use sharqfec_bench::scenario::{run_cell, smoke_grid};
use sharqfec_bench::{cli, Scenario, Workload};
use std::path::Path;
use std::process::ExitCode;

/// Runs `sharqfec-bench <sub> <args>` in this process and returns the
/// summary it wrote, wall clock, thread and shard counts and throughput
/// blanked.
fn summary(sub: &str, args: &[&str], summary: &str, run: u32) -> String {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism_{sub}_{run}"));
    let out = out.to_str().expect("a UTF-8 path");
    let argv = [&[sub], args, &["--threads", "2", "--out", out]].concat();
    let argv: Vec<String> = argv.into_iter().map(String::from).collect();
    assert_eq!(cli::main(&argv), ExitCode::SUCCESS, "{sub} {args:?}");
    let path = Path::new(out).join(format!("{summary}.json"));
    let mut json = std::fs::read_to_string(path).expect("the summary was written");
    for field in ["wall_ms", "threads", "shards", "events_per_sec"] {
        let key = format!("\"{field}\": ");
        let mut from = 0;
        while let Some(at) = json[from..].find(&key) {
            let start = from + at + key.len();
            let len = json[start..]
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(json.len() - start);
            json.replace_range(start..start + len, "_");
            from = start;
        }
    }
    json
}

/// Runs one sweep twice and returns the first (blanked) summary.
fn repeats_to_the_byte(sub: &str, args: &[&str], name: &str) -> String {
    let first = summary(sub, args, name, 1);
    assert!(first.contains("\"wall_ms\": _"), "{first}");
    assert_eq!(first, summary(sub, args, name, 2), "{sub} {args:?}");
    first
}

#[test]
fn smoke_grids_repeat_to_the_byte_within_one_process() {
    for (sub, name) in [
        ("scale", "BENCH_scale_sweep"),
        ("scenario", "BENCH_scenario_sweep"),
    ] {
        let first = repeats_to_the_byte(sub, &["--smoke"], name);
        assert!(first.contains("\"audit_events\": "), "{first}");
    }
}

#[test]
fn every_other_sweep_repeats_to_the_byte_within_one_process() {
    for (sub, name) in [
        ("fig14-21", "fig14_21_traffic"),
        ("ablation", "ablation_sweep"),
        ("fault", "fault_sweep"),
        ("policy", "BENCH_policy_sweep"),
    ] {
        repeats_to_the_byte(sub, &["--packets", "32"], name);
    }
}

#[test]
fn audit_verdicts_repeat_word_for_word() {
    let workload = Workload {
        packets: 32,
        tail_secs: 20,
    };
    let figure10 = Scenario::variant(Variant::Full, workload);
    let figure10 = || figure10.run(42).audit.summary;
    // n=200, a 16-member flash crowd, churn and an outage.
    let scenario = || run_cell(smoke_grid()[2], 42, 32, 1).audit.summary;
    for verdict in [&figure10 as &dyn Fn() -> String, &scenario] {
        let first = verdict();
        assert!(first.starts_with("audit OK ("), "{first}");
        assert_eq!(first, verdict());
    }
}

//! Determinism as a gate: the `scale --smoke` and `scenario --smoke` grids,
//! each run twice in one process, write byte-identical summaries once the
//! fields that legitimately differ between runs are blanked (as `ci.sh`'s
//! `strip_timing` does).  Event order is what a change to the event queue,
//! routing or any map on the event path can break, and two runs in one
//! process are where a `RandomState` map shows.
//!
//! The audit reports are compared too: a run exits 0 only if every cell's
//! auditor reported no violation, and such a report is its event count,
//! which the summary carries per cell (`audit_events`).

use sharqfec_bench::cli;
use std::path::Path;
use std::process::ExitCode;

/// Runs `sharqfec-bench <sub> --smoke` in this process and returns the
/// summary it wrote, wall clock, thread and shard counts and throughput
/// blanked.
fn smoke(sub: &str, summary: &str, run: u32) -> String {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism_{sub}_{run}"));
    let out = out.to_str().expect("a UTF-8 path");
    let argv = [sub, "--smoke", "--threads", "2", "--out", out].map(String::from);
    assert_eq!(cli::main(&argv), ExitCode::SUCCESS, "{sub} --smoke");
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

#[test]
fn smoke_grids_repeat_to_the_byte_within_one_process() {
    for (sub, summary) in [
        ("scale", "BENCH_scale_sweep"),
        ("scenario", "BENCH_scenario_sweep"),
    ] {
        let first = smoke(sub, summary, 1);
        assert!(first.contains("\"wall_ms\": _"), "{first}");
        assert!(first.contains("\"audit_events\": "), "{first}");
        assert_eq!(first, smoke(sub, summary, 2), "{sub} --smoke");
    }
}

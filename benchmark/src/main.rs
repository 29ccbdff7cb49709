//! The repo benchmark (see README.md).  One invocation measures one
//! workload:
//!
//! ```text
//! sharqfec-benchmark --workload W [--seed S] [--seconds T] [--trace [0|1]]
//!                    [--dir benchmark] [--record-expected] | --list
//! ```
//!
//! It repeats the workload for `--seconds` seconds (a traced invocation
//! runs a fixed number of rounds instead), prints every metric by name with
//! its unit, checks the workload's outputs, and ends with one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`).  Any mismatch exits
//! non-zero.

mod alloc;
mod host;
mod json;
mod measure;
mod probes;
mod reference;
mod spans;
mod workloads;

use json::Json;
use measure::{Report, END_TO_END, PER_LAYER, PINNED_SEED};
use reference::Reference;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{CodecBench, Outcome, SimBench, SimSpec, PINNED, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    record_expected: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 22.0,
        trace: false,
        dir: PathBuf::from("benchmark"),
        record_expected: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--list" => {
                for name in WORKLOADS {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--dir" => args.dir = PathBuf::from(value("the benchmark directory")?),
            "--record-expected" => args.record_expected = true,
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(Some(args))
}

/// The pinned subset of an outcome, as the `expected.json` member.
fn pinned(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .counts
            .iter()
            .filter(|(k, _)| PINNED.contains(k))
            .map(|&(k, v)| (k.to_string(), Json::Int(v)))
            .collect(),
    )
}

fn read_expected(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Differences between this run's pinned statistics and the table.
fn check_expected(table: &Json, workload: &str, outcome: &Outcome) -> Vec<String> {
    let Some(Json::Obj(want)) = table.get(workload) else {
        return vec![format!("no expected entry for {workload}")];
    };
    let Json::Obj(got) = pinned(outcome) else {
        unreachable!("pinned() builds an object")
    };
    let mut problems = Vec::new();
    for (key, value) in &got {
        match want.iter().find(|(k, _)| k == key) {
            Some((_, w)) if w == value => {}
            Some((_, w)) => problems.push(format!(
                "{workload}.{key}: measured {value:?}, expected {w:?}"
            )),
            None => problems.push(format!("{workload}.{key}: measured but not in the table")),
        }
    }
    for (key, _) in want {
        if !got.iter().any(|(k, _)| k == key) {
            problems.push(format!("{workload}.{key}: in the table but not measured"));
        }
    }
    problems
}

/// Rewrites `expected.json` with this workload's entry replaced.
fn record_expected(path: &Path, workload: &str, outcome: &Outcome) -> Result<(), String> {
    let mut members = match read_expected(path) {
        Ok(Json::Obj(m)) => m,
        _ => Vec::new(),
    };
    members.retain(|(k, _)| k != workload);
    members.push((workload.to_string(), pinned(outcome)));
    // Keep the file in workload order whatever order entries were recorded in.
    members.sort_by_key(|(k, _)| WORKLOADS.iter().position(|n| n == k));
    let mut text = String::from("{\n");
    for (i, (name, entry)) in members.iter().enumerate() {
        let Json::Obj(fields) = entry else { continue };
        text.push_str(&format!("  \"{name}\": {{\n"));
        for (j, (k, v)) in fields.iter().enumerate() {
            let Json::Int(v) = v else { continue };
            let comma = if j + 1 < fields.len() { "," } else { "" };
            text.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        let comma = if i + 1 < members.len() { "," } else { "" };
        text.push_str(&format!("  }}{comma}\n"));
    }
    text.push_str("}\n");
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metrics_json(report: &Report, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = report.metrics[name];
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_trace(args: &Args, report: &Report) -> Result<PathBuf, String> {
    let dir = args.dir.join("out");
    let path = dir.join(format!("trace_{}.json", args.workload));
    let text = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"metrics\": {},\n\"spans\": {}}}\n",
        args.workload,
        args.seed,
        metrics_json(report, &PER_LAYER),
        spans::to_json(&report.spans)
    );
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<bool, String> {
    let report = match SimSpec::named(&args.workload) {
        Some(spec) => {
            let bench = SimBench::new(spec, args.seed);
            if args.trace {
                measure::trace_sim(bench)?
            } else {
                let pinned = SimBench::new(spec, PINNED_SEED);
                measure::end_to_end(&bench, &pinned, Reference::event_loop(), args.seconds)?
            }
        }
        None => {
            let bench = CodecBench::new(args.seed);
            if args.trace {
                measure::trace_codec(&bench)?
            } else {
                let pinned = CodecBench::new(PINNED_SEED);
                measure::end_to_end(&bench, &pinned, Reference::with_byte_stream(), args.seconds)?
            }
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    if args.trace {
        println!(
            "workload {} seed {}: {} interleaved rounds per arm",
            args.workload, args.seed, report.reps
        );
    } else {
        let [run_min, run_median, ref_min, ref_median, ref_nominal] = report.raw;
        println!(
            "workload {} seed {}: medians over {} repetitions and {} set-up samples, \
             each divided by the reference kernel beside it (x {ref_nominal} s)",
            args.workload, args.seed, report.reps, report.setup_samples
        );
        println!("  raw run seconds: fastest {run_min:.6}, median {run_median:.6}");
        println!("  raw kernel seconds: fastest {ref_min:.6}, median {ref_median:.6}");
    }
    for &(name, unit) in table {
        println!("  {name:<40} {:>16.6} {unit}", report.metrics[name]);
    }
    for (key, value) in &report.outcome.counts {
        println!("  stat {key:<35} {value:>16}");
    }
    if args.trace {
        println!(
            "  trace written to {}",
            write_trace(args, &report)?.display()
        );
    }

    let expected = args.dir.join("expected.json");
    let mut problems = Vec::new();
    if args.record_expected {
        if args.seed != PINNED_SEED {
            return Err(format!("--record-expected pins seed {PINNED_SEED} only"));
        }
        record_expected(&expected, &args.workload, &report.outcome)?;
        println!("  recorded {} in {}", args.workload, expected.display());
    } else {
        // The pinned statistics: the counted repetition's at any seed, the
        // timed repetitions' too at the pinned seed.
        let at_seed = (args.seed == PINNED_SEED).then_some(&report.outcome);
        let table = read_expected(&expected)?;
        for outcome in report.pinned.iter().chain(at_seed) {
            problems.extend(check_expected(&table, &args.workload, outcome));
        }
    }
    for p in &problems {
        eprintln!("MISMATCH {p}");
    }
    let pinned_failed = report.pinned.as_ref().map_or(0, |p| p.failed);
    let correct = problems.is_empty() && report.outcome.failed == 0 && pinned_failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.outcome.attempted,
        report.outcome.failed,
        metrics_json(&report, table)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(rel: &str) -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        read_expected(&path).expect("committed JSON")
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let spec = repo_file("../BENCHMARK.json");
        let names = |key: &str, field: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let get = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (get("name"), get(field))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(names("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(names("per_layer", "unit"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads", "name")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn expected_json_covers_every_workload_with_pinned_keys_only() {
        let table = repo_file("expected.json");
        for name in WORKLOADS {
            let Some(Json::Obj(entry)) = table.get(name) else {
                panic!("expected.json has no entry for {name}");
            };
            assert!(!entry.is_empty());
            for (key, value) in entry {
                assert!(
                    PINNED.contains(&key.as_str()),
                    "{name}.{key} is not a pinned key"
                );
                assert!(
                    matches!(value, Json::Int(_)),
                    "{name}.{key} is not an integer"
                );
            }
        }
    }

    #[test]
    fn a_corrupted_or_missing_expected_value_is_reported() {
        let outcome = Outcome {
            counts: vec![("events", 10), ("unrecovered", 0), ("nacks_sent", 5)],
            attempted: 1,
            failed: 0,
        };
        let table = |text: &str| json::parse(text).unwrap();
        let good = table(r#"{"w": {"unrecovered": 0, "nacks_sent": 5}}"#);
        assert!(check_expected(&good, "w", &outcome).is_empty());
        // `events` is not pinned, so it is neither recorded nor compared.
        assert_eq!(pinned(&outcome), *good.get("w").unwrap());

        let corrupt = table(r#"{"w": {"unrecovered": 0, "nacks_sent": 6}}"#);
        let problems = check_expected(&corrupt, "w", &outcome);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("w.nacks_sent"), "{problems:?}");

        let short = table(r#"{"w": {"unrecovered": 0}}"#);
        assert_eq!(check_expected(&short, "w", &outcome).len(), 1);
        let long = table(r#"{"w": {"unrecovered": 0, "nacks_sent": 5, "dropped": 1}}"#);
        assert_eq!(check_expected(&long, "w", &outcome).len(), 1);
        assert_eq!(check_expected(&good, "other", &outcome).len(), 1);
    }
}

//! Integration tests for the parallel sweep runner against the real
//! protocol stack: figure runs through the runner must be bit-identical
//! to direct serial runs, at any worker count, and the JSON summary must
//! land on disk.

use sharqfec::Variant;
use sharqfec_bench::{Scenario, TrafficRun, Workload};
use sharqfec_netsim::runner::{grid, run_sweep, Cell};
use std::num::NonZeroUsize;

fn small() -> Workload {
    Workload {
        packets: 32,
        tail_secs: 10,
    }
}

/// Exact comparison: every series bit-for-bit, every total equal.
fn assert_runs_identical(a: &TrafficRun, b: &TrafficRun) {
    assert_eq!(a.label, b.label);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.data_repair), bits(&b.data_repair), "data_repair");
    assert_eq!(bits(&a.nacks), bits(&b.nacks), "nacks");
    assert_eq!(
        bits(&a.source_data_repair),
        bits(&b.source_data_repair),
        "source_data_repair"
    );
    assert_eq!(bits(&a.source_nacks), bits(&b.source_nacks), "source_nacks");
    assert_eq!(a.unrecovered, b.unrecovered);
    assert_eq!(a.total_repairs, b.total_repairs);
    assert_eq!(a.total_nacks, b.total_nacks);
}

#[test]
fn runner_reproduces_figure_runs_bit_for_bit_at_seed_42() {
    let direct_full = Scenario::variant(Variant::Full, small()).run_traffic(42);
    let direct_ecsrm = Scenario::variant(Variant::Ecsrm, small()).run_traffic(42);

    let cells = vec![Cell::new("ecsrm", 42), Cell::new("full", 42)];
    let swept = run_sweep(cells, NonZeroUsize::new(4).unwrap(), |c| {
        let variant = match c.scenario.as_str() {
            "ecsrm" => Variant::Ecsrm,
            "full" => Variant::Full,
            other => panic!("unexpected scenario {other}"),
        };
        Scenario::variant(variant, small()).run_traffic(c.seed)
    })
    .into_values();

    assert_runs_identical(&swept[0], &direct_ecsrm);
    assert_runs_identical(&swept[1], &direct_full);
}

#[test]
fn seed_sweep_is_invariant_under_thread_count() {
    let seeds: Vec<u64> = (1..=8).collect();
    let sweep = |threads: usize| {
        run_sweep(
            grid(&["full"], &seeds),
            NonZeroUsize::new(threads).unwrap(),
            |c| Scenario::variant(Variant::Full, small()).run_traffic(c.seed),
        )
        .into_values()
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial.len(), 8);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_runs_identical(a, b);
    }
}

#[test]
fn sweep_json_summary_is_written_and_names_failing_seeds() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/target/tmp/sweep_runner_test");
    let results = run_sweep(
        grid(&["smoke"], &[7, 8]),
        NonZeroUsize::new(2).unwrap(),
        |c| {
            if c.seed == 8 {
                panic!("synthetic failure");
            }
            Scenario::variant(Variant::Full, small())
                .run_traffic(c.seed)
                .total_repairs
        },
    );
    assert_eq!(results.ok_count(), 1);
    let failures = results.failures();
    assert_eq!(failures.len(), 1);
    assert!(failures[0].result.as_ref().unwrap_err().contains("seed 8"));

    let path = results
        .write_json(dir, "smoke", |&repairs| {
            vec![("total_repairs".to_string(), repairs as f64)]
        })
        .expect("summary written");
    let json = std::fs::read_to_string(&path).expect("summary readable");
    assert!(json.contains("\"status\": \"ok\""));
    assert!(json.contains("\"status\": \"panicked\""));
    assert!(json.contains("synthetic failure"));
    assert!(json.contains("\"total_repairs\""));
    std::fs::remove_dir_all(dir).ok();
}

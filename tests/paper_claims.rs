//! The paper's evaluation claims, asserted at test scale on seeds 1–8.
//!
//! Each test pins one qualitative *shape* from the evaluation section —
//! who wins, roughly by how much, in which metric — on every seed of
//! [`SEEDS`].  A seed on which a shape does not hold is listed by name,
//! never dropped from the ensemble.  The full-scale numbers live in
//! EXPERIMENTS.md; these tests keep the shapes from regressing.

use sharqfec_bench::{RttExperiment, Scenario, TrafficRun, Workload};
use sharqfec_repro::netsim::runner::{default_threads, grid, run_sweep};
use sharqfec_repro::netsim::{NodeId, SimTime};
use sharqfec_repro::protocol::Variant;
use std::sync::OnceLock;

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The protocols the claims compare.
const ARMS: [&str; 4] = ["SRM", "ECSRM", "full", "ni"];

fn scenario(arm: &str) -> Scenario {
    let w = Workload {
        packets: 96,
        tail_secs: 30,
    };
    match arm {
        "SRM" => Scenario::srm_baseline(w),
        "ECSRM" => Scenario::variant(Variant::Ecsrm, w),
        "full" => Scenario::variant(Variant::Full, w),
        _ => Scenario::variant(Variant::NoInjection, w),
    }
}

/// `arm`'s run at each of [`SEEDS`]: every (arm, seed) runs once, for all
/// the tests, on every core.
fn runs(arm: &str) -> &'static [TrafficRun] {
    static RUNS: OnceLock<Vec<TrafficRun>> = OnceLock::new();
    let all = RUNS.get_or_init(|| {
        let cells = grid(&ARMS, &SEEDS);
        run_sweep(cells, default_threads(), |c| {
            scenario(&c.scenario).run_traffic(c.seed)
        })
        .into_values()
    });
    let at = ARMS.iter().position(|&a| a == arm).expect("a known arm");
    &all[at * SEEDS.len()..][..SEEDS.len()]
}

/// The seeds on which `holds(a's run, b's run)` is false.
fn failing(a: &str, b: &str, holds: impl Fn(&TrafficRun, &TrafficRun) -> bool) -> Vec<u64> {
    let pairs = SEEDS.into_iter().zip(runs(a).iter().zip(runs(b)));
    pairs
        .filter(|(_, (x, y))| !holds(x, y))
        .map(|(s, _)| s)
        .collect()
}

/// Asserts `claim`, `holds(a's run, b's run)`, on every seed.
fn on_every_seed(claim: &str, a: &str, b: &str, holds: impl Fn(&TrafficRun, &TrafficRun) -> bool) {
    let failed = failing(a, b, holds);
    assert!(failed.is_empty(), "{claim}: fails on seeds {failed:?}");
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Figures 14/15: hybrid ARQ/FEC (ECSRM) beats pure ARQ (SRM) on both
/// repair volume and NACK volume.
#[test]
fn ecsrm_beats_srm() {
    assert!(runs("ECSRM").iter().all(|r| r.unrecovered == 0));
    on_every_seed("far less data+repair", "ECSRM", "SRM", |e, s| {
        sum(&e.data_repair) < 0.7 * sum(&s.data_repair)
    });
    on_every_seed("NACK volume collapses", "ECSRM", "SRM", |e, s| {
        sum(&e.nacks) < 0.4 * sum(&s.nacks)
    });
}

/// Seeds on which full SHARQFEC's data+repair peak is not below ECSRM's.
const PEAKS_KNOWN_FAILING: [u64; 3] = [3, 4, 8];

/// Figure 17: adding scoping improves on the unscoped hybrid — receivers
/// see no more traffic and the peaks shrink.  The peaks shrink on five of
/// the eight seeds; [`PEAKS_KNOWN_FAILING`] are the other three
/// (EXPERIMENTS.md), and a seed that starts to pass must leave that list.
#[test]
fn scoping_beats_unscoped_hybrid() {
    assert!(runs("full").iter().all(|r| r.unrecovered == 0));
    on_every_seed("no more data+repair", "full", "ECSRM", |f, e| {
        sum(&f.data_repair) <= 1.05 * sum(&e.data_repair)
    });
    let peak = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let peaks = failing("full", "ECSRM", |f, e| {
        peak(&f.data_repair) < peak(&e.data_repair)
    });
    assert_eq!(peaks, PEAKS_KNOWN_FAILING, "scoping should shave the peaks");
}

/// Figure 18: preemptive FEC injection does not increase bandwidth
/// (Rubenstein et al.'s result, revalidated in the hierarchy).
#[test]
fn injection_is_bandwidth_neutral() {
    on_every_seed("injection is ~bandwidth neutral", "full", "ni", |f, n| {
        let (a, b) = (sum(&f.data_repair), sum(&n.data_repair));
        (a - b).abs() / b < 0.15
    });
}

/// Figure 19: hierarchy + injection suppresses NACKs below the unscoped
/// protocol ("less than or equal to the minimum seen for ECSRM").
#[test]
fn full_sharqfec_suppresses_nacks() {
    on_every_seed("scoped NACK exposure collapses", "full", "ECSRM", |f, e| {
        sum(&f.nacks) < 0.6 * sum(&e.nacks)
    });
}

/// Figures 20/21: the source (the network core) is insulated by the
/// hierarchy.
#[test]
fn source_is_insulated_by_scoping() {
    on_every_seed("core data+repair shrinks", "full", "ECSRM", |f, e| {
        sum(&f.source_data_repair) < sum(&e.source_data_repair)
    });
    on_every_seed("core NACKs collapse", "full", "ECSRM", |f, e| {
        sum(&f.source_nacks) < 0.5 * sum(&e.source_nacks)
    });
}

/// Figures 11–13: "more than 50% of receivers were able to estimate the
/// RTT to a NACK's sender to within a few percent."
#[test]
fn indirect_rtt_estimates_are_accurate() {
    let probers = [NodeId(3), NodeId(25), NodeId(36)];
    let times: Vec<SimTime> = (0..3).map(|i| SimTime::from_secs(9 + 3 * i)).collect();
    let experiment = RttExperiment::new(&probers, &times);
    let cells = grid(&["rtt"], &SEEDS);
    let results = run_sweep(cells, default_threads(), |c| experiment.run(c.seed)).into_values();
    for (seed, res) in SEEDS.into_iter().zip(results) {
        for res in res {
            let last_seq = res.ratios.iter().map(|(_, s, _)| *s).max().unwrap();
            let last: Vec<f64> = res
                .ratios
                .iter()
                .filter(|(_, s, _)| *s == last_seq)
                .filter_map(|(_, _, r)| *r)
                .collect();
            let (prober, n) = (res.prober, last.len());
            assert!(
                n > 100,
                "seed {seed}: probe from {prober} reached {n} receivers"
            );
            let close = last.iter().filter(|r| (**r - 1.0).abs() < 0.05).count();
            assert!(
                close as f64 > 0.5 * n as f64,
                "seed {seed}: prober {prober}: only {close}/{n} within 5%"
            );
        }
    }
}

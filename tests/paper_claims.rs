//! The paper's evaluation claims, asserted at test scale.
//!
//! Each test pins one qualitative *shape* from the evaluation section —
//! who wins, roughly by how much, in which metric.  The full-scale numbers
//! live in EXPERIMENTS.md; these tests keep the shapes from regressing.

use sharqfec_bench::{RttExperiment, Scenario, Workload};
use sharqfec_repro::netsim::{NodeId, SimTime};
use sharqfec_repro::protocol::Variant;

fn w() -> Workload {
    Workload {
        packets: 96,
        tail_secs: 30,
    }
}

/// Figures 14/15: hybrid ARQ/FEC (ECSRM) beats pure ARQ (SRM) on both
/// repair volume and NACK volume.
#[test]
fn ecsrm_beats_srm() {
    let srm = Scenario::srm_baseline(w()).run_traffic(11);
    let ecsrm = Scenario::variant(Variant::Ecsrm, w()).run_traffic(11);
    assert_eq!(ecsrm.unrecovered, 0);

    let sum = |v: &[f64]| v.iter().sum::<f64>();
    assert!(
        sum(&ecsrm.data_repair) < 0.7 * sum(&srm.data_repair),
        "ECSRM should carry far less data+repair: {} vs {}",
        sum(&ecsrm.data_repair),
        sum(&srm.data_repair)
    );
    assert!(
        sum(&ecsrm.nacks) < 0.4 * sum(&srm.nacks),
        "count-based NACKs should collapse request volume: {} vs {}",
        sum(&ecsrm.nacks),
        sum(&srm.nacks)
    );
}

/// Figure 17: adding scoping improves on the unscoped hybrid — receivers
/// see no more traffic and the peaks shrink.
#[test]
fn scoping_beats_unscoped_hybrid() {
    let ecsrm = Scenario::variant(Variant::Ecsrm, w()).run_traffic(12);
    let full = Scenario::variant(Variant::Full, w()).run_traffic(12);
    assert_eq!(full.unrecovered, 0);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let peak = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    assert!(
        sum(&full.data_repair) <= 1.05 * sum(&ecsrm.data_repair),
        "scoped total {} should not exceed unscoped {}",
        sum(&full.data_repair),
        sum(&ecsrm.data_repair)
    );
    assert!(
        peak(&full.data_repair) < peak(&ecsrm.data_repair),
        "scoping should shave the peaks: {} vs {}",
        peak(&full.data_repair),
        peak(&ecsrm.data_repair)
    );
}

/// Figure 18: preemptive FEC injection does not increase bandwidth
/// (Rubenstein et al.'s result, revalidated in the hierarchy).
#[test]
fn injection_is_bandwidth_neutral() {
    let ni = Scenario::variant(Variant::NoInjection, w()).run_traffic(13);
    let full = Scenario::variant(Variant::Full, w()).run_traffic(13);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let (a, b) = (sum(&full.data_repair), sum(&ni.data_repair));
    assert!(
        (a - b).abs() / b < 0.15,
        "injection should be ~bandwidth neutral: {a} vs {b}"
    );
}

/// Figure 19: hierarchy + injection suppresses NACKs below the unscoped
/// protocol ("less than or equal to the minimum seen for ECSRM").
#[test]
fn full_sharqfec_suppresses_nacks() {
    let ecsrm = Scenario::variant(Variant::Ecsrm, w()).run_traffic(14);
    let full = Scenario::variant(Variant::Full, w()).run_traffic(14);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    assert!(
        sum(&full.nacks) < 0.6 * sum(&ecsrm.nacks),
        "scoped NACK exposure should collapse: {} vs {}",
        sum(&full.nacks),
        sum(&ecsrm.nacks)
    );
}

/// Figures 20/21: the source (the network core) is insulated by the
/// hierarchy.
#[test]
fn source_is_insulated_by_scoping() {
    let ecsrm = Scenario::variant(Variant::Ecsrm, w()).run_traffic(15);
    let full = Scenario::variant(Variant::Full, w()).run_traffic(15);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    assert!(
        sum(&full.source_data_repair) < sum(&ecsrm.source_data_repair),
        "core data+repair: {} vs {}",
        sum(&full.source_data_repair),
        sum(&ecsrm.source_data_repair)
    );
    assert!(
        sum(&full.source_nacks) < 0.5 * sum(&ecsrm.source_nacks),
        "core NACKs: {} vs {}",
        sum(&full.source_nacks),
        sum(&ecsrm.source_nacks)
    );
}

/// Figures 11–13: "more than 50% of receivers were able to estimate the
/// RTT to a NACK's sender to within a few percent."
#[test]
fn indirect_rtt_estimates_are_accurate() {
    let probers = [NodeId(3), NodeId(25), NodeId(36)];
    let times: Vec<SimTime> = (0..3).map(|i| SimTime::from_secs(9 + 3 * i)).collect();
    for res in RttExperiment::new(&probers, &times).run(7) {
        let last_seq = res.ratios.iter().map(|(_, s, _)| *s).max().unwrap();
        let last: Vec<f64> = res
            .ratios
            .iter()
            .filter(|(_, s, _)| *s == last_seq)
            .filter_map(|(_, _, r)| *r)
            .collect();
        assert!(
            last.len() > 100,
            "probe from {} reached {} receivers",
            res.prober,
            last.len()
        );
        let close = last.iter().filter(|r| (**r - 1.0).abs() < 0.05).count();
        assert!(
            close as f64 > 0.5 * last.len() as f64,
            "prober {}: only {close}/{} within 5%",
            res.prober,
            last.len()
        );
    }
}

//! The §7 receiver-report summarization extension, end to end: during a
//! lossy SHARQFEC run, per-receiver reception quality rolls up the ZCR
//! hierarchy, and the source's aggregate converges to the session-wide
//! truth without any receiver announcing beyond its own zone.

use sharqfec_repro::netsim::{RunSpec, SimTime, TrafficClass};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
use sharqfec_repro::scoping::ZoneId;
use sharqfec_repro::topology::{figure10, Figure10Params};

#[test]
fn source_learns_session_quality_from_zone_summaries() {
    let built = figure10(&Figure10Params::default());
    let cfg = SharqfecConfig {
        total_packets: 192,
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 77, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(60)));

    let source_agent = engine.agent::<SfAgent>(built.source).expect("source");
    let report = source_agent
        .session()
        .aggregate_report(ZoneId::ROOT)
        .expect("the source must have aggregated reports");

    // Coverage: the summary must speak for a large share of the session —
    // every mesh-node ZCR folds its subtree in, so the count approaches
    // the full 112 receivers.
    assert!(
        report.receivers >= 80,
        "summary covers only {} receivers",
        report.receivers
    );

    // Quality: the mean observed loss must be in the plausible band of the
    // Figure 10 loss plan (leaf losses 13-28%, but repairs keep per-group
    // identifier spans a bit above k, so fractions land slightly lower).
    assert!(
        report.mean_loss > 0.05 && report.mean_loss < 0.35,
        "mean loss {} outside the plausible band",
        report.mean_loss
    );
    // The worst report must come from the high-loss region and exceed the
    // mean by a real margin.
    assert!(
        report.worst_loss > report.mean_loss * 1.2,
        "worst {} should clearly exceed mean {}",
        report.worst_loss,
        report.mean_loss
    );

    // Scalability: deep receivers never announced beyond their own zone —
    // root-channel session senders stay the source + the 7 mesh ZCRs.
    let root_chan = ZoneId::ROOT.channel();
    let mut senders = std::collections::HashSet::new();
    for t in &engine.recorder().transmissions {
        if t.channel == root_chan && t.class == TrafficClass::Session {
            senders.insert(t.node);
        }
    }
    assert!(
        senders.len() <= 8,
        "RR summarization must not widen session scope: {senders:?}"
    );
}

#[test]
fn zcr_summaries_reflect_their_zones() {
    let built = figure10(&Figure10Params::default());
    let cfg = SharqfecConfig {
        total_packets: 192,
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 78, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(60)));

    // Tree 3 (worst backbone) vs tree 5 (best): their mesh-node ZCRs'
    // zone aggregates must order accordingly.
    let mesh3 = sharqfec_repro::topology::figure10::mesh_node(3);
    let mesh5 = sharqfec_repro::topology::figure10::mesh_node(5);
    let zone_of = |n| built.hierarchy.smallest_zone(n);
    let agg = |n| {
        engine
            .agent::<SfAgent>(n)
            .expect("agent")
            .session()
            .aggregate_report(zone_of(n))
            .expect("zone aggregate")
    };
    let worst_tree = agg(mesh3);
    let best_tree = agg(mesh5);
    assert!(
        worst_tree.mean_loss > best_tree.mean_loss,
        "tree 3 ({}) should report more loss than tree 5 ({})",
        worst_tree.mean_loss,
        best_tree.mean_loss
    );
}

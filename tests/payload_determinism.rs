//! A simulated message is a pure function of (plan, seed) — payload
//! included.
//!
//! The §7 loss-report summary every announcement carries is a fold over
//! the reports a node has heard, and `LossReport::merge`'s weighted mean
//! is not associative in `f64`: the last bit of `mean_loss` depends on the
//! order the map yields its values.  While those maps hashed with
//! `RandomState` that order changed from run to run, even inside one
//! process.  This is the gate that notices a randomly keyed map creeping
//! back onto the event path: one lossy Figure 10 run, twice serially and
//! once on two shards, must produce the same aggregates to the bit.

use sharqfec_repro::netsim::{NodeId, RunSpec, SimTime};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
use sharqfec_repro::topology::figure10::{mesh_node, TREES};
use sharqfec_repro::topology::{figure10, Figure10Params};
use std::sync::Arc;

/// `(node, zone, receivers, worst_loss bits, mean_loss bits)` for every
/// zone in the chain of the source and of each mesh-node ZCR.
fn aggregates(shards: usize) -> Vec<(NodeId, u32, u32, u64, u64)> {
    let built = figure10(&Figure10Params::default());
    let cfg = SharqfecConfig {
        total_packets: 192,
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 77, cfg, SimTime::from_secs(1)).build();
    let plan = Arc::new(built.shard_plan(shards));
    assert_eq!(plan.shard_count(), shards);
    engine.advance(RunSpec::to(SimTime::from_secs(60)).with_plan(plan));

    let mut out = Vec::new();
    for node in std::iter::once(built.source).chain((0..TREES).map(mesh_node)) {
        let session = engine.agent::<SfAgent>(node).expect("agent").session();
        for &zone in session.chain_zones() {
            let r = session
                .aggregate_report(zone)
                .expect("every summarizer has heard its zones by t = 60 s");
            out.push((
                node,
                zone.0,
                r.receivers,
                r.worst_loss.to_bits(),
                r.mean_loss.to_bits(),
            ));
        }
    }
    out
}

#[test]
fn loss_report_aggregates_repeat_to_the_bit() {
    let first = aggregates(1);
    // The source's root aggregate folds seven mesh summaries and each mesh
    // node's folds its three child zones: several values per fold, so an
    // order change has something to reorder.
    assert_eq!(first.len(), 1 + 2 * TREES);
    assert!(first.iter().all(|&(_, _, receivers, _, _)| receivers > 1));
    assert_eq!(first, aggregates(1), "same process, same seed, second run");
    assert_eq!(first, aggregates(2), "two shards");
}

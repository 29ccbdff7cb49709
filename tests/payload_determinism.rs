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

use sharqfec_repro::netsim::{RunSpec, SimTime};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
use sharqfec_repro::topology::figure10::{mesh_node, TREES};
use sharqfec_repro::topology::{figure10, Figure10Params};
use std::sync::Arc;

/// `(node id, zone, receivers, worst_loss bits, mean_loss bits)` for every
/// zone in the chain of the source and of each mesh-node ZCR.
fn aggregates(shards: usize) -> Vec<(u32, u32, u32, u64, u64)> {
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
                node.0,
                zone.0,
                r.receivers,
                r.worst_loss.to_bits(),
                r.mean_loss.to_bits(),
            ));
        }
    }
    out
}

/// [`aggregates`]`(1)` as captured before members kept reports only at the
/// seats that read them: no change to how state is stored may move one.
const PINNED: [(u32, u32, u32, u64, u64); 15] = [
    (0, 0, 112, 4601410857003626824, 4596993612594201633),
    (1, 1, 16, 4598518865885509290, 4595783740107206410),
    (1, 0, 97, 4601410857003626824, 4597129422138604654),
    (17, 5, 16, 4598667842913977791, 4596906835502145293),
    (17, 0, 97, 4601410857003626824, 4596963052693299583),
    (33, 9, 16, 4599437867042521395, 4598378298274616100),
    (33, 0, 97, 4601410857003626824, 4596709211231056492),
    (49, 13, 16, 4601410857003626824, 4600861835548871776),
    (49, 0, 97, 4599606246018040323, 4595954089259813536),
    (65, 17, 16, 4598226498447346408, 4596581367018956383),
    (65, 0, 97, 4601410857003626824, 4597027751294005829),
    (81, 21, 16, 4597848353679645712, 4594291975989619259),
    (81, 0, 97, 4601410857003626824, 4597363061485786615),
    (97, 25, 16, 4596373687931076624, 4592851462052216419),
    (97, 0, 97, 4601410857003626824, 4597532064960345360),
];

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
    assert_eq!(first, PINNED, "the pinned summaries");
}

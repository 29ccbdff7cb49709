//! ZCR failover driven by the *network*, not the node (paper §5.2's
//! robustness claim): the designed ZCR stays perfectly healthy, but the
//! link connecting it to the rest of its zone flaps.  While the link is
//! down the zone members stop hearing its announcements, their liveness
//! windows expire, and they elect a stand-in over a slow bypass path.
//! When the link heals, both sides hold a sitting ZCR; the announce-time
//! conflict resolution lets the closer original reassert and the
//! stand-in concede.
//!
//! The partition is injected declaratively with a [`FaultPlan`] — the
//! agents are stock [`SessionAgent`]s with no failure logic of their own.
//!
//! Run: `cargo run --release --example zcr_failover`

use sharqfec_repro::netsim::faults::FaultPlan;
use sharqfec_repro::netsim::prelude::*;
use sharqfec_repro::scoping::ZoneHierarchyBuilder;
use sharqfec_repro::session::{setup_session_builder, SessionAgent, SessionWire, ZcrSeeding};
use sharqfec_repro::topology::BuiltTopology;

fn main() {
    // Chain src - r1 - r2 - r3 - r4 plus a slow src - r2 bypass.  r1 is
    // the designed ZCR of the receiver zone; the r1 - r2 link is the one
    // that flaps.  The bypass keeps the parent zone reachable from the
    // orphaned members (without it no election could run at all), but at
    // 5x the latency, so r1 remains the rightful ZCR once it returns.
    let mut t = TopologyBuilder::new();
    let src = t.add_node("src");
    let r1 = t.add_node("r1");
    let r2 = t.add_node("r2");
    let r3 = t.add_node("r3");
    let r4 = t.add_node("r4");
    let fast = |ms| LinkParams::lossless(SimDuration::from_millis(ms), 10_000_000);
    t.add_link(src, r1, fast(10));
    let flappy = t.add_link(r1, r2, fast(10));
    t.add_link(src, r2, fast(50));
    t.add_link(r2, r3, fast(10));
    t.add_link(r3, r4, fast(10));
    let topology = t.build();

    let members = [src, r1, r2, r3, r4];
    let receivers = [r1, r2, r3, r4];
    let mut h = ZoneHierarchyBuilder::new(members.len());
    let root = h.root(&members);
    let zone = h.child(root, &receivers).expect("receiver zone nests");
    let built = BuiltTopology {
        topology,
        source: src,
        receivers: receivers.to_vec(),
        hierarchy: h.build().expect("valid hierarchy"),
        designed_zcrs: vec![src, r1],
    };

    let down_at = SimTime::from_secs(8);
    let up_at = SimTime::from_secs(30);
    let mut builder = setup_session_builder(
        &built,
        5,
        ZcrSeeding::Designed(built.designed_zcrs.clone()),
        SimTime::from_secs(1),
        &[],
    );
    builder.fault_plan(FaultPlan::new().link_flap(flappy, down_at, up_at));
    let mut engine = builder.build();

    let view = |engine: &Engine<SessionWire>, node: NodeId| {
        engine
            .agent::<SessionAgent>(node)
            .expect("agent")
            .core()
            .zcr_of(zone)
    };

    engine.advance(RunSpec::to(SimTime::from_secs(7)));
    println!(
        "t=7s   (link up): zone members see ZCR = {:?}",
        view(&engine, r2)
    );
    for r in receivers {
        assert_eq!(view(&engine, r), Some(r1), "designed ZCR in office");
    }

    println!("t=8s   link r1-r2 goes down: r1 is cut off from its zone");
    engine.advance(RunSpec::to(SimTime::from_secs(29)));
    println!(
        "t=29s  (partitioned): orphaned members see ZCR = {:?}, r1 still sees {:?}",
        view(&engine, r3),
        view(&engine, r1)
    );
    for r in [r2, r3, r4] {
        assert_eq!(
            view(&engine, r),
            Some(r2),
            "orphaned members elect the bypass owner (closest to the parent)"
        );
    }
    assert_eq!(
        view(&engine, r1),
        Some(r1),
        "r1 keeps serving its side of the partition"
    );

    println!("t=30s  link r1-r2 heals: two sitting ZCRs must reconcile");
    engine.advance(RunSpec::to(SimTime::from_secs(60)));
    println!(
        "t=60s  (healed): zone members see ZCR = {:?}",
        view(&engine, r2)
    );
    for r in receivers {
        assert_eq!(
            view(&engine, r),
            Some(r1),
            "closer original reasserts after the heal; stand-in concedes"
        );
    }
    println!("failover and fail-back complete: {r2} covered the partition, {r1} resumed");
}

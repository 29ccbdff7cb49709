//! Fault-plan integration tests: the declarative fault subsystem
//! (`netsim::faults`) driving the full protocol stack.
//!
//! * Full SHARQFEC keeps 100 % delivery under Gilbert–Elliott burst loss
//!   *plus* a mid-stream backbone link flap (the recovery machinery,
//!   not the network, provides reliability).
//! * The ZCR election re-converges after a link fault partitions a zone
//!   and heals (the `zcr_failover` example's scenario, asserted tightly).
//! * Fault-plan runs are bit-identical at any sweep thread count.

use sharqfec_bench::{Scenario, Workload};
use sharqfec_repro::netsim::faults::FaultPlan;
use sharqfec_repro::netsim::prelude::*;
use sharqfec_repro::netsim::runner::{run_sweep, Cell};
use sharqfec_repro::protocol::SharqfecConfig;
use sharqfec_repro::scoping::ZoneHierarchyBuilder;
use sharqfec_repro::session::{setup_session_builder, SessionAgent, SessionWire, ZcrSeeding};
use sharqfec_repro::topology::{figure10, BuiltTopology, Figure10Params};
use std::num::NonZeroUsize;

/// The Figure 10 backbone link feeding tree 3.  Link ids depend only on
/// construction order, so a throwaway build identifies the link for
/// every identically-shaped topology.
fn tree3_backbone() -> sharqfec_repro::netsim::graph::LinkId {
    let built = figure10(&Figure10Params::default());
    built
        .topology
        .link_between(built.source, sharqfec_topology::figure10::mesh_node(3))
        .expect("figure 10 wires every mesh router to the source")
}

fn burst_flap_scenario(label: &str, mean_burst: f64, packets: u32) -> Scenario {
    let workload = Workload {
        packets,
        tail_secs: 52,
    };
    // Down at 7 s the stream is mid-flight; 16 receivers lose their only
    // path (figure 10 is a tree) until the heal at 9 s.
    let flap = FaultPlan::new().link_flap(
        tree3_backbone(),
        SimTime::from_secs(7),
        SimTime::from_secs(9),
    );
    Scenario::sharqfec(label, SharqfecConfig::full(), workload)
        .with_burst(mean_burst)
        .with_faults(flap)
}

#[test]
fn full_delivery_under_burst_loss_and_backbone_flap() {
    let outcome = burst_flap_scenario("ge-burst+flap", 4.0, 128).run(42);
    assert!(
        outcome.dropped > 0,
        "the Gilbert-Elliott plan must actually drop traffic"
    );
    assert!(
        outcome.repairs > 0,
        "recovery must have engaged to mask the loss"
    );
    assert_eq!(
        outcome.unrecovered, 0,
        "SHARQFEC must deliver everything despite burst loss and a 2 s \
         partition of tree 3 ({} dropped, {} repairs)",
        outcome.dropped, outcome.repairs
    );
}

#[test]
fn zcr_election_reconverges_after_partition_heals() {
    // Chain src - r1 - r2 - r3 - r4 plus a slow src - r2 bypass; the
    // r1 - r2 link flaps, cutting the designed ZCR r1 off from the rest
    // of its zone while r1 itself stays healthy.
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

    let mut builder = setup_session_builder(
        &built,
        5,
        ZcrSeeding::Designed(built.designed_zcrs.clone()),
        SimTime::from_secs(1),
        &[],
    );
    builder.fault_plan(FaultPlan::new().link_flap(
        flappy,
        SimTime::from_secs(8),
        SimTime::from_secs(30),
    ));
    let mut engine = builder.build();
    let view = |engine: &Engine<SessionWire>, node: NodeId| {
        engine
            .agent::<SessionAgent>(node)
            .expect("agent")
            .core()
            .zcr_of(zone)
    };

    // Before the fault everyone agrees on the designed ZCR.
    engine.advance(RunSpec::to(SimTime::from_secs(7)));
    for r in receivers {
        assert_eq!(view(&engine, r), Some(r1), "designed ZCR before the fault");
    }

    // Mid-partition: the orphaned side elects the bypass owner; r1 keeps
    // serving its own side (no split-brain oscillation).
    engine.advance(RunSpec::to(SimTime::from_secs(29)));
    for r in [r2, r3, r4] {
        assert_eq!(view(&engine, r), Some(r2), "orphans elect a stand-in");
    }
    assert_eq!(view(&engine, r1), Some(r1), "r1 keeps its side");

    // After the heal the closer original reasserts and the stand-in
    // concedes — every member converges back to r1.
    engine.advance(RunSpec::to(SimTime::from_secs(60)));
    for r in receivers {
        assert_eq!(view(&engine, r), Some(r1), "re-convergence after heal");
    }
}

#[test]
fn fault_plan_outcomes_are_thread_invariant() {
    // Each cell is a pure function of (scenario, seed): scheduling the
    // sweep on 1, 4, or 8 workers must not change a single metric.
    let specs = [
        burst_flap_scenario("mb=4", 4.0, 64),
        burst_flap_scenario("mb=8", 8.0, 64),
        burst_flap_scenario("mb=16", 16.0, 64),
    ];
    let run = |threads: usize| {
        let cells: Vec<Cell> = specs
            .iter()
            .map(|s| Cell::new(s.label.clone(), 7))
            .collect();
        let threads = NonZeroUsize::new(threads).unwrap();
        run_sweep(cells, threads, |cell| {
            specs
                .iter()
                .find(|s| s.label == cell.scenario)
                .expect("cell matches a planned scenario")
                .run(cell.seed)
        })
        .into_values()
    };
    let serial = run(1);
    assert_eq!(serial.len(), specs.len());
    assert_eq!(serial, run(4), "4 workers must match serial");
    assert_eq!(serial, run(8), "8 workers must match serial");
}

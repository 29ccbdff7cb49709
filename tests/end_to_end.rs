//! End-to-end integration: the full stack (topology → zones → session →
//! protocol → FEC) delivering reliably across every variant, plus
//! object-level byte fidelity through the real codec.

use sharqfec_repro::fec::group::{GroupDecoder, GroupEncoder};
use sharqfec_repro::netsim::routing::Spt;
use sharqfec_repro::netsim::{RunSpec, SimTime, TrafficClass};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig, Variant};
use sharqfec_repro::topology::{figure10, scaled_tree, Figure10Params, ScaledTreeParams};

fn missing_total(
    engine: &sharqfec_repro::netsim::Engine<sharqfec_repro::protocol::SfMsg>,
    built: &sharqfec_repro::topology::BuiltTopology,
) -> u32 {
    built
        .receivers
        .iter()
        .map(|&r| engine.agent::<SfAgent>(r).expect("receiver").missing())
        .sum()
}

#[test]
fn all_variants_deliver_reliably_on_figure10() {
    let built = figure10(&Figure10Params::default());
    for v in [
        Variant::Ecsrm,
        Variant::NoScopingNoInjection,
        Variant::NoScoping,
        Variant::NoInjection,
        Variant::Full,
    ] {
        let cfg = SharqfecConfig {
            total_packets: 96,
            ..SharqfecConfig::variant(v)
        };
        let mut engine = setup_sharqfec_builder(&built, 17, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(120)));
        assert_eq!(
            missing_total(&engine, &built),
            0,
            "{} left packets unrecovered",
            v.label()
        );
    }
}

#[test]
fn national_hierarchy_delivers_reliably() {
    // The §5.1 national shape in miniature: 2 regions × 2 cities × 2
    // suburbs of hubs under the source, 38 receivers in all.
    let params = ScaledTreeParams {
        receivers: 38,
        depth: 3,
        fanout: 2,
        zone_spread: 0.0,
        ..ScaledTreeParams::default()
    };
    let built = scaled_tree(&params, 23).built;
    assert_eq!(built.receivers.len(), 38);
    // 1 root + 2 regions + 4 cities + 8 suburbs.
    assert_eq!(built.hierarchy.zone_count(), 15);
    // Each zone's designed ZCR is its hub: the member nearest the source.
    let spt = Spt::compute(&built.topology, built.source);
    for zone in built.hierarchy.zones().iter().skip(1) {
        let hub = zone.members.iter().min_by_key(|&&m| spt.delay_to(m));
        assert_eq!(Some(&built.zcr(zone.id)), hub, "zone {}", zone.id);
    }
    // 14 hubs; each of the other 24 receivers sits under 4 zones.
    let subscribers: Vec<_> = built
        .receivers
        .iter()
        .filter(|r| !built.designed_zcrs.contains(r))
        .collect();
    assert_eq!(subscribers.len(), 24);
    for &&r in &subscribers {
        assert_eq!(built.hierarchy.zone_chain(r).len(), 4, "subscriber {r}");
    }

    let cfg = SharqfecConfig {
        total_packets: 96,
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 23, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(120)));
    assert_eq!(missing_total(&engine, &built), 0);
}

#[test]
fn object_bytes_survive_the_network() {
    // The newspaper scenario at test scale: real bytes through the
    // simulated protocol, byte-compared at every receiver.
    const K: usize = 16;
    const PAYLOAD: usize = 200;
    const HEADROOM: usize = 48;
    let object: Vec<u8> = (0..40_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let enc = GroupEncoder::new(K, HEADROOM, PAYLOAD).expect("shape");
    let groups = enc.encode_object(&object).expect("encode");
    let n_groups = groups.len();

    // A 6-node chain with loss so repairs actually happen (the lossless
    // shape `chain(6)` would make this test vacuous).
    let built = {
        use sharqfec_repro::netsim::{LinkParams, SimDuration, TopologyBuilder};
        use sharqfec_repro::scoping::ZoneHierarchyBuilder;
        let mut b = TopologyBuilder::new();
        let ids = b.add_nodes("c", 6);
        for (i, w) in ids.windows(2).enumerate() {
            let loss = if i == 1 { 0.15 } else { 0.03 };
            b.add_link(
                w[0],
                w[1],
                LinkParams::new(SimDuration::from_millis(20), 10_000_000, loss),
            );
        }
        let mut zb = ZoneHierarchyBuilder::new(6);
        let root = zb.root(&ids);
        zb.child(root, &ids[1..]).expect("nests");
        sharqfec_repro::topology::BuiltTopology {
            topology: b.build(),
            source: ids[0],
            receivers: ids[1..].to_vec(),
            hierarchy: zb.build().expect("valid"),
            designed_zcrs: vec![ids[0], ids[1]],
        }
    };

    let cfg = SharqfecConfig {
        total_packets: (n_groups * K) as u32,
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 5, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(120)));

    for &r in &built.receivers {
        let agent = engine.agent::<SfAgent>(r).expect("receiver");
        assert!(agent.complete(), "receiver {r} incomplete");
        let mut dec = GroupDecoder::new(K, HEADROOM, PAYLOAD, n_groups).expect("decoder");
        for g in 0..n_groups as u32 {
            let mut fed = 0;
            for idx in agent.held_indices(g) {
                let idx = idx as usize;
                assert!(idx < K + HEADROOM, "FEC index {idx} beyond headroom");
                dec.push(g as u64, idx, groups.group(g as usize).packet(idx))
                    .expect("push");
                fed += 1;
                if fed >= K {
                    break;
                }
            }
        }
        assert_eq!(dec.finish().expect("reassemble"), object, "receiver {r}");
    }
}

#[test]
fn runs_are_deterministic_per_seed_and_differ_across_seeds() {
    let built = figure10(&Figure10Params::default());
    let fingerprint = |seed: u64| {
        let cfg = SharqfecConfig {
            total_packets: 48,
            ..SharqfecConfig::full()
        };
        let mut engine = setup_sharqfec_builder(&built, seed, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(60)));
        let rec = engine.recorder();
        (
            rec.transmissions.len(),
            rec.deliveries.len(),
            rec.drops.len(),
            rec.deliveries.last().map(|d| (d.time, d.node)),
        )
    };
    assert_eq!(fingerprint(123), fingerprint(123));
    assert_ne!(fingerprint(123), fingerprint(124));
}

#[test]
fn lossless_network_never_nacks_or_repairs_reactively() {
    let built = figure10(&Figure10Params::lossless());
    let cfg = SharqfecConfig {
        total_packets: 64,
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 3, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(60)));
    assert_eq!(missing_total(&engine, &built), 0);
    let nacks = engine
        .recorder()
        .transmissions
        .iter()
        .filter(|t| t.class == TrafficClass::Nack)
        .count();
    assert_eq!(nacks, 0, "no losses, no NACKs");
}

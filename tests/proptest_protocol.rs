//! Property-based tests over the protocol stack: reliability and core
//! invariants must hold across random seeds, loss scalings, group sizes,
//! and variants — not just the hand-picked configurations.

use proptest::prelude::*;
use sharqfec_repro::netsim::{RunSpec, SimTime, TrafficClass};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig, Variant};
use sharqfec_repro::topology::{figure10, random_tree, Figure10Params, RandomTreeParams};

fn variant_strategy() -> impl Strategy<Value = Variant> {
    prop_oneof![
        Just(Variant::Full),
        Just(Variant::NoInjection),
        Just(Variant::NoScoping),
        Just(Variant::NoScopingNoInjection),
        Just(Variant::Ecsrm),
    ]
}

proptest! {
    // Whole-protocol runs are costly; a modest case count still sweeps a
    // meaningful slice of the space every CI run.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reliability is unconditional: any variant, any seed, any loss
    /// scaling up to 1.5x the paper's, any group size — every receiver
    /// reconstructs every group.
    #[test]
    fn any_configuration_delivers_reliably(
        seed in 0u64..1000,
        loss_scale in 0.0f64..1.5,
        group_size in prop_oneof![Just(8u32), Just(16), Just(32)],
        variant in variant_strategy(),
    ) {
        let built = figure10(&Figure10Params::default().scaled_loss(loss_scale));
        let cfg = SharqfecConfig {
            total_packets: 64,
            group_size,
            ..SharqfecConfig::variant(variant)
        };
        let mut engine = setup_sharqfec_builder(&built, seed, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(150)));
        for &r in &built.receivers {
            let agent = engine.agent::<SfAgent>(r).expect("receiver");
            prop_assert_eq!(
                agent.missing(), 0,
                "receiver {} incomplete under {:?} seed {} loss x{}",
                r, variant, seed, loss_scale
            );
        }
    }

    /// Robustness on networks nobody designed: full SHARQFEC over random
    /// trees with random latencies/loss and automatically derived zones
    /// still delivers everything.
    #[test]
    fn random_topologies_deliver_reliably(
        topo_seed in any::<u64>(),
        run_seed in any::<u64>(),
        receivers in 6usize..30,
        max_fanout in 2usize..5,
    ) {
        let params = RandomTreeParams {
            receivers,
            max_fanout,
            ..RandomTreeParams::default()
        };
        let built = random_tree(&params, topo_seed);
        let cfg = SharqfecConfig {
            total_packets: 48,
            ..SharqfecConfig::full()
        };
        let mut engine = setup_sharqfec_builder(&built, run_seed, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(120)));
        for &r in &built.receivers {
            let agent = engine.agent::<SfAgent>(r).expect("receiver");
            prop_assert_eq!(
                agent.missing(), 0,
                "receiver {} incomplete on random topology (topo_seed {}, run_seed {})",
                r, topo_seed, run_seed
            );
        }
    }

    /// Conservation: every delivered or dropped packet was transmitted
    /// (no packets materialize inside the network), and data deliveries
    /// never exceed transmissions x receivers.
    #[test]
    fn traffic_conservation(seed in 0u64..1000) {
        let built = figure10(&Figure10Params::default());
        let cfg = SharqfecConfig {
            total_packets: 32,
            ..SharqfecConfig::full()
        };
        let mut engine = setup_sharqfec_builder(&built, seed, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(60)));
        let rec = engine.recorder();
        for class in [TrafficClass::Data, TrafficClass::Repair, TrafficClass::Nack] {
            let sent = rec.transmissions.iter().filter(|t| t.class == class).count();
            let delivered = rec.deliveries.iter().filter(|d| d.class == class).count();
            let dropped = rec.drops.iter().filter(|d| d.class == class).count();
            // Hop-by-hop: every delivery or drop requires a transmission
            // upstream of it; with 112 receivers each transmission yields
            // at most 112 deliveries.
            prop_assert!(delivered + dropped <= sent * 112,
                "{class:?}: {delivered}+{dropped} vs {sent} sent");
            if sent > 0 && class == TrafficClass::Data {
                prop_assert!(delivered > 0, "data was sent but nothing arrived");
            }
            if class == TrafficClass::Nack {
                prop_assert_eq!(dropped, 0, "NACKs are lossless by 6.2");
            }
        }
    }
}

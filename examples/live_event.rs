//! The paper's §5.1 scenario in miniature: a national live-event broadcast
//! over a 4-level hierarchy (regions → cities → suburbs → subscribers),
//! built by `scaled_tree` at depth 3.
//!
//! Demonstrates the two headline properties on a simulated (scaled-down)
//! national network:
//!
//! * reliable delivery to every subscriber under edge loss, and
//! * per-receiver session state that tracks only zone-local peers and the
//!   ZCR chain — the Figure 8 reduction, measured live rather than
//!   computed analytically.
//!
//! Run: `cargo run --release --example live_event`

use sharqfec_repro::analysis::national::NationalAnalysis;
use sharqfec_repro::netsim::{RunSpec, SimTime};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
use sharqfec_repro::topology::{scaled_tree, ScaledTreeParams};

fn main() {
    // 3 regions x 3 cities x 3 suburbs of hubs (39 caching receivers),
    // 81 subscribers under the suburbs: 120 receivers.
    let params = ScaledTreeParams {
        receivers: 120,
        depth: 3,
        fanout: 3,
        zone_spread: 0.0,
        ..ScaledTreeParams::default()
    };
    let built = scaled_tree(&params, 99).built;
    println!(
        "national broadcast: {} receivers over {} zones, 4 levels",
        built.receivers.len(),
        built.hierarchy.zone_count()
    );

    let cfg = SharqfecConfig {
        total_packets: 160, // 10 groups
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 99, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(60)));

    // Reliability.
    let missing: u32 = built
        .receivers
        .iter()
        .map(|&r| engine.agent::<SfAgent>(r).expect("receiver").missing())
        .sum();
    assert_eq!(missing, 0, "{missing} packets undelivered");
    println!(
        "all packets delivered to all {} receivers",
        built.receivers.len()
    );

    // Session state per receiver class (the live Figure 8 measurement).
    let mut subscriber_state = Vec::new();
    let mut hub_state = Vec::new();
    for &r in &built.receivers {
        let agent = engine.agent::<SfAgent>(r).expect("receiver");
        let tracked = agent.session().tracked_peer_count();
        if built.designed_zcrs.contains(&r) {
            hub_state.push(tracked as f64);
        } else {
            subscriber_state.push(tracked as f64);
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "session state tracked: subscribers avg {:.1} peers, hubs avg {:.1} peers",
        avg(&subscriber_state),
        avg(&hub_state)
    );
    println!(
        "non-scoped equivalent would be {} peers for everyone",
        built.receivers.len()
    );
    assert!(
        avg(&subscriber_state) < built.receivers.len() as f64 / 2.0,
        "scoped session state should be far below the non-scoped baseline"
    );

    // And the paper's full-scale arithmetic for the same shape.
    let full = NationalAnalysis::paper();
    println!();
    println!("at the paper's full scale (10,000,210 receivers) the same design gives:");
    for level in &full.levels {
        println!(
            "  {:<8} RTTs/receiver {:>4}  (vs {} non-scoped)",
            level.name,
            level.rtts_per_receiver,
            full.nonscoped_state()
        );
    }
}

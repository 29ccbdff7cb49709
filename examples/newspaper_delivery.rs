//! The paper's motivating application: delivering "a large newspaper to a
//! million subscribers" — here, a real byte object pushed through the
//! simulated lossy multicast network and reassembled at every receiver.
//!
//! The simulator models packets abstractly as (group, index) pairs; this
//! example closes the loop with the real codec:
//!
//! 1. encode the newspaper with [`GroupEncoder`] (k = 16, 1000 B packets,
//!    generous FEC headroom);
//! 2. run full SHARQFEC over the Figure 10 network and record *which*
//!    packet indices each receiver ended up holding;
//! 3. feed exactly those shards into a per-receiver [`GroupDecoder`] and
//!    byte-compare the reassembled object.
//!
//! Run: `cargo run --release --example newspaper_delivery`

use sharqfec_repro::fec::group::{GroupDecoder, GroupEncoder};
use sharqfec_repro::netsim::{RunSpec, SimTime};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig, PACKET_BYTES};
use sharqfec_repro::topology::{figure10, Figure10Params};

/// The wire shape shared by the simulation and the codec.
const K: u32 = 16;
const PAYLOAD: usize = PACKET_BYTES as usize;
/// FEC headroom per group: enough that every repair index the protocol
/// allocates maps to a real parity shard.
const HEADROOM: usize = 64;

fn main() {
    // --- the newspaper: ~300 KB of generated prose -----------------------
    let newspaper: Vec<u8> = (0..300_000u32)
        .map(|i| b'A' + (i.wrapping_mul(2_654_435_761) % 26) as u8)
        .collect();
    let enc = GroupEncoder::new(K as usize, HEADROOM, PAYLOAD).expect("codec shape");
    let n_groups = enc.groups_for(newspaper.len());
    let encoded = enc.encode_object(&newspaper).expect("encode");
    println!(
        "newspaper: {} bytes -> {} groups of {K} x {PAYLOAD} B packets",
        newspaper.len(),
        n_groups
    );

    // --- the delivery: full SHARQFEC over the Figure 10 network ----------
    let built = figure10(&Figure10Params::default());
    let total_packets = (n_groups as u32) * K;
    let cfg = SharqfecConfig {
        total_packets,
        ..SharqfecConfig::full()
    };
    let stream_secs = (total_packets as u64) / 100 + 1;
    let mut engine = setup_sharqfec_builder(&built, 2026, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(6 + stream_secs + 60)));

    // --- reassembly at every receiver -------------------------------------
    let mut reconstructed = 0usize;
    let mut worst_fec_used = 0usize;
    for &r in &built.receivers {
        let agent = engine.agent::<SfAgent>(r).expect("receiver");
        assert!(
            agent.complete(),
            "receiver {r} still missing {} packets",
            agent.missing()
        );
        let mut dec = GroupDecoder::new(K as usize, HEADROOM, PAYLOAD, n_groups).expect("decoder");
        for g in 0..n_groups as u32 {
            let mut fed = 0;
            for idx in agent.held_indices(g) {
                let idx = idx as usize;
                // Simulated index -> real shard: the encoded group holds
                // data (idx < k) and FEC (idx >= k) under the same index.
                if let Some(f) = idx.checked_sub(K as usize) {
                    assert!(
                        f < HEADROOM,
                        "protocol allocated FEC index {idx} beyond headroom"
                    );
                    worst_fec_used = worst_fec_used.max(f + 1);
                }
                dec.push(g as u64, idx, encoded.group(g as usize).packet(idx))
                    .expect("feed shard");
                fed += 1;
                if fed >= K {
                    break; // any k suffice
                }
            }
        }
        let out = dec.finish().expect("reassemble");
        assert_eq!(out, newspaper, "receiver {r} reassembled different bytes");
        reconstructed += 1;
    }
    println!("all {reconstructed} receivers reassembled the newspaper byte-for-byte");
    println!("deepest FEC index used anywhere: {worst_fec_used} (headroom {HEADROOM})");
    let repairs = engine
        .recorder()
        .total_sent(sharqfec_repro::netsim::TrafficClass::Repair);
    println!(
        "repair packets across the whole session: {repairs} ({:.2} per group per zone on average)",
        repairs as f64 / n_groups as f64 / 29.0
    );
}

//! Quickstart: the two faces of SHARQFEC in ~80 lines.
//!
//! 1. The erasure codec on real bytes — encode a message into a packet
//!    group, lose some packets, reconstruct.
//! 2. The full protocol on a simulated lossy network — every receiver
//!    recovers every packet while NACK counts stay tiny.
//!
//! Run: `cargo run --release --example quickstart`

use sharqfec_repro::fec::codec::{DecodeScratch, GroupCodec};
use sharqfec_repro::netsim::{RunSpec, SimTime, TrafficClass};
use sharqfec_repro::protocol::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
use sharqfec_repro::topology::{figure10, Figure10Params};

fn codec_demo() {
    println!("-- 1. erasure codec ------------------------------------------");
    // The paper's group shape: k = 16 data packets; here 4 FEC packets.
    let codec = GroupCodec::new(16, 4).expect("valid shape");
    let message = b"SHARQFEC groups data packets so that ANY k of k+h reconstruct!";
    // Split the message into 16 shards of 4 bytes (padded).
    let mut shards: Vec<Vec<u8>> = message.chunks(4).map(|c| c.to_vec()).collect();
    shards.resize(16, vec![0; 4]);
    for s in &mut shards {
        s.resize(4, 0);
    }
    let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
    // Parity goes into caller-owned buffers (reused across groups in a
    // real sender); decoding reuses a scratch workspace the same way.
    let mut parity = vec![vec![0u8; 4]; 4];
    {
        let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
        codec.encode_into(&refs, &mut bufs).expect("encode");
    }

    // Disaster: packets 0, 5, 9 and 13 are lost in transit.
    let lost = [0usize, 5, 9, 13];
    println!("   lost packets {lost:?}; repairing with 4 FEC packets");
    let received: Vec<(usize, &[u8])> = (0..16)
        .filter(|i| !lost.contains(i))
        .map(|i| (i, refs[i]))
        .chain((0..4).map(|j| (16 + j, parity[j].as_slice())))
        .collect();
    let mut scratch = DecodeScratch::default();
    let recovered = codec
        .decode(&received, &mut scratch)
        .expect("any 16 of 20 suffice");
    // The recovered shards are already flat in index order.
    let flat = recovered.flat();
    assert_eq!(&flat[..message.len()], message);
    println!(
        "   reconstructed: {:?}",
        String::from_utf8_lossy(&flat[..message.len()])
    );
}

fn protocol_demo() {
    println!("-- 2. protocol on the paper's lossy network ------------------");
    // The Figure 10 network: 112 receivers, leaf losses 13–28%.
    let built = figure10(&Figure10Params::default());
    let cfg = SharqfecConfig {
        total_packets: 128, // 8 groups of 16 (paper runs 1024)
        ..SharqfecConfig::full()
    };
    let mut engine = setup_sharqfec_builder(&built, 7, cfg, SimTime::from_secs(1)).build();
    engine.advance(RunSpec::to(SimTime::from_secs(60)));

    let missing: u32 = built
        .receivers
        .iter()
        .map(|&r| engine.agent::<SfAgent>(r).expect("receiver").missing())
        .sum();
    let rec = engine.recorder();
    println!("   112 receivers, 128 packets each under 13-28% loss");
    println!("   drops on links : {}", rec.drops.len());
    println!(
        "   repairs sent   : {}",
        rec.total_sent(TrafficClass::Repair)
    );
    println!("   NACKs sent     : {}", rec.total_sent(TrafficClass::Nack));
    println!("   packets missing: {missing}");
    assert_eq!(missing, 0, "SHARQFEC must deliver reliably");
    println!("   every receiver reconstructed every group ✓");
}

fn main() {
    codec_demo();
    println!();
    protocol_demo();
}

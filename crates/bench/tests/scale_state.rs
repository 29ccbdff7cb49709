//! Named regression pins for the scaling invariants (ISSUE 8 satellite:
//! "audit every per-agent structure that grows with n rather than zone
//! size").
//!
//! The audit's conclusion, pinned here behind measurements:
//!
//! * SHARQFEC per-receiver state is bounded by *zone size* (chain depth ×
//!   peer-table entries), not by session membership — `SessionCore`
//!   tables hold only zone peers, `SfAgent` group state is per-group
//!   bitsets, and the shared hierarchy is one `Arc` per run, not
//!   per-receiver (no agent keeps a channel table).
//! * SRM's session layer is the counterexample the paper argues against:
//!   its peer table tracks the full membership, so per-receiver state
//!   grows linearly with n.
//! * The aggregate Recorder is O(1): it allocates nothing, whatever the
//!   horizon, receivers or packets.

use sharqfec::{setup_sharqfec_builder, SharqfecConfig};
use sharqfec_netsim::{RecorderMode, RunSpec, SimDuration, SimTime};
use sharqfec_srm::{setup_srm_builder, SrmConfig};
use sharqfec_topology::{scaled_tree, BuiltTopology, ScaledTreeParams};

/// Two trees with the same leaf-zone size (~8 members) but 4× the
/// membership: state that is zone-bounded must not follow n.
fn small_tree(seed: u64) -> BuiltTopology {
    scaled_tree(
        &ScaledTreeParams {
            receivers: 150,
            depth: 2,
            fanout: 4,
            hub_loss: (0.0, 0.0),
            leaf_loss: (0.0, 0.0),
            ..ScaledTreeParams::default()
        },
        seed,
    )
    .built
}

fn large_tree(seed: u64) -> BuiltTopology {
    scaled_tree(
        &ScaledTreeParams {
            receivers: 600,
            depth: 2,
            fanout: 8,
            hub_loss: (0.0, 0.0),
            leaf_loss: (0.0, 0.0),
            ..ScaledTreeParams::default()
        },
        seed,
    )
    .built
}

fn mean_receiver_state_sharqfec(built: &BuiltTopology) -> f64 {
    let cfg = SharqfecConfig {
        total_packets: 16,
        ..SharqfecConfig::full()
    };
    let mut builder = setup_sharqfec_builder(built, 5, cfg, SimTime::from_secs(1));
    builder.recorder_mode(RecorderMode::Aggregate);
    let mut engine = builder.build();
    engine.advance(RunSpec::to(SimTime::from_secs(7)));
    let sum: u64 = built
        .receivers
        .iter()
        .map(|&r| engine.agent_state_bytes(r) as u64)
        .sum();
    sum as f64 / built.receivers.len() as f64
}

fn mean_receiver_state_srm(built: &BuiltTopology) -> f64 {
    let cfg = SrmConfig {
        total_packets: 16,
        session_announce: Some(SimDuration::from_millis(1_000)),
        ..SrmConfig::default()
    };
    let mut builder = setup_srm_builder(built, 5, cfg, SimTime::from_secs(1));
    builder.recorder_mode(RecorderMode::Aggregate);
    let mut engine = builder.build();
    engine.advance(RunSpec::to(SimTime::from_secs(7)));
    let sum: u64 = built
        .receivers
        .iter()
        .map(|&r| engine.agent_state_bytes(r) as u64)
        .sum();
    sum as f64 / built.receivers.len() as f64
}

#[test]
fn sharqfec_receiver_state_is_zone_bounded_not_membership_bounded() {
    let small = mean_receiver_state_sharqfec(&small_tree(9));
    let large = mean_receiver_state_sharqfec(&large_tree(9));
    assert!(small > 0.0, "state accounting must report something");
    // 4× the membership at equal zone size: per-receiver state may drift
    // with map capacities but must not track n (a linear structure would
    // show ~4×).
    assert!(
        large < 1.6 * small,
        "SHARQFEC state followed membership: {small:.0} B -> {large:.0} B at 4x n"
    );
}

#[test]
fn srm_session_state_grows_with_membership() {
    let small = mean_receiver_state_srm(&small_tree(9));
    let large = mean_receiver_state_srm(&large_tree(9));
    // Full-membership peer tables: 4× the members, ~4× the state (the
    // fixed part dilutes the ratio, hence > 2.5 not > 4).
    assert!(
        large > 2.5 * small,
        "SRM session state should track membership: {small:.0} B -> {large:.0} B at 4x n"
    );
}

#[test]
fn aggregate_recorder_allocation_is_o_bins_not_o_packets_or_receivers() {
    // Same horizon, different membership and stream length: the
    // aggregate recorder's allocation must not move.  This is the
    // representation that makes the 10⁵/10⁶ sweep cells feasible.
    let run = |built: &BuiltTopology, packets: u32| -> usize {
        let cfg = SharqfecConfig {
            total_packets: packets,
            data_start: SimTime::from_millis(1_200),
            ..SharqfecConfig::full()
        };
        let mut builder = setup_sharqfec_builder(built, 5, cfg, SimTime::from_secs(1));
        builder.recorder_mode(RecorderMode::Aggregate);
        let mut engine = builder.build();
        engine.advance(RunSpec::to(SimTime::from_secs(2)));
        engine.recorder().resident_bytes()
    };
    let small = run(&small_tree(9), 16);
    let more_packets = run(&small_tree(9), 64);
    let more_receivers = run(&large_tree(9), 16);
    assert_eq!(
        small, more_packets,
        "recorder allocation must not scale with packets"
    );
    assert_eq!(
        small, more_receivers,
        "recorder allocation must not scale with receivers"
    );
    assert!(
        small < 64 * 1024,
        "aggregate recorder should stay tiny, got {small} bytes"
    );
}

#[test]
fn ten_thousand_receiver_smoke_run_stays_bounded() {
    // The ISSUE's 10⁴-receiver smoke: a short window of real protocol
    // activity at n = 10⁴ with the aggregate recorder; allocation stays
    // O(1) and per-receiver state stays zone-bounded (leaf zones here
    // are ~100 members, so state must be nowhere near O(n)).
    let built = scaled_tree(
        &ScaledTreeParams {
            hub_loss: (0.0, 0.0),
            leaf_loss: (0.0, 0.0),
            ..ScaledTreeParams::for_receivers(10_000)
        },
        42,
    )
    .built;
    let cfg = SharqfecConfig {
        total_packets: 8,
        data_start: SimTime::from_millis(1_200),
        ..SharqfecConfig::full()
    };
    let mut builder = setup_sharqfec_builder(&built, 42, cfg, SimTime::from_secs(1));
    builder.recorder_mode(RecorderMode::Aggregate);
    let mut engine = builder.build();
    engine.advance(RunSpec::to(SimTime::from_millis(1_600)));
    assert!(
        engine.recorder().resident_bytes() < 64 * 1024,
        "recorder grew with the 10^4 run: {} bytes",
        engine.recorder().resident_bytes()
    );
    // Mean per-receiver state must be a few KiB (zone-bounded), not the
    // hundreds of KiB an O(n) structure would produce at n = 10⁴.
    let mean = engine.state_bytes() as f64 / built.receivers.len() as f64;
    assert!(
        mean < 32.0 * 1024.0,
        "per-receiver state suspiciously large at n=10^4: {mean:.0} B"
    );
}

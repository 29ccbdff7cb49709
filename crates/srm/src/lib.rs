//! The SRM baseline (Floyd, Jacobson, McCanne, Liu, Zhang — "A Reliable
//! Multicast Framework for Light-weight Sessions and Application Level
//! Framing", SIGCOMM '95).
//!
//! SHARQFEC's §6.2 compares against "an ARQ protocol … SRM was chosen …
//! and its simulation was performed with adaptive timers turned on for
//! best possible performance."  SRM has no canonical open-source Rust
//! implementation, so this crate reconstructs it from the publication:
//!
//! * **Per-packet NACK/repair.**  Receivers detect sequence gaps and
//!   multicast *requests*; any member holding the packet may multicast a
//!   *repair*.  The source is simply the member that holds every packet,
//!   so every member runs one agent, [`SrmMember`].  All traffic is global
//!   scope — this is precisely the non-localized behaviour SHARQFEC
//!   improves on.
//! * **Suppression timers.**  Request delay uniform on
//!   `2^i · [C1·d_SA, (C1+C2)·d_SA]` (d_SA = one-way delay to the data
//!   source), doubling (`i += 1`) both after sending and when a duplicate
//!   request is overheard.  Repair delay uniform on
//!   `[D1·d_AB, (D1+D2)·d_AB]` (d_AB = one-way delay to the requester),
//!   cancelled when another member's repair is heard.
//! * **Adaptive timers** (the SIGCOMM/ToN paper's §V adjustment): members
//!   track EWMAs of duplicate requests/repairs and of their request/repair
//!   delays, widening the timer window when duplicates are common and
//!   narrowing it when duplicates are rare but delays are long.  Exact
//!   constants follow the published algorithm's structure; see
//!   [`DELAY_HIGH`] for the mapping (DESIGN.md §5 records this
//!   baseline as reconstructed-from-paper).
//!
//! RTT estimates come from the simulator's converged-session oracle
//! ([`sharqfec_netsim::routing::DistanceOracle`]) rather than a simulated
//! SRM session protocol — strictly generous to the baseline, which is the
//! conservative direction for comparisons (and the session-traffic
//! comparison is made analytically in `sharqfec-analysis`).
//!
//! For the *measured* session-traffic comparison (the scale sweep), an
//! opt-in session-message layer can be enabled via
//! [`SrmConfig::session_announce`]: every receiver periodically multicasts
//! a globally scoped [`SrmMsg::Announce`] and records each announcer it
//! hears in a peer table with one slot per member id.  That reproduces
//! SRM's two scaling liabilities — O(n²) session traffic and O(n)
//! per-receiver state — without altering repair behaviour; the default
//! (`None`) leaves every existing scenario bit-identical.
//! [`SrmConfig::announce_stride`] rotates announcers to bound simulated
//! event counts at very large n (a stride shared across sweep cells
//! rescales traffic by a constant, leaving the growth exponent intact);
//! the peer table keeps its full size at any stride.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod msg;
pub mod receiver;
mod replier;

pub use config::SrmConfig;
pub use msg::SrmMsg;
pub use receiver::SrmMember;

/// The member agent under its old name, which `benchmark/` imports.
pub type SrmReceiver = SrmMember;

use sharqfec_netsim::{EngineBuilder, SimTime};
use sharqfec_topology::BuiltTopology;

/// Delay (in units of `d`) above which an adaptive window narrows.
///
/// Each member keeps adaptive windows `[lo·d, (lo+width)·d]` (Floyd et al.
/// §V) — a receiver its request window `C1`/`C2` and its repair window
/// `D1`/`D2`, the source a repair window — each adapting from two EWMAs:
/// duplicates observed per recovery round and the delay (in units of `d`)
/// the member's own timers incur.  Too many duplicates widen a window
/// (better suppression); few duplicates but long delays narrow it (faster
/// recovery).  Reconstructed from the published description: the update
/// structure and the 0.1/0.5 increase and 0.05/0.1 decrease steps are the
/// paper's, and the machinery is [`sharqfec_netsim::adaptive`], shared
/// with SHARQFEC's §7 extension.  This trigger is where the two part: SRM
/// recovers across the whole session, delays measured against the global
/// `d_SA`, so rounds slower than 1.5 units already warrant narrowing;
/// SHARQFEC's scoped recovery deliberately waits until 4
/// (`sharqfec::agent::DELAY_HIGH`).
pub const DELAY_HIGH: f64 = 1.5;

/// Assembles a fully-populated [`EngineBuilder`] for an SRM scenario: one
/// global channel and an [`SrmMember`] on every member, joining at
/// `join_at`; the one at `built.source` sends from `cfg.data_start`.
/// Harnesses needing a streaming recorder or fault plan set those on the
/// returned builder before [`EngineBuilder::build`].
pub fn setup_srm_builder(
    built: &BuiltTopology,
    seed: u64,
    cfg: SrmConfig,
    join_at: SimTime,
) -> EngineBuilder<SrmMsg> {
    cfg.validate();
    let mut builder: EngineBuilder<SrmMsg> = EngineBuilder::new(built.topology.clone(), seed);
    let members = built.members();
    let chan = builder.add_channel(&members);
    let nodes = built.topology.node_count();
    for m in members {
        let member = SrmMember::new(cfg.clone(), chan, built.source, nodes);
        builder.add_agent_at(m, Box::new(member), join_at);
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharqfec_netsim::RunSpec;
    use sharqfec_netsim::TrafficClass;
    use sharqfec_topology::{chain, figure10, Figure10Params};

    #[test]
    fn lossless_run_needs_no_repairs() {
        let built = chain(4);
        let cfg = SrmConfig {
            total_packets: 20,
            ..SrmConfig::default()
        };
        let mut engine = setup_srm_builder(&built, 1, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(40)));
        for &r in &built.receivers {
            let agent = engine.agent::<SrmMember>(r).unwrap();
            assert!(agent.complete(), "receiver {r} incomplete");
        }
        let rec = engine.recorder();
        assert_eq!(
            rec.transmissions
                .iter()
                .filter(|t| t.class == TrafficClass::Nack)
                .count(),
            0
        );
        assert_eq!(
            rec.transmissions
                .iter()
                .filter(|t| t.class == TrafficClass::Repair)
                .count(),
            0
        );
    }

    #[test]
    fn figure10_losses_are_fully_repaired() {
        let built = figure10(&Figure10Params::default());
        let cfg = SrmConfig {
            total_packets: 64,
            ..SrmConfig::default()
        };
        let mut engine = setup_srm_builder(&built, 42, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(120)));
        let mut incomplete = 0;
        for &r in &built.receivers {
            let agent = engine.agent::<SrmMember>(r).unwrap();
            if !agent.complete() {
                incomplete += 1;
            }
        }
        assert_eq!(
            incomplete, 0,
            "{incomplete} receivers still missing packets"
        );
        // Under ~13-28% loss there must have been real repair activity.
        let rec = engine.recorder();
        assert!(rec
            .transmissions
            .iter()
            .any(|t| t.class == TrafficClass::Repair));
        assert!(rec
            .transmissions
            .iter()
            .any(|t| t.class == TrafficClass::Nack));
    }

    #[test]
    fn adaptive_timers_do_not_hurt_and_both_modes_recover() {
        // The paper runs SRM "with adaptive timers turned on for best
        // possible performance"; verify both modes recover and that the
        // adaptive mode doesn't inflate request volume.
        let built = figure10(&Figure10Params::default());
        let run = |adaptive: bool| {
            let cfg = SrmConfig {
                total_packets: 48,
                adaptive,
                ..SrmConfig::default()
            };
            let mut engine = setup_srm_builder(&built, 21, cfg, SimTime::from_secs(1)).build();
            engine.advance(RunSpec::to(SimTime::from_secs(150)));
            let missing: u32 = built
                .receivers
                .iter()
                .map(|&r| engine.agent::<SrmMember>(r).unwrap().missing())
                .sum();
            let nacks = engine
                .recorder()
                .transmissions
                .iter()
                .filter(|t| t.class == TrafficClass::Nack)
                .count();
            (missing, nacks)
        };
        let (miss_fixed, nacks_fixed) = run(false);
        let (miss_adaptive, nacks_adaptive) = run(true);
        assert_eq!(miss_fixed, 0);
        assert_eq!(miss_adaptive, 0);
        assert!(
            (nacks_adaptive as f64) < 1.5 * nacks_fixed as f64,
            "adaptive timers should not inflate requests: {nacks_adaptive} vs {nacks_fixed}"
        );
    }

    #[test]
    fn session_layer_is_opt_in_and_builds_full_peer_tables() {
        use sharqfec_netsim::SimDuration;
        let built = chain(5);
        let run = |announce: Option<SimDuration>, stride: u64| {
            let cfg = SrmConfig {
                total_packets: 10,
                session_announce: announce,
                announce_stride: stride,
                ..SrmConfig::default()
            };
            let mut engine = setup_srm_builder(&built, 3, cfg, SimTime::from_secs(1)).build();
            engine.advance(RunSpec::to(SimTime::from_secs(40)));
            let session: Vec<_> = (engine.recorder().transmissions.iter())
                .filter(|t| t.class == TrafficClass::Session)
                .collect();
            // The source neither announces nor keeps a peer table.
            assert!(session.iter().all(|t| t.node != built.source));
            let source = engine.agent::<SrmMember>(built.source).unwrap();
            assert_eq!(source.session_peer_count(), 0);
            let session_tx = session.len();
            let peers: Vec<usize> = built
                .receivers
                .iter()
                .map(|&r| engine.agent::<SrmMember>(r).unwrap().session_peer_count())
                .collect();
            (session_tx, peers)
        };

        // Default off: zero session traffic, empty peer tables.
        let (tx_off, peers_off) = run(None, 1);
        assert_eq!(tx_off, 0);
        assert!(peers_off.iter().all(|&p| p == 0));

        // On: every receiver hears every other receiver — the O(n) state.
        let (tx_on, peers_on) = run(Some(SimDuration::from_millis(200)), 1);
        assert!(tx_on > 0);
        for &p in &peers_on {
            assert_eq!(p, built.receivers.len() - 1);
        }

        // A stride rotates announcers, thinning traffic but (over enough
        // rounds) still filling the tables.
        let (tx_strided, peers_strided) = run(Some(SimDuration::from_millis(200)), 2);
        assert!(tx_strided < tx_on);
        for &p in &peers_strided {
            assert_eq!(p, built.receivers.len() - 1);
        }
    }

    #[test]
    fn suppression_limits_duplicate_requests() {
        // On the chain with a lossy first link, a loss is shared by every
        // receiver; suppression should keep requests per loss well below
        // the receiver count.
        let cfg = SrmConfig {
            total_packets: 50,
            ..SrmConfig::default()
        };
        // Drop ~30% on the source-side link by rebuilding with loss.
        let mut b = sharqfec_netsim::TopologyBuilder::new();
        let ids = b.add_nodes("c", 8);
        for (i, w) in ids.windows(2).enumerate() {
            let loss = if i == 0 { 0.3 } else { 0.0 };
            b.add_link(
                w[0],
                w[1],
                sharqfec_netsim::LinkParams::new(
                    sharqfec_netsim::SimDuration::from_millis(20),
                    10_000_000,
                    loss,
                ),
            );
        }
        let mut builder: EngineBuilder<SrmMsg> = EngineBuilder::new(b.build(), 9);
        let chan = builder.add_channel(&ids);
        for &m in &ids {
            let member = SrmMember::new(cfg.clone(), chan, ids[0], ids.len());
            builder.add_agent_at(m, Box::new(member), SimTime::from_secs(1));
        }
        let mut engine = builder.build();
        engine.advance(RunSpec::to(SimTime::from_secs(120)));
        for &r in &ids[1..] {
            assert!(engine.agent::<SrmMember>(r).unwrap().complete());
        }
        let rec = engine.recorder();
        let losses = rec
            .drops
            .iter()
            .filter(|d| d.class == TrafficClass::Data)
            .count();
        let requests = rec
            .transmissions
            .iter()
            .filter(|t| t.class == TrafficClass::Nack)
            .count();
        assert!(losses > 0);
        // Without suppression each of 7 receivers would request every loss:
        // ~7 requests per loss. Demand substantially better.
        assert!(
            (requests as f64) < 3.0 * losses as f64,
            "suppression failing: {requests} requests for {losses} losses"
        );
    }
}

//! SHARQFEC — Scoped Hybrid Automatic Repeat reQuest with Forward Error
//! Correction (Kermode, SIGCOMM '98).
//!
//! The paper's contribution, implemented in full:
//!
//! * **Packet groups + FEC** — the source streams data in groups of `k`
//!   packets; any `k` distinct packets (data or FEC) reconstruct a group,
//!   so NACKs carry *how many* packets are missing, never which ones.
//! * **Two-phase delivery** — a Loss Detection Phase (LDP) while the group
//!   is on the wire, then a Repair Phase (RP); see [`agent`].
//! * **Scoped recovery** — one maximum-scope data channel plus a repair
//!   channel per administratively scoped zone.  NACKs start at the
//!   receiver's smallest zone and escalate outward after two attempts per
//!   zone; repairs stay inside the zone that needed them.
//! * **LLC/ZLC suppression** — receivers count their own losses (LLC) and
//!   track the worst loss reported per zone (ZLC); a NACK is suppressed
//!   whenever the receiver's LLC does not exceed the zone's known ZLC,
//!   because the FEC repairs provoked by the worse-off receiver cover
//!   everyone with fewer losses.
//! * **Preemptive injection** — Zone Closest Receivers inject
//!   `zlc_pred = 0.75·zlc_pred + 0.25·zlc` FEC packets into their zone as
//!   soon as they can reconstruct a group, before any NACK arrives.
//! * **Hierarchical session management** — embedded
//!   [`sharqfec_session::SessionCore`] provides the RTT estimates for all
//!   suppression timers and the ZCR identities for injection.
//!
//! The paper's §6.2 ablation ladder is one [`config::Variant`] (`full`,
//! `ni`, `ns`, `ns,ni`, `ns,ni,so`): the agent and the set-up ask it
//! whether zones are scoped, receivers repair and representatives inject.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod config;
pub mod group;
pub mod msg;
pub mod policy;
pub mod setup;

pub use agent::SfAgent;
pub use config::{SharqfecConfig, Variant, PACKET_BYTES, SEND_INTERVAL};
pub use msg::SfMsg;
pub use policy::{EwmaPolicy, OptimizingPolicy, PercentilePolicy, Policy, PolicyConfig};
pub use setup::{member_channels, setup_sharqfec_builder, setup_sharqfec_scenario_builder};

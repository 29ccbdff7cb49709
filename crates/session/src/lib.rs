//! SHARQFEC's scoped session management (paper §5, §5.1, §5.2).
//!
//! Reliable-multicast suppression timers need RTT estimates between
//! members.  SRM maintains them with O(n²) global session traffic; the
//! paper's key scalability contribution is doing it *hierarchically*:
//!
//! * every node exchanges full session announcements only inside its
//!   **smallest** administratively scoped zone;
//! * each zone elects a **Zone Closest Receiver (ZCR)** — the member
//!   closest to the parent zone's ZCR — which additionally participates in
//!   the parent zone's session;
//! * distances to remote nodes are **composed indirectly**: my distance to
//!   my chain of ancestral ZCRs, plus a ZCR-to-sibling-ZCR hop learned
//!   from my ZCR's announcements in its parent zone, plus the distance the
//!   remote sender attaches to its own packets.
//!
//! The result (paper Figure 8): session state per receiver collapses from
//! 10,000,210 entries to tens, and session traffic from O(n²) to
//! O(Σ n_α²) over the small per-zone populations.
//!
//! Layout:
//!
//! * [`msg`] — wire messages: announcements, ZCR challenge / response /
//!   takeover, and the measurement probe ("fake NACK") of §6.1;
//! * [`rtt`] — EWMA-merged RTT estimates and per-zone peer tables;
//! * [`core`] — [`SessionCore`], the engine-agnostic state machine, driven
//!   through the [`core::SessionCtx`] trait so both the standalone session
//!   agent and the full SHARQFEC agent can embed it; the protocol's
//!   constants (the paper's §5 staggering intervals among them) are
//!   private `const`s there, beside their readers;
//! * [`agent`] — a standalone netsim agent running only the session
//!   protocol, used to reproduce Figures 11–13 and the §6.1 election
//!   claims, and [`Bridge`], the one adapter from a netsim `Ctx` to
//!   [`core::SessionCtx`] that it and the SHARQFEC agent both use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod core;
pub mod msg;
pub mod reports;
pub mod rtt;

pub use crate::core::{SessionConfig, SessionCore, SessionCtx, ZcrSeeding};
pub use agent::{
    setup_session_builder, Bridge, ProbePlan, SessionAgent, SessionObservation, SessionWire,
};
pub use msg::{AncestorEntry, PeerEntry, SessionMsg};
pub use reports::LossReport;
pub use rtt::{PeerTable, RttEstimate};

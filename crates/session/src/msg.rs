//! Session wire messages.

use crate::reports::LossReport;
use sharqfec_netsim::{NodeId, SimDuration, SimTime};
use sharqfec_scoping::ZoneId;

/// One receiver line in a session announcement (paper §5: identity, time
/// elapsed since that receiver was last heard, and the sender's RTT
/// estimate to it).  We also echo the peer's own transmit timestamp so the
/// peer can close the RTT loop on its own clock, exactly as SRM's session
/// messages do.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerEntry {
    /// The peer being reported.
    pub peer: NodeId,
    /// Timestamp carried by the last message we received from `peer`.
    pub echo_sent_at: SimTime,
    /// Time elapsed on our clock between receiving that message and
    /// sending this announcement.
    pub elapsed: SimDuration,
    /// Our current RTT estimate to `peer`, if any.
    pub rtt_est: Option<SimDuration>,
}

/// A session announcement for one zone.
#[derive(Clone, Debug, PartialEq)]
pub struct Announce {
    /// The zone this announcement is addressed to (its session scope).
    pub zone: ZoneId,
    /// Sender's transmit timestamp.
    pub sent_at: SimTime,
    /// Sender's belief of this zone's ZCR.
    pub zcr: Option<NodeId>,
    /// Recorded one-way distance between this zone's ZCR and the parent
    /// zone's ZCR, if known (paper §5's third announcement field).
    pub zcr_to_parent: Option<SimDuration>,
    /// Summarized receiver report for the subtree this sender speaks for
    /// (the §7 RTCP-RR summarization extension): its own reception
    /// quality, merged — when it is a ZCR — with the reports heard in its
    /// child zone.
    pub report: Option<LossReport>,
    /// Per-peer report lines, **sorted by strictly ascending peer id** —
    /// an invariant of the message, not a convention: a receiver finds its
    /// own line by binary search, and a listener below copies the lines
    /// into its sorted sibling-ZCR table.  [`crate::rtt::PeerTable::entries`]
    /// builds them so without sorting, by walking its slots in member-rank
    /// order; `SessionCore` `debug_assert`s it on receipt.
    pub entries: Vec<PeerEntry>,
}

/// An ancestor-ZCR distance attached to outgoing non-session traffic
/// (paper §5: "the sending node includes estimates of the distance between
/// itself and each of the parent ZCRs that will hear the message").
/// Distances are one-way.
#[derive(Clone, Debug, PartialEq)]
pub struct AncestorEntry {
    /// The zone whose ZCR this entry names.
    pub zone: ZoneId,
    /// That zone's ZCR.
    pub zcr: NodeId,
    /// Sender's one-way distance estimate to that ZCR.
    pub dist: SimDuration,
}

/// Session-protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionMsg {
    /// Periodic announcement into one zone.
    Announce(Announce),
    /// ZCR challenge for `zone`, multicast into the *parent* zone so that
    /// the parent ZCR and all of `zone`'s members hear it (paper §5.2).
    ZcrChallenge {
        /// Zone whose representative is being (re)determined.
        zone: ZoneId,
        /// Issuing node (usually the sitting ZCR).
        challenger: NodeId,
        /// Challenger's current one-way distance estimate to the parent
        /// ZCR; `None` during bootstrap when it has never measured one.
        claimed_dist: Option<SimDuration>,
    },
    /// Parent ZCR's reply to a challenge, multicast into the parent zone.
    ZcrResponse {
        /// The zone the original challenge named.
        zone: ZoneId,
        /// The node that issued that challenge.
        challenger: NodeId,
        /// Delay between the responder receiving the challenge and sending
        /// this response ("containing the delay between when the ZCR
        /// challenge was received and the ZCR response was sent").
        hold: SimDuration,
    },
    /// New-representative declaration, multicast into both the zone and
    /// its parent (paper §5.2 sends two takeover packets).
    ZcrTakeover {
        /// The zone being taken over.
        zone: ZoneId,
        /// The new representative.
        new_zcr: NodeId,
        /// The new representative's one-way distance to the parent ZCR.
        dist_to_parent: SimDuration,
    },
    /// Measurement probe — the §6.1 experiment's "fake NACK", multicast at
    /// the largest scope carrying the sender's ancestor chain, so every
    /// other receiver can exercise indirect RTT estimation against ground
    /// truth.
    Probe {
        /// Probe sequence number (the experiment sends several to show the
        /// estimate converging).
        seq: u32,
        /// Sender's transmit timestamp.
        sent_at: SimTime,
        /// Sender's ancestor-ZCR distance chain, smallest zone first.
        chain: Vec<AncestorEntry>,
    },
}

impl SessionMsg {
    /// A short name for traces and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionMsg::Announce(_) => "announce",
            SessionMsg::ZcrChallenge { .. } => "zcr-challenge",
            SessionMsg::ZcrResponse { .. } => "zcr-response",
            SessionMsg::ZcrTakeover { .. } => "zcr-takeover",
            SessionMsg::Probe { .. } => "probe",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let msgs = [
            SessionMsg::Announce(Announce {
                zone: ZoneId(0),
                sent_at: SimTime::ZERO,
                zcr: None,
                zcr_to_parent: None,
                report: None,
                entries: vec![],
            }),
            SessionMsg::ZcrChallenge {
                zone: ZoneId(0),
                challenger: NodeId(1),
                claimed_dist: None,
            },
            SessionMsg::ZcrResponse {
                zone: ZoneId(0),
                challenger: NodeId(1),
                hold: SimDuration::ZERO,
            },
            SessionMsg::ZcrTakeover {
                zone: ZoneId(0),
                new_zcr: NodeId(1),
                dist_to_parent: SimDuration::ZERO,
            },
            SessionMsg::Probe {
                seq: 0,
                sent_at: SimTime::ZERO,
                chain: vec![],
            },
        ];
        let kinds: std::collections::HashSet<&str> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), msgs.len());
    }
}

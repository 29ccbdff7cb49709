//! RTT estimates and per-zone peer tables.

use crate::msg::PeerEntry;
use sharqfec_netsim::{IdHashMap, NodeId, SimDuration, SimTime};

/// One EWMA-merged RTT estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RttEstimate {
    rtt: SimDuration,
}

impl RttEstimate {
    /// Starts an estimate from a first sample.
    pub fn new(first: SimDuration) -> RttEstimate {
        RttEstimate { rtt: first }
    }

    /// Merges a new sample: `est ← (1-gain)·est + gain·sample` (paper §6.1:
    /// "new measurements are merged with the old using an exponential
    /// weighted moving average filter").
    pub fn merge(&mut self, sample: SimDuration, gain: f64) {
        debug_assert!((0.0..=1.0).contains(&gain));
        let old = self.rtt.as_secs_f64();
        let new = old + gain * (sample.as_secs_f64() - old);
        self.rtt = SimDuration::from_secs_f64(new.max(0.0));
    }

    /// The current estimate.
    pub fn rtt(&self) -> SimDuration {
        self.rtt
    }

    /// One-way distance (RTT / 2), the unit the ZCR-challenge arithmetic
    /// works in.
    pub fn one_way(&self) -> SimDuration {
        self.rtt / 2
    }
}

/// Echo bookkeeping plus RTT estimate for one peer: 24 bytes, so a peer
/// table bucket is 32.
#[derive(Clone, Debug)]
pub struct PeerState {
    /// Timestamp carried in the peer's last message.
    pub last_sent_at: SimTime,
    /// Our local time when that message arrived.
    pub last_recv_at: SimTime,
    /// Merged RTT estimate, or [`PeerState::NO_RTT`] until an echo has
    /// closed the loop — a sentinel, not an `Option`, whose tag would pad
    /// the record to 40 bytes.
    rtt: SimDuration,
}
const _: () = assert!(std::mem::size_of::<PeerState>() == 24);

impl PeerState {
    /// "No estimate yet."  No sample reaches it: an RTT of 2⁶⁴ ns is 584
    /// years.
    const NO_RTT: SimDuration = SimDuration::MAX;

    /// Merged RTT estimate, if at least one echo has closed the loop.
    pub fn rtt(&self) -> Option<RttEstimate> {
        (self.rtt != Self::NO_RTT).then_some(RttEstimate { rtt: self.rtt })
    }

    /// Merges an RTT sample for this peer.
    ///
    /// Reached only through the state [`PeerTable::heard`] hands back: a
    /// sample closes an echo loop, so its peer has been heard.  There is
    /// deliberately no create-if-missing variant — a peer fabricated
    /// without ever being heard would carry `last_sent_at = 0`, which the
    /// next announcement would echo for that peer to read as an RTT the
    /// size of its whole clock.
    pub fn sample(&mut self, rtt: SimDuration, gain: f64) {
        self.rtt = match self.rtt() {
            Some(mut est) => {
                est.merge(rtt, gain);
                est.rtt
            }
            None => rtt,
        };
    }
}

/// The session table a node keeps for one zone it participates in: echo
/// state and RTT estimates for every peer heard there.
#[derive(Clone, Debug, Default)]
pub struct PeerTable {
    peers: IdHashMap<NodeId, PeerState>,
}

impl PeerTable {
    /// Empty table.
    pub fn new() -> PeerTable {
        PeerTable::default()
    }

    /// Records that `peer` was heard `now`, with its carried timestamp,
    /// and returns its state — the one lookup an announcement costs; the
    /// RTT sample it may close lands through the same reference.
    pub fn heard(&mut self, peer: NodeId, sent_at: SimTime, now: SimTime) -> &mut PeerState {
        let entry = self.peers.entry(peer).or_insert(PeerState {
            last_sent_at: sent_at,
            last_recv_at: now,
            rtt: PeerState::NO_RTT,
        });
        entry.last_sent_at = sent_at;
        entry.last_recv_at = now;
        entry
    }

    /// Current RTT estimate to `peer`.
    pub fn rtt(&self, peer: NodeId) -> Option<SimDuration> {
        self.peers.get(&peer)?.rtt().map(|e| e.rtt())
    }

    /// Echo state for `peer`.
    pub fn state(&self, peer: NodeId) -> Option<&PeerState> {
        self.peers.get(&peer)
    }

    /// Number of tracked peers — the paper's "state per receiver" metric
    /// (Figure 8 counts exactly these entries).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Approximate resident heap bytes of this table, for the scaling
    /// harness's per-receiver state accounting (Figure 8's entry count
    /// converted to memory).
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.peers.capacity() * (size_of::<NodeId>() + size_of::<PeerState>() + size_of::<u64>())
    }

    /// Largest RTT estimate in the table (used for the paper's
    /// "2.5 × RTT to the most distant known receiver" ZLC window).
    pub fn max_rtt(&self) -> Option<SimDuration> {
        self.peers
            .values()
            .filter_map(|p| p.rtt().map(|e| e.rtt()))
            .max()
    }

    /// Most recent local time any peer in the table was heard, if the
    /// table is non-empty.  Used as zone-connectivity evidence: a node
    /// that has heard nobody in a zone for a whole liveness window is
    /// on the wrong side of a partition from it.
    pub fn last_heard(&self) -> Option<SimTime> {
        self.peers.values().map(|p| p.last_recv_at).max()
    }

    /// Drops peers not heard from since `cutoff`.
    pub fn expire(&mut self, cutoff: SimTime) {
        self.peers.retain(|_, p| p.last_recv_at >= cutoff);
    }

    /// Builds announcement entries for every tracked peer (paper §5's
    /// receiver list), deterministically ordered by peer id.
    pub fn entries(&self, now: SimTime) -> Vec<PeerEntry> {
        // The one `Vec` the announcement carries, sorted where it lies.
        let mut entries: Vec<PeerEntry> = self
            .peers
            .iter()
            .map(|(&peer, p)| PeerEntry {
                peer,
                echo_sent_at: p.last_sent_at,
                elapsed: now.saturating_since(p.last_recv_at),
                rtt_est: p.rtt().map(|e| e.rtt()),
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.peer);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn estimate_converges_to_constant_input() {
        let mut e = RttEstimate::new(ms(100));
        for _ in 0..20 {
            e.merge(ms(40), 0.5);
        }
        let err = (e.rtt().as_secs_f64() - 0.040).abs();
        assert!(err < 1e-4, "estimate {:?} should approach 40ms", e.rtt());
    }

    #[test]
    fn gain_one_overwrites_gain_zero_freezes() {
        let mut e = RttEstimate::new(ms(100));
        e.merge(ms(10), 1.0);
        assert_eq!(e.rtt(), ms(10));
        e.merge(ms(500), 0.0);
        assert_eq!(e.rtt(), ms(10));
    }

    #[test]
    fn one_way_is_half_rtt() {
        let e = RttEstimate::new(ms(80));
        assert_eq!(e.one_way(), ms(40));
    }

    #[test]
    fn table_heard_then_sample_round_trip() {
        let mut t = PeerTable::new();
        let p = NodeId(7);
        t.heard(p, at(100), at(130));
        assert_eq!(t.rtt(p), None);
        t.heard(p, at(100), at(130)).sample(ms(60), 0.5);
        assert_eq!(t.rtt(p), Some(ms(60)));
        t.heard(p, at(110), at(140)).sample(ms(20), 0.5);
        assert_eq!(t.rtt(p), Some(ms(40)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn entries_echo_the_right_fields() {
        let mut t = PeerTable::new();
        t.heard(NodeId(3), at(100), at(120)).sample(ms(50), 0.5);
        t.heard(NodeId(1), at(90), at(95));
        let entries = t.entries(at(200));
        assert_eq!(entries.len(), 2);
        // sorted by peer id
        assert_eq!(entries[0].peer, NodeId(1));
        assert_eq!(entries[0].echo_sent_at, at(90));
        assert_eq!(entries[0].elapsed, ms(105));
        assert_eq!(entries[0].rtt_est, None);
        assert_eq!(entries[1].peer, NodeId(3));
        assert_eq!(entries[1].elapsed, ms(80));
        assert_eq!(entries[1].rtt_est, Some(ms(50)));
    }

    #[test]
    fn entries_stay_sorted_by_peer_id_whatever_the_map_order() {
        let mut t = PeerTable::new();
        // 257 ids in a scrambled insertion order, every third with an RTT.
        for i in 0..257u64 {
            let peer = NodeId((i * 101 % 257) as u32);
            let state = t.heard(peer, at(i), at(i + 1));
            if i % 3 == 0 {
                state.sample(ms(i), 0.5);
            }
        }
        t.expire(at(10));
        let entries = t.entries(at(1_000));
        assert_eq!(entries.len(), t.len());
        assert!(entries.windows(2).all(|w| w[0].peer < w[1].peer));
        for e in &entries {
            let p = t.state(e.peer).unwrap();
            assert_eq!(e.echo_sent_at, p.last_sent_at);
            assert_eq!(e.elapsed, at(1_000).saturating_since(p.last_recv_at));
            assert_eq!(e.rtt_est, t.rtt(e.peer));
        }
    }

    #[test]
    fn expiry_drops_stale_peers() {
        let mut t = PeerTable::new();
        t.heard(NodeId(1), at(0), at(10));
        t.heard(NodeId(2), at(0), at(500));
        t.expire(at(100));
        assert_eq!(t.len(), 1);
        assert!(t.state(NodeId(2)).is_some());
        assert!(t.state(NodeId(1)).is_none());
    }

    #[test]
    fn max_rtt_tracks_most_distant_peer() {
        let mut t = PeerTable::new();
        assert_eq!(t.max_rtt(), None);
        t.heard(NodeId(1), at(0), at(0)).sample(ms(30), 0.5);
        t.heard(NodeId(2), at(0), at(0)).sample(ms(90), 0.5);
        t.heard(NodeId(3), at(0), at(0)).sample(ms(60), 0.5);
        assert_eq!(t.max_rtt(), Some(ms(90)));
    }

    #[test]
    fn heard_updates_do_not_clear_estimates() {
        let mut t = PeerTable::new();
        t.heard(NodeId(1), at(0), at(0)).sample(ms(40), 0.5);
        t.heard(NodeId(1), at(100), at(110));
        assert_eq!(t.rtt(NodeId(1)), Some(ms(40)));
        let st = t.state(NodeId(1)).unwrap();
        assert_eq!(st.last_sent_at, at(100));
        assert_eq!(st.last_recv_at, at(110));
    }
}

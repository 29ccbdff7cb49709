//! RTT estimates and per-zone peer tables: one [`PeerState`] slot per
//! zone member, found by the member's rank in the zone's sorted member
//! list (`scoping::Zone::members`), which every table call is passed.

use crate::msg::PeerEntry;
use sharqfec_netsim::{NodeId, SimDuration, SimTime};

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

/// Echo bookkeeping plus RTT estimate for one peer: 24 bytes, the whole
/// of a peer table slot.
#[derive(Clone, Debug)]
pub struct PeerState {
    /// Timestamp carried in the peer's last message.
    pub last_sent_at: SimTime,
    /// Our local time when that message arrived (`SimTime::MAX` only in
    /// a slot whose peer the table does not hold, which no reader sees).
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

    /// The slot of a peer not (or no longer) in the table: heard at a
    /// time no clock reaches, like SRM's `NEVER`, and without an estimate.
    const UNHEARD: PeerState = PeerState {
        last_sent_at: SimTime::ZERO,
        last_recv_at: SimTime::MAX,
        rtt: Self::NO_RTT,
    };

    fn is_heard(&self) -> bool {
        self.last_recv_at != SimTime::MAX
    }

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
///
/// Finding a peer is one binary search in `members` — warm in cache, since
/// the whole zone reads that list — then one slot load.  The slots are
/// allocated at their exact size when the first peer is heard, so a level
/// the node never participates in holds nothing; a slot whose peer was
/// never heard or has expired holds the `UNHEARD` sentinel.
#[derive(Clone, Debug, Default)]
pub struct PeerTable {
    slots: Vec<PeerState>,
    /// Heard slots, counted so [`PeerTable::len`] costs nothing.
    len: usize,
}

impl PeerTable {
    /// Records that `peer` was heard `now`, with its carried timestamp,
    /// and returns its state — the one lookup an announcement costs; the
    /// RTT sample it may close lands through the same reference.  `None`,
    /// and no change, for a peer missing from `members`.
    pub fn heard(
        &mut self,
        peer: NodeId,
        members: &[NodeId],
        sent_at: SimTime,
        now: SimTime,
    ) -> Option<&mut PeerState> {
        let rank = members.binary_search(&peer).ok()?;
        if self.slots.is_empty() {
            self.slots = vec![PeerState::UNHEARD; members.len()];
        }
        debug_assert_eq!(self.slots.len(), members.len(), "one zone per table");
        let slot = &mut self.slots[rank];
        self.len += usize::from(!slot.is_heard());
        slot.last_sent_at = sent_at;
        slot.last_recv_at = now;
        Some(slot)
    }

    /// Current RTT estimate to `peer`.
    pub fn rtt(&self, peer: NodeId, members: &[NodeId]) -> Option<SimDuration> {
        self.state(peer, members)?.rtt().map(|e| e.rtt())
    }

    /// Echo state for `peer`.
    pub fn state(&self, peer: NodeId, members: &[NodeId]) -> Option<&PeerState> {
        let rank = members.binary_search(&peer).ok()?;
        self.slots.get(rank).filter(|p| p.is_heard())
    }

    /// Number of tracked peers — the paper's "state per receiver" metric
    /// (Figure 8 counts exactly these entries).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident heap bytes of this table, for the scaling harness's
    /// per-receiver state accounting (Figure 8's entry count converted to
    /// memory): one slot per zone member once any peer has been heard.
    pub fn state_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<PeerState>()
    }

    /// Largest RTT estimate in the table (used for the paper's
    /// "2.5 × RTT to the most distant known receiver" ZLC window).
    pub fn max_rtt(&self) -> Option<SimDuration> {
        // An unheard slot carries no estimate, so every slot may be read.
        self.slots
            .iter()
            .filter_map(|p| p.rtt().map(|e| e.rtt()))
            .max()
    }

    /// Most recent local time any peer in the table was heard, if the
    /// table is non-empty.  Used as zone-connectivity evidence: a node
    /// that has heard nobody in a zone for a whole liveness window is
    /// on the wrong side of a partition from it.
    pub fn last_heard(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .filter(|p| p.is_heard())
            .map(|p| p.last_recv_at)
            .max()
    }

    /// Drops peers not heard from since `cutoff`.
    pub fn expire(&mut self, cutoff: SimTime) {
        for slot in &mut self.slots {
            if slot.is_heard() && slot.last_recv_at < cutoff {
                *slot = PeerState::UNHEARD;
                self.len -= 1;
            }
        }
    }

    /// Builds announcement entries for every tracked peer (paper §5's
    /// receiver list), ordered by peer id: rank order is id order.
    pub fn entries(&self, members: &[NodeId], now: SimTime) -> Vec<PeerEntry> {
        let mut entries = Vec::with_capacity(self.len);
        for (&peer, p) in members.iter().zip(&self.slots) {
            if p.is_heard() {
                entries.push(PeerEntry {
                    peer,
                    echo_sent_at: p.last_sent_at,
                    elapsed: now.saturating_since(p.last_recv_at),
                    rtt_est: p.rtt().map(|e| e.rtt()),
                });
            }
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }
    /// Member `p` of zone `m` heard in `t`: carried time `s`, arrival `r`.
    fn hear<'a>(t: &'a mut PeerTable, m: &[NodeId], p: u32, s: u64, r: u64) -> &'a mut PeerState {
        t.heard(NodeId(p), m, at(s), at(r)).expect("a zone member")
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
        let (mut t, m) = (PeerTable::default(), [2, 7, 9].map(NodeId));
        let p = NodeId(7);
        t.heard(p, &m, at(100), at(130));
        assert_eq!(t.rtt(p, &m), None);
        hear(&mut t, &m, 7, 100, 130).sample(ms(60), 0.5);
        assert_eq!(t.rtt(p, &m), Some(ms(60)));
        hear(&mut t, &m, 7, 110, 140).sample(ms(20), 0.5);
        assert_eq!(t.rtt(p, &m), Some(ms(40)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn entries_echo_the_right_fields() {
        let (mut t, m) = (PeerTable::default(), [1, 2, 3].map(NodeId));
        hear(&mut t, &m, 3, 100, 120).sample(ms(50), 0.5);
        t.heard(NodeId(1), &m, at(90), at(95));
        let entries = t.entries(&m, at(200));
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
        let m: Vec<NodeId> = (0..257).map(NodeId).collect();
        let mut t = PeerTable::default();
        // 257 ids in a scrambled insertion order, every third with an RTT.
        for i in 0..257u64 {
            let state = hear(&mut t, &m, (i * 101 % 257) as u32, i, i + 1);
            if i % 3 == 0 {
                state.sample(ms(i), 0.5);
            }
        }
        t.expire(at(10));
        let entries = t.entries(&m, at(1_000));
        assert_eq!(entries.len(), t.len());
        assert!(entries.windows(2).all(|w| w[0].peer < w[1].peer));
        for e in &entries {
            let p = t.state(e.peer, &m).unwrap();
            assert_eq!(e.echo_sent_at, p.last_sent_at);
            assert_eq!(e.elapsed, at(1_000).saturating_since(p.last_recv_at));
            assert_eq!(e.rtt_est, t.rtt(e.peer, &m));
        }
    }

    #[test]
    fn expiry_drops_stale_peers() {
        let (mut t, m) = (PeerTable::default(), [1, 2].map(NodeId));
        t.heard(NodeId(1), &m, at(0), at(10));
        t.heard(NodeId(2), &m, at(0), at(500));
        t.expire(at(100));
        assert_eq!(t.len(), 1);
        assert!(t.state(NodeId(2), &m).is_some());
        assert!(t.state(NodeId(1), &m).is_none());
    }

    #[test]
    fn max_rtt_tracks_most_distant_peer() {
        let (mut t, m) = (PeerTable::default(), [1, 2, 3].map(NodeId));
        assert_eq!(t.max_rtt(), None);
        hear(&mut t, &m, 1, 0, 0).sample(ms(30), 0.5);
        hear(&mut t, &m, 2, 0, 0).sample(ms(90), 0.5);
        hear(&mut t, &m, 3, 0, 0).sample(ms(60), 0.5);
        assert_eq!(t.max_rtt(), Some(ms(90)));
    }

    #[test]
    fn heard_updates_do_not_clear_estimates() {
        let (mut t, m) = (PeerTable::default(), [1].map(NodeId));
        hear(&mut t, &m, 1, 0, 0).sample(ms(40), 0.5);
        t.heard(NodeId(1), &m, at(100), at(110));
        assert_eq!(t.rtt(NodeId(1), &m), Some(ms(40)));
        let st = t.state(NodeId(1), &m).unwrap();
        assert_eq!(st.last_sent_at, at(100));
        assert_eq!(st.last_recv_at, at(110));
    }

    proptest::proptest! {
        /// The slot table against a `BTreeMap` keyed by peer: random zones
        /// (ids in 0..64), random `heard` (with and without an RTT sample,
        /// members and outsiders) and `expire`.
        #[test]
        fn table_matches_a_map_model(
            mut ids in proptest::collection::vec(0u32..64, 0..12),
            ops in proptest::collection::vec((0u8..3, 0u32..64, 0u64..50, 1u64..80), 0..60),
        ) {
            ids.sort_unstable();
            ids.dedup();
            let m: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
            let (mut t, mut model) = (PeerTable::default(), BTreeMap::<NodeId, PeerState>::new());
            let mut now = 0;
            for (op, id, dt, v) in ops {
                now += dt;
                if op == 2 {
                    t.expire(at(now.saturating_sub(v)));
                    model.retain(|_, p| p.last_recv_at >= at(now.saturating_sub(v)));
                } else {
                    let got = t.heard(NodeId(id), &m, at(v), at(now));
                    assert_eq!(got.is_some(), m.contains(&NodeId(id)));
                    if let Some(got) = got {
                        let want = model.entry(NodeId(id)).or_insert(PeerState::UNHEARD);
                        (want.last_sent_at, want.last_recv_at) = (at(v), at(now));
                        if op == 1 {
                            got.sample(ms(v), 0.5);
                            want.sample(ms(v), 0.5);
                        }
                    }
                }
                let entries: Vec<PeerEntry> = model.iter().map(|(&peer, p)| PeerEntry {
                    peer,
                    echo_sent_at: p.last_sent_at,
                    elapsed: at(now).saturating_since(p.last_recv_at),
                    rtt_est: p.rtt().map(|e| e.rtt()),
                }).collect();
                assert_eq!(t.entries(&m, at(now)), entries);
                assert_eq!((t.len(), t.is_empty()), (model.len(), model.is_empty()));
                let view = |p: &PeerState| (p.last_sent_at, p.last_recv_at, p.rtt().map(|e| e.rtt()));
                for peer in (0..64).map(NodeId) {
                    let want = model.get(&peer).map(view);
                    assert_eq!(t.state(peer, &m).map(view), want);
                    assert_eq!(t.rtt(peer, &m), want.and_then(|w| w.2));
                }
                let max_rtt = model.values().filter_map(|p| view(p).2).max();
                let last_heard = model.values().map(|p| p.last_recv_at).max();
                assert_eq!((t.max_rtt(), t.last_heard()), (max_rtt, last_heard));
            }
        }
    }
}

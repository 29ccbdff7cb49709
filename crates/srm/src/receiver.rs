//! The SRM member, the one state machine every session member runs: gap
//! detection, suppressed requests, peer repairs.  The source is the member
//! that holds every packet: it sends the CBR stream instead of auditing
//! for losses, and answers requests like any other holder.

use crate::config::SrmConfig;
use crate::msg::SrmMsg;
use crate::replier::Replier;
use crate::DELAY_HIGH;
use sharqfec_netsim::adaptive::AdaptiveTimer;
use sharqfec_netsim::prelude::*;

/// The five timer kinds.  A token holds its kind in the high 32 bits and,
/// for a request or repair timer, the sequence number in the low 32.
const SEND: u64 = 0;
const REQUEST: u64 = 1;
const REPAIR: u64 = 2;
const AUDIT: u64 = 3;
const ANNOUNCE: u64 = 4;
const TOK_SEND: u64 = SEND << 32;
const TOK_REQ_BASE: u64 = REQUEST << 32;
const TOK_REP_BASE: u64 = REPAIR << 32;
const TOK_AUDIT: u64 = AUDIT << 32;
const TOK_ANNOUNCE: u64 = ANNOUNCE << 32;

/// Data/repair packet size, bytes.
const PACKET_BYTES: u32 = 1000;
/// Inter-packet interval of the CBR source (10 ms = 800 kbit/s at
/// 1000 B).
const SEND_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Initial request-timer window factors `[C1·d, (C1+C2)·d]`.
const C1: f64 = 2.0;
const C2: f64 = 2.0;
/// Request (NACK) packet size, bytes.
const REQUEST_BYTES: u32 = 40;
/// Session announcement packet size, bytes.
const ANNOUNCE_BYTES: u32 = 40;
/// How often receivers audit for tail losses after the stream should have
/// ended (as a multiple of [`SEND_INTERVAL`]).
const AUDIT_FACTOR: f64 = 10.0;

/// Backoff exponent cap: 2^7 × window tops out around tens of seconds on
/// the paper topology, keeping the repair tail finite within a simulation
/// horizon while still backing off aggressively.
const MAX_BACKOFF: u32 = 7;

/// A `session_peers` slot whose member has not been heard announcing.
const NEVER: SimTime = SimTime::MAX;

#[derive(Clone, Debug)]
struct ReqState {
    timer: TimerId,
    /// Backoff exponent `i` in `2^i · [C1·d, (C1+C2)·d]`.
    i: u32,
    /// When the loss was first detected (for delay adaptation).
    detected_at: SimTime,
    /// Whether an overheard duplicate request already backed this timer
    /// off in the current round.  SRM backs off *once* per round — a
    /// shared upstream loss makes all ~n receivers request, and bumping
    /// `i` per overheard duplicate would instantly push the timer out by
    /// 2^n and deadlock recovery.
    backed_off: bool,
}

/// SRM member agent; the one placed at `source` sends the stream.
#[derive(Clone, Debug)]
pub struct SrmMember {
    cfg: SrmConfig,
    chan: ChannelId,
    source: NodeId,
    /// Packets held; at the source, those sent so far.
    received: Vec<bool>,
    received_count: u32,
    /// Highest sequence number known to exist (from data, repairs, or
    /// others' requests); `None` before anything is heard.
    max_seen: Option<u32>,
    requests: IdHashMap<u32, ReqState>,
    req_params: AdaptiveTimer,
    /// Repairs this member owes for packets it holds.
    replier: Replier,
    /// Session-layer peer table, indexed by member id: when each announcer
    /// was last heard, [`NEVER`] if not.  Global announcements make it O(n)
    /// — the state SRM's session protocol requires and the scale sweep
    /// measures.  Sized `nodes`, allocated on the first announcement heard.
    session_peers: Vec<SimTime>,
    /// Distinct announcers in `session_peers`.
    session_peer_count: u32,
    /// Member ids in the topology: the peer table's length.
    nodes: usize,
    /// Which announce rotation round comes next (see
    /// `SrmConfig::announce_stride`).
    announce_round: u64,
}

impl SrmMember {
    /// Creates a member of a session whose `cfg.total_packets` packets
    /// come from `source`, on a topology of `nodes` members.
    pub fn new(cfg: SrmConfig, chan: ChannelId, source: NodeId, nodes: usize) -> SrmMember {
        let req_params = AdaptiveTimer::new(C1, C2, true, DELAY_HIGH);
        SrmMember {
            received: vec![false; cfg.total_packets as usize],
            replier: Replier::new(),
            cfg,
            chan,
            source,
            received_count: 0,
            max_seen: None,
            requests: IdHashMap::default(),
            req_params,
            session_peers: Vec::new(),
            session_peer_count: 0,
            nodes,
            announce_round: 0,
        }
    }

    /// Whether every packet has been received or repaired.
    pub fn complete(&self) -> bool {
        self.received_count == self.cfg.total_packets
    }

    /// Number of packets still missing.
    pub fn missing(&self) -> u32 {
        self.cfg.total_packets - self.received_count
    }

    /// Distinct peers heard via session announcements.
    pub fn session_peer_count(&self) -> usize {
        self.session_peer_count as usize
    }

    fn is_source(&self, ctx: &Ctx<'_, SrmMsg>) -> bool {
        ctx.node() == self.source
    }

    /// When the session layer stops announcing: the same deadline the
    /// tail-loss audit uses, so a quiescent run still terminates.
    fn stream_end(&self) -> SimTime {
        self.cfg.data_start
            + SEND_INTERVAL * self.cfg.total_packets as u64
            + SEND_INTERVAL.mul_f64(AUDIT_FACTOR)
    }

    fn d_sa(&self, ctx: &Ctx<'_, SrmMsg>) -> SimDuration {
        ctx.one_way(self.source)
    }

    fn request_delay(&mut self, ctx: &mut Ctx<'_, SrmMsg>, i: u32) -> SimDuration {
        let d = self.d_sa(ctx);
        let factor = ctx.rng().range_f64(
            self.req_params.lo(),
            self.req_params.lo() + self.req_params.width(),
        );
        d.mul_f64(factor) * (1u64 << i.min(MAX_BACKOFF))
    }

    /// Starts the request timer for a newly detected loss.
    fn detect_loss(&mut self, ctx: &mut Ctx<'_, SrmMsg>, seq: u32) {
        if self.received[seq as usize] || self.requests.contains_key(&seq) {
            return;
        }
        let delay = self.request_delay(ctx, 0);
        let timer = ctx.set_timer(delay, TOK_REQ_BASE | seq as u64);
        self.requests.insert(
            seq,
            ReqState {
                timer,
                i: 0,
                detected_at: ctx.now(),
                backed_off: false,
            },
        );
    }

    /// Re-arms the pending request for `seq` one back-off step further out
    /// (`i + 1`, capped); `backed_off` records whether an overheard
    /// duplicate, not our own request, moved it.
    fn back_off(&mut self, ctx: &mut Ctx<'_, SrmMsg>, seq: u32, backed_off: bool) {
        let i = (self.requests[&seq].i + 1).min(MAX_BACKOFF);
        let delay = self.request_delay(ctx, i);
        let timer = ctx.set_timer(delay, TOK_REQ_BASE | seq as u64);
        let req = self.requests.get_mut(&seq).expect("still present");
        req.i = i;
        req.timer = timer;
        req.backed_off = backed_off;
    }

    /// Notes that `upto` exists, detecting any gaps below it.  The source
    /// has sent everything that exists, so it has no gaps to detect.
    fn note_exists(&mut self, ctx: &mut Ctx<'_, SrmMsg>, upto: u32) {
        if self.is_source(ctx) {
            return;
        }
        let start = match self.max_seen {
            Some(m) if m >= upto => return,
            Some(m) => m + 1,
            None => 0,
        };
        self.max_seen = Some(upto);
        for seq in start..=upto {
            if !self.received[seq as usize] {
                self.detect_loss(ctx, seq);
            }
        }
    }

    /// Marks a packet as held (data or cached repair).
    fn accept(&mut self, ctx: &mut Ctx<'_, SrmMsg>, seq: u32) {
        if seq >= self.cfg.total_packets {
            return; // defensive: stray sequence number
        }
        self.note_exists(ctx, seq);
        if !self.received[seq as usize] {
            self.received[seq as usize] = true;
            self.received_count += 1;
        }
        // Recovery round ends for this packet.
        if let Some(req) = self.requests.remove(&seq) {
            ctx.cancel_timer(req.timer);
            let waited = ctx.now().saturating_since(req.detected_at).as_secs_f64();
            let d = self.d_sa(ctx).as_secs_f64().max(1e-9);
            self.req_params.end_round(waited / d);
            ctx.probe(ProbeEvent::Window {
                lo: self.req_params.lo(),
                width: self.req_params.width(),
                ave_dup: self.req_params.ave_dup(),
                ave_delay: self.req_params.ave_delay(),
            });
        }
    }
}

impl Agent<SrmMsg> for SrmMember {
    fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let map = |cap: usize, v: usize| cap * (size_of::<u32>() + v + size_of::<u64>());
        size_of::<SrmMember>()
            + self.received.capacity() * size_of::<bool>()
            + map(self.requests.capacity(), size_of::<ReqState>())
            + self.replier.heap_bytes()
            // The session-layer peer table: the O(n) share of this
            // member's state (zero until an announcement is heard).
            + self.session_peers.capacity() * size_of::<SimTime>()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, SrmMsg>) {
        if self.is_source(ctx) {
            let delay = self.cfg.data_start.saturating_since(ctx.now());
            ctx.set_timer(delay, TOK_SEND);
            return;
        }
        // Audit for tail losses after the stream should have ended: the
        // receiver knows the advertised stream length and rate, mirroring
        // SHARQFEC's use of the advertised channel bandwidth for its LDP
        // estimate.
        let delay = self.stream_end().saturating_since(ctx.now());
        ctx.set_timer(delay, TOK_AUDIT);
        if let Some(iv) = self.cfg.session_announce {
            // Desynchronise announcers with a uniform phase so a round is
            // spread over the interval rather than bursting at one instant.
            let phase = iv.mul_f64(ctx.rng().range_f64(0.0, 1.0));
            ctx.set_timer(phase, TOK_ANNOUNCE);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SrmMsg>, token: u64) {
        let seq = token as u32;
        match token >> 32 {
            SEND => {
                // The source sends its next packet, and holds it from now on.
                let seq = self.received_count;
                ctx.multicast(self.chan, SrmMsg::Data { seq }, PACKET_BYTES);
                self.received[seq as usize] = true;
                self.received_count += 1;
                if !self.complete() {
                    ctx.set_timer(SEND_INTERVAL, TOK_SEND);
                }
            }
            ANNOUNCE => {
                let Some(iv) = self.cfg.session_announce else {
                    return;
                };
                let stride = self.cfg.announce_stride;
                if (u64::from(ctx.node().0) + self.announce_round).is_multiple_of(stride) {
                    ctx.multicast(self.chan, SrmMsg::Announce, ANNOUNCE_BYTES);
                }
                self.announce_round += 1;
                // Announce for the life of the stream, then stop so quiescent
                // runs still drain their event queues.
                if ctx.now() < self.stream_end() {
                    ctx.set_timer(iv, TOK_ANNOUNCE);
                }
            }
            AUDIT => {
                if !self.complete() {
                    // Anything never even heard of is a tail loss.
                    let last = self.cfg.total_packets - 1;
                    self.note_exists(ctx, last);
                    ctx.set_timer(SEND_INTERVAL.mul_f64(AUDIT_FACTOR), TOK_AUDIT);
                }
            }
            REPAIR => {
                // Repair timer fired: transmit if still unsuppressed.
                if self.replier.fire(ctx, seq) {
                    ctx.multicast(self.chan, SrmMsg::Repair { seq }, PACKET_BYTES);
                }
            }
            REQUEST => {
                if self.received[seq as usize] {
                    self.requests.remove(&seq);
                    return;
                }
                if !self.requests.contains_key(&seq) {
                    return;
                }
                ctx.multicast(self.chan, SrmMsg::Request { seq }, REQUEST_BYTES);
                // SRM has one flat scope and no ZLC; `group` carries the sequence
                // number and the counts carry what the protocol actually tracks.
                ctx.probe(ProbeEvent::Nack {
                    group: seq,
                    level: 0,
                    outcome: NackOutcome::Sent,
                    llc: self.missing(),
                    zlc: 0,
                });
                // Back off and wait for the repair; re-request if it never comes.
                // A fresh round starts: overheard duplicates may back it off once.
                self.back_off(ctx, seq, false);
            }
            _ => unreachable!("timer token {token:#x} has no kind"),
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, SrmMsg>, pkt: &Packet<SrmMsg>) {
        match pkt.payload {
            SrmMsg::Data { seq } => self.accept(ctx, seq),
            SrmMsg::Repair { seq } => {
                // Cache the repair and suppress our own pending one.
                self.replier.heard_repair(ctx, seq);
                self.accept(ctx, seq);
            }
            SrmMsg::Request { seq } => {
                if seq >= self.cfg.total_packets {
                    return;
                }
                // A request reveals the packet exists.
                self.note_exists(ctx, seq);
                if self.received[seq as usize] {
                    let token = TOK_REP_BASE | seq as u64;
                    self.replier.schedule(ctx, seq, pkt.src, token);
                } else if let Some(req) = self.requests.get(&seq) {
                    let (timer, backed_off) = (req.timer, req.backed_off);
                    // Duplicate-request suppression: exponential backoff
                    // and timer reset (SRM §IV) — at most once per round,
                    // or a shared upstream loss heard from ~n peers would
                    // multiply the delay by 2^n and deadlock recovery.
                    self.req_params.saw_duplicate();
                    ctx.probe(ProbeEvent::Nack {
                        group: seq,
                        level: 0,
                        outcome: NackOutcome::SuppressedDuplicate,
                        llc: self.missing(),
                        zlc: 0,
                    });
                    if !backed_off {
                        ctx.cancel_timer(timer);
                        self.back_off(ctx, seq, true);
                    }
                }
            }
            // The source keeps no peer table: the scale sweep measures
            // the receivers' session state.
            SrmMsg::Announce if self.is_source(ctx) => {}
            SrmMsg::Announce => {
                if self.session_peers.is_empty() {
                    self.session_peers = vec![NEVER; self.nodes];
                }
                let heard = &mut self.session_peers[pkt.src.idx()];
                if *heard == NEVER {
                    self.session_peer_count += 1;
                }
                *heard = ctx.now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replier::{D1, D2, REPAIR_HOLDOFF_FACTOR};
    use sharqfec_netsim::agent::Action;
    use sharqfec_netsim::routing::DistanceOracle;
    use sharqfec_netsim::testkit::Rig;
    use sharqfec_topology::BuiltTopology;

    /// A member at `node` of `built` at time `secs`, with no engine and
    /// no network.
    fn member(built: &BuiltTopology, node: NodeId, secs: u64) -> Rig<SrmMember> {
        let nodes = built.topology.node_count();
        Rig {
            agent: SrmMember::new(SrmConfig::default(), ChannelId(0), built.source, nodes),
            node,
            now: SimTime::from_secs(secs),
            rng: SimRng::new(3),
            oracle: DistanceOracle::compute(&built.topology),
            next_timer: 0,
            probes: ProbeSink::default(),
        }
    }

    /// SRM §IV backs a request off when a duplicate is overheard — once
    /// per round.  A shared upstream loss makes every peer request; the
    /// later duplicates of a round must leave the timer alone, and the
    /// round after this receiver's own request may back off once more.
    #[test]
    fn overheard_duplicates_back_a_request_off_once_per_round() {
        let built = sharqfec_topology::chain(3);
        let (source, peer) = (built.source, built.receivers[0]);
        let chan = ChannelId(0);
        let mut d = member(&built, built.receivers[1], 6);
        // Sequence 1 goes missing: its request timer is armed at i = 0.
        d.hear(source, chan, SrmMsg::Data { seq: 0 });
        d.hear(source, chan, SrmMsg::Data { seq: 2 });
        let armed = d.agent.requests[&1].timer;

        let first = d.hear(peer, chan, SrmMsg::Request { seq: 1 });
        assert!(
            matches!(first[..], [Action::CancelTimer(id), Action::SetTimer { .. }] if id == armed)
        );
        assert_eq!(d.agent.requests[&1].i, 1);
        let rearmed = d.agent.requests[&1].timer;
        for _ in 0..3 {
            assert!(d.hear(peer, chan, SrmMsg::Request { seq: 1 }).is_empty());
        }
        let req = &d.agent.requests[&1];
        assert_eq!((req.i, req.timer), (1, rearmed));

        // Our own request opens a new round (i = 2): one more back-off.
        d.call(|r, ctx| r.on_timer(ctx, TOK_REQ_BASE | 1));
        d.hear(peer, chan, SrmMsg::Request { seq: 1 });
        d.hear(peer, chan, SrmMsg::Request { seq: 1 });
        assert_eq!(d.agent.requests[&1].i, 3);
    }

    /// The session peer table has a slot per member id, allocated at its
    /// full size on the first announcement heard; an announcer heard again
    /// is counted once, and unheard slots (this receiver's own among them)
    /// stay `NEVER`.
    #[test]
    fn announcements_fill_a_member_indexed_table_allocated_once() {
        let built = sharqfec_topology::chain(5);
        let nodes = built.topology.node_count();
        let (me, a, b) = (built.receivers[0], built.receivers[1], built.receivers[3]);
        let chan = ChannelId(0);
        let mut d = member(&built, me, 2);
        let bare = d.agent.state_bytes();
        assert_eq!(d.agent.session_peers.capacity(), 0);

        d.hear(a, chan, SrmMsg::Announce);
        assert_eq!(d.agent.state_bytes() - bare, nodes * 8);
        d.now = SimTime::from_secs(3);
        d.hear(b, chan, SrmMsg::Announce);
        d.hear(a, chan, SrmMsg::Announce);
        assert_eq!(d.agent.state_bytes() - bare, nodes * 8);
        assert_eq!(d.agent.session_peer_count(), 2);
        let heard: Vec<(usize, SimTime)> = (d.agent.session_peers.iter().copied().enumerate())
            .filter(|&(_, t)| t != NEVER)
            .collect();
        assert_eq!(heard, [(a.idx(), d.now), (b.idx(), d.now)]);
    }

    /// A rig of a `Clone` agent forks: a copy taken with a request armed
    /// answers the same callbacks with the same actions.
    #[test]
    fn a_forked_rig_replays_identically() {
        let built = sharqfec_topology::chain(3);
        let (source, peer, chan) = (built.source, built.receivers[0], ChannelId(0));
        let mut d = member(&built, built.receivers[1], 6);
        d.hear(source, chan, SrmMsg::Data { seq: 0 });
        d.hear(source, chan, SrmMsg::Data { seq: 2 });
        let mut fork = d.clone();
        let drive = |d: &mut Rig<SrmMember>| {
            let mut actions = d.hear(peer, chan, SrmMsg::Request { seq: 1 });
            actions.extend(d.call(|r, ctx| r.on_timer(ctx, TOK_REQ_BASE | 1)));
            actions.extend(d.hear(source, chan, SrmMsg::Data { seq: 5 }));
            (format!("{actions:?}"), d.agent.missing())
        };
        let replay = drive(&mut d);
        assert!(replay.0.contains("SetTimer") && replay.1 > 0);
        assert_eq!(drive(&mut fork), replay);
    }

    /// The source arms only its send timer, holds what it has sent, and
    /// answers requests like any holder: once per round, not inside the
    /// hold-off, and never for a packet it has not sent yet.
    #[test]
    fn source_replies_once_per_request_round_and_honours_the_holdoff() {
        const SENT: u32 = 3;
        let built = sharqfec_topology::chain(3);
        let (chan, [p, q]) = (ChannelId(0), [built.receivers[0], built.receivers[1]]);
        let mut d = member(&built, built.source, 6);
        let started = d.call(|s, ctx| s.on_start(ctx));
        assert!(matches!(started[..], [Action::SetTimer { token, .. }] if token == TOK_SEND));
        for _ in 0..SENT {
            d.call(|s, ctx| s.on_timer(ctx, TOK_SEND));
        }
        assert_eq!(d.agent.missing(), d.agent.cfg.total_packets - SENT);
        let request =
            |d: &mut Rig<SrmMember>, from, seq| d.hear(from, chan, SrmMsg::Request { seq });
        assert!(request(&mut d, p, SENT).is_empty());

        // The first request arms one reply timer inside [D1·d, (D1+D2)·d].
        let dist = d.oracle.one_way(d.node, p);
        let armed = request(&mut d, p, 1);
        let [Action::SetTimer { id, at, token }] = armed[..] else {
            panic!("one timer, got {armed:?}");
        };
        assert_eq!(token, TOK_REP_BASE | 1);
        let delay = at.saturating_since(d.now);
        assert!(dist.mul_f64(D1) <= delay && delay <= dist.mul_f64(D1 + D2));

        // A duplicate arms nothing; the window folds it in when the round
        // ends: one duplicate request + the repair that beat ours, × 1/4.
        assert!(request(&mut d, q, 1).is_empty());
        let suppressed = d.hear(q, chan, SrmMsg::Repair { seq: 1 });
        assert!(matches!(suppressed[..], [Action::CancelTimer(c)] if c == id));
        assert_eq!(d.agent.replier.ave_dup(), 0.5);

        // The heard repair started the hold-off (3·d): requests inside it
        // are ignored, the first one after it is answered.
        assert!(request(&mut d, p, 1).is_empty());
        d.now += dist.mul_f64(REPAIR_HOLDOFF_FACTOR);
        assert_eq!(request(&mut d, p, 1).len(), 1);
        let fired = d.call(|s, ctx| s.on_timer(ctx, TOK_REP_BASE | 1));
        // One action, this member's one repair multicast.
        let repair = SrmMsg::Repair { seq: 1 };
        assert!(matches!(&fired[..], [Action::Multicast { payload, .. }] if *payload == repair));
        // The timer is spent, and sending the repair began a new hold-off.
        assert!(d
            .call(|s, ctx| s.on_timer(ctx, TOK_REP_BASE | 1))
            .is_empty());
        assert!(request(&mut d, q, 1).is_empty());
    }

    #[test]
    fn receiver_tracks_completion() {
        let cfg = SrmConfig {
            total_packets: 3,
            ..SrmConfig::default()
        };
        let r = SrmMember::new(cfg, ChannelId(0), NodeId(0), 2);
        assert!(!r.complete());
        assert_eq!(r.missing(), 3);
    }
}

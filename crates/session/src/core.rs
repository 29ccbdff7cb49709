//! The session state machine ([`SessionCore`]).
//!
//! `SessionCore` is engine-agnostic: it is driven through the
//! [`SessionCtx`] trait, so the standalone [`crate::agent::SessionAgent`]
//! and the full SHARQFEC protocol agent can both embed one.  All its
//! timers use tokens with the top bit set (see [`is_session_token`]) so a
//! host agent can multiplex its own timers alongside.
//!
//! ## State held per node (paper §5, Figure 5)
//!
//! Everything is a field of the chain level (`Level`) it belongs to, so a
//! handler that has found its level has found all of its state — no map
//! keyed by zone is probed on any path:
//!
//! * the [`PeerTable`] of that zone — filled only while the node
//!   *participates* there: its smallest zone, plus the parent zone of
//!   every zone it is currently ZCR of.  Its slots are indexed by rank in
//!   the zone's member list, read from the shared hierarchy, which is
//!   passed to every table call;
//! * the believed ZCR, the ZCR→parent-ZCR link distance, and the distances
//!   its ancestor ZCR announced to peers in the parent zone (the "sibling
//!   ZCR" table used for indirect estimation, a `Vec` sorted by peer id);
//! * the loss reports heard there (§7 summarization), kept only at a seat
//!   there or below: the two places a report is read;
//! * election state: the last pending challenge and takeover timer.
//!
//! Distances are one-way throughout (RTT/2), matching the units of the
//! paper's ZCR-challenge formula.

use crate::msg::{AncestorEntry, Announce, SessionMsg};
use crate::reports::LossReport;
use crate::rtt::{PeerState, PeerTable};
use sharqfec_netsim::agent::TimerId;
use sharqfec_netsim::probe::{ProbeEvent, ZcrAction};
use sharqfec_netsim::{IdHashMap, NodeId, SimDuration, SimRng, SimTime};
use sharqfec_scoping::{ZoneHierarchy, ZoneId};
use std::sync::Arc;

mod election;

// ----- protocol constants (paper §5; DESIGN.md §4) ------------------------

/// Steady-state announcement stagger, uniform seconds (paper §5:
/// `U[0.9, 1.1]` s).
const ANNOUNCE_INTERVAL: (f64, f64) = (0.9, 1.1);
/// Warm-up announcement stagger for the first [`WARMUP_COUNT`] messages
/// (paper §5: `U[0.05, 0.25]` s).
const WARMUP_INTERVAL: (f64, f64) = (0.05, 0.25);
/// How many announcements use the warm-up stagger (paper: 3).
const WARMUP_COUNT: u32 = 3;
/// EWMA weight of a *new* RTT sample when merging into an estimate
/// (paper §6.1 says new measurements are merged with an EWMA but does
/// not print the coefficient; 0.5 converges within the handful of
/// probes Figures 11–13 send while still smoothing jitter).
const RTT_GAIN: f64 = 0.5;
/// Base period between ZCR challenges issued by a sitting ZCR (paper:
/// "performed periodically … randomized"; the concrete period is ours).
/// Jittered by ±10 %.
const CHALLENGE_PERIOD: SimDuration = SimDuration::from_millis(2000);
/// Multiple of [`CHALLENGE_PERIOD`] after which a candidate that has not
/// heard from its ZCR issues a challenge itself (paper §5.2: "their
/// firing window is always slightly larger than that of their ZCR").
const LIVENESS_FACTOR: f64 = 1.6;
/// The ZCR liveness window, `CHALLENGE_PERIOD × LIVENESS_FACTOR` = 3.2 s
/// (a unit test pins the product).
const LIVENESS_WINDOW: SimDuration = SimDuration::from_millis(3200);
/// Takeover suppression window as a multiple of the candidate's computed
/// one-way distance `d` to the parent ZCR: the delay is drawn uniform on
/// `[1·d, 2·d]` so nearer candidates fire first.
const TAKEOVER_WINDOW: (f64, f64) = (1.0, 2.0);
/// Drop peers not heard from for this long.
const PEER_TIMEOUT: SimDuration = SimDuration::from_secs(10);
/// Wire size of an announcement header, bytes (entries add
/// [`ENTRY_BYTES`] each).
const ANNOUNCE_BASE_BYTES: u32 = 24;
/// Wire size per announcement entry, bytes.
const ENTRY_BYTES: u32 = 16;
/// Wire size of challenge/response/takeover messages, bytes.
const CONTROL_BYTES: u32 = 32;

// A bad edit to the constants above fails to compile.
const _: () = assert!(
    ANNOUNCE_INTERVAL.0 > 0.0 && ANNOUNCE_INTERVAL.0 <= ANNOUNCE_INTERVAL.1,
    "ANNOUNCE_INTERVAL must be an ordered positive range"
);
const _: () = assert!(
    WARMUP_INTERVAL.0 > 0.0 && WARMUP_INTERVAL.0 <= WARMUP_INTERVAL.1,
    "WARMUP_INTERVAL must be an ordered positive range"
);
const _: () = assert!(
    RTT_GAIN > 0.0 && RTT_GAIN <= 1.0,
    "RTT_GAIN must be in (0, 1]"
);
const _: () = assert!(
    LIVENESS_FACTOR > 1.0,
    "the liveness window must exceed the ZCR's own period"
);
const _: () = assert!(
    TAKEOVER_WINDOW.0 >= 0.0 && TAKEOVER_WINDOW.0 <= TAKEOVER_WINDOW.1,
    "the takeover window must be an ordered non-negative range"
);

/// Carries nothing: the session protocol's constants are the private
/// `const`s above, beside their readers.  It survives only because the
/// benchmark crate still passes `SessionConfig::default()` to
/// [`SessionCore::new`]; the benchmark follow-up deletes it together with
/// that parameter.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionConfig;

/// Top bit marks timer tokens owned by the session layer.
const SESSION_TOKEN_BIT: u64 = 1 << 63;

const KIND_ANNOUNCE: u64 = 0;
const KIND_CHALLENGE: u64 = 1;
const KIND_TAKEOVER: u64 = 2;

/// Whether a timer token belongs to the session layer (host agents route
/// these to [`SessionCore::on_timer`]).
pub fn is_session_token(token: u64) -> bool {
    token & SESSION_TOKEN_BIT != 0
}

fn token(kind: u64, level: usize) -> u64 {
    SESSION_TOKEN_BIT | (kind << 48) | level as u64
}

fn token_parts(token: u64) -> (u64, usize) {
    ((token >> 48) & 0x7FFF, (token & 0xFFFF_FFFF) as usize)
}

/// How the ZCR view is initialized.
#[derive(Clone, Debug)]
pub enum ZcrSeeding {
    /// Static configuration: a ZCR per zone, indexed by [`ZoneId`]
    /// (paper §5: "a cache is placed next to the zone's Border Gateway
    /// Router").  Elections still run and can replace a dead or misplaced
    /// seed.
    Designed(Vec<NodeId>),
    /// Dynamic election from scratch; only the root zone's representative
    /// (the data source / "top ZCR") is known a priori.
    Elect {
        /// The root zone's fixed representative.
        root: NodeId,
    },
}

/// The environment a [`SessionCore`] needs from its host agent.
pub trait SessionCtx {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// Deterministic RNG for staggering.
    fn rng(&mut self) -> &mut SimRng;
    /// Multicasts a session message into a zone's channel.
    fn send(&mut self, zone: ZoneId, msg: SessionMsg, bytes: u32);
    /// Arms a timer.
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId;
    /// Cancels a timer.
    fn cancel_timer(&mut self, id: TimerId);
    /// Emits a decision-level probe event (see [`sharqfec_netsim::probe`]).
    /// Defaults to a no-op so hosts without a sink need no wiring.
    fn probe(&mut self, event: ProbeEvent) {
        let _ = event;
    }
}

/// Per-chain-level state (level 0 = the node's smallest zone; the last
/// level is the root zone).
#[derive(Clone, Debug)]
struct Level {
    /// Believed ZCR of this zone.
    zcr: Option<NodeId>,
    /// When the ZCR was last heard (liveness).
    zcr_heard_at: SimTime,
    /// One-way distance from this zone's ZCR to the parent zone's ZCR.
    link_dist: Option<SimDuration>,
    /// One-way distances from *this level's ZCR* to peers in the parent
    /// zone, learned from the ZCR's announcements there (the sibling-ZCR
    /// table for indirect estimation), sorted by peer id as the
    /// announcement's entries are.
    zcr_peer_dists: Vec<(NodeId, SimDuration)>,
    /// Echo state and RTT estimates for the peers heard in this zone.
    /// Updated only while the node participates here; a node that loses
    /// the seat below keeps the table (and its entries in
    /// [`SessionCore::tracked_peer_count`]) and resumes expiring it when
    /// it participates again.
    table: PeerTable,
    /// Reports heard in this zone, by reporter (ZCR announcements into a
    /// zone carry the summary for their whole subtree), stored only while
    /// this node holds the seat here or below; a lost seat keeps them.
    reports: IdHashMap<NodeId, LossReport>,
    /// My own measured one-way distance to the *parent* zone's ZCR, from
    /// challenge/response arithmetic (election currency for this zone).
    my_dist_to_parent: Option<SimDuration>,
    /// Outstanding challenge we are waiting on a response for.
    pending: Option<Pending>,
    /// Scheduled takeover, with the distance that justified it.
    takeover: Option<(TimerId, SimDuration)>,
    /// Consecutive overheard measurement rounds in which we beat the
    /// *live* incumbent.  A routing change mid-exchange (a link fault
    /// re-routes the response but not the challenge) can fake a
    /// near-zero distance for one round; usurping a live ZCR therefore
    /// requires two beating rounds in a row (vacant seats are exempt).
    usurp_rounds: u8,
}

#[derive(Clone, Debug)]
struct Pending {
    challenger: NodeId,
    claimed: Option<SimDuration>,
    heard_at: SimTime,
    mine: bool,
    /// The sitting ZCR is presumed dead (this challenge was issued by a
    /// non-ZCR after the liveness window, §5.2: "a non-ZCR will only issue
    /// a challenge to the parent in the event that it fails to hear from
    /// the local ZCR").  A vacant seat is won by any candidate with a
    /// measured distance — the incumbent's stale distance must not keep
    /// beating live candidates forever.
    vacant: bool,
}

/// The session state machine for one node.
#[derive(Clone)]
pub struct SessionCore {
    node: NodeId,
    hier: Arc<ZoneHierarchy>,
    /// Zone chain, smallest zone first, ending at the root.
    chain: Vec<ZoneId>,
    levels: Vec<Level>,
    /// This member's own reception-quality report (§7 RR summarization),
    /// set by the host protocol via [`SessionCore::set_local_loss`].
    local_loss: Option<f64>,
    announces_sent: u32,
    started: bool,
    /// The chain levels whose ZCR seat this node holds, bit `l` for
    /// level `l` (see [`SessionCore::seats`]).
    seats: u64,
}

impl SessionCore {
    /// Creates the state machine for `node`.  The [`SessionConfig`]
    /// carries nothing.
    pub fn new(
        node: NodeId,
        hier: Arc<ZoneHierarchy>,
        _: SessionConfig,
        seeding: &ZcrSeeding,
    ) -> SessionCore {
        let chain = hier.zone_chain(node);
        assert!(chain.len() <= 64, "a seat mask holds 64 chain levels");
        let levels: Vec<Level> = chain
            .iter()
            .map(|&zone| {
                let zcr = match seeding {
                    ZcrSeeding::Designed(zcrs) => Some(zcrs[zone.idx()]),
                    ZcrSeeding::Elect { root } => {
                        if zone == *chain.last().expect("chain nonempty") {
                            Some(*root)
                        } else {
                            None
                        }
                    }
                };
                Level {
                    zcr,
                    zcr_heard_at: SimTime::ZERO,
                    link_dist: None,
                    zcr_peer_dists: Vec::new(),
                    table: PeerTable::default(),
                    reports: IdHashMap::default(),
                    my_dist_to_parent: None,
                    pending: None,
                    takeover: None,
                    usurp_rounds: 0,
                }
            })
            .collect();
        let seats = (levels.iter().enumerate())
            .filter(|(_, level)| level.zcr == Some(node))
            .fold(0, |seats, (l, _)| seats | 1 << l);
        SessionCore {
            node,
            hier,
            chain,
            levels,
            local_loss: None,
            announces_sent: 0,
            started: false,
            seats,
        }
    }

    /// Approximate resident heap bytes of this node's session state:
    /// zone chain and per-level state (election state, sibling-ZCR
    /// distance table, peer table, heard loss reports).
    ///
    /// Everything here is bounded by the node's *zone chain* (depth of
    /// the hierarchy) and its *zone sizes*, never by total session
    /// membership — the property the scaling sweep measures.  The shared
    /// `Arc<ZoneHierarchy>` is deliberately excluded: it is one structure
    /// for the whole run, not per-receiver state.
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.chain.capacity() * size_of::<ZoneId>()
            + self.levels.capacity() * size_of::<Level>();
        for l in &self.levels {
            bytes += l.zcr_peer_dists.capacity() * size_of::<(NodeId, SimDuration)>();
            bytes += l.table.state_bytes();
            bytes += l.reports.capacity()
                * (size_of::<NodeId>() + size_of::<LossReport>() + size_of::<u64>());
        }
        bytes
    }

    /// Updates the believed ZCR at chain level `l`, and this node's seat
    /// mask with it.
    fn set_seat(&mut self, l: usize, holder: Option<NodeId>) {
        if holder == Some(self.node) {
            self.seats |= 1 << l;
        } else {
            self.seats &= !(1 << l);
        }
        self.levels[l].zcr = holder;
    }

    /// The chain levels whose ZCR seat this node holds, bit `l` for chain
    /// level `l` — seeded tenure from construction on.  A host protocol
    /// compares it with the mask it last saw to learn its seat gains and
    /// losses (injection policies reset per-level history when
    /// responsibility changes hands); one session callback changes at
    /// most one level's seat.
    pub fn seats(&self) -> u64 {
        self.seats
    }

    /// Sets this member's own reception-quality figure (loss fraction)
    /// for the §7 receiver-report summarization.  Hosts typically update
    /// it per packet group.
    pub fn set_local_loss(&mut self, loss: f64) {
        self.local_loss = Some(loss.clamp(0.0, 1.0));
    }

    /// The summarized receiver report for a zone: this member's own report
    /// merged with what it heard there while it held a seat at or below
    /// that zone.  At the source,
    /// `aggregate_report(root)` approximates the whole session's RR state
    /// from O(zones) announcements.
    pub fn aggregate_report(&self, zone: ZoneId) -> Option<LossReport> {
        let own = if self.hier.is_member(zone, self.node) {
            self.local_loss.map(LossReport::single)
        } else {
            None
        };
        Self::summarized(own, self.chain_index(zone).map(|l| &self.levels[l]))
    }

    /// `own` merged with every report heard at `level`, in the map's
    /// iteration order.  The weighted mean is not associative in `f64`, so
    /// that order shows in the result — and the id hasher makes it a
    /// function of this node's own event history, the same in every run
    /// and at every shard count.
    fn summarized(own: Option<LossReport>, level: Option<&Level>) -> Option<LossReport> {
        let heard = level.into_iter().flat_map(|level| level.reports.values());
        LossReport::summarize(own.iter().chain(heard))
    }

    /// The report this member announces into `zone`: its own quality,
    /// merged — when it represents the child zone below `zone` — with the
    /// reports heard there, so summaries roll up the hierarchy.
    fn outgoing_report(&self, zone: ZoneId) -> Option<LossReport> {
        let child = self
            .chain_index(zone)
            .filter(|&l| l >= 1 && self.levels[l - 1].zcr == Some(self.node))
            .map(|l| &self.levels[l - 1]);
        Self::summarized(self.local_loss.map(LossReport::single), child)
    }

    /// The node this state machine runs at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The zone hierarchy, shared by every member.
    pub fn hierarchy(&self) -> &ZoneHierarchy {
        &self.hier
    }

    /// The node's zone chain, smallest first.
    pub fn chain_zones(&self) -> &[ZoneId] {
        &self.chain
    }

    /// The believed ZCR of a zone in this node's chain.
    pub fn zcr_of(&self, zone: ZoneId) -> Option<NodeId> {
        self.chain_index(zone).and_then(|l| self.levels[l].zcr)
    }

    /// Whether this node currently believes itself ZCR of `zone`.
    pub fn is_zcr_of(&self, zone: ZoneId) -> bool {
        self.zcr_of(zone) == Some(self.node)
    }

    /// Direct RTT estimate to a peer, searched across all participation
    /// tables (smallest zone first).
    pub fn direct_rtt(&self, peer: NodeId) -> Option<SimDuration> {
        self.participating()
            .find_map(|(zone, level)| level.table.rtt(peer, &self.hier.zone(zone).members))
    }

    /// Largest direct RTT estimate (the paper's "most distant known
    /// receiver" for the 2.5×RTT ZLC measurement window).
    pub fn max_known_rtt(&self) -> Option<SimDuration> {
        self.participating()
            .filter_map(|(_, level)| level.table.max_rtt())
            .max()
    }

    /// Number of peers across all tables — the Figure 8 "state" metric.
    pub fn tracked_peer_count(&self) -> usize {
        self.levels.iter().map(|level| level.table.len()).sum()
    }

    /// One-way distance from this node to its ancestor ZCR at chain level
    /// `l`, composed per paper §5 ("adding the observed RTTs between
    /// successive generations"), preferring a direct estimate when one
    /// exists.
    pub fn dist_to_ancestor(&self, l: usize) -> Option<SimDuration> {
        let zcr = self.levels[l].zcr?;
        if zcr == self.node {
            return Some(SimDuration::ZERO);
        }
        if let Some(rtt) = self.direct_rtt(zcr) {
            return Some(rtt / 2);
        }
        if l == 0 {
            return None;
        }
        let below = self.dist_to_ancestor(l - 1)?;
        Some(below + self.levels[l - 1].link_dist?)
    }

    /// The ancestor chain to attach to outgoing non-session traffic.
    pub fn ancestor_chain(&self) -> Vec<AncestorEntry> {
        (0..self.levels.len())
            .filter_map(|l| {
                let zcr = self.levels[l].zcr?;
                let dist = self.dist_to_ancestor(l)?;
                Some(AncestorEntry {
                    zone: self.chain[l],
                    zcr,
                    dist,
                })
            })
            .collect()
    }

    /// Estimates the RTT to `src`, given the ancestor chain `src` attached
    /// to its packet (paper §5.1's indirect composition).  Returns `None`
    /// when no match exists yet.
    pub fn estimate_rtt(&self, src: NodeId, chain: &[AncestorEntry]) -> Option<SimDuration> {
        if src == self.node {
            return Some(SimDuration::ZERO);
        }
        if let Some(rtt) = self.direct_rtt(src) {
            return Some(rtt);
        }
        // Walk the sender's chain from its smallest zone outward and find
        // the first (deepest ⇒ most accurate) ZCR we can anchor to.
        for e in chain {
            // The named ZCR is me: sender's distance is the whole path.
            if e.zcr == self.node {
                return Some(e.dist * 2);
            }
            // Direct estimate to the named ZCR (e.g. a sibling ZCR we share
            // a table with).
            if let Some(rtt) = self.direct_rtt(e.zcr) {
                return Some((rtt / 2 + e.dist) * 2);
            }
            // The named ZCR is one of my own ancestors.
            for l in 0..self.levels.len() {
                if self.levels[l].zcr == Some(e.zcr) {
                    if let Some(cum) = self.dist_to_ancestor(l) {
                        return Some((cum + e.dist) * 2);
                    }
                }
            }
            // The named ZCR appears in an ancestor ZCR's parent-zone table
            // (sibling-ZCR hop: my cum distance + ZCR-to-sibling + sender's
            // supplied distance).
            for l in 0..self.levels.len() {
                if let Some(sib) = sibling_dist(&self.levels[l].zcr_peer_dists, e.zcr) {
                    if let Some(cum) = self.dist_to_ancestor(l) {
                        return Some((cum + sib + e.dist) * 2);
                    }
                }
            }
        }
        None
    }

    fn chain_index(&self, zone: ZoneId) -> Option<usize> {
        self.chain.iter().position(|&z| z == zone)
    }

    /// Whether this node participates in its chain zone at level `l`: its
    /// smallest zone, or the parent of a zone it is ZCR of.
    fn participates(&self, l: usize) -> bool {
        l == 0 || self.levels[l - 1].zcr == Some(self.node)
    }

    /// The levels this node participates at with their zones, smallest
    /// zone first, without a `Vec`: every distance estimate searches their
    /// tables.
    fn participating(&self) -> impl Iterator<Item = (ZoneId, &Level)> + '_ {
        let levels = self.chain.iter().copied().zip(&self.levels);
        levels
            .enumerate()
            .filter(|&(l, _)| self.participates(l))
            .map(|(_, zone_and_level)| zone_and_level)
    }

    /// Zones this node participates in: smallest zone plus the parent of
    /// every zone it is ZCR of.
    ///
    /// No deduplication is needed: each entry is a different level of the
    /// zone chain, and a chain never repeats a zone.
    #[cfg(test)]
    fn participation(&self) -> Vec<ZoneId> {
        self.participating().map(|(zone, _)| zone).collect()
    }

    /// Starts the protocol: arms the announcement timer and the per-zone
    /// election timers.
    ///
    /// Calling it again is a *warm restart* — the path a node takes when
    /// it rejoins after a crash (scenario churn, `NodeRestart`): the
    /// crash killed every pending timer, so announcements and
    /// election challenges are re-armed and the liveness clocks reset to
    /// `now` (a returning node must not instantly depose every ZCR it
    /// slept through).  Session state — learned ZCRs, distances, seat
    /// tallies — persists; in particular the seeded-tenure probe and seat
    /// credit are cold-start-only, so a flapping node cannot mint seat
    /// gains by rejoining.
    pub fn start(&mut self, ctx: &mut dyn SessionCtx) {
        let warm = std::mem::replace(&mut self.started, true);
        let now = ctx.now();
        for level in &mut self.levels {
            level.zcr_heard_at = now;
        }
        if !warm {
            for l in 0..self.levels.len() {
                if self.levels[l].zcr == Some(self.node) {
                    ctx.probe(ProbeEvent::Zcr {
                        zone: self.chain[l].idx() as u64,
                        action: ZcrAction::Seeded,
                        holder: self.node,
                    });
                }
            }
        }
        self.arm_announce(ctx);
        for l in 0..self.levels.len() {
            self.arm_challenge(ctx, l);
        }
    }

    /// Handles a session timer.  Returns `true` if the token belonged to
    /// the session layer.
    pub fn on_timer(&mut self, ctx: &mut dyn SessionCtx, tok: u64) -> bool {
        if !is_session_token(tok) {
            return false;
        }
        let (kind, level) = token_parts(tok);
        match kind {
            KIND_ANNOUNCE => {
                self.send_announces(ctx);
                self.arm_announce(ctx);
            }
            KIND_CHALLENGE => {
                self.challenge_tick(ctx, level);
                self.arm_challenge(ctx, level);
            }
            KIND_TAKEOVER => {
                self.takeover_fire(ctx, level);
            }
            _ => unreachable!("unknown session timer kind {kind}"),
        }
        true
    }

    /// Handles a received session message.  `src` is the originating node.
    pub fn on_msg(&mut self, ctx: &mut dyn SessionCtx, src: NodeId, msg: &SessionMsg) {
        match msg {
            SessionMsg::Announce(a) => self.on_announce(ctx, src, a),
            SessionMsg::ZcrChallenge {
                zone,
                challenger,
                claimed_dist,
            } => self.on_challenge(ctx, *zone, *challenger, *claimed_dist),
            SessionMsg::ZcrResponse {
                zone,
                challenger,
                hold,
            } => self.on_response(ctx, *zone, *challenger, *hold),
            SessionMsg::ZcrTakeover {
                zone,
                new_zcr,
                dist_to_parent,
            } => self.on_takeover(ctx, *zone, *new_zcr, *dist_to_parent),
            SessionMsg::Probe { .. } => {
                // Probes are handled by the host (they are measurement
                // traffic, not session state).
            }
        }
    }

    // ----- announcements ---------------------------------------------------

    fn arm_announce(&mut self, ctx: &mut dyn SessionCtx) {
        let (lo, hi) = if self.announces_sent < WARMUP_COUNT {
            WARMUP_INTERVAL
        } else {
            ANNOUNCE_INTERVAL
        };
        let delay = SimDuration::from_secs_f64(ctx.rng().range_f64(lo, hi));
        ctx.set_timer(delay, token(KIND_ANNOUNCE, 0));
    }

    fn send_announces(&mut self, ctx: &mut dyn SessionCtx) {
        let now = ctx.now();
        let cutoff = if now.as_nanos() > PEER_TIMEOUT.as_nanos() {
            now - PEER_TIMEOUT
        } else {
            SimTime::ZERO
        };
        // By level rather than through `participating()`: the tables are
        // mutated below, and nothing in the loop changes a seat.
        for l in 0..self.levels.len() {
            if !self.participates(l) {
                continue;
            }
            let zone = self.chain[l];
            let table = &mut self.levels[l].table;
            table.expire(cutoff);
            let entries = table.entries(&self.hier.zone(zone).members, now);
            let zcr = self.levels[l].zcr;
            let zcr_to_parent = if zcr == Some(self.node) {
                self.levels[l]
                    .my_dist_to_parent
                    .or_else(|| self.parent_zcr_direct_dist(l))
            } else {
                self.levels[l].link_dist
            };
            let bytes = ANNOUNCE_BASE_BYTES + ENTRY_BYTES * entries.len() as u32;
            let report = self.outgoing_report(zone);
            ctx.send(
                zone,
                SessionMsg::Announce(Announce {
                    zone,
                    sent_at: now,
                    zcr,
                    zcr_to_parent,
                    report,
                    entries,
                }),
                bytes,
            );
        }
        self.announces_sent += 1;
    }

    /// Direct one-way distance to the parent zone's ZCR, if known.
    fn parent_zcr_direct_dist(&self, l: usize) -> Option<SimDuration> {
        if l + 1 >= self.levels.len() {
            return None;
        }
        let parent_zcr = self.levels[l + 1].zcr?;
        self.direct_rtt(parent_zcr).map(|rtt| rtt / 2)
    }

    /// Whether any member of the zone at chain level `l` has been heard on
    /// the zone channel within the ZCR liveness window.  A node that has
    /// heard nobody there for a whole window is cut off from (its side of)
    /// the zone — evidence used to keep partition-remote election traffic
    /// from flipping local beliefs.  Trivially true early in the session,
    /// before a full window has elapsed.
    fn zone_fresh(&self, l: usize, now: SimTime) -> bool {
        let last = self.levels[l].table.last_heard().unwrap_or(SimTime::ZERO);
        now.saturating_since(last) < LIVENESS_WINDOW
    }

    /// Whether `peer` specifically has been heard in the zone at chain
    /// level `l` within the liveness window.  Overheard-challenge
    /// arithmetic trusts cached RTTs to the challenger; a challenger we no
    /// longer hear inside the zone (it may be challenging from across a
    /// partition via the parent channel) invalidates that cache.
    /// Trivially true before the first full window has elapsed (nobody
    /// can be declared stale that early).
    fn peer_fresh(&self, l: usize, peer: NodeId, now: SimTime) -> bool {
        let last = self
            .peer_state(l, peer)
            .map_or(SimTime::ZERO, |p| p.last_recv_at);
        now.saturating_since(last) < LIVENESS_WINDOW
    }

    /// Echo state for `peer` in the table at chain level `l`.
    fn peer_state(&self, l: usize, peer: NodeId) -> Option<&PeerState> {
        self.levels[l]
            .table
            .state(peer, &self.hier.zone(self.chain[l]).members)
    }

    fn on_announce(&mut self, ctx: &mut dyn SessionCtx, src: NodeId, a: &Announce) {
        let now = ctx.now();
        let Some(l) = self.chain_index(a.zone) else {
            // Announcement for a sibling zone (heard because channels nest);
            // the paper's selective listening ignores it.
            return;
        };

        debug_assert!(
            a.entries.windows(2).all(|w| w[0].peer < w[1].peer),
            "Announce.entries must be sorted by peer id"
        );
        let participates = self.participates(l);
        let level = &mut self.levels[l];

        // §7 receiver-report bookkeeping: remember the latest summary each
        // reporter announced into this zone, where a seat here or below
        // reads it — every other member skips the map.
        let seated = level.zcr == Some(self.node) || (l >= 1 && participates);
        if let Some(r) = a.report.filter(|_| seated) {
            level.reports.insert(src, r);
        }

        // Participation table update (echo protocol): the sender's slot by
        // its rank in the zone's `members`, this node's own line by binary
        // search.  The engine delivers no announcer outside `members` (zone
        // channels are registered from them, joins go through
        // `member_channels`); one that came anyway would be skipped.
        let members = &self.hier.zone(a.zone).members;
        let peer = participates.then(|| level.table.heard(src, members, a.sent_at, now));
        if let Some(peer) = peer.flatten() {
            if let Ok(i) = a.entries.binary_search_by_key(&self.node, |e| e.peer) {
                let me = &a.entries[i];
                // RTT = (now − my original timestamp) − peer's hold time.
                let total = now.saturating_since(me.echo_sent_at);
                if total >= me.elapsed {
                    peer.sample(total - me.elapsed, RTT_GAIN);
                }
            }
        }

        // ZCR belief and liveness.
        if self.levels[l].zcr.is_none() {
            self.set_seat(l, a.zcr);
        } else if Some(src) == self.levels[l].zcr {
            if let Some(z) = a.zcr {
                self.set_seat(l, Some(z));
            }
        }
        if Some(src) == self.levels[l].zcr {
            self.levels[l].zcr_heard_at = now;
            if a.zcr_to_parent.is_some() {
                self.levels[l].link_dist = a.zcr_to_parent;
            }
        }

        // Partition-heal conflict resolution (§5.2): a healed partition can
        // leave two sitting ZCRs, each believing in itself, and neither side
        // of the liveness machinery fires because both keep announcing.  When
        // a sitting ZCR hears a *different* node announce itself as this
        // zone's ZCR, the contest is decided on distance to the parent ZCR:
        // the strictly closer one (ties broken toward the lower node id)
        // reasserts with a takeover, the other concedes and adopts the
        // announcer.  A measured distance beats an unmeasured one.
        if self.levels[l].zcr == Some(self.node) && src != self.node && a.zcr == Some(src) {
            let mine = self.levels[l]
                .my_dist_to_parent
                .or_else(|| self.parent_zcr_direct_dist(l));
            let reassert = match (mine, a.zcr_to_parent) {
                (Some(m), Some(theirs)) => m < theirs || (m == theirs && self.node < src),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if reassert {
                let m = mine.expect("reassert requires a measured distance");
                self.declare_takeover(ctx, l, m, ZcrAction::Reassert);
            } else {
                self.set_seat(l, Some(src));
                self.levels[l].zcr_heard_at = now;
                self.levels[l].usurp_rounds = 0;
                if a.zcr_to_parent.is_some() {
                    self.levels[l].link_dist = a.zcr_to_parent;
                }
                ctx.probe(ProbeEvent::Zcr {
                    zone: a.zone.idx() as u64,
                    action: ZcrAction::Concede,
                    holder: src,
                });
            }
        }

        // Chain listening: my ancestor ZCR at level l-1 announcing into its
        // parent zone (= my chain level l) reveals the sibling-ZCR table
        // and the identity of the next ZCR up.
        if l >= 1 && Some(src) == self.levels[l - 1].zcr && src != self.node {
            let upper = a.zcr.or(self.levels[l].zcr);
            // Refilled in place: one of these arrives per ancestor announce.
            let below = &mut self.levels[l - 1];
            below.zcr_peer_dists.clear();
            below.zcr_peer_dists.extend(
                a.entries
                    .iter()
                    .filter_map(|e| e.rtt_est.map(|rtt| (e.peer, rtt / 2))),
            );
            // link distance to the next ZCR up, if present in the table.
            if let Some(d) = upper.and_then(|u| sibling_dist(&below.zcr_peer_dists, u)) {
                below.link_dist = Some(d);
            }
        }
    }
}

/// The distance to `peer` in a sibling-ZCR table, by binary search.
fn sibling_dist(dists: &[(NodeId, SimDuration)], peer: NodeId) -> Option<SimDuration> {
    let i = dists.binary_search_by_key(&peer, |&(p, _)| p).ok()?;
    Some(dists[i].1)
}

impl core::fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SessionCore(node={}, chain={:?}, peers={})",
            self.node,
            self.chain,
            self.tracked_peer_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::PeerEntry;

    /// Minimal in-memory ctx capturing outputs.
    struct FakeCtx {
        now: SimTime,
        rng: SimRng,
        sent: Vec<(ZoneId, SessionMsg)>,
        timers: Vec<(SimDuration, u64)>,
        next_id: u64,
        probes: Vec<ProbeEvent>,
    }
    impl FakeCtx {
        fn new() -> FakeCtx {
            FakeCtx {
                now: SimTime::ZERO,
                rng: SimRng::new(1),
                sent: vec![],
                timers: vec![],
                next_id: 0,
                probes: vec![],
            }
        }
    }
    impl SessionCtx for FakeCtx {
        fn now(&self) -> SimTime {
            self.now
        }
        fn rng(&mut self) -> &mut SimRng {
            &mut self.rng
        }
        fn send(&mut self, zone: ZoneId, msg: SessionMsg, _bytes: u32) {
            self.sent.push((zone, msg));
        }
        fn set_timer(&mut self, delay: SimDuration, tok: u64) -> TimerId {
            self.timers.push((delay, tok));
            self.next_id += 1;
            TimerId(self.next_id)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
        fn probe(&mut self, event: ProbeEvent) {
            self.probes.push(event);
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// 3-level hierarchy: Z0 {0..6}, Z1 {1,2,3,4,5,6}, Z2 {3,4,5,6}.
    fn hier() -> Arc<ZoneHierarchy> {
        let mut b = sharqfec_scoping::ZoneHierarchyBuilder::new(7);
        let z0 = b.root(&(0..7).map(n).collect::<Vec<_>>());
        let z1 = b.child(z0, &(1..7).map(n).collect::<Vec<_>>()).unwrap();
        b.child(z1, &(3..7).map(n).collect::<Vec<_>>()).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn designed() -> ZcrSeeding {
        // zone 0 -> node 0, zone 1 -> node 1, zone 2 -> node 3.
        ZcrSeeding::Designed(vec![n(0), n(1), n(3)])
    }

    /// `node`'s core over [`hier`] under the [`designed`] seeding, not yet
    /// started.
    fn core_of(node: u32) -> SessionCore {
        SessionCore::new(n(node), hier(), SessionConfig, &designed())
    }

    /// [`core_of`], cold-started at t = 0 on a fresh ctx.
    fn started(node: u32) -> (SessionCore, FakeCtx) {
        let (mut core, mut ctx) = (core_of(node), FakeCtx::new());
        core.start(&mut ctx);
        (core, ctx)
    }

    /// One report line echoing `peer`'s timestamp `echo_ms`, held `held_ms`.
    fn line(peer: u32, echo_ms: u64, held_ms: u64) -> PeerEntry {
        PeerEntry {
            peer: n(peer),
            echo_sent_at: SimTime::from_millis(echo_ms),
            elapsed: ms(held_ms),
            rtt_est: None,
        }
    }

    /// A report line carrying only the announcer's RTT estimate to `peer`.
    fn estimate(peer: u32, rtt_ms: u64) -> PeerEntry {
        PeerEntry {
            rtt_est: Some(ms(rtt_ms)),
            ..line(peer, 0, 0)
        }
    }

    fn announce(zone: ZoneId, sent_ms: u64, zcr: u32, entries: Vec<PeerEntry>) -> SessionMsg {
        SessionMsg::Announce(Announce {
            zone,
            sent_at: SimTime::from_millis(sent_ms),
            zcr: Some(n(zcr)),
            zcr_to_parent: None,
            report: None,
            entries,
        })
    }

    /// [`announce`] carrying a loss report of 0.5.
    fn reported(zone: ZoneId, sent_ms: u64, zcr: u32) -> SessionMsg {
        let mut msg = announce(zone, sent_ms, zcr, vec![]);
        if let SessionMsg::Announce(a) = &mut msg {
            a.report = Some(LossReport::single(0.5));
        }
        msg
    }

    /// Node 4 announcing itself, at t = 30 s, as Z2's ZCR 30 ms from the
    /// parent ZCR: what a sitting ZCR hears when a partition heals.
    fn rival_announce() -> SessionMsg {
        let mut msg = announce(ZoneId(2), 30_000, 4, vec![]);
        if let SessionMsg::Announce(a) = &mut msg {
            a.zcr_to_parent = Some(ms(30));
        }
        msg
    }

    fn challenge(zone: ZoneId, challenger: u32, claimed_ms: Option<u64>) -> SessionMsg {
        let (challenger, claimed_dist) = (n(challenger), claimed_ms.map(ms));
        SessionMsg::ZcrChallenge {
            zone,
            challenger,
            claimed_dist,
        }
    }

    fn response(zone: ZoneId, challenger: u32, hold_ms: u64) -> SessionMsg {
        let (challenger, hold) = (n(challenger), ms(hold_ms));
        SessionMsg::ZcrResponse {
            zone,
            challenger,
            hold,
        }
    }

    fn takeover(zone: ZoneId, new_zcr: u32, dist_ms: u64) -> SessionMsg {
        let (new_zcr, dist_to_parent) = (n(new_zcr), ms(dist_ms));
        SessionMsg::ZcrTakeover {
            zone,
            new_zcr,
            dist_to_parent,
        }
    }

    #[test]
    fn token_round_trip() {
        let t = token(KIND_CHALLENGE, 5);
        assert!(is_session_token(t));
        assert_eq!(token_parts(t), (KIND_CHALLENGE, 5));
        assert!(!is_session_token(42));
    }

    #[test]
    fn chain_and_participation_for_deep_node() {
        let core = core_of(5);
        assert_eq!(core.chain_zones().len(), 3);
        // node 5 is not a ZCR: participates only in its smallest zone.
        assert_eq!(core.participation(), vec![core.chain_zones()[0]]);
        assert!(!core.is_zcr_of(core.chain_zones()[0]));
        assert_eq!(core.zcr_of(core.chain_zones()[0]), Some(n(3)));
    }

    #[test]
    fn zcr_participates_in_parent_zone() {
        let core = core_of(3);
        // node 3 is ZCR of Z2 -> participates in Z2 and Z1.
        let p = core.participation();
        assert_eq!(p.len(), 2);
        assert!(core.is_zcr_of(ZoneId(2)));
    }

    #[test]
    fn participation_follows_the_seats_held_along_the_chain() {
        // Nodes 3 and 5 share the chain Z2 ⊂ Z1 ⊂ Z0; node 0 sits in Z0 only.
        let (z0, z1, z2) = (ZoneId(0), ZoneId(1), ZoneId(2));
        let cases: [(u32, [u32; 3], &[ZoneId]); 6] = [
            (5, [0, 1, 3], &[z2]),         // leaf member
            (3, [0, 1, 3], &[z2, z1]),     // ZCR of its smallest zone
            (3, [0, 3, 3], &[z2, z1, z0]), // ZCR at two levels
            (5, [0, 5, 3], &[z2, z0]),     // ZCR of a middle zone only
            (3, [3, 3, 3], &[z2, z1, z0]), // the root seat adds no parent
            (0, [0, 1, 3], &[z0]),         // root representative
        ];
        for (node, zcrs, want) in cases {
            let seeding = ZcrSeeding::Designed(zcrs.map(n).to_vec());
            let core = SessionCore::new(n(node), hier(), SessionConfig, &seeding);
            // The definition, written out: smallest zone, then the parent
            // of every zone whose seat this node holds.
            let chain = core.chain_zones();
            let mut spec = vec![chain[0]];
            for l in 0..chain.len() - 1 {
                if core.is_zcr_of(chain[l]) {
                    spec.push(chain[l + 1]);
                }
            }
            assert_eq!(spec, want, "node {node} under {zcrs:?}");
            let zones: Vec<ZoneId> = core.participating().map(|(zone, _)| zone).collect();
            assert_eq!(zones, want);
            assert_eq!(core.participation(), want);
            for (l, zone) in chain.iter().enumerate() {
                assert_eq!(core.participates(l), want.contains(zone));
            }
        }
    }

    #[test]
    fn start_arms_announce_and_elections() {
        let (_, ctx) = started(5);
        // announce timer + challenge timers for the two non-root levels.
        let kinds: Vec<u64> = ctx.timers.iter().map(|(_, t)| token_parts(*t).0).collect();
        assert_eq!(kinds.iter().filter(|&&k| k == KIND_ANNOUNCE).count(), 1);
        assert_eq!(kinds.iter().filter(|&&k| k == KIND_CHALLENGE).count(), 2);
        // Warm-up stagger: first announce within [0.05, 0.25]s.
        let (d, _) = ctx.timers[0];
        assert!(d >= SimDuration::from_millis(50) && d <= SimDuration::from_millis(250));
    }

    #[test]
    fn restart_rearms_timers_without_minting_seat_credit() {
        // Regression (scenario churn): `NodeRestart` re-runs `on_start`,
        // which calls `start` a second time.  This used to panic with
        // "SessionCore started twice"; it must instead warm-restart —
        // re-arm announce/challenge timers (the crash killed the
        // old ones), reset the ZCR liveness clocks, and NOT re-emit the
        // seeded-tenure probe or seat gain.
        let (mut core, mut ctx) = started(3);
        let cold_timers = ctx.timers.len();
        let cold_probes = ctx.probes.len();
        assert_eq!(cold_probes, 1, "node 3 is the seeded ZCR of Z2");
        assert_eq!(core.seats(), 0b1);

        ctx.now = SimTime::from_secs(40); // well past every liveness window
        core.start(&mut ctx);
        assert_eq!(
            ctx.timers.len(),
            2 * cold_timers,
            "warm restart must re-arm the same timer set"
        );
        assert_eq!(ctx.probes.len(), cold_probes, "no second Seeded probe");
        assert_eq!(core.seats(), 0b1, "rejoining changes no seat");
    }

    #[test]
    fn announce_timer_emits_one_message_per_participation_zone() {
        let (mut core, mut ctx) = started(3);
        let tok = token(KIND_ANNOUNCE, 0);
        ctx.now = SimTime::from_millis(100);
        assert!(core.on_timer(&mut ctx, tok));
        let announces: Vec<&ZoneId> = ctx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, SessionMsg::Announce(_)))
            .map(|(z, _)| z)
            .collect();
        assert_eq!(
            announces.len(),
            2,
            "ZCR announces into child and parent zones"
        );
    }

    #[test]
    fn echo_produces_rtt_estimate() {
        let (mut core, mut ctx) = started(5);
        // Peer 4 echoes our timestamp 100 with 20ms hold; we receive at 180.
        // RTT = 180 - 100 - 20 = 60ms.
        ctx.now = SimTime::from_millis(180);
        let smallest = core.chain_zones()[0];
        let echo = announce(smallest, 150, 3, vec![line(5, 100, 20)]);
        core.on_msg(&mut ctx, n(4), &echo);
        assert_eq!(core.direct_rtt(n(4)), Some(ms(60)));
        assert_eq!(core.tracked_peer_count(), 1);
    }

    #[test]
    fn an_announcer_outside_the_zone_leaves_the_table_alone() {
        let (mut core, mut ctx) = started(5);
        ctx.now = SimTime::from_millis(180);
        let smallest = core.chain_zones()[0];
        core.on_msg(&mut ctx, n(4), &announce(smallest, 150, 3, vec![]));
        let now = ctx.now;
        let table = |c: &SessionCore| {
            c.levels[0]
                .table
                .entries(&c.hier.zone(smallest).members, now)
        };
        let before = table(&core);
        // Node 1 is not a member of Z2 {3,4,5,6}: no slot, no panic.
        let echo = announce(smallest, 150, 3, vec![line(5, 100, 20)]);
        core.on_msg(&mut ctx, n(1), &echo);
        assert_eq!((table(&core), core.tracked_peer_count()), (before, 1));
        assert_eq!(core.direct_rtt(n(1)), None);
    }

    #[test]
    fn chain_listening_builds_sibling_table_and_indirect_estimate() {
        // Node 5 (chain Z2, Z1, Z0) hears:
        //  - direct RTT to its local ZCR node 3 (say 40ms => 20ms one-way)
        //  - node 3's announce INTO Z1 listing peers {1: 60ms, 2: 100ms}
        // Then a packet from node 9 (not simulated here) carrying chain
        // entry (zone Z?, zcr=2, dist=15ms) should estimate:
        //  (20 + 50 + 15) * 2 = 170ms.
        let (mut core, mut ctx) = started(5);

        // Direct RTT to node 3 via echo.
        ctx.now = SimTime::from_millis(140);
        let z2 = core.chain_zones()[0];
        let z1 = core.chain_zones()[1];
        let echo = announce(z2, 130, 3, vec![line(5, 100, 0)]);
        core.on_msg(&mut ctx, n(3), &echo);
        assert_eq!(core.direct_rtt(n(3)), Some(ms(40)));

        // Node 3's announce into Z1 (its parent zone).
        let table = announce(z1, 140, 1, vec![estimate(1, 60), estimate(2, 100)]);
        core.on_msg(&mut ctx, n(3), &table);

        // Indirect estimate through sibling ZCR 2.
        let est = core.estimate_rtt(
            n(9),
            &[AncestorEntry {
                zone: ZoneId(1),
                zcr: n(2),
                dist: ms(15),
            }],
        );
        assert_eq!(est, Some(ms(170)));

        // Ancestor match: entry naming node 3 (my own local ZCR).
        let est2 = core.estimate_rtt(
            n(9),
            &[AncestorEntry {
                zone: ZoneId(2),
                zcr: n(3),
                dist: ms(5),
            }],
        );
        assert_eq!(est2, Some(ms(50))); // (20 + 5) * 2

        // link_dist was learned from the table (3 -> ZCR(Z1)=1: 30ms one-way),
        // so my cumulative distance to ZCR(Z1) is 20+30 = 50 one-way.
        assert_eq!(core.dist_to_ancestor(1), Some(ms(50)));
        // Full ancestor chain now has at least 2 resolvable entries.
        assert!(core.ancestor_chain().len() >= 2);

        // The next announce replaces the sibling table, it does not merge
        // into it: node 2 has dropped out of node 3's table.
        let table = announce(z1, 140, 1, vec![estimate(1, 80)]);
        core.on_msg(&mut ctx, n(3), &table);
        let sibling = AncestorEntry {
            zone: ZoneId(1),
            zcr: n(2),
            dist: ms(15),
        };
        assert_eq!(core.estimate_rtt(n(9), &[sibling]), None);
        assert_eq!(core.dist_to_ancestor(1), Some(ms(60))); // 20 + 80/2
    }

    #[test]
    fn challenge_response_math_chain_case() {
        // Figure 9 chain: parent ZCR 0 --10ms-- ZCR 1 --5ms-- node 2.
        // Node 1 challenges with claimed_dist 10ms. Node 2 hears the
        // challenge at t=100 (5ms after send), hears the response at
        // t = 100 + (5 + 10 + 10 + 5)ms - wait: response travels 0->2 =
        // 15ms after reaching 0 at +5+10. For the unit test we just feed
        // the arithmetic: elapsed = 25ms, dist_to_challenger = 5ms,
        // claimed = 10ms => my_dist = 5 + 25 - 10 = 20ms? No: true d02 =
        // 15ms means elapsed must be d01 + d02 - d12 = 10 + 15 - 5 = 20ms.
        let (mut core, mut ctx) = started(5);
        let z2 = core.chain_zones()[0];

        // Seed direct RTT to challenger (node 3): 10ms RTT = 5ms one-way.
        ctx.now = SimTime::from_millis(60);
        let echo = announce(z2, 55, 3, vec![line(5, 50, 0)]);
        core.on_msg(&mut ctx, n(3), &echo);
        assert_eq!(core.direct_rtt(n(3)), Some(ms(10)));

        // Challenge from sitting ZCR 3 with claimed distance 10ms.
        ctx.now = SimTime::from_millis(100);
        core.on_msg(&mut ctx, n(3), &challenge(z2, 3, Some(10)));
        // Response arrives 20ms later: my_dist = 5 + 20 - 10 = 15ms.
        ctx.now = SimTime::from_millis(120);
        core.on_msg(&mut ctx, n(1), &response(z2, 3, 0));
        assert_eq!(core.levels[0].my_dist_to_parent, Some(ms(15)));
        // 15ms > ZCR's 10ms: no takeover scheduled.
        assert!(core.levels[0].takeover.is_none());
    }

    #[test]
    fn closer_node_schedules_takeover_and_suppression_works() {
        let (mut core, mut ctx) = started(5);
        let z2 = core.chain_zones()[0];
        // Direct RTT to challenger 3: 40ms (20 one-way).
        ctx.now = SimTime::from_millis(60);
        let echo = announce(z2, 40, 3, vec![line(5, 20, 0)]);
        core.on_msg(&mut ctx, n(3), &echo);
        // ZCR 3 claims 50ms to parent; response timing gives us
        // my_dist = 20 + (t_resp - t_chal) - 50 = 20 + 40 - 50 = 10ms < 50ms.
        // Usurping a live incumbent is debounced: the first beating round
        // only arms the streak, the second schedules the takeover.
        for round in 0u64..2 {
            ctx.now = SimTime::from_millis(100 * (round + 1));
            core.on_msg(&mut ctx, n(3), &challenge(z2, 3, Some(50)));
            ctx.now = SimTime::from_millis(100 * (round + 1) + 40);
            core.on_msg(&mut ctx, n(1), &response(z2, 3, 0));
            if round == 0 {
                assert!(
                    core.levels[0].takeover.is_none(),
                    "one beating round must not usurp a live ZCR"
                );
            }
        }
        let (_, my_dist) = core.levels[0].takeover.expect("takeover scheduled");
        assert_eq!(my_dist, ms(10));

        // Someone closer (6ms) declares first: our takeover is suppressed.
        core.on_msg(&mut ctx, n(4), &takeover(z2, 4, 6));
        assert!(core.levels[0].takeover.is_none());
        assert_eq!(core.zcr_of(z2), Some(n(4)));
    }

    #[test]
    fn sitting_zcr_reasserts_against_farther_usurper() {
        let (mut core, mut ctx) = started(3);
        let z2 = core.chain_zones()[0];
        assert!(core.is_zcr_of(z2));
        core.levels[0].my_dist_to_parent = Some(ms(10));
        // A usurper claims 25ms: we are closer, so we reassert.
        core.on_msg(&mut ctx, n(6), &takeover(z2, 6, 25));
        assert!(core.is_zcr_of(z2));
        let reasserts = ctx
            .sent
            .iter()
            .filter(
                |(_, m)| matches!(m, SessionMsg::ZcrTakeover { new_zcr, .. } if *new_zcr == n(3)),
            )
            .count();
        assert_eq!(reasserts, 2, "reassert goes to child and parent zones");

        // But a genuinely closer usurper wins.
        core.on_msg(&mut ctx, n(6), &takeover(z2, 6, 4));
        assert_eq!(core.zcr_of(z2), Some(n(6)));
        assert!(!core.is_zcr_of(z2));
    }

    #[test]
    fn seat_transitions_emit_probe_events() {
        // Replays `sitting_zcr_reasserts_against_farther_usurper` and
        // checks the probe narrative: seeded -> reassert -> concede.
        let (mut core, mut ctx) = started(3);
        let z2 = core.chain_zones()[0];
        core.levels[0].my_dist_to_parent = Some(ms(10));
        core.on_msg(&mut ctx, n(6), &takeover(z2, 6, 25));
        core.on_msg(&mut ctx, n(6), &takeover(z2, 6, 4));
        let seats: Vec<(u64, ZcrAction, NodeId)> = ctx
            .probes
            .iter()
            .filter_map(|e| match *e {
                ProbeEvent::Zcr {
                    zone,
                    action,
                    holder,
                } => Some((zone, action, holder)),
                _ => None,
            })
            .collect();
        assert_eq!(
            seats,
            vec![
                (z2.idx() as u64, ZcrAction::Seeded, n(3)),
                (z2.idx() as u64, ZcrAction::Reassert, n(3)),
                (z2.idx() as u64, ZcrAction::Concede, n(6)),
            ]
        );
    }

    #[test]
    fn seat_events_record_this_nodes_tenure_changes() {
        let (mut core, mut ctx) = started(3);
        // Seeded ZCR of Z2 (chain level 0).
        assert_eq!(core.seats(), 0b1);
        let z2 = core.chain_zones()[0];
        core.levels[0].my_dist_to_parent = Some(ms(10));
        // Reassert against a farther usurper: tenure unchanged.
        core.on_msg(&mut ctx, n(6), &takeover(z2, 6, 25));
        assert_eq!(core.seats(), 0b1);
        // A strictly closer usurper wins the seat.
        core.on_msg(&mut ctx, n(6), &takeover(z2, 6, 4));
        assert_eq!(core.seats(), 0);

        // A node seeded with no seats holds none.
        let (other, _) = started(5);
        assert_eq!(other.seats(), 0);
    }

    #[test]
    fn parent_zcr_responds_to_challenges() {
        // Node 1 is ZCR of Z1; a challenge for Z2 goes to Z1 and node 1
        // must answer it.
        let (mut core, mut ctx) = started(1);
        core.on_msg(&mut ctx, n(3), &challenge(ZoneId(2), 3, None));
        let responses: Vec<_> = ctx
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, SessionMsg::ZcrResponse { .. }))
            .collect();
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].0,
            ZoneId(1),
            "response goes to the parent zone"
        );
    }

    #[test]
    fn challenger_measures_own_distance_from_round_trip() {
        let (mut core, mut ctx) = started(3);
        // Node 3 is ZCR of Z2 and candidate for it; fire its challenge tick.
        ctx.now = SimTime::from_millis(1000);
        core.challenge_tick(&mut ctx, 0);
        assert!(matches!(
            ctx.sent.last(),
            Some((_, SessionMsg::ZcrChallenge { challenger, .. })) if *challenger == n(3)
        ));
        // Response 30ms later: own one-way distance = 15ms.
        ctx.now = SimTime::from_millis(1030);
        core.on_msg(&mut ctx, n(1), &response(ZoneId(2), 3, 0));
        assert_eq!(core.levels[0].my_dist_to_parent, Some(ms(15)));
    }

    #[test]
    fn hold_time_is_subtracted() {
        let (mut core, mut ctx) = started(3);
        ctx.now = SimTime::from_millis(1000);
        core.challenge_tick(&mut ctx, 0);
        ctx.now = SimTime::from_millis(1040);
        core.on_msg(&mut ctx, n(1), &response(ZoneId(2), 3, 10));
        assert_eq!(core.levels[0].my_dist_to_parent, Some(ms(15)));
    }

    #[test]
    fn elect_seeding_knows_only_the_root() {
        let core = SessionCore::new(
            n(5),
            hier(),
            SessionConfig,
            &ZcrSeeding::Elect { root: n(0) },
        );
        assert_eq!(core.zcr_of(ZoneId(2)), None);
        assert_eq!(core.zcr_of(ZoneId(0)), Some(n(0)));
    }

    #[test]
    fn non_chain_messages_are_ignored() {
        // Node 0's chain is only [Z0]; a takeover for Z2 must not touch it.
        let (mut core, mut ctx) = started(0);
        core.on_msg(&mut ctx, n(6), &takeover(ZoneId(2), 6, 1));
        assert_eq!(core.zcr_of(ZoneId(2)), None); // not in chain
        assert_eq!(core.zcr_of(ZoneId(0)), Some(n(0)));
    }

    #[test]
    fn partition_heal_closer_sitting_zcr_reasserts() {
        // Node 3 sits as ZCR of Z2 at 10ms from the parent ZCR; after a
        // healed partition it hears node 4 announce itself as Z2's ZCR at
        // 30ms.  Node 3 is strictly closer, so it must reassert with a
        // takeover rather than concede.
        let (mut core, mut ctx) = started(3);
        core.levels[0].my_dist_to_parent = Some(ms(10));
        ctx.now = SimTime::from_secs(30);
        core.on_msg(&mut ctx, n(4), &rival_announce());
        assert_eq!(core.zcr_of(ZoneId(2)), Some(n(3)), "incumbent holds");
        assert!(
            ctx.sent.iter().any(|(_, m)| matches!(
                m,
                SessionMsg::ZcrTakeover { zone, new_zcr, .. }
                    if *zone == ZoneId(2) && *new_zcr == n(3)
            )),
            "closer incumbent must reassert via takeover"
        );
    }

    #[test]
    fn partition_heal_farther_sitting_zcr_concedes() {
        // Mirror image: the sitting ZCR measures 50ms, the rival announces
        // 30ms — the incumbent concedes and adopts the rival.
        let (mut core, mut ctx) = started(3);
        core.levels[0].my_dist_to_parent = Some(ms(50));
        ctx.now = SimTime::from_secs(30);
        core.on_msg(&mut ctx, n(4), &rival_announce());
        assert_eq!(core.zcr_of(ZoneId(2)), Some(n(4)), "incumbent concedes");
        assert_eq!(core.levels[0].link_dist, Some(ms(30)));
        assert!(
            !ctx.sent
                .iter()
                .any(|(_, m)| matches!(m, SessionMsg::ZcrTakeover { .. })),
            "conceding incumbent must not fight"
        );
    }

    #[test]
    fn partition_heal_tie_breaks_toward_lower_node_id() {
        // Equal distances: the lower node id wins, so node 3 (vs rival 4)
        // reasserts on a tie.
        let (mut core, mut ctx) = started(3);
        core.levels[0].my_dist_to_parent = Some(ms(30));
        ctx.now = SimTime::from_secs(30);
        core.on_msg(&mut ctx, n(4), &rival_announce());
        assert_eq!(core.zcr_of(ZoneId(2)), Some(n(3)));
    }

    #[test]
    fn partitioned_sitting_zcr_ignores_remote_takeover() {
        // Node 3 is ZCR of Z2 but has heard nobody in the zone for far
        // longer than the liveness window — it is cut off from the zone,
        // and the takeover it hears arrived through the parent channel
        // from the far side of the partition.  It must neither reassert
        // (that would flip the far side's freshly elected ZCR and
        // oscillate) nor concede the zone it still serves on its side.
        let (mut core, mut ctx) = started(3);
        core.levels[0].my_dist_to_parent = Some(ms(10));
        ctx.now = SimTime::from_secs(20);
        core.on_msg(&mut ctx, n(6), &takeover(ZoneId(2), 6, 25));
        assert_eq!(core.zcr_of(ZoneId(2)), Some(n(3)), "no concession");
        assert!(
            !ctx.sent
                .iter()
                .any(|(_, m)| matches!(m, SessionMsg::ZcrTakeover { .. })),
            "no cross-partition reassert"
        );

        // Once zone traffic is heard again the usual reassert logic is
        // back in force: the same farther takeover now draws a fight.
        core.on_msg(&mut ctx, n(4), &announce(ZoneId(2), 20_000, 3, vec![]));
        core.on_msg(&mut ctx, n(6), &takeover(ZoneId(2), 6, 25));
        assert_eq!(core.zcr_of(ZoneId(2)), Some(n(3)));
        assert!(
            ctx.sent.iter().any(|(_, m)| matches!(
                m,
                SessionMsg::ZcrTakeover { new_zcr, .. } if *new_zcr == n(3)
            )),
            "connected incumbent reasserts as before"
        );
    }

    #[test]
    fn stale_challenger_measurement_is_discarded() {
        // Node 5 overhears a challenge from node 3, but node 3 has not
        // been heard inside the zone for a whole liveness window: the
        // cached RTT to it predates a partition, so the overheard
        // distance arithmetic must be skipped, not clamped.
        let (mut core, mut ctx) = started(5);
        let z2 = core.chain_zones()[0];
        // Heard node 3 once, early — the RTT sample that would feed the
        // overheard formula.
        ctx.now = SimTime::from_millis(60);
        let echo = announce(z2, 40, 3, vec![line(5, 20, 0)]);
        core.on_msg(&mut ctx, n(3), &echo);
        // Much later (node 3 long silent in-zone) its challenge and the
        // parent's response drift in via the parent channel.
        ctx.now = SimTime::from_secs(20);
        core.on_msg(&mut ctx, n(3), &challenge(z2, 3, Some(50)));
        ctx.now = SimTime::from_secs(20) + ms(40);
        core.on_msg(&mut ctx, n(1), &response(z2, 3, 0));
        assert_eq!(
            core.levels[0].my_dist_to_parent, None,
            "stale overheard measurement must not update the distance"
        );
        assert!(
            core.levels[0].takeover.is_none(),
            "and cannot win elections"
        );
    }

    #[test]
    fn own_line_is_found_wherever_it_sorts() {
        // Node 5 in Z2 = {3, 4, 5, 6}; every echo below closes a 60 ms loop
        // (heard at 180, own timestamp 100, held 20).
        let (mut core, mut ctx) = started(5);
        ctx.now = SimTime::from_millis(180);
        let z2 = ZoneId(2);
        let mine = || line(5, 100, 20);
        let other = |p| line(p, 1, 1);
        // First.
        core.on_msg(
            &mut ctx,
            n(4),
            &announce(z2, 150, 3, vec![mine(), other(6)]),
        );
        assert_eq!(core.direct_rtt(n(4)), Some(ms(60)));
        // Middle.
        core.on_msg(
            &mut ctx,
            n(3),
            &announce(z2, 150, 3, vec![other(4), mine(), other(6)]),
        );
        assert_eq!(core.direct_rtt(n(3)), Some(ms(60)));
        // Last.
        core.on_msg(
            &mut ctx,
            n(6),
            &announce(z2, 150, 3, vec![other(3), other(4), mine()]),
        );
        assert_eq!(core.direct_rtt(n(6)), Some(ms(60)));
        assert_eq!(core.max_known_rtt(), Some(ms(60)));

        // Absent: the sender's echo state is refreshed, the estimate
        // already held for it is left alone …
        core.on_msg(
            &mut ctx,
            n(4),
            &announce(z2, 170, 3, vec![other(3), other(6)]),
        );
        assert_eq!(core.direct_rtt(n(4)), Some(ms(60)));
        assert_eq!(
            core.peer_state(0, n(4)).map(|p| p.last_sent_at),
            Some(SimTime::from_millis(170))
        );
        assert_eq!(core.tracked_peer_count(), 3);

        // … and a peer never echoed back is heard without an estimate.
        let mut core = core_of(5);
        core.start(&mut ctx);
        core.on_msg(&mut ctx, n(4), &announce(z2, 150, 3, vec![other(3)]));
        core.on_msg(&mut ctx, n(6), &announce(z2, 150, 3, vec![]));
        assert_eq!(core.direct_rtt(n(4)), None);
        assert_eq!(core.max_known_rtt(), None);
        assert_eq!(core.tracked_peer_count(), 2);
    }

    #[test]
    fn a_lost_seat_keeps_its_table_and_a_regained_one_resumes_it() {
        // Node 3 sits as ZCR of Z2, so it participates in Z2 and Z1.
        let (mut core, mut ctx) = started(3);
        let (z1, z2) = (ZoneId(1), ZoneId(2));
        ctx.now = SimTime::from_millis(180);
        core.on_msg(
            &mut ctx,
            n(4),
            &announce(z2, 150, 3, vec![line(3, 100, 20)]),
        );
        core.on_msg(
            &mut ctx,
            n(1),
            &announce(z1, 150, 1, vec![line(3, 100, 40)]),
        );
        core.on_msg(&mut ctx, n(2), &announce(z1, 150, 1, vec![]));
        assert_eq!(core.tracked_peer_count(), 3);
        assert_eq!(core.direct_rtt(n(1)), Some(ms(40)));

        // A closer usurper takes Z2: node 3 stops participating in Z1.
        core.levels[0].my_dist_to_parent = Some(ms(10));
        core.on_msg(&mut ctx, n(6), &takeover(z2, 6, 4));
        assert_eq!(core.participation(), vec![z2]);
        assert_eq!(core.seats(), 0);
        // The Z1 table is kept and still counted, but no longer searched
        // or updated …
        assert_eq!(core.tracked_peer_count(), 3);
        assert_eq!(core.direct_rtt(n(1)), None);
        assert_eq!(core.max_known_rtt(), Some(ms(60)));
        ctx.now = SimTime::from_secs(5);
        core.on_msg(&mut ctx, n(2), &announce(z1, 4_900, 1, vec![]));
        assert_eq!(
            core.peer_state(1, n(2)).map(|p| p.last_recv_at),
            Some(SimTime::from_millis(180))
        );
        // … nor expired: only participating levels are swept.
        ctx.now = SimTime::from_secs(30);
        core.on_msg(&mut ctx, n(4), &announce(z2, 29_900, 6, vec![]));
        assert!(core.on_timer(&mut ctx, token(KIND_ANNOUNCE, 0)));
        assert_eq!(core.levels[1].table.len(), 2);
        assert_eq!(core.tracked_peer_count(), 3);

        // Regaining the seat resumes the same table: nothing is counted
        // twice, the old estimate is searchable again …
        core.levels[0].takeover = Some((TimerId(99), ms(1)));
        assert!(core.on_timer(&mut ctx, token(KIND_TAKEOVER, 0)));
        assert_eq!(core.participation(), vec![z2, z1]);
        assert_eq!(core.seats(), 0b1);
        assert_eq!(core.tracked_peer_count(), 3);
        assert_eq!(core.direct_rtt(n(1)), Some(ms(40)));
        // … and the next announcement sweeps out what went stale meanwhile.
        core.on_msg(&mut ctx, n(1), &announce(z1, 29_900, 1, vec![]));
        assert!(core.on_timer(&mut ctx, token(KIND_ANNOUNCE, 0)));
        assert_eq!(core.levels[1].table.len(), 1);
        assert_eq!(core.tracked_peer_count(), 2);
    }

    #[test]
    fn freshness_reads_the_levels_own_table() {
        let (mut core, mut ctx) = started(5);
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(20); // far past the 3.2 s window
                                           // Nobody heard yet: trivially fresh early on, stale once a whole
                                           // window has passed — at a participating level and at one that
                                           // holds no table entries because the node does not participate.
        for l in [0, 1] {
            assert!(core.zone_fresh(l, early));
            assert!(core.peer_fresh(l, n(4), early));
            assert!(!core.zone_fresh(l, late));
            assert!(!core.peer_fresh(l, n(4), late));
        }
        ctx.now = late;
        core.on_msg(&mut ctx, n(4), &announce(ZoneId(2), 19_990, 3, vec![]));
        assert!(core.zone_fresh(0, late));
        assert!(core.peer_fresh(0, n(4), late));
        assert!(!core.peer_fresh(0, n(6), late), "freshness is per peer");
        assert!(!core.zone_fresh(1, late), "and per level");
        assert!(!core.zone_fresh(0, late + LIVENESS_WINDOW));
    }

    #[test]
    fn liveness_window_is_the_factor_times_the_period() {
        assert_eq!(LIVENESS_WINDOW, CHALLENGE_PERIOD.mul_f64(LIVENESS_FACTOR));
        assert_eq!(LIVENESS_WINDOW, SimDuration::from_millis(3200));
    }

    #[test]
    fn a_zone_outside_the_chain_has_no_aggregate() {
        // Node 0's chain is [Z0]; Z2 traffic reaches it because channels
        // nest, and is ignored.
        let (mut core, mut ctx) = started(0);
        core.set_local_loss(0.25);
        core.on_msg(&mut ctx, n(3), &reported(ZoneId(2), 10, 3));
        assert_eq!(core.aggregate_report(ZoneId(2)), None);
        assert_eq!(core.aggregate_report(ZoneId(1)), None);
        assert_eq!(
            core.aggregate_report(ZoneId(0)),
            Some(LossReport::single(0.25))
        );
        assert_eq!(core.tracked_peer_count(), 0);
        assert_eq!(core.direct_rtt(n(3)), None);
    }

    #[test]
    fn only_a_seat_here_or_below_keeps_the_reports_heard() {
        // Node 5 holds no seat: the reports it hears cost it nothing.
        let (mut plain, mut ctx) = started(5);
        let bytes = plain.state_bytes();
        plain.on_msg(&mut ctx, n(1), &reported(ZoneId(1), 10, 1));
        assert_eq!(plain.state_bytes(), bytes, "no report map");
        plain.on_msg(&mut ctx, n(4), &reported(ZoneId(2), 10, 3));
        assert!(plain.levels.iter().all(|l| l.reports.is_empty()));
        // Z2's ZCR, node 3, keeps them.
        let (mut zcr, _) = started(3);
        zcr.on_msg(&mut ctx, n(5), &reported(ZoneId(2), 10, 3));
        assert_eq!(zcr.aggregate_report(ZoneId(2)).unwrap().receivers, 1);
        // Node 4 wins Z2's seat: it summarizes only what it hears after.
        let (mut heir, _) = started(4);
        heir.on_msg(&mut ctx, n(5), &reported(ZoneId(2), 10, 3));
        heir.set_seat(0, Some(n(4)));
        heir.on_msg(&mut ctx, n(6), &reported(ZoneId(2), 20, 3));
        assert_eq!(heir.outgoing_report(ZoneId(1)).unwrap().receivers, 1);
    }

    #[test]
    fn source_has_no_election_timers() {
        let (_, ctx) = started(0);
        let challenge_timers = ctx
            .timers
            .iter()
            .filter(|(_, t)| token_parts(*t).0 == KIND_CHALLENGE)
            .count();
        assert_eq!(challenge_timers, 0, "root zone representative is fixed");
    }
}

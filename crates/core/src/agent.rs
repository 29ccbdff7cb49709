//! The SHARQFEC protocol agent.
//!
//! Every member runs the one Loss Detection Phase / Repair Phase state
//! machine of paper §4.  The *sender* is simply the member at the node
//! named as the stream's source: it is born holding every group (so it
//! never detects a loss or asks for a repair), sends the stream, and
//! represents the root zone.  Every member embeds a [`SessionCore`] for
//! RTT estimates and ZCR identity, and repairs the zones it belongs to.

use crate::config::{SharqfecConfig, PACKET_BYTES, SEND_INTERVAL};
use crate::group::{GroupState, Phase};
use crate::msg::SfMsg;
use crate::policy::Policy;
use sharqfec_netsim::adaptive::AdaptiveTimer;
use sharqfec_netsim::prelude::*;
use sharqfec_scoping::ZoneId;
use sharqfec_session::core::{is_session_token, SessionCore};
use sharqfec_session::Bridge;
use std::ops::{Index, IndexMut};

/// Recovery delay (in units of `d_SA`) above which the adaptive request
/// window narrows.  The window is the SRM §V adjustment
/// ([`sharqfec_netsim::adaptive`]) applied to SHARQFEC's request window
/// `2^i·[C1·d, (C1+C2)·d]` — the paper's §7 future work, off unless
/// [`SharqfecConfig::adaptive_timers`] — and this trigger is the one place
/// it deliberately departs from the SRM baseline's 1.5: SHARQFEC rounds
/// are measured against `d_SA` to the zone's ZCR, which scoping keeps
/// short, so only genuinely slow rounds should narrow the window.
pub const DELAY_HIGH: f64 = 4.0;

/// Request window start and width factors (paper §4: C1 = C2 = 2), the
/// window being `2^i·[C1·d, (C1+C2)·d]`.
const C1: f64 = 2.0;
const C2: f64 = 2.0;
/// Reply window start and width factors (paper §4: D1 = D2 = 1); no
/// reply backoff.
const D1: f64 = 1.0;
const D2: f64 = 1.0;
/// NACK attempts per zone before escalating scope (paper §4: 2).
const ATTEMPTS_PER_ZONE: u32 = 2;
/// NACK base size in bytes (ancestor-chain entries add 12 B each).
const NACK_BYTES: u32 = 40;
/// ZLC measurement delay as a multiple of the RTT to the most distant
/// known receiver (paper §4: 2.5).
const MEASURE_RTT_FACTOR: f64 = 2.5;
/// Fallback one-way distance for timers before the session has produced
/// an estimate.
pub(crate) const DEFAULT_DIST: SimDuration = SimDuration::from_millis(50);

// Timer token layout (bit 63 is reserved for the session layer):
// bits 40..44 = kind, bits 8..40 = group, bits 0..8 = chain level.
const KIND_SEND: u64 = 1;
const KIND_LDP: u64 = 2;
const KIND_REQ: u64 = 3;
const KIND_REPLY: u64 = 4;
const KIND_SPACING: u64 = 5;
const KIND_MEASURE: u64 = 6;
const KIND_AUDIT: u64 = 7;

fn tok(kind: u64, group: u32, level: usize) -> u64 {
    (kind << 40) | ((group as u64) << 8) | level as u64
}

fn tok_parts(token: u64) -> (u64, u32, usize) {
    (
        (token >> 40) & 0xF,
        ((token >> 8) & 0xFFFF_FFFF) as u32,
        (token & 0xFF) as usize,
    )
}

/// Every group's state at one member, by group id: ids are dense, so the
/// first group heard sizes the table in one allocation, walked in id order.
#[derive(Clone, Debug, Default)]
struct GroupTable(Vec<Option<GroupState>>);

impl GroupTable {
    fn get(&self, g: u32) -> Option<&GroupState> {
        self.0.get(g as usize)?.as_ref()
    }
}

impl Index<u32> for GroupTable {
    type Output = GroupState;
    fn index(&self, g: u32) -> &GroupState {
        self.get(g).unwrap_or_else(|| panic!("no group {g}"))
    }
}

impl IndexMut<u32> for GroupTable {
    fn index_mut(&mut self, g: u32) -> &mut GroupState {
        let slot = self.0.get_mut(g as usize).and_then(Option::as_mut);
        slot.unwrap_or_else(|| panic!("no group {g}"))
    }
}

/// The SHARQFEC protocol state machine for one session member.
#[derive(Clone, Debug)]
pub struct SfAgent {
    cfg: SharqfecConfig,
    /// Session state, and the one copy of this member's zone chain
    /// (smallest zone first): chain level `l` is zone `chain_zones()[l]`,
    /// on that zone's [`ZoneId::channel`].
    session: SessionCore,
    /// The stream's source: the member at this node is the sender.
    source: NodeId,
    /// The scope index new NACKs start at (paper §4's smallest-partition
    /// rule).
    initial_scope: usize,
    groups: GroupTable,
    /// Sizes preemptive injection where this member is a level's ZCR
    /// (paper §4's EWMA by default; see [`crate::policy`]).
    policy: Policy,
    /// The sender's next absolute data sequence number.
    next_seq: u32,
    /// Request-window constants C1 (`lo`) and C2 (`width`), optionally
    /// adapted (paper §7 extension; see [`DELAY_HIGH`]).
    window: AdaptiveTimer,
    /// EWMA of this receiver's observed loss fraction, fed to the session
    /// layer's §7 receiver-report summarization.
    observed_loss: f64,
    /// The session's seat mask as last forwarded to the policy.
    seats_seen: u64,
}

impl SfAgent {
    /// Creates the agent of the member `session` runs at, the sender if
    /// that is `source`.  Each zone's traffic goes on [`ZoneId::channel`];
    /// the root zone's channel doubles as the maximum-scope data channel.
    pub fn new(cfg: SharqfecConfig, session: SessionCore, source: NodeId) -> SfAgent {
        cfg.validate();
        let chain = session.chain_zones();
        let initial_scope = if session.hierarchy().is_member(chain[0], source) {
            chain.len() - 1
        } else {
            0
        };
        let policy = cfg.policy.build(chain.len());
        let window = AdaptiveTimer::new(C1, C2, cfg.adaptive_timers, DELAY_HIGH);
        SfAgent {
            cfg,
            session,
            source,
            initial_scope,
            groups: GroupTable::default(),
            policy,
            next_seq: 0,
            window,
            observed_loss: 0.0,
            seats_seen: 0,
        }
    }

    /// Whether this member is the sender.
    fn is_source(&self) -> bool {
        self.session.node() == self.source
    }

    /// The embedded session state machine.
    pub fn session(&self) -> &SessionCore {
        &self.session
    }

    /// Whether every group of the stream is reconstructable here.
    pub fn complete(&self) -> bool {
        self.missing() == 0
    }

    /// Total packets still missing across all groups.
    pub fn missing(&self) -> u32 {
        if self.is_source() {
            return 0;
        }
        let deficit = |g| match self.groups.get(g) {
            Some(st) => st.deficit(),
            None => self.cfg.packets_in_group(g),
        };
        (0..self.cfg.group_count()).map(deficit).sum()
    }

    /// Current predicted ZLC at a chain level (diagnostics / benches).
    pub fn zlc_prediction(&self, level: usize) -> f64 {
        self.policy.predicted(level)
    }

    /// When this receiver completed its last group, once *every* group
    /// of the stream is reconstructable here (`None` for the source and
    /// for receivers still missing packets).
    pub fn completion_time(&self) -> Option<SimTime> {
        if self.is_source() {
            return None;
        }
        let mut worst = SimTime::ZERO;
        for g in 0..self.cfg.group_count() {
            let t = self.groups.get(g).and_then(|s| s.complete_at)?;
            worst = worst.max(t);
        }
        Some(worst)
    }

    /// Forwards the ZCR seats this member gained or lost since the last
    /// call to the policy, lowest level first, so history-bearing
    /// predictors can reset on election.  Seeded seats count as gains.
    fn forward_seat_changes(&mut self) {
        // Called after every session callback; seats change a few times a
        // run.
        let mut changed = self.session.seats() ^ self.seats_seen;
        self.seats_seen ^= changed;
        while changed != 0 {
            let level = changed.trailing_zeros() as usize;
            changed &= changed - 1;
            self.policy
                .on_seat_change(level, self.seats_seen >> level & 1 == 1);
        }
    }

    /// The packet indices this member holds for group `g`, sorted — the
    /// shards an application hands to `sharqfec-fec`'s decoder.
    pub fn held_indices(&self, g: u32) -> Vec<u32> {
        let st = self.groups.get(g);
        st.map_or_else(Vec::new, GroupState::held_indices)
    }

    fn group_entry(&mut self, g: u32) -> &mut GroupState {
        let k = self.cfg.packets_in_group(g);
        let levels = self.session.chain_zones().len();
        let (initial_scope, is_source) = (self.initial_scope, self.is_source());
        if self.groups.0.is_empty() {
            self.groups.0 = (0..self.cfg.group_count()).map(|_| None).collect();
        }
        self.groups.0[g as usize].get_or_insert_with(|| {
            if is_source {
                GroupState::complete_source(k, levels)
            } else {
                GroupState::new(k, levels, initial_scope)
            }
        })
    }

    /// One-way distance estimate to the source (the root ZCR) for request
    /// timers, with [`DEFAULT_DIST`] before the session converges.
    fn d_sa(&self) -> SimDuration {
        self.session
            .dist_to_ancestor(self.session.chain_zones().len() - 1)
            .unwrap_or(DEFAULT_DIST)
    }

    // ---- request (NACK) side ---------------------------------------------

    fn arm_request(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32) {
        let d = self.d_sa();
        let (c1, c2, max_backoff) = (self.window.lo(), self.window.width(), self.cfg.max_backoff);
        let st = &mut self.groups[g];
        let factor = ctx.rng().range_f64(c1, c1 + c2);
        let delay = d.mul_f64(factor) * (1u64 << st.i.min(max_backoff));
        if let Some(old) = st.request_timer.take() {
            ctx.cancel_timer(old);
        }
        st.request_timer = Some(ctx.set_timer(delay, tok(KIND_REQ, g, 0)));
    }

    /// Arms a request timer if this receiver's losses exceed the ZLC known
    /// at *every* zone it belongs to (the paper's suppression rule: a NACK
    /// at any enclosing scope with `llc >= ours` provokes repairs that
    /// reach us, since zone channels nest).
    fn maybe_request(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32) {
        let st = &self.groups[g];
        if st.request_timer.is_some() || st.complete() || st.deficit() == 0 {
            return;
        }
        // Only scopes our next request would ask at (or wider) can cover
        // us — narrower ones already failed to produce a repair if the
        // request escalated past them.
        if st.llc() > st.covered_by() {
            self.arm_request(ctx, g);
        }
    }

    fn request_fire(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32) {
        // A zone's representative asks *upstream*: its own zone shares its
        // losses by construction (everything it missed, its subtree missed
        // too), so its requests start at the parent scope.
        let chain = self.session.chain_zones();
        let zcr_floor = if chain.len() > 1 && self.session.is_zcr_of(chain[0]) {
            1
        } else {
            0
        };
        let st = &mut self.groups[g];
        st.request_timer = None;
        if st.complete() || st.deficit() == 0 {
            return;
        }
        st.scope_idx = st.scope_idx.max(zcr_floor);
        let sent_level = st.scope_idx;
        let zone = chain[sent_level];
        let needed = st.deficit();
        let llc = st.llc();
        let max_idx = st.max_idx().unwrap_or(st.k.saturating_sub(1));
        // Our own NACK establishes the new ZLC for the zone.
        st.zones[sent_level].zlc = st.zones[sent_level].zlc.max(llc);
        let zlc_now = st.zones[sent_level].zlc;
        st.attempts += 1;
        if st.attempts >= ATTEMPTS_PER_ZONE && st.scope_idx + 1 < chain.len() {
            // Escalate to the next-larger scope (paper §4: "after two
            // attempts at each zone").
            st.scope_idx += 1;
            st.attempts = 0;
        }
        st.i = (st.i + 1).min(self.cfg.max_backoff);
        let chain_entries = self.session.ancestor_chain();
        let bytes = NACK_BYTES + 12 * chain_entries.len() as u32;
        ctx.multicast(
            zone.channel(),
            SfMsg::Nack {
                group: g,
                zone,
                llc,
                needed,
                max_idx,
                chain: chain_entries,
            },
            bytes,
        );
        ctx.probe(ProbeEvent::Nack {
            group: g,
            level: sent_level as u32,
            outcome: NackOutcome::Sent,
            llc,
            zlc: zlc_now,
        });
        // Keep waiting: if the repairs get lost we must re-request.
        self.arm_request(ctx, g);
    }

    // ---- reply (repair) side ---------------------------------------------

    /// Whether this member represents chain level `level`'s zone: the
    /// sender represents the root zone alone, a receiver every zone it
    /// is ZCR of.
    fn represents(&self, level: usize) -> bool {
        let chain = self.session.chain_zones();
        if self.is_source() {
            level == chain.len() - 1
        } else {
            self.session.is_zcr_of(chain[level])
        }
    }

    /// Whether this member repairs at all: the sender always, receivers
    /// unless only the sender repairs (the `so` variant).
    fn may_repair(&self) -> bool {
        self.is_source() || self.cfg.variant.receivers_repair()
    }

    fn can_repair(&self, g: u32) -> bool {
        self.may_repair() && self.groups.get(g).is_some_and(GroupState::complete)
    }

    fn arm_reply(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32, level: usize) {
        let z = &mut self.groups[g].zones[level];
        if z.reply_timer.is_some() || z.outstanding == 0 {
            return;
        }
        let d = z.last_nack_dist.unwrap_or(DEFAULT_DIST);
        let factor = ctx.rng().range_f64(D1, D1 + D2);
        // No backoff on reply timers (paper §4).
        z.reply_timer = Some(ctx.set_timer(d.mul_f64(factor), tok(KIND_REPLY, g, level)));
    }

    /// Starts (or continues) transmitting queued repairs for a zone if a
    /// pacing chain is not already running.  The zone's ZCR and the sender
    /// call this directly on NACK arrival / group completion — they repair
    /// *immediately* (paper §4: the sender "immediately generating and
    /// transmitting the first of any queued repairs"), which is what
    /// suppresses the slower timer-based repairers.
    fn kick_repairs(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32, level: usize) {
        let z = &self.groups[g].zones[level];
        if !z.pacing && z.outstanding > 0 && self.can_repair(g) {
            self.send_repair(ctx, g, level);
        }
    }

    /// Transmits one FEC repair into the given zone and paces the next.
    fn send_repair(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32, level: usize) {
        let chan = self.session.chain_zones()[level].channel();
        let st = &mut self.groups[g];
        if st.zones[level].outstanding == 0 {
            st.zones[level].pacing = false;
            return;
        }
        let idx = st.next_repair_idx();
        st.receive(idx); // a repairer holds what it generates
        st.zones[level].outstanding -= 1;
        let k = st.k;
        let more = st.zones[level].outstanding > 0;
        st.zones[level].pacing = more;
        // Announce the whole paced burst (paper §4's "what will be the new
        // highest packet identifier") so one heard packet suppresses rival
        // repairers for the entire burst.
        let burst_end = idx + st.zones[level].outstanding;
        st.reserve(burst_end);
        ctx.multicast(
            chan,
            SfMsg::Fec {
                group: g,
                idx,
                k,
                burst_end,
            },
            PACKET_BYTES,
        );
        if more {
            // Half the inter-packet interval, the paper's §4 repair pacing.
            ctx.set_timer(SEND_INTERVAL / 2, tok(KIND_SPACING, g, level));
        }
    }

    fn reply_fire(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32, level: usize) {
        let st = &mut self.groups[g];
        st.zones[level].reply_timer = None;
        if st.zones[level].outstanding == 0 {
            return;
        }
        if !self.can_repair(g) {
            // Speculation failed: we never completed the group, so we
            // cannot generate FEC.  Surrender this round; the requester
            // will escalate if nobody else answered either.
            self.groups[g].zones[level].outstanding = 0;
            return;
        }
        self.kick_repairs(ctx, g, level);
    }

    // ---- preemptive injection and ZLC measurement --------------------------

    /// On a receiver's group completion: inject predicted FEC into zones
    /// this member represents, and schedule the ZLC measurement that
    /// feeds the EWMA.  (The sender is born holding every group.)
    fn on_complete(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32) {
        let now = ctx.now();
        let d_sa = self.d_sa().as_secs_f64().max(1e-9);
        let st = &mut self.groups[g];
        st.complete_at = Some(now);
        // Close the adaptive-timer round if this group saw losses.
        if st.peak_llc > 0 {
            let waited = st
                .first_heard
                .map(|t| now.saturating_since(t).as_secs_f64())
                .unwrap_or(0.0);
            self.window.end_round(waited / d_sa);
            ctx.probe(ProbeEvent::Window {
                lo: self.window.lo(),
                width: self.window.width(),
                ave_dup: self.window.ave_dup(),
                ave_delay: self.window.ave_delay(),
            });
        }
        ctx.probe(ProbeEvent::GroupClose {
            group: g,
            complete: true,
            held: st.held(),
            k: st.k,
        });
        st.phase = Phase::Repair;
        st.i = 1;
        if let Some(t) = st.request_timer.take() {
            ctx.cancel_timer(t);
        }
        if let Some(t) = st.ldp_timer.take() {
            ctx.cancel_timer(t);
        }
        // Feed the §7 receiver-report summary: the fraction of this
        // group's identifiers we never received, smoothed.
        let span = st.max_idx().map(|m| m + 1).unwrap_or(st.k).max(1);
        let frac = st.peak_llc as f64 / span as f64;
        self.observed_loss += 0.25 * (frac - self.observed_loss);
        self.session.set_local_loss(self.observed_loss);
        for level in 0..self.session.chain_zones().len() {
            if self.represents(level) {
                self.zcr_duties(ctx, g, level);
            } else if self.may_repair() {
                // Plain repairers answer queued NACKs now that they can.
                self.arm_reply(ctx, g, level);
            }
        }
    }

    /// A zone representative's duties once it holds group `g` (a receiver
    /// on completing it, the sender on sending it), paper §4: preemptive
    /// injection sized by the policy, the first queued repair at once,
    /// and the true ZLC measured 2.5 RTTs later.
    fn zcr_duties(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32, level: usize) {
        if self.cfg.variant.injects() && !self.groups[g].zones[level].injected {
            self.groups[g].zones[level].injected = true;
            let n = self.decide_injection(ctx, g, level);
            self.groups[g].zones[level].outstanding += n;
        }
        self.kick_repairs(ctx, g, level);
        if !self.groups[g].zones[level].measured {
            let rtt = self.session.max_known_rtt().unwrap_or(DEFAULT_DIST * 2);
            ctx.set_timer(rtt.mul_f64(MEASURE_RTT_FACTOR), tok(KIND_MEASURE, g, level));
        }
    }

    /// Upper bound on how often a ZLC measurement is re-armed while the
    /// session layer still has no RTT estimate.  Bounds the startup defer
    /// so a permanently partitioned member still measures eventually.
    const MAX_MEASURE_DEFERS: u8 = 8;

    /// Asks the policy how much FEC to inject into `level`'s zone for
    /// group `g` (at most the group size, which the auditor checks),
    /// records the decision, and returns the count.
    fn decide_injection(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32, level: usize) -> u32 {
        let (pred, n) = self.policy.decide(level, self.cfg.group_size);
        ctx.probe(ProbeEvent::PolicyDecision {
            policy: self.cfg.policy.name(),
            group: g,
            level: level as u32,
            pred,
            target: self.cfg.policy.target(),
            chosen: n,
            group_size: self.cfg.group_size,
        });
        n
    }

    fn measure_fire(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32, level: usize) {
        // Startup ordering: when the measurement was armed before the
        // session converged, its delay came from the `DEFAULT_DIST * 2`
        // fallback.  If that undershoots the true round-trip the timer
        // fires before the zone's first repair round settles, folding a
        // spurious low observation into the predictor.  Defer until an
        // RTT is known (bounded by `MAX_MEASURE_DEFERS`).
        if self.session.max_known_rtt().is_none() {
            let z = &mut self.groups[g].zones[level];
            if !z.measured && z.measure_defers < Self::MAX_MEASURE_DEFERS {
                z.measure_defers += 1;
                let delay = (DEFAULT_DIST * 2).mul_f64(MEASURE_RTT_FACTOR);
                ctx.set_timer(delay, tok(KIND_MEASURE, g, level));
                return;
            }
        }
        let st = &mut self.groups[g];
        if st.zones[level].measured {
            return;
        }
        st.zones[level].measured = true;
        // The zone's observed repair demand for this group: the largest
        // `needed` any NACK in the zone advertised.  This is measured net
        // of upstream redundancy — a receiver already covered by packets
        // injected at larger scopes never NACKed — which realizes the
        // paper's rule that subservient zones add less redundancy when
        // upstream zones add more.  When injection suppressed every NACK
        // the observation is 0 and the prediction decays, matching the
        // paper's "decays over time; receivers request additional repairs
        // as necessary".
        let observed = st.zones[level].zone_needed as f64;
        self.policy.on_zlc_measurement(level, observed);
        ctx.probe(ProbeEvent::ZlcUpdate {
            group: g,
            level: level as u32,
            observed,
            pred: self.policy.predicted(level),
        });
    }

    // ---- packet handling ---------------------------------------------------

    fn handle_payload(
        &mut self,
        ctx: &mut Ctx<'_, SfMsg>,
        g: u32,
        idx: u32,
        channel: ChannelId,
        // For repairs: the sender's announced burst end (its "new highest
        // packet identifier"); `idx` for data packets.
        burst_end: u32,
        is_repair: bool,
    ) {
        let st = self.group_entry(g);
        if st.first_heard.is_none() {
            st.first_heard = Some(ctx.now());
        }
        // First contact with the group: arm the LDP timer (receivers).
        if st.phase == Phase::Ldp && st.ldp_timer.is_none() && st.complete_at.is_none() {
            // Expected residue of the group at the advertised rate,
            // plus slack for jitter (paper §4's inter-packet estimate).
            let remaining = st.k.saturating_sub(idx.min(st.k - 1) + 1) as u64;
            let delay = SEND_INTERVAL * (remaining + 3);
            st.ldp_timer = Some(ctx.set_timer(delay, tok(KIND_LDP, g, 0)));
        }
        st.receive(idx);

        if is_repair {
            // Repairs heard on zone `z` also satisfy every nested zone we
            // belong to: dequeue speculative repairs at this level and all
            // deeper ones (paper §4) — an entire announced burst at once,
            // and the promised identifier range is reserved so our own
            // later repairs cannot collide with it.
            let burst = burst_end.saturating_sub(idx) + 1;
            // Classify the repair by scope: the chain is at most the
            // hierarchy's depth long, so a scan beats any map.
            let chain = self.session.chain_zones();
            let heard_at = chain.iter().position(|z| z.channel() == channel);
            if let Some(level) = heard_at {
                for j in 0..=level {
                    let st = &mut self.groups[g];
                    st.reserve(burst_end);
                    let z = &mut st.zones[j];
                    z.outstanding = z.outstanding.saturating_sub(burst);
                    if z.outstanding == 0 {
                        if let Some(t) = z.reply_timer.take() {
                            // Enough repairs seen or promised: suppress.
                            ctx.cancel_timer(t);
                        }
                    }
                }
            }
            // A repair resets the request backoff (paper §4: "any time a
            // repair arrives, i is reset to 1").
            let st = &mut self.groups[g];
            if st.request_timer.is_some() && !st.complete() {
                st.i = 1;
                self.arm_request(ctx, g);
            }
        }

        let st = &self.groups[g];
        if st.complete() && st.complete_at.is_none() {
            self.on_complete(ctx, g);
        } else {
            self.maybe_request(ctx, g);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_nack(
        &mut self,
        ctx: &mut Ctx<'_, SfMsg>,
        src: NodeId,
        g: u32,
        zone: ZoneId,
        llc: u32,
        needed: u32,
        max_idx: u32,
        chain: &[sharqfec_session::AncestorEntry],
    ) {
        let Some(level) = self.session.chain_zones().iter().position(|&z| z == zone) else {
            return; // NACK for a zone we are not in (cannot happen via scoping)
        };
        self.group_entry(g);
        let dist = self
            .session
            .estimate_rtt(src, chain)
            .map(|rtt| rtt / 2)
            .unwrap_or(DEFAULT_DIST);
        let max_backoff = self.cfg.max_backoff;

        let (became_visible, suppress_outcome, my_llc, zlc_now) = {
            let st = &mut self.groups[g];
            let newly = st.note_exists(max_idx);
            let z = &mut st.zones[level];
            let zlc_increased = llc > z.zlc;
            z.zlc = z.zlc.max(llc);
            // Repairer bookkeeping: the zone needs max(needed) repairs —
            // FEC covers concurrent NACKers with one set of packets.
            z.outstanding = z.outstanding.max(needed);
            z.zone_needed = z.zone_needed.max(needed);
            z.last_nack_dist = Some(dist);

            // Requester-side suppression — but only by NACKs at or above
            // the scope our own next request will use.  A request that
            // escalated to `scope_idx` did so because every narrower
            // scope failed to produce a repair (correlated zone loss
            // leaves nobody there able to serve); chatter at those
            // proven-futile scopes must not postpone the wider ask, or a
            // zone that lost the same packets everywhere livelocks on
            // its own retries.
            let mut outcome = None;
            if st.request_timer.is_some() && !st.complete() && level >= st.scope_idx {
                if !zlc_increased {
                    // Duplicate pressure: back off (paper §4's `i` rule)
                    // and, with §7 adaptive timers, widen the window.
                    st.i = (st.i + 1).min(max_backoff);
                    self.window.saw_duplicate();
                    outcome = Some(NackOutcome::SuppressedDuplicate);
                } else if st.llc() <= st.covered_by() {
                    // Someone worse off spoke for us at a scope enclosing
                    // our next request: the repairs it provokes reach
                    // every nested member, so push our NACK out.
                    outcome = Some(NackOutcome::SuppressedCovered);
                }
            }
            (newly > 0, outcome, st.llc(), st.zones[level].zlc)
        };
        // Loss evidence for the injection policy: a NACK advertises the
        // zone's uncovered shortfall (the EWMA ignores this; reactive
        // policies fold it in as a floor on the next decision).
        self.policy.on_nack(level, needed);
        if let Some(outcome) = suppress_outcome {
            ctx.probe(ProbeEvent::Nack {
                group: g,
                level: level as u32,
                outcome,
                llc: my_llc,
                zlc: zlc_now,
            });
            self.arm_request(ctx, g); // redraw with the (possibly bumped) i
        }
        if became_visible {
            // The advertised identifier revealed losses we hadn't seen.
            self.maybe_request(ctx, g);
        }
        // Reply scheduling.  The zone's representative (and the sender at
        // the largest scope) repairs immediately; everyone else arms a
        // suppression timer and usually gets beaten to it (speculative for
        // receivers that have not completed the group yet).
        if !self.may_repair() {
            return;
        }
        if self.represents(level) && self.can_repair(g) {
            self.kick_repairs(ctx, g, level);
        } else {
            self.arm_reply(ctx, g, level);
        }
    }

    fn ldp_fire(&mut self, ctx: &mut Ctx<'_, SfMsg>, g: u32) {
        let st = &mut self.groups[g];
        st.ldp_timer = None;
        if st.complete() {
            return;
        }
        st.phase = Phase::Repair;
        // Every data identifier must exist by now; tail losses that no
        // gap could reveal become visible here.
        st.note_exists(st.k - 1);
        self.maybe_request(ctx, g);
    }

    fn audit_fire(&mut self, ctx: &mut Ctx<'_, SfMsg>) {
        let mut all_done = true;
        for g in 0..self.cfg.group_count() {
            let (incomplete, needs_timer, held, k) = {
                let st = self.group_entry(g);
                if st.complete() {
                    (false, false, 0, 0)
                } else {
                    st.phase = Phase::Repair;
                    st.note_exists(st.k - 1);
                    (true, st.request_timer.is_none(), st.held(), st.k)
                }
            };
            if incomplete {
                all_done = false;
                ctx.probe(ProbeEvent::GroupClose {
                    group: g,
                    complete: false,
                    held,
                    k,
                });
                if needs_timer {
                    // Liveness watchdog: regardless of suppression state,
                    // a receiver still missing packets must eventually ask
                    // again (the paper's repairee rule).
                    self.arm_request(ctx, g);
                }
            }
        }
        if !all_done {
            ctx.set_timer(SEND_INTERVAL * 50, tok(KIND_AUDIT, 0, 0));
        }
    }

    // ---- source transmission ------------------------------------------------

    fn send_tick(&mut self, ctx: &mut Ctx<'_, SfMsg>) {
        if self.next_seq >= self.cfg.total_packets {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let g = seq / self.cfg.group_size;
        let idx = seq % self.cfg.group_size;
        let k = self.group_entry(g).k;
        ctx.probe(ProbeEvent::Sender { seq });
        ctx.multicast(
            ZoneId::ROOT.channel(),
            SfMsg::Data { group: g, idx, k },
            PACKET_BYTES,
        );
        if idx + 1 == k {
            // The group is on the wire: the root zone's ZCR duties.
            self.zcr_duties(ctx, g, self.session.chain_zones().len() - 1);
        }
        if self.next_seq < self.cfg.total_packets {
            ctx.set_timer(SEND_INTERVAL, tok(KIND_SEND, 0, 0));
        }
    }
}

impl Agent<SfMsg> for SfAgent {
    fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        // The zone chain is counted once, inside the session core.
        let mut bytes = size_of::<SfAgent>()
            + self.session.state_bytes()
            + self.groups.0.capacity() * size_of::<Option<GroupState>>()
            + self.policy.heap_bytes();
        for g in self.groups.0.iter().flatten() {
            bytes += g.heap_bytes();
        }
        bytes
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, SfMsg>) {
        self.session.start(&mut Bridge::new(ctx, SfMsg::Session));
        self.forward_seat_changes();
        // On a warm restart (NodeRestart after a crash) every timer this
        // agent had pending died in the crash, but the per-group
        // state still holds the handles.  A handle that *looks* armed
        // suppresses both `maybe_request` and the completeness watchdog's
        // re-arm, so a group mid-recovery at crash time would never ask
        // again.  Forget the dead timers and restart recovery: LDP cannot
        // resume (the group's burst is long gone from the wire), repair
        // pacing chains are broken, and the speculative repair queues
        // died with their reply timers.  On a cold start the group table is
        // empty and this is a no-op.  Group order matters: every armed
        // request consumes an RNG draw, and the table walks in id order.
        for g in 0..self.groups.0.len() as u32 {
            let Some(st) = self.groups.0[g as usize].as_mut() else {
                continue;
            };
            st.ldp_timer = None;
            st.request_timer = None;
            if st.phase == Phase::Ldp {
                st.phase = Phase::Repair;
            }
            for zone in &mut st.zones {
                zone.reply_timer = None;
                zone.pacing = false;
                zone.outstanding = 0;
            }
            self.maybe_request(ctx, g);
        }
        if self.is_source() {
            // A sender that has sent nothing joins the schedule where it
            // stands: a standby started at a handoff instant takes the
            // send slot the retiring sender's crash cancelled.
            if self.next_seq == 0 {
                self.next_seq = self.cfg.seqs_sent_before(ctx.now());
            }
            let delay = self.cfg.data_start.saturating_since(ctx.now());
            ctx.set_timer(delay, tok(KIND_SEND, 0, 0));
        } else {
            let end = self.cfg.data_start
                + SEND_INTERVAL * self.cfg.total_packets as u64
                + SEND_INTERVAL * 50;
            ctx.set_timer(end.saturating_since(ctx.now()), tok(KIND_AUDIT, 0, 0));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SfMsg>, token: u64) {
        if is_session_token(token) {
            self.session
                .on_timer(&mut Bridge::new(ctx, SfMsg::Session), token);
            self.forward_seat_changes();
            return;
        }
        let (kind, g, level) = tok_parts(token);
        match kind {
            KIND_SEND => self.send_tick(ctx),
            KIND_LDP => self.ldp_fire(ctx, g),
            KIND_REQ => self.request_fire(ctx, g),
            KIND_REPLY => self.reply_fire(ctx, g, level),
            KIND_SPACING => {
                self.groups[g].zones[level].pacing = false;
                self.kick_repairs(ctx, g, level);
            }
            KIND_MEASURE => self.measure_fire(ctx, g, level),
            KIND_AUDIT => self.audit_fire(ctx),
            other => unreachable!("unknown protocol timer kind {other}"),
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, SfMsg>, pkt: &Packet<SfMsg>) {
        match &pkt.payload {
            // Past the stream's end `packets_in_group` underflows: drop it.
            SfMsg::Data { group, .. } | SfMsg::Fec { group, .. } | SfMsg::Nack { group, .. }
                if *group >= self.cfg.group_count() => {}
            SfMsg::Session(msg) => {
                self.session
                    .on_msg(&mut Bridge::new(ctx, SfMsg::Session), pkt.src, msg);
                self.forward_seat_changes();
            }
            SfMsg::Data { group, idx, .. } => {
                self.handle_payload(ctx, *group, *idx, pkt.channel, *idx, false);
            }
            SfMsg::Fec {
                group,
                idx,
                burst_end,
                ..
            } => {
                self.handle_payload(ctx, *group, *idx, pkt.channel, *burst_end, true);
            }
            SfMsg::Nack {
                group,
                zone,
                llc,
                needed,
                max_idx,
                chain,
            } => {
                self.handle_nack(ctx, pkt.src, *group, *zone, *llc, *needed, *max_idx, chain);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use sharqfec_netsim::agent::Action;
    use sharqfec_netsim::routing::DistanceOracle;
    use sharqfec_netsim::testkit::Rig;
    use sharqfec_session::core::{SessionConfig, ZcrSeeding};
    use std::sync::Arc;

    const ME: NodeId = NodeId(3);

    /// The member at `node` of `chain(4)` with no engine and no network.
    /// The source `c0` belongs to the root zone only; `c1`, `c2` and `c3`
    /// also share the child zone under it, whose ZCR is `c1`.
    fn member(node: NodeId, cfg: SharqfecConfig) -> Rig<SfAgent> {
        let built = sharqfec_topology::chain(4);
        let hier = Arc::new(built.hierarchy.clone());
        let seeding = ZcrSeeding::Designed(built.designed_zcrs.clone());
        let session = SessionCore::new(node, hier, SessionConfig, &seeding);
        Rig {
            agent: SfAgent::new(cfg, session, built.source),
            now: SimTime::from_secs(6),
            node,
            rng: SimRng::new(11),
            oracle: DistanceOracle::compute(&built.topology),
            next_timer: 0,
            probes: ProbeSink::recording(),
        }
    }

    /// `c3`, nobody's ZCR: a two-level chain whose requests start at
    /// level 0.
    fn receiver() -> Rig<SfAgent> {
        member(ME, SharqfecConfig::full())
    }

    /// Delivers `payload` from a peer on chain level `level`'s channel.
    fn hear(d: &mut Rig<SfAgent>, level: usize, payload: SfMsg) -> Vec<Action<SfMsg>> {
        let channel = d.agent.session.chain_zones()[level].channel();
        d.hear(NodeId(2), channel, payload)
    }

    /// A peer's NACK at chain level `level` for one packet of group 0,
    /// having seen up to index 2.
    fn peer_nack(d: &mut Rig<SfAgent>, level: usize) -> Vec<Action<SfMsg>> {
        let zone = d.agent.session.chain_zones()[level];
        let chain = Vec::new();
        let (group, llc, needed, max_idx) = (0, 1, 1, 2);
        let nack = SfMsg::Nack {
            group,
            zone,
            llc,
            needed,
            max_idx,
            chain,
        };
        hear(d, level, nack)
    }

    /// Opens group `g` with a one-packet gap (indices 0 and 2 arrive),
    /// which arms its request timer.
    fn lose_one(d: &mut Rig<SfAgent>, g: u32) {
        for idx in [0, 2] {
            hear(
                d,
                1,
                SfMsg::Data {
                    group: g,
                    idx,
                    k: 16,
                },
            );
        }
        assert!(d.agent.groups[g].request_timer.is_some());
    }

    fn fire_request(d: &mut Rig<SfAgent>, g: u32) -> Vec<Action<SfMsg>> {
        d.call(|agent, ctx| agent.on_timer(ctx, tok(KIND_REQ, g, 0)))
    }

    /// The timers of `kind` an action list arms, as `(group, id)`.
    fn timers_armed(actions: &[Action<SfMsg>], kind: u64) -> Vec<(u32, TimerId)> {
        let armed = |a: &Action<SfMsg>| match *a {
            Action::SetTimer { id, token, .. } if tok_parts(token).0 == kind => {
                Some((tok_parts(token).1, id))
            }
            _ => None,
        };
        actions.iter().filter_map(armed).collect()
    }

    fn cancels(actions: &[Action<SfMsg>], timer: Option<TimerId>) -> bool {
        let hit = |a: &Action<SfMsg>| matches!(a, Action::CancelTimer(id) if Some(*id) == timer);
        actions.iter().any(hit)
    }

    /// PR 10's livelock fix, without a 500-receiver sweep cell: a
    /// duplicate NACK at the scope the next request will use backs the
    /// request off once; the same NACK at a scope the request has already
    /// escalated past — proven futile — does not touch it.
    #[test]
    fn duplicate_nacks_back_off_only_at_or_above_the_request_scope() {
        let mut d = receiver();
        lose_one(&mut d, 0);
        let duplicate_backoffs = |d: &Rig<SfAgent>| {
            let dup = NackOutcome::SuppressedDuplicate;
            let is_dup = |r: &&ProbeRecord| matches!(r.event, ProbeEvent::Nack { outcome, .. } if outcome == dup);
            d.probes.records().iter().filter(is_dup).count()
        };
        // Our own first NACK sets level 0's ZLC to our LLC, so a peer's
        // NACK with the same LLC raises nothing: a duplicate.
        fire_request(&mut d, 0);
        let (i, armed) = (d.agent.groups[0].i, d.agent.groups[0].request_timer);
        assert_eq!((d.agent.groups[0].scope_idx, i), (0, 2));
        let actions = peer_nack(&mut d, 0);
        assert_eq!(d.agent.groups[0].i, i + 1, "backed off");
        assert_eq!(duplicate_backoffs(&d), 1);
        assert!(cancels(&actions, armed), "old request cancelled");
        assert_eq!(timers_armed(&actions, KIND_REQ).len(), 1, "redrawn once");

        // The second attempt at level 0 escalates the next request to
        // level 1.  Level-0 chatter is now below its scope.
        fire_request(&mut d, 0);
        let (i, armed) = (d.agent.groups[0].i, d.agent.groups[0].request_timer);
        assert_eq!(d.agent.groups[0].scope_idx, 1);
        let actions = peer_nack(&mut d, 0);
        assert_eq!(d.agent.groups[0].i, i, "not backed off");
        assert_eq!(d.agent.groups[0].request_timer, armed, "timer untouched");
        assert_eq!(duplicate_backoffs(&d), 1, "no second suppression");
        assert!(timers_armed(&actions, KIND_REQ).is_empty());
    }

    /// Paper §4: "any time a repair arrives, i is reset to 1" — and the
    /// request is redrawn from the reset window.
    #[test]
    fn a_repair_resets_the_backoff_and_rearms_the_request() {
        let mut d = receiver();
        lose_one(&mut d, 0);
        fire_request(&mut d, 0);
        fire_request(&mut d, 0);
        let armed = d.agent.groups[0].request_timer;
        assert!(d.agent.groups[0].i > 1);
        // One repair of the fourteen still needed (k = 16, two held).
        let (group, idx, k, burst_end) = (0, 16, 16, 16);
        let actions = hear(
            &mut d,
            0,
            SfMsg::Fec {
                group,
                idx,
                k,
                burst_end,
            },
        );
        assert_eq!(d.agent.groups[0].i, 1);
        let rearmed = timers_armed(&actions, KIND_REQ);
        assert_eq!(rearmed.len(), 1);
        assert_eq!(d.agent.groups[0].request_timer, Some(rearmed[0].1));
        assert!(cancels(&actions, armed) && Some(rearmed[0].1) != armed);
    }

    /// A crash kills every pending timer but leaves the handles in the
    /// group state.  The restart's `on_start` must forget them — cancel
    /// nothing, treat nothing as armed — and ask again for every open
    /// group in group order, whatever order they were opened in: each
    /// armed request is an RNG draw.
    #[test]
    fn restart_forgets_dead_timers_and_reasks_in_group_order() {
        let groups = [0u32, 1, 2, 3, 4, 5];
        let restart = |order: &mut dyn Iterator<Item = u32>| {
            let mut d = receiver();
            order.for_each(|g| lose_one(&mut d, g));
            // The crash: same clock, RNG stream and timer counter on both
            // sides, so only the agents' own state can differ.
            (d.now, d.rng, d.next_timer) = (SimTime::from_secs(7), SimRng::new(5), 1_000);
            let actions = d.call(|agent, ctx| agent.on_start(ctx));
            let armed = timers_armed(&actions, KIND_REQ);
            for &(g, id) in &armed {
                assert_eq!(d.agent.groups[g].request_timer, Some(id), "fresh handle");
            }
            assert!(!actions.iter().any(|a| matches!(a, Action::CancelTimer(_))));
            (armed, format!("{actions:?}"))
        };
        let (armed, ascending) = restart(&mut groups.into_iter());
        let (_, descending) = restart(&mut groups.into_iter().rev());
        assert_eq!(armed.iter().map(|&(g, _)| g).collect::<Vec<_>>(), groups);
        assert_eq!(ascending, descending);
    }

    /// The reply rule under sender-only repair (`Variant::Ecsrm`): the
    /// sender answers a root-scope NACK with FEC in the same callback,
    /// while a receiver that holds the group but is not its zone's ZCR
    /// neither repairs nor arms a reply timer — which it does once
    /// receivers may repair.
    #[test]
    fn only_the_sender_answers_nacks_under_sender_only_repair() {
        // (FEC multicasts, reply timers armed) in one callback's actions.
        let replies = |actions: &[Action<SfMsg>]| {
            let fec = |a: &&_| match a {
                Action::Multicast { payload, .. } => matches!(payload, SfMsg::Fec { .. }),
                _ => false,
            };
            let fec = actions.iter().filter(fec).count();
            (fec, timers_armed(actions, KIND_REPLY).len())
        };
        let ecsrm = SharqfecConfig::variant(Variant::Ecsrm);
        assert!(!ecsrm.variant.receivers_repair());

        let mut sender = member(NodeId(0), ecsrm.clone());
        assert_eq!(sender.agent.session.chain_zones(), [ZoneId::ROOT]);
        assert_eq!(replies(&peer_nack(&mut sender, 0)), (1, 0));

        for (cfg, reply_timers) in [(ecsrm, 0), (SharqfecConfig::full(), 1)] {
            let (mut d, group, k) = (member(ME, cfg), 0, 16);
            for idx in 0..k {
                hear(&mut d, 1, SfMsg::Data { group, idx, k });
            }
            assert!(d.agent.groups[0].complete());
            assert!(!d.agent.session.is_zcr_of(d.agent.session.chain_zones()[0]));
            assert_eq!(replies(&peer_nack(&mut d, 0)), (0, reply_timers));
        }
    }

    /// A group id past the stream's end (64 groups of 16) would underflow
    /// `packets_in_group`: the packet is dropped untouched.
    #[test]
    fn a_group_outside_the_stream_is_dropped() {
        let mut d = receiver();
        let (group, idx, k) = (d.agent.cfg.group_count(), 0, 16);
        assert!(hear(&mut d, 1, SfMsg::Data { group, idx, k }).is_empty());
        assert!(d.agent.groups.0.is_empty());
    }

    /// A late joiner's first group is `g > 0`: every group it never heard
    /// counts as missing in full, up to the last id `group_count − 1`.
    #[test]
    fn a_late_joiner_answers_for_groups_it_never_heard() {
        let mut d = receiver();
        let last = d.agent.cfg.group_count() - 1;
        lose_one(&mut d, 5);
        assert!(d.agent.groups.get(0).is_none() && d.agent.groups.get(last).is_none());
        assert_eq!(d.agent.missing(), (last + 1) * 16 - 2);
        assert!(!d.agent.complete() && d.agent.completion_time().is_none());
        for group in (0..=last).rev() {
            d.now = SimTime::from_secs(if group == 5 { 9 } else { 8 });
            for idx in 0..16 {
                hear(&mut d, 1, SfMsg::Data { group, idx, k: 16 });
            }
        }
        assert_eq!(d.agent.missing(), 0);
        assert!(d.agent.complete() && d.agent.groups[last].complete());
        assert_eq!(d.agent.completion_time(), Some(SimTime::from_secs(9)));
    }

    /// A rig of a `Clone` agent forks: a copy taken mid-recovery (one loss,
    /// one NACK sent) answers the same callbacks with the same actions.
    #[test]
    fn a_forked_rig_replays_identically() {
        let mut d = receiver();
        lose_one(&mut d, 0);
        fire_request(&mut d, 0);
        let mut fork = d.clone();
        let drive = |d: &mut Rig<SfAgent>| {
            let mut actions = fire_request(d, 0);
            for (group, idx, k) in [(0, 1, 16), (1, 3, 16)] {
                actions.extend(hear(d, 1, SfMsg::Data { group, idx, k }));
            }
            (format!("{actions:?}"), d.agent.missing())
        };
        let replay = drive(&mut d);
        assert!(replay.0.contains("SetTimer") && replay.1 > 0);
        assert_eq!(drive(&mut fork), replay);
    }

    #[test]
    fn token_round_trip() {
        for kind in [KIND_SEND, KIND_REQ, KIND_REPLY, KIND_MEASURE] {
            for g in [0u32, 1, 63, 1000] {
                for l in [0usize, 1, 2] {
                    let t = tok(kind, g, l);
                    assert!(!is_session_token(t));
                    assert_eq!(tok_parts(t), (kind, g, l));
                }
            }
        }
    }
}

//! Decision-level protocol probes and the run-attached invariant auditor.
//!
//! [`crate::metrics::Recorder`] sees packets on the wire; the paper's
//! evaluation, however, reasons from *internal* protocol state — ZLC
//! EWMAs, NACK suppression outcomes, ZCR seats.
//! This module gives protocol agents a structured channel for exactly
//! those decisions:
//!
//! * [`ProbeEvent`] — a typed, allocation-free event vocabulary shared by
//!   the `core`, `session`, and `srm` agents;
//! * [`ProbeSink`] — the per-engine collector agents emit into via
//!   [`crate::agent::Ctx::probe`].  Disabled (the default) it is a single
//!   branch per emission site: no allocation, no RNG draws, no scheduled
//!   events, so runs are bit-identical with probes on or off;
//! * [`Auditor`] — an online invariant checker attached to the sink that
//!   verifies, as events stream, that (1) each zone has at most one
//!   stable ZCR outside fault/heal windows, (2) the injection chosen by
//!   *any* policy (EWMA, percentile, optimizing) never exceeds the group
//!   size and fires once per (node, group, level), (3) ZLC predictions
//!   stay finite and non-negative, (4) every receiver's delivered set
//!   is complete at group close, (5) fresh data sequences come from
//!   exactly one sender with non-interleaved sender eras (handoff
//!   correctness), and (6) — opt-in via
//!   [`AuditConfig::nack_sent_cap`] — sent NACKs per (group, level)
//!   stay under a storm cap even across batch joins.
//!
//! Attach the auditor with [`crate::engine::EngineBuilder::audit`] (which
//! also keeps the records) or
//! [`crate::engine::EngineBuilder::audit_streaming`] (which does not);
//! read the results back with [`crate::engine::Engine::probe_records`]
//! and [`crate::engine::Engine::audit_report`].

use crate::faults::FaultPlan;
use crate::graph::NodeId;
use crate::idhash::IdHashMap;
use crate::scenario::ScenarioPlan;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// How a NACK decision point resolved at one receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NackOutcome {
    /// The NACK was multicast into the zone.
    Sent,
    /// A duplicate NACK (no ZLC increase) was overheard; the request
    /// backoff doubled instead of sending.
    SuppressedDuplicate,
    /// A worse-off receiver spoke at an enclosing scope; its repairs
    /// cover this member, so its own NACK was pushed out.
    SuppressedCovered,
}

impl NackOutcome {
    /// Short label for probe lines and tables.
    pub fn label(self) -> &'static str {
        match self {
            NackOutcome::Sent => "sent",
            NackOutcome::SuppressedDuplicate => "dup-backoff",
            NackOutcome::SuppressedCovered => "covered",
        }
    }
}

/// What happened to a ZCR seat, from the emitting node's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZcrAction {
    /// The node seated itself at start (designed seeding or root duty).
    Seeded,
    /// The node declared a takeover of the seat.
    Takeover,
    /// The node adopted another node as the seat holder.
    Adopt,
    /// A sitting ZCR reasserted its seat against a conflicting claim
    /// (partition-heal conflict resolution).
    Reassert,
    /// A sitting ZCR conceded the seat to a closer claimant.
    Concede,
}

impl ZcrAction {
    /// Short label for probe lines and tables.
    pub fn label(self) -> &'static str {
        match self {
            ZcrAction::Seeded => "seeded",
            ZcrAction::Takeover => "takeover",
            ZcrAction::Adopt => "adopt",
            ZcrAction::Reassert => "reassert",
            ZcrAction::Concede => "concede",
        }
    }

    /// Whether the emitting node holds the seat after this action.
    pub fn claims_seat(self) -> bool {
        matches!(
            self,
            ZcrAction::Seeded | ZcrAction::Takeover | ZcrAction::Reassert
        )
    }
}

/// One typed protocol decision.  All payloads are plain scalars so
/// emission never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbeEvent {
    /// The ZLC EWMA for one chain level folded in a measurement.
    ZlcUpdate {
        /// Packet group measured.
        group: u32,
        /// Chain level (0 = smallest zone).
        level: u32,
        /// The observed zone repair demand (`zone_needed`).
        observed: f64,
        /// The prediction after the fold.
        pred: f64,
    },
    /// A preemptive-injection sizing decision made by an injection policy
    /// at group completion (one of `sharqfec::Policy`'s variants — EWMA,
    /// percentile, or the optimization-driven controller).
    PolicyDecision {
        /// Static name of the deciding policy (`"ewma"`, `"percentile"`,
        /// `"optimizing"`).
        policy: &'static str,
        /// Packet group being covered.
        group: u32,
        /// Chain level injected into.
        level: u32,
        /// The policy's predicted per-group zone repair demand.
        pred: f64,
        /// The delivery/coverage target the policy aims for (`0` when the
        /// policy is not target-driven, as with the EWMA baseline).
        target: f64,
        /// FEC packets chosen for injection.
        chosen: u32,
        /// The configured group size (the injection budget).
        group_size: u32,
    },
    /// A NACK decision point resolved.
    Nack {
        /// Packet group concerned.
        group: u32,
        /// Chain level (the NACK's scope).
        level: u32,
        /// How it resolved.
        outcome: NackOutcome,
        /// The deciding member's Local Loss Count.
        llc: u32,
        /// The worst loss known for the scope (its ZLC).
        zlc: u32,
    },
    /// The adaptive request/repair window moved (or held) after a
    /// recovery round closed.
    Window {
        /// Window start factor (C1/D1) after the round.
        lo: f64,
        /// Window width factor (C2/D2) after the round.
        width: f64,
        /// Duplicate-pressure EWMA after the round.
        ave_dup: f64,
        /// Recovery-delay EWMA (units of `d`) after the round.
        ave_delay: f64,
    },
    /// A ZCR seat transition performed (or adopted) by the emitting node.
    Zcr {
        /// Dense zone index (the scoping layer's `ZoneId::idx`) the seat
        /// belongs to.
        zone: u64,
        /// What happened.
        action: ZcrAction,
        /// Who holds the seat after the transition, in the emitter's view.
        holder: NodeId,
    },
    /// A source put a *fresh* data sequence on the wire (first
    /// transmission, not a repair).  Drives the single-active-sender
    /// invariant across sender handoffs: the standby must pick up exactly
    /// where the retired sender stopped, with no interleaving and no
    /// sequence sent fresh twice.
    Sender {
        /// The fresh sequence number.
        seq: u32,
    },
    /// A packet group closed at one member (completion, or the stream-end
    /// audit finding it still open).  The auditor keeps the *last* close
    /// per (node, group), so an audit-time `complete: false` is superseded
    /// when a late repair completes the group.
    GroupClose {
        /// Packet group closing.
        group: u32,
        /// Whether the member can reconstruct the group.
        complete: bool,
        /// Distinct packet indices held.
        held: u32,
        /// Indices required for reconstruction.
        k: u32,
    },
}

impl ProbeEvent {
    /// Short kind label for probe lines and binning filters.
    pub fn label(&self) -> &'static str {
        match self {
            ProbeEvent::ZlcUpdate { .. } => "zlc",
            ProbeEvent::PolicyDecision { .. } => "policy",
            ProbeEvent::Nack { .. } => "nack",
            ProbeEvent::Window { .. } => "window",
            ProbeEvent::Zcr { .. } => "zcr",
            ProbeEvent::Sender { .. } => "sender",
            ProbeEvent::GroupClose { .. } => "close",
        }
    }
}

impl fmt::Display for ProbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeEvent::ZlcUpdate {
                group,
                level,
                observed,
                pred,
            } => write!(f, "g{group} L{level} observed={observed} pred={pred:.3}"),
            ProbeEvent::PolicyDecision {
                policy,
                group,
                level,
                pred,
                target,
                chosen,
                group_size,
            } => write!(
                f,
                "g{group} L{level} {policy} pred={pred:.3} target={target:.2} \
                 chosen={chosen}/{group_size}"
            ),
            ProbeEvent::Nack {
                group,
                level,
                outcome,
                llc,
                zlc,
            } => write!(
                f,
                "g{group} L{level} {} llc={llc} zlc={zlc}",
                outcome.label()
            ),
            ProbeEvent::Window {
                lo,
                width,
                ave_dup,
                ave_delay,
            } => write!(
                f,
                "lo={lo:.2} width={width:.2} dup={ave_dup:.2} delay={ave_delay:.2}"
            ),
            ProbeEvent::Zcr {
                zone,
                action,
                holder,
            } => write!(f, "zone{zone} {} -> n{}", action.label(), holder.0),
            ProbeEvent::Sender { seq } => write!(f, "fresh seq {seq}"),
            ProbeEvent::GroupClose {
                group,
                complete,
                held,
                k,
            } => write!(
                f,
                "g{group} {} held={held}/{k}",
                if *complete { "complete" } else { "INCOMPLETE" }
            ),
        }
    }
}

/// One emitted probe event with its provenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeRecord {
    /// Simulation time of the decision.
    pub time: SimTime,
    /// The node that made it.
    pub node: NodeId,
    /// The decision.
    pub event: ProbeEvent,
}

/// The invariants the auditor enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// At most one stable ZCR per zone outside fault/heal windows.
    SingleZcr,
    /// The injection chosen by any policy never exceeds the group size,
    /// and the decision fires at most once per (node, group, level).
    InjectionBudget,
    /// ZLC predictions stay finite and non-negative.
    ZlcSane,
    /// Every receiver's delivered set is complete at group close.
    DeliveryComplete,
    /// Fresh data sequences come from exactly one sender at a time:
    /// no sequence is fresh-sent twice, and sender eras never interleave
    /// (a retired sender must not resume, outside excused windows).
    SingleSender,
    /// Sent NACKs per (group, level) stay under the configured storm cap
    /// ([`AuditConfig::nack_sent_cap`]; off when `None`).  Deliberately
    /// *not* softened by excuse windows: its whole point is bounding the
    /// NACK volume of membership transients like batch joins.
    NackStorm,
}

impl Invariant {
    /// Stable label used in reports and JSON summaries.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::SingleZcr => "single-zcr",
            Invariant::InjectionBudget => "injection-budget",
            Invariant::ZlcSane => "zlc-sane",
            Invariant::DeliveryComplete => "delivery-complete",
            Invariant::SingleSender => "single-sender",
            Invariant::NackStorm => "nack-storm",
        }
    }
}

/// One invariant violation, with enough context to reproduce it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// When the violation was detected.
    pub time: SimTime,
    /// The node whose event exposed it.
    pub node: NodeId,
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Human-readable specifics (only built when a violation occurs).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3}s] n{} {}: {}",
            self.time.as_secs_f64(),
            self.node.0,
            self.invariant.label(),
            self.detail
        )
    }
}

/// How long two simultaneous seat claims may persist before counting as a
/// violation.  Covers legitimate handoffs (takeover announced, old holder
/// concedes on its next announcement): several announce/challenge
/// periods, far below the lifetime of a genuine split-brain.
const SEAT_SETTLE: SimDuration = SimDuration::from_secs(10);
/// Extension appended after the *last* fault event when deriving an
/// excused window from a [`FaultPlan`] (see
/// [`AuditConfig::excuse_faults`]): elections need a few challenge rounds
/// to reconverge after heal.
const HEAL_GRACE: SimDuration = SimDuration::from_secs(15);
/// Grace appended after each membership disruption (join, leave, handoff,
/// churn edge) when deriving excuse windows from a [`ScenarioPlan`] (see
/// [`AuditConfig::excuse_scenario`]).  Shorter than [`HEAL_GRACE`]:
/// membership flips touch no routing, only seats and audit paths.
const MEMBERSHIP_GRACE: SimDuration = SimDuration::from_secs(10);

/// Auditor tuning.
#[derive(Clone, Debug, Default)]
pub struct AuditConfig {
    /// Time windows during which multi-claimant ZCR seats are excused
    /// (network faults and their heal aftermath).  An overlap episode that
    /// intersects any excused window is not a violation — partitions
    /// legitimately split seats, and re-convergence takes a beat after
    /// heal.
    pub excused: Vec<(SimTime, SimTime)>,
    /// Opt-in NACK-storm cap: the maximum number of `Sent` NACK decisions
    /// allowed per (group, level) over the whole run.  `None` (the
    /// default) disables the check — static workloads tune suppression
    /// elsewhere; scenario sweeps set this to a small multiple of the
    /// scope ladder's zone fan-out.
    pub nack_sent_cap: Option<u32>,
}

impl AuditConfig {
    /// Adds one excused window covering a fault plan's entire activity
    /// span, from its first event to 15 s (`HEAL_GRACE`) past its last.
    /// No-op for an empty plan.
    pub fn excuse_faults(&mut self, plan: &FaultPlan) {
        let times: Vec<SimTime> = plan.events().iter().map(|&(t, _)| t).collect();
        let (Some(&first), Some(&last)) = (times.iter().min(), times.iter().max()) else {
            return;
        };
        self.excused.push((first, last + HEAL_GRACE));
    }

    /// Adds excuse windows for a scenario plan's membership disruptions:
    /// one window `[t, t + 10 s]` (`MEMBERSHIP_GRACE`) per disruption
    /// instant, with overlapping windows coalesced so a steady churn
    /// process does not degenerate into thousands of entries.  Unlike
    /// [`AuditConfig::excuse_faults`] this deliberately does *not* blanket
    /// the whole span — the quiet stretches between membership events must
    /// still uphold every invariant.  No-op for an empty plan.
    pub fn excuse_scenario(&mut self, plan: &ScenarioPlan) {
        let mut open: Option<(SimTime, SimTime)> = None;
        for t in plan.disruption_times() {
            match &mut open {
                Some((_, end)) if t <= *end => *end = t + MEMBERSHIP_GRACE,
                _ => {
                    if let Some(w) = open.take() {
                        self.excused.push(w);
                    }
                    open = Some((t, t + MEMBERSHIP_GRACE));
                }
            }
        }
        if let Some(w) = open {
            self.excused.push(w);
        }
    }
}

/// Per-zone seat bookkeeping for the single-ZCR invariant.
#[derive(Clone, Debug, Default)]
struct SeatState {
    /// Current claimants and when each claimed.
    holders: IdHashMap<NodeId, SimTime>,
    /// When the current multi-claimant episode began, if one is open.
    overlap_since: Option<SimTime>,
}

impl SeatState {
    /// The claimants' node ids, ascending — what a violation prints, so it
    /// does not depend on the order the claims arrived in.
    fn claimants(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.holders.keys().map(|n| n.0).collect();
        ids.sort_unstable();
        ids
    }
}

/// Online invariant checker over the probe stream.
#[derive(Clone, Debug)]
pub struct Auditor {
    cfg: AuditConfig,
    events: u64,
    violations: Vec<Violation>,
    seats: IdHashMap<u64, SeatState>,
    /// Injections seen per (node, group, level).
    injections: IdHashMap<(NodeId, u32, u32), u32>,
    /// Last close seen per (node, group).
    closes: IdHashMap<(NodeId, u32), (SimTime, bool, u32, u32)>,
    /// The node currently in its fresh-send era, if any.
    active_sender: Option<NodeId>,
    /// Senders whose era ended (another node started sending fresh data),
    /// with the time of the switch.
    retired_senders: IdHashMap<NodeId, SimTime>,
    /// First fresh sender seen per sequence number.
    sent_seqs: IdHashMap<u32, NodeId>,
    /// `Sent` NACK decisions per (group, level), kept only when
    /// [`AuditConfig::nack_sent_cap`] is set.
    nack_sent: IdHashMap<(u32, u32), u32>,
}

impl Auditor {
    /// A fresh auditor.
    pub fn new(cfg: AuditConfig) -> Auditor {
        Auditor {
            cfg,
            events: 0,
            violations: Vec::new(),
            seats: IdHashMap::default(),
            injections: IdHashMap::default(),
            closes: IdHashMap::default(),
            active_sender: None,
            retired_senders: IdHashMap::default(),
            sent_seqs: IdHashMap::default(),
            nack_sent: IdHashMap::default(),
        }
    }

    fn excused(&self, from: SimTime, to: SimTime) -> bool {
        self.cfg.excused.iter().any(|&(s, e)| from < e && to > s)
    }

    /// Whether the instant `t` falls in an excused window, inclusive of
    /// the window start (a handoff's first standby send lands exactly on
    /// the disruption instant that opened the window).
    fn excused_at(&self, t: SimTime) -> bool {
        self.cfg.excused.iter().any(|&(s, e)| s <= t && t <= e)
    }

    /// Records a streaming violation at `r`'s time and node.
    fn flag(&mut self, r: &ProbeRecord, invariant: Invariant, detail: String) {
        self.violations.push(Violation {
            time: r.time,
            node: r.node,
            invariant,
            detail,
        });
    }

    /// Closes the seat-overlap episode `[since, r.time)` that `r` ended,
    /// recording a violation when it outlived the settle window without
    /// intersecting an excused window.
    fn close_overlap(&mut self, zone: u64, since: SimTime, r: &ProbeRecord) {
        let until = r.time;
        if until.saturating_since(since) <= SEAT_SETTLE || self.excused(since, until) {
            return;
        }
        let holders = self
            .seats
            .get(&zone)
            .map(SeatState::claimants)
            .unwrap_or_default();
        let detail = format!(
            "zone {zone} had multiple ZCR claimants for {:.3}s \
             (since {:.3}s; claimants now {holders:?})",
            until.saturating_since(since).as_secs_f64(),
            since.as_secs_f64()
        );
        self.flag(r, Invariant::SingleZcr, detail);
    }

    /// Feeds one event through every streaming check.
    pub fn ingest(&mut self, r: &ProbeRecord) {
        self.events += 1;
        match r.event {
            ProbeEvent::ZlcUpdate { level, pred, .. } => {
                if !pred.is_finite() || pred < 0.0 {
                    let detail = format!("zlc_pred[{level}] became {pred}");
                    self.flag(r, Invariant::ZlcSane, detail);
                }
            }
            ProbeEvent::PolicyDecision {
                policy,
                group,
                level,
                pred,
                chosen,
                group_size,
                ..
            } => {
                if chosen > group_size {
                    let detail = format!(
                        "{policy} chose {chosen} > group_size {group_size} (g{group} L{level})"
                    );
                    self.flag(r, Invariant::InjectionBudget, detail);
                }
                if !pred.is_finite() || pred < 0.0 {
                    let detail = format!("{policy} prediction became {pred} (g{group} L{level})");
                    self.flag(r, Invariant::ZlcSane, detail);
                }
                let seen = self.injections.entry((r.node, group, level)).or_insert(0);
                *seen += 1;
                if *seen > 1 {
                    let detail =
                        format!("{policy} injection decided {seen} times for g{group} L{level}");
                    self.flag(r, Invariant::InjectionBudget, detail);
                }
            }
            ProbeEvent::Zcr { zone, action, .. } => {
                let seat = self.seats.entry(zone).or_default();
                if action.claims_seat() {
                    seat.holders.entry(r.node).or_insert(r.time);
                } else {
                    seat.holders.remove(&r.node);
                }
                let (multi, since) = (seat.holders.len() >= 2, seat.overlap_since);
                match (multi, since) {
                    (true, None) => {
                        self.seats
                            .get_mut(&zone)
                            .expect("just touched")
                            .overlap_since = Some(r.time);
                    }
                    (false, Some(s)) => {
                        self.seats
                            .get_mut(&zone)
                            .expect("just touched")
                            .overlap_since = None;
                        self.close_overlap(zone, s, r);
                    }
                    _ => {}
                }
            }
            ProbeEvent::GroupClose {
                group,
                complete,
                held,
                k,
            } => {
                self.closes
                    .insert((r.node, group), (r.time, complete, held, k));
            }
            ProbeEvent::Sender { seq } => self.ingest_sender(r, seq),
            ProbeEvent::Nack {
                group,
                level,
                outcome: NackOutcome::Sent,
                ..
            } => {
                if let Some(cap) = self.cfg.nack_sent_cap {
                    let n = self.nack_sent.entry((group, level)).or_insert(0);
                    *n += 1;
                    // Flag exactly once, when the cap is first crossed.
                    if *n == cap + 1 {
                        let detail = format!("more than {cap} Sent NACKs for g{group} L{level}");
                        self.flag(r, Invariant::NackStorm, detail);
                    }
                }
            }
            ProbeEvent::Nack { .. } | ProbeEvent::Window { .. } => {}
        }
    }

    /// Single-sender bookkeeping for one fresh send.
    fn ingest_sender(&mut self, r: &ProbeRecord, seq: u32) {
        match self.sent_seqs.get(&seq) {
            Some(&prev) if prev != r.node => {
                let detail = format!("seq {seq} fresh-sent by n{} and n{}", prev.0, r.node.0);
                self.flag(r, Invariant::SingleSender, detail);
            }
            Some(_) => {
                let detail = format!("seq {seq} fresh-sent twice by n{}", r.node.0);
                self.flag(r, Invariant::SingleSender, detail);
            }
            None => {
                self.sent_seqs.insert(seq, r.node);
            }
        }
        match self.active_sender {
            None => self.active_sender = Some(r.node),
            Some(a) if a == r.node => {}
            Some(a) => {
                // Era switch: `a` retires.  If the new sender was itself
                // retired earlier, eras interleaved — two live senders —
                // unless a membership/fault window excuses the transient.
                self.retired_senders.insert(a, r.time);
                if self.retired_senders.remove(&r.node).is_some() && !self.excused_at(r.time) {
                    let detail = format!(
                        "retired sender n{} resumed fresh sends (seq {seq})",
                        r.node.0
                    );
                    self.flag(r, Invariant::SingleSender, detail);
                }
                self.active_sender = Some(r.node);
            }
        }
    }

    /// The verdict as of `now`: all streaming violations, plus end-state
    /// checks (seat overlaps still open, groups whose last close was
    /// incomplete).  Non-destructive — the auditor keeps streaming.
    pub fn report(&self, now: SimTime) -> AuditReport {
        let mut violations = self.violations.clone();
        for (&zone, seat) in &self.seats {
            if let Some(since) = seat.overlap_since {
                if now.saturating_since(since) > SEAT_SETTLE && !self.excused(since, now) {
                    let holders = seat.claimants();
                    violations.push(Violation {
                        time: now,
                        node: NodeId(*holders.first().unwrap_or(&0)),
                        invariant: Invariant::SingleZcr,
                        detail: format!(
                            "zone {zone} still has claimants {holders:?} at run end \
                             (overlapping since {:.3}s)",
                            since.as_secs_f64()
                        ),
                    });
                }
            }
        }
        for (&(node, group), &(time, complete, held, k)) in &self.closes {
            if !complete {
                violations.push(Violation {
                    time,
                    node,
                    invariant: Invariant::DeliveryComplete,
                    detail: format!("g{group} closed incomplete: held {held}/{k}"),
                });
            }
        }
        // A total order: `seats` and `closes` were walked in hash order,
        // and every run-end violation carries `time = now`, so time alone
        // would leave the report — and the `violations[0]` its summary
        // prints — different from run to run.
        violations.sort_by(|a, b| {
            (a.time, a.node, a.invariant)
                .cmp(&(b.time, b.node, b.invariant))
                .then_with(|| a.detail.cmp(&b.detail))
        });
        AuditReport {
            events: self.events,
            violations,
        }
    }
}

/// The auditor's verdict for one run.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Probe events the auditor saw.
    pub events: u64,
    /// Every violation, ordered by (time, node, invariant, detail).
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the run held every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for logs and tables.
    pub fn summary(&self) -> String {
        if self.ok() {
            format!("audit OK ({} events)", self.events)
        } else {
            format!(
                "audit FAILED: {} violation(s) over {} events; first: {}",
                self.violations.len(),
                self.events,
                self.violations[0]
            )
        }
    }
}

/// The per-engine probe collector.  Disabled by default: emission is a
/// single branch, no allocation, and never perturbs the simulation (no
/// RNG draws, no events scheduled).
#[derive(Clone, Debug, Default)]
pub struct ProbeSink {
    /// Whether emitted events are stored in [`ProbeSink::records`].
    keep: bool,
    records: Vec<ProbeRecord>,
    auditor: Option<Auditor>,
}

impl ProbeSink {
    /// A sink that stores every emitted event.
    pub fn recording() -> ProbeSink {
        ProbeSink {
            keep: true,
            ..ProbeSink::default()
        }
    }

    /// Turns on record keeping.
    pub fn set_recording(&mut self, on: bool) {
        self.keep = on;
    }

    /// Attaches an auditor (replacing any previous one).
    pub fn set_auditor(&mut self, auditor: Auditor) {
        self.auditor = Some(auditor);
    }

    /// Whether anything observes emissions (the fast-path check).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.keep || self.auditor.is_some()
    }

    /// Emits one event.  A disabled sink returns immediately.
    #[inline]
    pub fn emit(&mut self, time: SimTime, node: NodeId, event: ProbeEvent) {
        if self.enabled() {
            self.ingest(ProbeRecord { time, node, event });
        }
    }

    /// Hands one record to whatever observes: the auditor, then the record
    /// log.  Besides [`ProbeSink::emit`], this is how a sharded run
    /// replays its shards' probes — in serial order, as the auditor
    /// requires.
    pub(crate) fn ingest(&mut self, r: ProbeRecord) {
        if let Some(a) = &mut self.auditor {
            a.ingest(&r);
        }
        if self.keep {
            self.records.push(r);
        }
    }

    /// Takes out everything recorded so far, oldest first.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, ProbeRecord> {
        self.records.drain(..)
    }

    /// Everything recorded so far (empty unless recording was enabled).
    pub fn records(&self) -> &[ProbeRecord] {
        &self.records
    }

    /// The attached auditor's verdict as of `now`, if one is attached.
    pub fn audit_report(&self, now: SimTime) -> Option<AuditReport> {
        self.auditor.as_ref().map(|a| a.report(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn rec(t: SimTime, node: u32, event: ProbeEvent) -> ProbeRecord {
        ProbeRecord {
            time: t,
            node: NodeId(node),
            event,
        }
    }

    fn zcr(zone: u64, action: ZcrAction, holder: u32) -> ProbeEvent {
        ProbeEvent::Zcr {
            zone,
            action,
            holder: NodeId(holder),
        }
    }

    #[test]
    fn disabled_sink_discards_everything() {
        let mut s = ProbeSink::default();
        assert!(!s.enabled());
        s.emit(
            at(1),
            NodeId(0),
            ProbeEvent::Window {
                lo: 2.0,
                width: 2.0,
                ave_dup: 0.0,
                ave_delay: 1.0,
            },
        );
        assert!(s.records().is_empty());
        assert!(s.audit_report(at(2)).is_none());
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut s = ProbeSink::recording();
        for i in 0..3u64 {
            s.emit(at(i), NodeId(i as u32), zcr(0, ZcrAction::Seeded, i as u32));
        }
        assert_eq!(s.records().len(), 3);
        assert!(s.records().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn zlc_nan_and_negative_are_violations() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ingest(&rec(
            at(1),
            1,
            ProbeEvent::ZlcUpdate {
                group: 0,
                level: 0,
                observed: 0.0,
                pred: f64::NAN,
            },
        ));
        a.ingest(&rec(
            at(2),
            1,
            ProbeEvent::ZlcUpdate {
                group: 1,
                level: 0,
                observed: 0.0,
                pred: -0.5,
            },
        ));
        a.ingest(&rec(
            at(3),
            1,
            ProbeEvent::ZlcUpdate {
                group: 2,
                level: 0,
                observed: 2.0,
                pred: 1.25,
            },
        ));
        let report = a.report(at(4));
        assert_eq!(report.violations.len(), 2);
        assert!(report
            .violations
            .iter()
            .all(|v| v.invariant == Invariant::ZlcSane));
    }

    #[test]
    fn injection_over_budget_and_double_fire_are_violations() {
        let mut a = Auditor::new(AuditConfig::default());
        let inj = |chosen, group| ProbeEvent::PolicyDecision {
            policy: "ewma",
            group,
            level: 0,
            pred: 1.0,
            target: 0.0,
            chosen,
            group_size: 16,
        };
        a.ingest(&rec(at(1), 1, inj(16, 0))); // at budget: fine
        a.ingest(&rec(at(2), 1, inj(17, 1))); // over budget
        a.ingest(&rec(at(3), 1, inj(1, 2)));
        a.ingest(&rec(at(4), 1, inj(1, 2))); // double fire
        let report = a.report(at(5));
        assert_eq!(report.violations.len(), 2);
        assert!(report
            .violations
            .iter()
            .all(|v| v.invariant == Invariant::InjectionBudget));
    }

    #[test]
    fn budget_invariant_applies_to_every_policy() {
        // The chosen-h ≤ group_size check keys on the decision event, not
        // on the policy that produced it.
        let mut a = Auditor::new(AuditConfig::default());
        for (i, policy) in ["ewma", "percentile", "optimizing"].iter().enumerate() {
            a.ingest(&rec(
                at(i as u64 + 1),
                1,
                ProbeEvent::PolicyDecision {
                    policy,
                    group: i as u32,
                    level: 0,
                    pred: 40.0,
                    target: 0.9,
                    chosen: 33,
                    group_size: 32,
                },
            ));
        }
        let report = a.report(at(10));
        assert_eq!(report.violations.len(), 3);
        assert!(report
            .violations
            .iter()
            .all(|v| v.invariant == Invariant::InjectionBudget));
        for (v, policy) in report
            .violations
            .iter()
            .zip(["ewma", "percentile", "optimizing"])
        {
            assert!(v.detail.contains(policy), "detail names the policy: {v}");
        }
    }

    #[test]
    fn non_finite_policy_prediction_is_a_violation() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ingest(&rec(
            at(1),
            1,
            ProbeEvent::PolicyDecision {
                policy: "optimizing",
                group: 0,
                level: 0,
                pred: f64::NAN,
                target: 0.9,
                chosen: 1,
                group_size: 16,
            },
        ));
        let report = a.report(at(2));
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, Invariant::ZlcSane);
    }

    #[test]
    fn transient_seat_handoff_is_not_a_violation() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ingest(&rec(at(1), 1, zcr(0, ZcrAction::Seeded, 1)));
        // Node 2 takes over; node 1 concedes 3 s later (within settle).
        a.ingest(&rec(at(20), 2, zcr(0, ZcrAction::Takeover, 2)));
        a.ingest(&rec(at(23), 1, zcr(0, ZcrAction::Concede, 2)));
        assert!(a.report(at(60)).ok());
    }

    #[test]
    fn stable_double_seat_is_a_violation() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ingest(&rec(at(1), 1, zcr(0, ZcrAction::Seeded, 1)));
        a.ingest(&rec(at(5), 2, zcr(0, ZcrAction::Takeover, 2)));
        // Nobody concedes for 30 s.
        a.ingest(&rec(at(35), 1, zcr(0, ZcrAction::Concede, 2)));
        let report = a.report(at(40));
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, Invariant::SingleZcr);
    }

    #[test]
    fn overlap_open_at_run_end_is_caught_by_report() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ingest(&rec(at(1), 1, zcr(0, ZcrAction::Seeded, 1)));
        a.ingest(&rec(at(5), 2, zcr(0, ZcrAction::Takeover, 2)));
        assert!(!a.report(at(60)).ok(), "still two claimants at the end");
        // But a short-lived overlap at the very end is fine.
        assert!(a.report(at(6)).ok());
    }

    /// Two auditors fed one stream must print one report.  32 zones each
    /// end the run with three claimants, so all 32 violations carry
    /// `time = now` and only the order `report` imposes separates them;
    /// sorted by time alone, the two reports used to open with different
    /// zones and list claimants in different orders.
    #[test]
    fn two_auditors_fed_the_same_stream_report_identically() {
        let stream: Vec<ProbeRecord> = (0..32u64)
            .flat_map(|zone| {
                (0..3u32).map(move |i| {
                    let node = zone as u32 * 10 + i + 1;
                    rec(at(1), node, zcr(zone, ZcrAction::Seeded, node))
                })
            })
            .collect();
        let report = || {
            let mut a = Auditor::new(AuditConfig::default());
            stream.iter().for_each(|r| a.ingest(r));
            a.report(at(100))
        };
        let (first, second) = (report(), report());
        assert_eq!(first.violations.len(), 32);
        assert_eq!(first.summary(), second.summary());
        let lines = |r: &AuditReport| -> Vec<String> {
            r.violations.iter().map(|v| v.to_string()).collect()
        };
        assert_eq!(lines(&first), lines(&second));
        assert!(first.violations[0].detail.contains("zone 0 "));
        assert!(first.violations[0].detail.contains("[1, 2, 3]"));
    }

    #[test]
    fn fault_windows_excuse_seat_overlap() {
        let mut cfg = AuditConfig::default();
        cfg.excused.push((at(5), at(50)));
        let mut a = Auditor::new(cfg);
        a.ingest(&rec(at(1), 1, zcr(0, ZcrAction::Seeded, 1)));
        // Partition: the far side elects its own ZCR for 30 s.
        a.ingest(&rec(at(7), 2, zcr(0, ZcrAction::Takeover, 2)));
        a.ingest(&rec(at(37), 2, zcr(0, ZcrAction::Concede, 1)));
        assert!(a.report(at(60)).ok());
    }

    #[test]
    fn excuse_faults_covers_plan_span() {
        use crate::faults::FaultEvent;
        use crate::graph::LinkId;
        let plan = FaultPlan::new()
            .at(at(7), FaultEvent::LinkDown(LinkId(0)))
            .at(at(9), FaultEvent::LinkUp(LinkId(0)));
        let mut cfg = AuditConfig::default();
        cfg.excuse_faults(&plan);
        assert_eq!(cfg.excused.len(), 1);
        assert_eq!(cfg.excused[0].0, at(7));
        assert_eq!(cfg.excused[0].1, at(9) + HEAL_GRACE);
    }

    #[test]
    fn incomplete_close_superseded_by_later_completion() {
        let mut a = Auditor::new(AuditConfig::default());
        let close = |complete, held| ProbeEvent::GroupClose {
            group: 3,
            complete,
            held,
            k: 16,
        };
        a.ingest(&rec(at(50), 4, close(false, 14)));
        assert!(!a.report(at(51)).ok());
        a.ingest(&rec(at(55), 4, close(true, 16)));
        assert!(a.report(at(60)).ok(), "late completion supersedes");
    }

    #[test]
    fn report_summary_reads_well() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ingest(&rec(
            at(1),
            1,
            ProbeEvent::ZlcUpdate {
                group: 0,
                level: 0,
                observed: 0.0,
                pred: f64::INFINITY,
            },
        ));
        let report = a.report(at(2));
        assert!(report.summary().contains("FAILED"));
        assert!(report.summary().contains("zlc-sane"));
        let clean = Auditor::new(AuditConfig::default()).report(at(2));
        assert!(clean.summary().contains("OK"));
    }

    #[test]
    fn handoff_with_disjoint_eras_and_seqs_is_clean() {
        let mut a = Auditor::new(AuditConfig::default());
        for seq in 0..5 {
            a.ingest(&rec(at(seq as u64 + 1), 1, ProbeEvent::Sender { seq }));
        }
        // Node 7 takes over exactly where node 1 stopped.
        for seq in 5..10 {
            a.ingest(&rec(at(seq as u64 + 1), 7, ProbeEvent::Sender { seq }));
        }
        assert!(a.report(at(20)).ok());
    }

    #[test]
    fn duplicate_fresh_seq_is_a_single_sender_violation() {
        let mut a = Auditor::new(AuditConfig::default());
        a.ingest(&rec(at(1), 1, ProbeEvent::Sender { seq: 0 }));
        a.ingest(&rec(at(2), 1, ProbeEvent::Sender { seq: 1 }));
        // A mis-seeded standby resends seq 1.
        a.ingest(&rec(at(3), 7, ProbeEvent::Sender { seq: 1 }));
        let report = a.report(at(10));
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, Invariant::SingleSender);
        assert!(report.violations[0].detail.contains("n1 and n7"));
    }

    #[test]
    fn interleaved_sender_eras_are_a_violation_unless_excused() {
        let run = |excuse: Option<(SimTime, SimTime)>| {
            let mut cfg = AuditConfig::default();
            cfg.excused.extend(excuse);
            let mut a = Auditor::new(cfg);
            a.ingest(&rec(at(1), 1, ProbeEvent::Sender { seq: 0 }));
            a.ingest(&rec(at(2), 7, ProbeEvent::Sender { seq: 1 }));
            // Node 1 was retired by node 7's takeover but speaks again.
            a.ingest(&rec(at(3), 1, ProbeEvent::Sender { seq: 2 }));
            a.report(at(10))
        };
        let bad = run(None);
        assert_eq!(bad.violations.len(), 1);
        assert_eq!(bad.violations[0].invariant, Invariant::SingleSender);
        assert!(bad.violations[0].detail.contains("resumed"));
        assert!(run(Some((at(3), at(5)))).ok(), "window start is inclusive");
    }

    #[test]
    fn nack_storm_cap_is_opt_in_and_fires_once() {
        let nack = |group| ProbeEvent::Nack {
            group,
            level: 0,
            outcome: NackOutcome::Sent,
            llc: 1,
            zlc: 1,
        };
        // Default config: unlimited Sent NACKs.
        let mut quiet = Auditor::new(AuditConfig::default());
        for i in 0..100 {
            quiet.ingest(&rec(at(i), 1, nack(0)));
        }
        assert!(quiet.report(at(200)).ok());

        let cfg = AuditConfig {
            nack_sent_cap: Some(3),
            ..AuditConfig::default()
        };
        let mut a = Auditor::new(cfg);
        for i in 0..10 {
            a.ingest(&rec(at(i), 1, nack(0)));
        }
        // A different (group, level) key counts separately.
        for i in 0..3 {
            a.ingest(&rec(at(50 + i), 2, nack(1)));
        }
        let report = a.report(at(100));
        assert_eq!(report.violations.len(), 1, "one violation per key crossing");
        assert_eq!(report.violations[0].invariant, Invariant::NackStorm);
        assert_eq!(report.violations[0].time, at(3), "flagged at the crossing");
    }

    #[test]
    fn suppressed_nacks_do_not_count_toward_the_storm_cap() {
        let cfg = AuditConfig {
            nack_sent_cap: Some(1),
            ..AuditConfig::default()
        };
        let mut a = Auditor::new(cfg);
        for i in 0..20 {
            a.ingest(&rec(
                at(i),
                1,
                ProbeEvent::Nack {
                    group: 0,
                    level: 0,
                    outcome: NackOutcome::SuppressedDuplicate,
                    llc: 1,
                    zlc: 2,
                },
            ));
        }
        a.ingest(&rec(
            at(30),
            1,
            ProbeEvent::Nack {
                group: 0,
                level: 0,
                outcome: NackOutcome::Sent,
                llc: 1,
                zlc: 1,
            },
        ));
        assert!(a.report(at(40)).ok(), "suppression is the storm *remedy*");
    }

    #[test]
    fn excuse_scenario_coalesces_overlapping_windows() {
        use crate::channel::ChannelId;
        use crate::scenario::MembershipEvent;
        let mut plan = ScenarioPlan::new();
        // Three disruptions at 1 s, 5 s, and 40 s with a 10 s grace:
        // the first two windows overlap and must merge.
        for (t, n) in [(1u64, 10u32), (5, 11), (40, 12)] {
            plan.push(
                at(t),
                MembershipEvent::Join {
                    channel: ChannelId(0),
                    node: NodeId(n),
                },
            );
        }
        let mut cfg = AuditConfig::default();
        cfg.excuse_scenario(&plan);
        assert_eq!(cfg.excused, vec![(at(1), at(15)), (at(40), at(50))]);
        // An empty plan adds nothing.
        let mut empty = AuditConfig::default();
        empty.excuse_scenario(&ScenarioPlan::new());
        assert!(empty.excused.is_empty());
    }

    #[test]
    fn event_display_is_compact() {
        // One case per variant, each with its exact label and rendering
        // (`examples/explore.rs` prints probes through these two).
        let cases = [
            (
                ProbeEvent::ZlcUpdate {
                    group: 3,
                    level: 1,
                    observed: 2.0,
                    pred: 1.25,
                },
                "zlc g3 L1 observed=2 pred=1.250",
            ),
            (
                ProbeEvent::PolicyDecision {
                    policy: "ewma",
                    group: 0,
                    level: 2,
                    pred: 1.0,
                    target: 0.95,
                    chosen: 2,
                    group_size: 16,
                },
                "policy g0 L2 ewma pred=1.000 target=0.95 chosen=2/16",
            ),
            (
                ProbeEvent::Window {
                    lo: 2.1,
                    width: 2.5,
                    ave_dup: 1.0,
                    ave_delay: 0.75,
                },
                "window lo=2.10 width=2.50 dup=1.00 delay=0.75",
            ),
            (ProbeEvent::Sender { seq: 7 }, "sender fresh seq 7"),
        ];
        let shown = |e: ProbeEvent| format!("{} {e}", e.label());
        for (e, want) in cases {
            assert_eq!(shown(e), want);
        }
        for (outcome, word) in [
            (NackOutcome::Sent, "sent"),
            (NackOutcome::SuppressedDuplicate, "dup-backoff"),
            (NackOutcome::SuppressedCovered, "covered"),
        ] {
            let e = ProbeEvent::Nack {
                group: 2,
                level: 1,
                outcome,
                llc: 3,
                zlc: 5,
            };
            assert_eq!(shown(e), format!("nack g2 L1 {word} llc=3 zlc=5"));
        }
        for (action, word) in [
            (ZcrAction::Seeded, "seeded"),
            (ZcrAction::Takeover, "takeover"),
            (ZcrAction::Adopt, "adopt"),
            (ZcrAction::Reassert, "reassert"),
            (ZcrAction::Concede, "concede"),
        ] {
            let e = ProbeEvent::Zcr {
                zone: 6,
                action,
                holder: NodeId(9),
            };
            assert_eq!(shown(e), format!("zcr zone6 {word} -> n9"));
        }
        for (complete, held, word) in [(true, 16, "complete"), (false, 15, "INCOMPLETE")] {
            let e = ProbeEvent::GroupClose {
                group: 4,
                complete,
                held,
                k: 16,
            };
            assert_eq!(shown(e), format!("close g4 {word} held={held}/16"));
        }
    }
}

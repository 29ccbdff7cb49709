//! Declarative workload scenarios: dynamic membership as pure DES events.
//!
//! A [`ScenarioPlan`] is to *membership* what [`FaultPlan`](crate::faults::FaultPlan)
//! is to the network substrate: a declarative, timestamped schedule that
//! [`EngineBuilder`](crate::engine::EngineBuilder::scenario) compiles down
//! to ordinary engine events before the run starts, so a run stays a pure
//! function of `(plan, seed)` and is bit-identical at any shard or thread
//! count.  It models the workloads the paper's §7 hierarchy claims hinge
//! on:
//!
//! * **Late joins and flash crowds** — [`ScenarioPlan::join_at`] /
//!   [`ScenarioPlan::batch_join`] start an agent mid-run and splice the
//!   node into its zone channels at the join instant.  A node with a
//!   scheduled join is stripped from those channels' initial member lists,
//!   so before the join it neither receives nor forwards zone traffic.
//! * **Leaves and churn** — [`ScenarioPlan::leave_at`] stops the agent
//!   (compiled to a node-crash event: timers die, state freezes) and
//!   prunes it from its channels; [`ScenarioPlan::rejoin_at`] restarts it
//!   warm.  [`ScenarioPlan::churn`] draws seeded leave/rejoin processes
//!   over a member pool.
//! * **Sender handoff** — [`ScenarioPlan::handoff`] retires the active
//!   source and brings up a standby mid-stream; the auditor's
//!   single-sender invariant checks exactly one source is ever live.
//!
//! ## Determinism argument
//!
//! Membership events are scheduled at build time with origin-0 event keys
//! (the same keying as fault events), *before* any agent start event, so a
//! join at time `t` orders before an agent start at `t`.  In a sharded run
//! they are replicated to every shard under identical keys — channel
//! membership is replicated state, exactly like link masks — so every
//! shard observes the same membership at the same instant and forwarding
//! prunes identically everywhere.  Channel mutation is idempotent
//! ([`Channel::insert`](crate::channel::Channel::insert)), so replaying a
//! replicated event converges.  Routing is membership-independent (scope
//! pruning is checked live per hop), so a membership change leaves the
//! routing forest as it is: unlike a link fault, there is nothing to
//! recompute.

use crate::channel::ChannelId;
use crate::graph::NodeId;
use crate::idhash::IdHashMap;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A channel-membership change, applied at a scheduled [`SimTime`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipEvent {
    /// `node` becomes a member of `channel`.
    Join {
        /// The channel gaining the member.
        channel: ChannelId,
        /// The joining node.
        node: NodeId,
    },
    /// `node` stops being a member of `channel`.
    Leave {
        /// The channel losing the member.
        channel: ChannelId,
        /// The leaving node.
        node: NodeId,
    },
}

impl MembershipEvent {
    /// The node the event concerns.
    pub fn node(self) -> NodeId {
        match self {
            MembershipEvent::Join { node, .. } | MembershipEvent::Leave { node, .. } => node,
        }
    }

    /// The channel the event concerns.
    pub fn channel(self) -> ChannelId {
        match self {
            MembershipEvent::Join { channel, .. } | MembershipEvent::Leave { channel, .. } => {
                channel
            }
        }
    }
}

/// A declarative schedule of membership events, agent start/stop times,
/// and sender handoffs.
///
/// ```
/// use sharqfec_netsim::prelude::*;
/// use sharqfec_netsim::scenario::ScenarioPlan;
///
/// let plan = ScenarioPlan::new()
///     .join_at(SimTime::from_secs(10), NodeId(7), &[ChannelId(0), ChannelId(2)])
///     .leave_at(SimTime::from_secs(30), NodeId(7), &[ChannelId(0), ChannelId(2)]);
/// assert_eq!(plan.events().len(), 4);
/// assert_eq!(plan.start_override(NodeId(7)), Some(SimTime::from_secs(10)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ScenarioPlan {
    events: Vec<(SimTime, MembershipEvent)>,
    /// Agent start-time overrides (late joiners, handoff standbys).
    starts: Vec<(NodeId, SimTime)>,
    /// Agent stops, compiled to node-crash events.
    stops: Vec<(SimTime, NodeId)>,
    /// Agent restarts (warm), compiled to node-restart events.
    restarts: Vec<(SimTime, NodeId)>,
}

impl ScenarioPlan {
    /// An empty plan.
    pub fn new() -> ScenarioPlan {
        ScenarioPlan::default()
    }

    /// Adds one raw membership event (builder style).
    pub fn at(mut self, when: SimTime, ev: MembershipEvent) -> ScenarioPlan {
        self.push(when, ev);
        self
    }

    /// Adds one raw membership event in place.
    pub fn push(&mut self, when: SimTime, ev: MembershipEvent) {
        self.events.push((when, ev));
    }

    /// `node` joins the session at `when`: its agent starts then, and it
    /// becomes a member of each listed channel at the same instant.  The
    /// node is stripped from those channels' *initial* member lists, so
    /// before the join it neither hears nor forwards their traffic.
    pub fn join_at(mut self, when: SimTime, node: NodeId, channels: &[ChannelId]) -> ScenarioPlan {
        self.starts.push((node, when));
        for &channel in channels {
            self.push(when, MembershipEvent::Join { channel, node });
        }
        self
    }

    /// A flash crowd: every `(node, channels)` pair joins at `when` (one
    /// batched instant, the paper's live-event case).
    pub fn batch_join<'a>(
        mut self,
        when: SimTime,
        joins: impl IntoIterator<Item = (NodeId, &'a [ChannelId])>,
    ) -> ScenarioPlan {
        for (node, channels) in joins {
            self = self.join_at(when, node, channels);
        }
        self
    }

    /// `node` leaves at `when`: its agent stops (timers die, state
    /// freezes) and it is pruned from each listed channel.
    pub fn leave_at(mut self, when: SimTime, node: NodeId, channels: &[ChannelId]) -> ScenarioPlan {
        self.stops.push((when, node));
        for &channel in channels {
            self.push(when, MembershipEvent::Leave { channel, node });
        }
        self
    }

    /// `node` comes back at `when` after a [`ScenarioPlan::leave_at`]:
    /// its agent restarts warm and rejoins each listed channel.
    pub fn rejoin_at(
        mut self,
        when: SimTime,
        node: NodeId,
        channels: &[ChannelId],
    ) -> ScenarioPlan {
        self.restarts.push((when, node));
        for &channel in channels {
            self.push(when, MembershipEvent::Join { channel, node });
        }
        self
    }

    /// Sender handoff at `when`: the active source at `from` stops and a
    /// standby source agent at `to` starts, joining the listed channels.
    /// The standby's agent must be attached by the setup layer (configured
    /// to start its stream at `when`); this schedules the switchover.
    pub fn handoff(
        mut self,
        when: SimTime,
        from: NodeId,
        to: NodeId,
        to_channels: &[ChannelId],
    ) -> ScenarioPlan {
        self.stops.push((when, from));
        self.starts.push((to, when));
        for &channel in to_channels {
            self.push(when, MembershipEvent::Join { channel, node: to });
        }
        self
    }

    /// A seeded churn process over a pool of members: each pool node
    /// draws exponential session/downtime lengths (means `mean_session` /
    /// `mean_down`) inside `[window.0, window.1)`, leaving and rejoining
    /// its channels on each cycle.  A node still down when the window
    /// closes rejoins at the window end, so every member is back for the
    /// delivery-completeness audit.  Identical `(plan, seed)` pairs yield
    /// identical schedules.
    pub fn churn<'a>(
        mut self,
        seed: u64,
        window: (SimTime, SimTime),
        mean_session: SimDuration,
        mean_down: SimDuration,
        pool: impl IntoIterator<Item = (NodeId, &'a [ChannelId])>,
    ) -> ScenarioPlan {
        assert!(window.0 < window.1, "churn window must be non-empty");
        let mut rng = SimRng::new(seed ^ 0x4348_5552_4E21); // "CHURN!"
        let draw = |rng: &mut SimRng, mean: SimDuration| -> SimDuration {
            // Inverse-CDF exponential; clamp the uniform away from 0 so
            // ln stays finite.
            let u = rng.range_f64(1e-12, 1.0);
            mean.mul_f64(-u.ln())
        };
        for (node, channels) in pool {
            let mut t = window.0 + draw(&mut rng, mean_session);
            while t < window.1 {
                self = self.leave_at(t, node, channels);
                let back = t + draw(&mut rng, mean_down);
                let back = back.min(window.1);
                self = self.rejoin_at(back, node, channels);
                t = back + draw(&mut rng, mean_session);
            }
        }
        self
    }

    /// The raw membership events, in schedule (push) order.
    pub fn events(&self) -> &[(SimTime, MembershipEvent)] {
        &self.events
    }

    /// Scheduled agent stops `(when, node)`.
    pub fn stops(&self) -> &[(SimTime, NodeId)] {
        &self.stops
    }

    /// Scheduled warm agent restarts `(when, node)`.
    pub fn restarts(&self) -> &[(SimTime, NodeId)] {
        &self.restarts
    }

    /// The start-time override for `node`, if the plan schedules one
    /// (the last scheduled override wins).
    pub fn start_override(&self, node: NodeId) -> Option<SimTime> {
        self.starts
            .iter()
            .rev()
            .find(|(n, _)| *n == node)
            .map(|&(_, at)| at)
    }

    /// Whether `node` must be stripped from `channel`'s initial member
    /// list: true iff the node's earliest scheduled event on that channel
    /// is a `Join` (ties broken by schedule order).
    pub fn initially_out(&self, channel: ChannelId, node: NodeId) -> bool {
        self.events
            .iter()
            .filter(|(_, ev)| ev.channel() == channel && ev.node() == node)
            .min_by_key(|(t, _)| *t)
            .is_some_and(|(_, ev)| matches!(ev, MembershipEvent::Join { .. }))
    }

    /// [`ScenarioPlan::initially_out`] and [`ScenarioPlan::start_override`]
    /// answered for every key in one pass: a map whose keys are the
    /// (channel, node) pairs that start out, and each node's start
    /// override.  Those two scan the plan per question and remain the
    /// specification; [`EngineBuilder::build`](crate::engine::EngineBuilder::build)
    /// asks once per member of every channel and once per agent, which
    /// made compiling a scenario O(memberships × plan events).
    pub(crate) fn compile(&self) -> (FirstEvents, IdHashMap<NodeId, SimTime>) {
        let mut first =
            FirstEvents::with_capacity_and_hasher(self.events.len(), Default::default());
        for &(t, ev) in &self.events {
            let this = (t, matches!(ev, MembershipEvent::Join { .. }));
            let earliest = first.entry((ev.channel(), ev.node())).or_insert(this);
            // Strictly earlier replaces: equal times keep the first
            // scheduled, as `min_by_key` does.
            if t < earliest.0 {
                *earliest = this;
            }
        }
        first.retain(|_, &mut (_, join)| join);
        // A later insert replaces an earlier one: the last override wins.
        (first, self.starts.iter().copied().collect())
    }

    /// Every instant at which the plan perturbs the session — membership
    /// changes, agent starts/stops/restarts — sorted ascending.  The
    /// auditor derives its membership excuse windows from these (see
    /// `AuditConfig::excuse_scenario`).
    pub fn disruption_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self
            .events
            .iter()
            .map(|&(t, _)| t)
            .chain(self.starts.iter().map(|&(_, t)| t))
            .chain(self.stops.iter().map(|&(t, _)| t))
            .chain(self.restarts.iter().map(|&(t, _)| t))
            .collect();
        times.sort_unstable();
        times.dedup();
        times
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.starts.is_empty()
            && self.stops.is_empty()
            && self.restarts.is_empty()
    }
}

/// Per (channel, node): the time of its earliest membership event there,
/// and whether that event is a `Join`.
pub(crate) type FirstEvents = IdHashMap<(ChannelId, NodeId), (SimTime, bool)>;

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(i: u32) -> ChannelId {
        ChannelId(i)
    }

    #[test]
    fn join_strips_initial_membership_but_leave_does_not() {
        let plan = ScenarioPlan::new()
            .join_at(SimTime::from_secs(5), NodeId(1), &[ch(0), ch(3)])
            .leave_at(SimTime::from_secs(9), NodeId(2), &[ch(0)]);
        assert!(plan.initially_out(ch(0), NodeId(1)));
        assert!(plan.initially_out(ch(3), NodeId(1)));
        assert!(!plan.initially_out(ch(1), NodeId(1)), "unlisted channel");
        assert!(!plan.initially_out(ch(0), NodeId(2)), "leaver starts in");
        assert!(!plan.initially_out(ch(0), NodeId(9)), "unlisted node");
    }

    #[test]
    fn leave_then_rejoin_keeps_initial_membership() {
        // The earliest event is the Leave, so the node starts as a member.
        let plan = ScenarioPlan::new()
            .leave_at(SimTime::from_secs(10), NodeId(4), &[ch(2)])
            .rejoin_at(SimTime::from_secs(20), NodeId(4), &[ch(2)]);
        assert!(!plan.initially_out(ch(2), NodeId(4)));
        assert_eq!(plan.stops(), &[(SimTime::from_secs(10), NodeId(4))]);
        assert_eq!(plan.restarts(), &[(SimTime::from_secs(20), NodeId(4))]);
    }

    #[test]
    fn batch_join_fans_out_and_overrides_starts() {
        let members = [ch(0), ch(1)];
        let joins = (10..20u32).map(|i| (NodeId(i), &members[..]));
        let plan = ScenarioPlan::new().batch_join(SimTime::from_secs(8), joins);
        assert_eq!(plan.events().len(), 20, "two channels per joiner");
        assert_eq!(plan.starts.len(), 10);
        for i in 10..20u32 {
            assert_eq!(
                plan.start_override(NodeId(i)),
                Some(SimTime::from_secs(8)),
                "node {i}"
            );
        }
        assert_eq!(plan.start_override(NodeId(9)), None);
    }

    #[test]
    fn handoff_stops_old_and_starts_standby() {
        let plan =
            ScenarioPlan::new().handoff(SimTime::from_secs(12), NodeId(0), NodeId(5), &[ch(0)]);
        assert_eq!(plan.stops(), &[(SimTime::from_secs(12), NodeId(0))]);
        assert_eq!(plan.start_override(NodeId(5)), Some(SimTime::from_secs(12)));
        // A warm standby is handed off to with no channels to join: no
        // membership event at all, and still a plan that schedules something.
        let warm = ScenarioPlan::new().handoff(SimTime::from_secs(12), NodeId(0), NodeId(5), &[]);
        assert!(warm.events().is_empty() && !warm.is_empty());
        assert_eq!(
            plan.events(),
            &[(
                SimTime::from_secs(12),
                MembershipEvent::Join {
                    channel: ch(0),
                    node: NodeId(5)
                }
            )]
        );
    }

    #[test]
    fn churn_is_deterministic_and_windowed() {
        let members = [ch(0)];
        let pool: Vec<(NodeId, &[ChannelId])> =
            (1..6u32).map(|i| (NodeId(i), &members[..])).collect();
        let window = (SimTime::from_secs(10), SimTime::from_secs(60));
        let build = |seed| {
            ScenarioPlan::new().churn(
                seed,
                window,
                SimDuration::from_secs(15),
                SimDuration::from_secs(5),
                pool.iter().cloned(),
            )
        };
        let a = build(7);
        let b = build(7);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.stops(), b.stops());
        assert_ne!(
            build(8).disruption_times(),
            a.disruption_times(),
            "different seeds draw different schedules"
        );
        assert!(!a.is_empty(), "50 s window at 15 s mean must churn");
        // Every leave pairs with a rejoin, and everything stays in-window
        // (rejoins may land exactly at the window end).
        assert_eq!(a.stops().len(), a.restarts().len());
        for &(t, _) in a.stops() {
            assert!(t >= window.0 && t < window.1);
        }
        for &(t, _) in a.restarts() {
            assert!(t >= window.0 && t <= window.1);
        }
    }

    #[test]
    fn disruption_times_are_sorted_and_deduped() {
        let t = SimTime::from_secs(4);
        let plan = ScenarioPlan::new()
            .join_at(t, NodeId(1), &[ch(0), ch(1)])
            .leave_at(SimTime::from_secs(2), NodeId(2), &[ch(0)]);
        assert_eq!(plan.disruption_times(), vec![SimTime::from_secs(2), t]);
    }
}

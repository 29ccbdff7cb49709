//! Protocol agents and their interface to the engine.
//!
//! An [`Agent`] is a protocol state machine bound to one node.  The engine
//! drives it with `on_start`, `on_packet`, and `on_timer` callbacks; the
//! agent responds by queueing actions (multicasts, timers) on the [`Ctx`]
//! handed into every callback.  Actions take effect when the callback
//! returns, at the current simulation instant.

use crate::channel::ChannelId;
use crate::graph::NodeId;
use crate::packet::Packet;
use crate::probe::{ProbeEvent, ProbeSink};
use crate::rng::SimRng;
use crate::routing::DistanceOracle;
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// Handle to a pending timer, used for cancellation.
///
/// Engine-issued ids encode `(node + 1, per-node sequence)` so a timer's
/// owning node can be recovered without a lookup — the sharded driver
/// partitions pending-timer state by that node.  Ids constructed directly
/// from raw values (e.g. in test harnesses that never hand them to an
/// engine) are unaffected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub u64);

/// Bits reserved for the per-node sequence in an engine-issued id.
const TIMER_SEQ_BITS: u32 = 40;

impl TimerId {
    /// Packs an engine-issued id from the owning node and its per-node
    /// scheduling sequence number.
    pub(crate) fn encode(node: NodeId, seq: u64) -> TimerId {
        debug_assert!(seq < 1 << TIMER_SEQ_BITS, "per-node timer seq overflow");
        debug_assert!(
            u64::from(node.0) < (1 << (64 - TIMER_SEQ_BITS)) - 1,
            "node id too large to encode in a TimerId"
        );
        TimerId(((u64::from(node.0) + 1) << TIMER_SEQ_BITS) | seq)
    }

    /// The owning node of an engine-issued id (`None` for raw ids that
    /// never went through [`TimerId::encode`]).
    pub(crate) fn node(self) -> Option<NodeId> {
        (self.0 >> TIMER_SEQ_BITS)
            .checked_sub(1)
            .map(|n| NodeId(n as u32))
    }

    /// The per-node sequence number of an engine-issued id.
    pub(crate) fn seq(self) -> u64 {
        self.0 & ((1 << TIMER_SEQ_BITS) - 1)
    }
}

/// One deferred effect an agent queued during a callback.  The engine
/// applies them in queue order once the callback returns; a test that
/// drives an agent through [`Ctx::new`] reads them out of its own buffer.
#[derive(Debug)]
pub enum Action<M> {
    /// Multicast `payload` on `channel` as a `bytes`-byte packet
    /// ([`Ctx::multicast`]).
    Multicast {
        /// The channel to send on.
        channel: ChannelId,
        /// The protocol message.
        payload: M,
        /// Wire size.
        bytes: u32,
    },
    /// Arm timer `id` to fire at `at`, handing `token` back to
    /// `on_timer` ([`Ctx::set_timer`], [`Ctx::set_timer_at`]).
    SetTimer {
        /// The handle the agent was given.
        id: TimerId,
        /// Absolute fire time.
        at: SimTime,
        /// Opaque value returned to the agent.
        token: u64,
    },
    /// Cancel a pending timer ([`Ctx::cancel_timer`]).
    CancelTimer(TimerId),
}

/// The environment an agent sees during one callback: a clock, the
/// node's RNG stream, ground-truth distances, and a buffer the callback
/// queues its [`Action`]s into.  Nothing in it refers to an engine.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) oracle: &'a DistanceOracle,
    /// The caller's action buffer, on loan for this callback.
    pub(crate) actions: &'a mut Vec<Action<M>>,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) probes: &'a mut ProbeSink,
}

impl<'a, M> Ctx<'a, M> {
    /// The context for one callback of the agent at `node`, at time `now`.
    ///
    /// The engine builds one per callback from its own state and drains
    /// `actions` when the callback returns; a test builds one from a
    /// [`SimRng`], a [`DistanceOracle`] and a `Vec` it owns, calls the
    /// agent, and asserts on what was queued (DESIGN.md §10, "Driving an
    /// agent without an engine").  `next_timer` is the node's timer
    /// sequence: each armed timer takes the next value, so ids stay
    /// unique across callbacks as long as the caller keeps the counter.
    pub fn new(
        now: SimTime,
        node: NodeId,
        rng: &'a mut SimRng,
        oracle: &'a DistanceOracle,
        actions: &'a mut Vec<Action<M>>,
        next_timer: &'a mut u64,
        probes: &'a mut ProbeSink,
    ) -> Ctx<'a, M> {
        Ctx {
            now,
            node,
            rng,
            oracle,
            actions,
            next_timer,
            probes,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This agent's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// One-way propagation delay to another node.
    ///
    /// This is ground truth from the routing substrate.  SHARQFEC's own
    /// agents do **not** use it for suppression (they run the paper's
    /// session protocol); it exists for baselines that assume a converged
    /// session (SRM) and for measuring estimation error in Figures 11–13.
    pub fn one_way(&self, to: NodeId) -> SimDuration {
        self.oracle.one_way(self.node, to)
    }

    /// Round-trip propagation delay to another node (ground truth; see
    /// [`Ctx::one_way`]).
    pub fn rtt(&self, to: NodeId) -> SimDuration {
        self.oracle.rtt(self.node, to)
    }

    /// Multicasts `payload` on `channel` as a `bytes`-byte packet.
    pub fn multicast(&mut self, channel: ChannelId, payload: M, bytes: u32) {
        self.actions.push(Action::Multicast {
            channel,
            payload,
            bytes,
        });
    }

    /// Arms a timer to fire `delay` from now; `token` is handed back to
    /// `on_timer` so one agent can multiplex many timers.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.set_timer_at(self.now + delay, token)
    }

    /// Arms a timer at an absolute instant (must not be in the past).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerId {
        assert!(at >= self.now, "timer scheduled in the past");
        let seq = *self.next_timer;
        *self.next_timer += 1;
        let id = TimerId::encode(self.node, seq);
        self.actions.push(Action::SetTimer { id, at, token });
        id
    }

    /// Cancels a pending timer.  Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }

    /// Emits a decision-level probe event, stamped with this callback's
    /// time and node.  One branch and nothing else when probes are
    /// disabled — never allocates, draws RNG, or schedules events, so
    /// runs are bit-identical with probes on or off.
    #[inline]
    pub fn probe(&mut self, event: ProbeEvent) {
        self.probes.emit(self.now, self.node, event);
    }
}

/// A protocol state machine attached to one node.
///
/// `Any` is a supertrait so callers can downcast agents back to their
/// concrete type after a run to read out final state (delivery status,
/// counters) — see [`crate::engine::Engine::agent`].  `Send` is a
/// supertrait so the sharded driver can move each agent to the worker
/// thread that owns its node's zone subtree; agents are protocol state
/// machines over plain data, so this costs implementations nothing.
pub trait Agent<M>: Any + Send {
    /// Called once when the agent's start event fires.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called for every packet delivered to this node.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, M>, pkt: &Packet<M>);

    /// Called when a timer armed by this agent fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        let _ = (ctx, token);
    }

    /// Approximate resident bytes of this agent's protocol state (heap
    /// content it retains between callbacks, not transient allocations).
    ///
    /// The scaling harness aggregates this via
    /// [`crate::engine::Engine::state_bytes`] to measure per-receiver
    /// memory growth; agents that don't implement it report zero and are
    /// simply excluded from the accounting.
    fn state_bytes(&self) -> usize {
        0
    }
}

//! Driving an agent with no engine: [`Rig`] owns one agent and the seven
//! things [`Ctx::new`] borrows, so a test — or a model checker holding N
//! of them — calls the agent directly and reads back what it queued
//! (DESIGN.md §10, "Driving an agent without an engine").

use crate::agent::{Action, Agent, Ctx};
use crate::channel::ChannelId;
use crate::graph::NodeId;
use crate::packet::Packet;
use crate::probe::ProbeSink;
use crate::rng::SimRng;
use crate::routing::DistanceOracle;
use crate::time::SimTime;

/// One agent and its environment, owned outright.  Every field is the
/// caller's to set between callbacks: move the clock, reseed the RNG,
/// jump the timer counter (a crash), inspect the agent.  A `Rig` of a
/// `Clone` agent clones whole: a fork that replays callbacks identically.
#[derive(Clone)]
pub struct Rig<A> {
    /// The agent under test.
    pub agent: A,
    /// The clock the next callback sees.
    pub now: SimTime,
    /// The node the agent is attached to.
    pub node: NodeId,
    /// The node's RNG stream.
    pub rng: SimRng,
    /// Ground-truth distances ([`Ctx::one_way`]).
    pub oracle: DistanceOracle,
    /// The node's timer sequence; kept across callbacks so ids stay unique.
    pub next_timer: u64,
    /// Where [`Ctx::probe`] lands ([`ProbeSink::recording`] to keep them).
    pub probes: ProbeSink,
}

impl<A> Rig<A> {
    /// Runs one callback at `self.now` and returns what it queued, in
    /// queue order — what an engine would apply when the callback returns.
    pub fn call<M>(&mut self, f: impl FnOnce(&mut A, &mut Ctx<'_, M>)) -> Vec<Action<M>> {
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(
            self.now,
            self.node,
            &mut self.rng,
            &self.oracle,
            &mut actions,
            &mut self.next_timer,
            &mut self.probes,
        );
        f(&mut self.agent, &mut ctx);
        actions
    }

    /// Delivers `payload` from `src` on `channel` ([`Agent::on_packet`]).
    pub fn hear<M>(&mut self, src: NodeId, channel: ChannelId, payload: M) -> Vec<Action<M>>
    where
        A: Agent<M>,
    {
        let pkt = Packet {
            uid: 0,
            src,
            channel,
            sent_at: self.now,
            bytes: 0,
            payload,
        };
        self.call(|agent, ctx| agent.on_packet(ctx, &pkt))
    }
}

//! The discrete-event engine.
//!
//! Owns the topology, routing trees, link queues, channels, agents, fault
//! schedule, and the event queue.  A run is fully determined by (topology,
//! agents, fault plan, seed): events are totally ordered by an
//! [`EventKey`] that is a pure function of simulation history (fire time,
//! push time, pushing node, per-node sequence), agents draw from per-node
//! RNG streams split off the root seed, and link-loss sampling draws from
//! per-(link, direction) streams.  Because none of those inputs depend on
//! which queue or thread carries an event, a run is bit-identical whether
//! it executes serially or partitioned across shards (see `shard.rs` and
//! [`Engine::advance`]).
//!
//! The statement covers what a message *carries*, not only when it is
//! scheduled: every map an agent or the engine touches on the event path
//! is keyed by an id this program minted and hashes with the fixed
//! [`crate::idhash`] hasher, so a value folded over a map's iteration
//! order (the loss-report summary in every session announcement, whose
//! `f64` weighted mean is not associative) depends on the owning node's
//! event history alone — not on `RandomState` keys drawn per map and per
//! process.  `tests/payload_determinism.rs` runs one seeded simulation
//! twice and on two shards and compares such payloads to the bit.
//!
//! Two allocation-conscious structures back the hot path: the slab-backed
//! [`crate::queue::EventQueue`], whose heap moves small `Copy` keys
//! instead of whole events, and the private packet arena (`arena.rs`),
//! which interns each transmitted packet once and forwards lightweight
//! handles hop-by-hop instead of cloning an `Rc` per hop.  Both recycle
//! their slots, so a steady-state run does not touch the allocator per
//! event or per packet.
//!
//! Configuration goes through [`EngineBuilder`], which assembles the whole
//! scenario — channels, agents with start times, recorder mode, fault
//! plan — before [`EngineBuilder::build`] produces a runnable [`Engine`].
//!
//! ## Dynamic topology
//!
//! Every source routes over one shortest-path spanning forest, [`Spt`]:
//! node 0's shortest-path tree over the up links, plus one tree per
//! component a link fault cuts off.  Each applied
//! [`FaultEvent::LinkDown`]/[`FaultEvent::LinkUp`] recomputes it in place,
//! so the next hop of a packet already in flight sees the new mask.  A
//! packet stops at a node no longer connected to its source, and otherwise
//! goes to every forest-edge neighbour but the one toward its source.  On
//! a tree — every generator in `topology` builds one — that is each
//! source's own masked shortest-path tree; on a graph with cycles a source
//! other than node 0 follows node 0's tree (DESIGN §10).  The
//! [`DistanceOracle`] intentionally stays frozen at build time: it models
//! a *converged* session's RTT knowledge, not instantaneous reachability.

use crate::agent::{Action, Agent, Ctx, TimerId};
use crate::arena::{PacketArena, PacketHeader, PacketRef};
use crate::channel::{Channel, ChannelId};
use crate::faults::{FaultEvent, FaultPlan};
use crate::graph::{LinkId, NodeId, Topology};
use crate::idhash::IdHashSet;
use crate::link::LinkDir;
use crate::metrics::{DropRecord, Record, Recorder, RecorderMode, TrafficClass};
use crate::packet::{Classify, Packet};
use crate::probe::{AuditConfig, AuditReport, ProbeRecord, ProbeSink};
use crate::queue::{EventKey, EventQueue};
use crate::rng::SimRng;
use crate::routing::{DistanceOracle, Spt};
use crate::scenario::{MembershipEvent, ScenarioPlan};
use crate::shard::{Observation, OutMsg, ShardCtx};
use crate::time::SimTime;
use std::any::Any;

mod builder;

/// One scheduled event.  Payload-free: packets in flight live in the
/// engine's arena and events carry only a `Copy` handle, so the whole
/// enum is small and `M`-independent.
pub(crate) enum EventKind {
    Start(NodeId),
    /// Packet arriving at `node`, to be delivered and forwarded onward.
    Arrive {
        node: NodeId,
        pkt: PacketRef,
    },
    /// A timer, which fires only while its id is still live.
    Timer {
        node: NodeId,
        id: TimerId,
        token: u64,
    },
    /// A scheduled change to state every shard holds a copy of.
    Replicated(Replicated),
}

/// The agent callback an event runs.
#[derive(Clone, Copy)]
enum Callback {
    Start,
    Timer(u64),
    /// An arrival, whose arena reference the callback path drops.
    Packet(PacketRef),
}

/// The events a sharded run queues on *every* shard under one key, so
/// replicated state — link masks, loss models, which nodes are up,
/// channel member sets — evolves identically everywhere.  Applying one is
/// idempotent.
#[derive(Clone, Copy)]
pub(crate) enum Replicated {
    /// A scheduled fault takes effect.
    Fault(FaultEvent),
    /// A scheduled channel-membership change takes effect.
    Membership(MembershipEvent),
}

/// The simulator.  `M` is the protocol payload type.
pub struct Engine<M> {
    pub(crate) topo: Topology,
    pub(crate) oracle: DistanceOracle,
    /// Every source's routing tree: node 0's shortest-path forest over the
    /// `link_up` mask, recomputed in place by each applied link fault.
    pub(crate) forest: Spt,
    /// Each link's two directions, `[from a, from b]`.
    pub(crate) links: Vec<[LinkDir; 2]>,
    /// Whether each link currently carries traffic (fault injection).
    pub(crate) link_up: Vec<bool>,
    /// Routes each packet over its own source's masked SPT, recomputed per
    /// hop, so a test can hold the forest against that reference.
    #[cfg(test)]
    pub(crate) per_source_reference: bool,
    /// Whether each node's *agent* is running; a crashed node still
    /// forwards (the router outlives the application process).
    pub(crate) node_up: Vec<bool>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) agents: Vec<Option<Box<dyn Agent<M>>>>,
    pub(crate) agent_rngs: Vec<SimRng>,
    pub(crate) queue: EventQueue<EventKind>,
    /// In-flight packets, interned once per multicast; `Arrive` events
    /// hold [`PacketRef`] handles into it.
    pub(crate) arena: PacketArena<M>,
    pub(crate) now: SimTime,
    /// The timers that may still fire: armed, and since then neither
    /// fired nor called off by a cancel or by their node's crash.  Ids are
    /// never reused, so a queued timer event whose id is gone is skipped.
    pub(crate) live_timers: IdHashSet<TimerId>,
    /// Per-node monotone counter feeding timer ids, packet uids, and
    /// event-key sequence numbers.  Only drawn while processing events at
    /// the owning node, so the draw sequence — and with it every
    /// [`EventKey`] — is a pure function of simulation history, identical
    /// at any shard count.
    pub(crate) node_seq: Vec<u64>,
    /// Sequence for origin-0 (build/external) event keys.
    pub(crate) build_seq: u64,
    pub(crate) recorder: Recorder,
    pub(crate) probes: ProbeSink,
    /// `Some` while this engine is a shard of a partitioned run; `hop`
    /// diverts arrivals owned by other shards into `outbox`.
    pub(crate) shard: Option<ShardCtx>,
    /// Cross-shard arrivals generated during the current window.
    pub(crate) outbox: Vec<OutMsg<M>>,
    /// What an agent queues during one callback.  Lent to the callback's
    /// [`Ctx`] and drained as soon as it returns, so it is empty between
    /// callbacks and a steady-state callback allocates nothing for it; it
    /// lives here, once per engine, not in any agent.
    pub(crate) actions: Vec<Action<M>>,
}

impl<M: Classify + Clone + 'static> Engine<M> {
    /// Creates an engine over a topology with a root RNG seed.
    ///
    /// The distance oracle and the routing forest are both node 0's
    /// shortest-path tree, `O(n)` arrays each; the oracle stays as built,
    /// the forest follows the link faults.
    ///
    /// Crate-internal: [`EngineBuilder`] is the public way to construct
    /// an engine, configuring channels, agents, recorder mode, and the
    /// fault plan in one place.
    pub(crate) fn new(topo: Topology, seed: u64) -> Engine<M> {
        let n = topo.node_count();
        let mut root = SimRng::new(seed);
        // Each link direction samples loss from its own stream, so its
        // draws depend on its own history alone, at any shard count.
        let loss = root.split(u64::MAX);
        let agent_rngs = (0..n as u64).map(|i| root.split(i)).collect();
        let oracle = DistanceOracle::compute(&topo);
        Engine {
            links: (0..topo.link_count() as u64)
                .map(|l| [0, 1].map(|d| LinkDir::new(loss.clone().split(2 * l + d))))
                .collect(),
            link_up: vec![true; topo.link_count()],
            #[cfg(test)]
            per_source_reference: false,
            node_up: vec![true; n],
            forest: oracle.forest.clone(),
            oracle,
            channels: Vec::new(),
            agents: (0..n).map(|_| None).collect(),
            agent_rngs,
            queue: EventQueue::new(),
            arena: PacketArena::new(),
            now: SimTime::ZERO,
            live_timers: IdHashSet::default(),
            node_seq: vec![0; n],
            build_seq: 0,
            recorder: Recorder::default(),
            probes: ProbeSink::default(),
            shard: None,
            outbox: Vec::new(),
            actions: Vec::new(),
            topo,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timers that may still fire (diagnostics).
    pub fn pending_timer_count(&self) -> usize {
        self.live_timers.len()
    }

    /// Packets currently interned in the arena, i.e. with at least one
    /// `Arrive` event still queued (diagnostics).  Zero after the queue
    /// drains — arena slots must not leak.
    pub fn packets_in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Per-source routing trees cached (diagnostics): always zero, since
    /// every source routes over the one forest.  Kept for the callers
    /// that report it.
    pub fn cached_spt_count(&self) -> usize {
        0
    }

    /// Recorded observations so far.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Probe events captured so far (empty unless [`EngineBuilder::audit`]
    /// attached a record-keeping auditor).
    pub fn probe_records(&self) -> &[ProbeRecord] {
        self.probes.records()
    }

    /// The attached auditor's verdict as of the current simulation time,
    /// or `None` if no auditor was attached.
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.probes.audit_report(self.now)
    }

    /// Registers a multicast channel over the given members (tests only).
    #[cfg(test)]
    pub(crate) fn add_channel(&mut self, members: &[NodeId]) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels
            .push(Channel::new(self.topo.node_count(), members));
        id
    }

    /// Channel lookup.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.idx()]
    }

    /// Attaches an agent to a node and schedules its `on_start` at t = 0.
    #[cfg(test)]
    pub(crate) fn set_agent(&mut self, node: NodeId, agent: Box<dyn Agent<M>>) {
        self.attach_agent(node, agent, SimTime::ZERO);
    }

    fn attach_agent(&mut self, node: NodeId, agent: Box<dyn Agent<M>>, at: SimTime) {
        assert!(node.idx() < self.topo.node_count(), "unknown node {node:?}");
        assert!(
            self.agents[node.idx()].is_none(),
            "node {node:?} already has an agent"
        );
        self.agents[node.idx()] = Some(agent);
        self.push(at, EventKind::Start(node));
    }

    /// Schedules every event of a fault plan.  Events must not lie in the
    /// engine's past; a link event changes routing only once applied.
    pub(crate) fn schedule_faults(&mut self, plan: &FaultPlan) {
        for &(when, ev) in plan.events() {
            assert!(
                when >= self.now,
                "fault at {when:?} is in the past (now = {:?})",
                self.now
            );
            match ev {
                FaultEvent::LinkDown(l) | FaultEvent::LinkUp(l) | FaultEvent::SetLoss(l, _) => {
                    assert!(l.idx() < self.topo.link_count(), "unknown link {l:?}");
                }
                FaultEvent::NodeCrash(n) | FaultEvent::NodeRestart(n) => {
                    assert!(n.idx() < self.topo.node_count(), "unknown node {n:?}");
                }
            }
            self.push(when, EventKind::Replicated(Replicated::Fault(ev)));
        }
    }

    /// Schedules one channel-membership change.  Unlike a link fault this
    /// touches no routing state: scope pruning consults live membership
    /// per hop, so the flip is visible to the very next packet.
    pub(crate) fn schedule_membership(&mut self, when: SimTime, ev: MembershipEvent) {
        assert!(
            when >= self.now,
            "membership event at {when:?} is in the past (now = {:?})",
            self.now
        );
        let (channel, node) = (ev.channel(), ev.node());
        assert!(
            channel.idx() < self.channels.len(),
            "unknown channel {channel:?}"
        );
        assert!(node.idx() < self.topo.node_count(), "unknown node {node:?}");
        self.push(when, EventKind::Replicated(Replicated::Membership(ev)));
    }

    /// Immutable, downcast access to an agent's concrete type — used after
    /// a run to read out protocol state (requires Rust trait upcasting).
    pub fn agent<T: 'static>(&self, node: NodeId) -> Option<&T> {
        let a = self.agents[node.idx()].as_deref()?;
        (a as &dyn Any).downcast_ref::<T>()
    }

    /// The event loop, serial and sharded alike: pops events in
    /// [`EventKey`] order, moves the clock to each and dispatches it, until
    /// the queue is empty or its head lies past `bound`.  Returns `(events
    /// processed, replicated events among them)`.
    ///
    /// A shard also keeps the current event's key, under which
    /// [`Engine::observe`] journals what the event records, moves what its
    /// probe sink gained during the event into the journal under the same
    /// key, and counts the replicated events (each shard processes its own
    /// copy; `run_sharded` subtracts the duplicates).  A serial run
    /// does none of this.
    pub(crate) fn run(&mut self, bound: Option<SimTime>) -> (u64, u64) {
        let bound = bound.unwrap_or(SimTime::MAX);
        let (mut processed, mut replicated) = (0, 0);
        while let Some(key) = self.queue.peek_key() {
            if key.time > bound {
                break;
            }
            let (key, kind) = self.queue.pop_keyed().expect("peeked");
            debug_assert!(key.time >= self.now, "time went backwards");
            self.now = key.time;
            if let Some(sh) = &mut self.shard {
                replicated += u64::from(matches!(kind, EventKind::Replicated(_)));
                sh.key = key;
            }
            self.dispatch(kind);
            if let Some(sh) = &mut self.shard {
                let probes = self.probes.drain().map(|r| (key, Observation::Probe(r)));
                sh.journal.extend(probes);
            }
            processed += 1;
        }
        (processed, replicated)
    }

    /// The one record path of the event loop.  A shard of a run whose
    /// recorder keeps every event journals the observation, for
    /// `run_sharded` to replay in serial order; everywhere else it goes
    /// straight into this engine's recorder.
    #[inline]
    fn observe(&mut self, obs: Observation) {
        match &mut self.shard {
            Some(sh) if self.recorder.mode() == RecorderMode::Raw => sh.journal.push((sh.key, obs)),
            _ => obs.replay(&mut self.recorder, &mut self.probes),
        }
    }

    /// What a popped `Arrive` event carried, for another engine's queue
    /// (a shard split or absorb).  Drops the event's reference: the last
    /// one moves the packet out of the arena, any other takes a copy.
    pub(crate) fn take_arrival(&mut self, pkt: PacketRef) -> (Packet<M>, TrafficClass) {
        let class = self.arena.header(pkt).class;
        let owned = match self.arena.release(pkt) {
            Some(p) => p,
            None => self.arena.get(pkt).clone(),
        };
        (owned, class)
    }

    /// Queues an arrival another engine sent — the other half of
    /// [`Engine::take_arrival`] and of a cross-shard [`Engine::hop`] —
    /// under the sender's key, which is the key the serial engine would
    /// have used, so this queue orders it as the serial engine would.
    pub(crate) fn enqueue_arrival(
        &mut self,
        key: EventKey,
        node: NodeId,
        pkt: Packet<M>,
        class: TrafficClass,
    ) {
        let pkt = self.arena.insert(pkt, class);
        self.arena.add_ref(pkt);
        self.queue.push_keyed(key, EventKind::Arrive { node, pkt });
    }

    /// Queues the cross-shard arrivals peer shards sent this round, in key
    /// order: the inbox fills in thread-arrival order, and arena and slab
    /// slots are handed out in insertion order.
    pub(crate) fn ingest(&mut self, mut msgs: Vec<OutMsg<M>>) {
        msgs.sort_by_key(|m| m.key);
        for m in msgs {
            self.enqueue_arrival(m.key, m.node, m.pkt, m.class);
        }
    }

    /// Schedules a build-time / external event: origin 0, sequenced by the
    /// master-only `build_seq` counter.
    fn push(&mut self, time: SimTime, kind: EventKind) {
        let key = EventKey {
            time,
            push_time: self.now,
            origin: 0,
            oseq: self.build_seq,
        };
        self.build_seq += 1;
        self.queue.push_keyed(key, kind);
    }

    /// The key of an event generated while processing node `node`: origin
    /// `node + 1`, sequenced by that node's own counter, so the key is
    /// identical no matter which shard carries the event.
    fn key_from(&self, node: NodeId, time: SimTime, oseq: u64) -> EventKey {
        EventKey {
            time,
            push_time: self.now,
            origin: node.0 + 1,
            oseq,
        }
    }

    /// Schedules an event generated while processing node `node`.
    fn push_from(&mut self, node: NodeId, time: SimTime, oseq: u64, kind: EventKind) {
        self.queue.push_keyed(self.key_from(node, time, oseq), kind);
    }

    /// Draws the next value of `node`'s monotone sequence counter.
    #[inline]
    fn next_seq(&mut self, node: NodeId) -> u64 {
        let seq = self.node_seq[node.idx()];
        self.node_seq[node.idx()] += 1;
        seq
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(node) => self.call(node, Callback::Start),
            EventKind::Timer { node, id, token } => {
                if self.live_timers.remove(&id) {
                    self.call(node, Callback::Timer(token));
                }
            }
            EventKind::Arrive { node, pkt } => {
                // Forward down the source-rooted tree, then deliver to the
                // local agent (if any).  A crashed node still forwards —
                // the router outlives the application — but its agent
                // hears nothing (`call` checks node_up).
                let hdr = self.arena.header(pkt);
                self.observe(Observation::Delivery(Record {
                    time: self.now,
                    node,
                    src: hdr.src,
                    class: hdr.class,
                    bytes: hdr.bytes,
                    channel: hdr.channel,
                }));
                self.forward(node, pkt);
                self.call(node, Callback::Packet(pkt));
            }
            EventKind::Replicated(Replicated::Fault(ev)) => self.apply_fault(ev),
            EventKind::Replicated(Replicated::Membership(ev)) => self.apply_membership(ev),
        }
    }

    /// Applies one membership change.  Idempotent (like fault
    /// application), so a replicated event converges on every shard.
    fn apply_membership(&mut self, ev: MembershipEvent) {
        match ev {
            MembershipEvent::Join { channel, node } => {
                self.channels[channel.idx()].insert(node);
            }
            MembershipEvent::Leave { channel, node } => {
                self.channels[channel.idx()].remove(node);
            }
        }
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::LinkDown(link) | FaultEvent::LinkUp(link) => {
                let up = matches!(ev, FaultEvent::LinkUp(_));
                if self.link_up[link.idx()] == up {
                    return; // already in that state
                }
                self.link_up[link.idx()] = up;
                self.forest.recompute(&self.topo, &self.link_up);
            }
            FaultEvent::SetLoss(link, model) => {
                self.topo.set_loss_model(link, model);
                for dir in &mut self.links[link.idx()] {
                    dir.bad = false;
                }
            }
            FaultEvent::NodeCrash(node) => {
                if !self.node_up[node.idx()] {
                    return;
                }
                self.node_up[node.idx()] = false;
                // Its timers die with it, so a restarted agent only sees
                // timers it armed after coming back (its on_start re-arms
                // whatever it needs).
                self.live_timers.retain(|id| id.node() != Some(node));
            }
            FaultEvent::NodeRestart(node) => {
                if self.node_up[node.idx()] {
                    return;
                }
                self.node_up[node.idx()] = true;
                if self.agents[node.idx()].is_some() {
                    // Warm restart: agent state persisted, its start hook
                    // runs again to re-arm timers and re-announce.  Keyed
                    // by the node's own counter (origin `node + 1`): in a
                    // sharded run only the shard owning `node` holds its
                    // agent, so exactly one shard schedules this, with the
                    // same key the serial engine would.
                    let seq = self.next_seq(node);
                    self.push_from(node, self.now, seq, EventKind::Start(node));
                }
            }
        }
    }

    /// Runs one agent callback, then applies its queued actions.  Crashed
    /// and agent-less nodes get no callback.
    ///
    /// The agent and an arriving packet are borrowed where they lie, in
    /// `agents` and in the arena: a callback only queues actions, so
    /// nothing it does can touch either.  An arrival's arena reference is
    /// dropped after the callback but before the actions are applied, so a
    /// multicast among them reuses the slot the last arrival freed.
    fn call(&mut self, node: NodeId, callback: Callback) {
        // Applying an action never runs a callback, so the buffer is never
        // wanted twice at once and can leave the engine for the duration.
        let mut actions = std::mem::take(&mut self.actions);
        let agent = self.agents[node.idx()].as_deref_mut();
        if let Some(agent) = agent.filter(|_| self.node_up[node.idx()]) {
            let mut ctx = Ctx::new(
                self.now,
                node,
                &mut self.agent_rngs[node.idx()],
                &self.oracle,
                &mut actions,
                &mut self.node_seq[node.idx()],
                &mut self.probes,
            );
            match callback {
                Callback::Start => agent.on_start(&mut ctx),
                Callback::Timer(token) => agent.on_timer(&mut ctx, token),
                Callback::Packet(pkt) => agent.on_packet(&mut ctx, self.arena.get(pkt)),
            }
        }
        if let Callback::Packet(pkt) = callback {
            self.arena.release(pkt);
        }
        for action in actions.drain(..) {
            self.apply(node, action);
        }
        self.actions = actions;
    }

    fn apply(&mut self, node: NodeId, action: Action<M>) {
        match action {
            Action::SetTimer { id, at, token } => {
                self.live_timers.insert(id);
                // The timer id's per-node sequence doubles as the event
                // key sequence — both come from the same counter.
                self.push_from(node, at, id.seq(), EventKind::Timer { node, id, token });
            }
            Action::CancelTimer(id) => {
                self.live_timers.remove(&id);
            }
            Action::Multicast {
                channel,
                payload,
                bytes,
            } => {
                self.multicast_from(node, channel, payload, bytes);
            }
        }
    }

    /// Injects a multicast transmission from `node` (agents do this via
    /// [`Ctx::multicast`]; tests may call it directly).
    pub fn multicast_from(&mut self, node: NodeId, channel: ChannelId, payload: M, bytes: u32) {
        assert!(
            self.channels[channel.idx()].contains(node),
            "{node:?} is not a member of {channel:?}"
        );
        let pkt = Packet {
            uid: self.next_seq(node),
            src: node,
            channel,
            sent_at: self.now,
            bytes,
            payload,
        };
        let class = pkt.class();
        self.observe(Observation::Transmission(Record {
            time: self.now,
            node,
            src: node,
            class,
            bytes,
            channel,
        }));
        // Intern once; every queued Arrive takes a reference in forward().
        // If no first hop survives (pruned, down, or dropped) the orphan
        // is reclaimed immediately.
        let pref = self.arena.insert(pkt, class);
        self.forward(node, pref);
        self.arena.release_orphan(pref);
    }

    /// Forwards `pkt` from `at` to each child in the packet-source's tree,
    /// pruning at channel non-members (administrative scope boundary) and
    /// sampling the per-link loss process for lossy traffic classes.
    ///
    /// The children are enumerated from the adjacency list: every
    /// forest-edge neighbour except the one toward the source, so no
    /// per-source tree is ever materialized — the `O(n)` trees that
    /// session-announce traffic from every member would otherwise force
    /// add up to `O(n²)`.  A node the last link fault cut off from the
    /// source forwards nothing, and a down link is no forest edge: over a
    /// link that died after this packet entered the subtree the hop simply
    /// never happens (down is not loss — no drop record, and lossless
    /// classes are blocked too).
    fn forward(&mut self, at: NodeId, pkt: PacketRef) {
        // The cached header carries everything the hop loop needs — the
        // payload (and its class()) is never touched per hop.
        let hdr = self.arena.header(pkt);
        #[cfg(test)]
        if self.per_source_reference {
            return self.forward_per_source(at, pkt, hdr);
        }
        // A leaf's one neighbour is its hop toward the source (or it is cut
        // off): nothing to forward, so skip the forest walk.
        if at != hdr.src && self.topo.neighbors(at).len() == 1 {
            return;
        }
        if !self.forest.connects(at, hdr.src) {
            return;
        }
        let toward = (at != hdr.src).then(|| self.forest.next_hop(at, hdr.src));
        for i in 0..self.topo.neighbors(at).len() {
            let (child, link) = self.topo.neighbors(at)[i];
            if Some(child) == toward || !self.forest.carries(link) {
                continue;
            }
            self.hop(at, child, link, pkt, hdr);
        }
    }

    /// The reference `forward` is tested against: the children of `at` in
    /// the source's own masked SPT, recomputed for every hop with nothing
    /// cached.  A node outside the source's tree forwards nothing, even
    /// where it has children in the forest's tree of its own component.
    /// Both walk the id-sorted neighbour list, so the hop order (and with
    /// it the loss-RNG draw order) is the same on both paths.
    #[cfg(test)]
    fn forward_per_source(&mut self, at: NodeId, pkt: PacketRef, hdr: PacketHeader) {
        let spt = Spt::compute_masked(&self.topo, hdr.src, &self.link_up);
        for (child, link) in self.topo.neighbors(at).to_vec() {
            if spt.reachable(at) && spt.parent(child) == Some((at, link)) {
                self.hop(at, child, link, pkt, hdr);
            }
        }
    }

    /// One forwarding hop over a forest edge: the scope check, loss
    /// sampling for lossy classes, then the queued arrival.
    ///
    /// Loss draws come from the link *direction*'s own RNG stream, and the
    /// arrival's event key from `at`'s own counter — both are pure
    /// functions of this hop's local history, so the schedule is
    /// bit-identical at any shard count.  In a sharded run, an arrival at
    /// a node owned by another shard is diverted into the outbox instead
    /// of this shard's queue.
    fn hop(&mut self, at: NodeId, child: NodeId, link: LinkId, pkt: PacketRef, hdr: PacketHeader) {
        if !self.channels[hdr.channel.idx()].contains(child) {
            return; // scope boundary: prune the whole subtree
        }
        let spec = self.topo.link(link);
        let dir = &mut self.links[link.idx()][usize::from(spec.a != at)];
        if hdr.class.lossy() && spec.params.loss.sample(&mut dir.bad, &mut dir.loss) {
            self.observe(Observation::Drop(DropRecord {
                time: self.now,
                from: at,
                to: child,
                class: hdr.class,
            }));
            return;
        }
        let arrive = dir.transmit(&spec.params, self.now, hdr.bytes);
        let oseq = self.next_seq(at);
        if let Some(sh) = &self.shard {
            let dst = sh.plan.owner(child);
            if dst != sh.me {
                // Cross-shard hop: a copy leaves this shard as a message
                // under the key the local push below would have used; the
                // receiver's `enqueue_arrival` re-interns it.
                self.outbox.push(OutMsg {
                    dst,
                    key: self.key_from(at, arrive, oseq),
                    node: child,
                    class: hdr.class,
                    pkt: self.arena.get(pkt).clone(),
                });
                return;
            }
        }
        self.arena.add_ref(pkt);
        self.push_from(at, arrive, oseq, EventKind::Arrive { node: child, pkt });
    }

    /// Total approximate resident bytes of protocol state across every
    /// attached agent (see [`Agent::state_bytes`]).
    pub fn state_bytes(&self) -> u64 {
        self.agents
            .iter()
            .flatten()
            .map(|a| a.state_bytes() as u64)
            .sum()
    }

    /// Approximate resident protocol-state bytes of one node's agent
    /// (zero when the node has no agent).
    pub fn agent_state_bytes(&self, node: NodeId) -> usize {
        self.agents[node.idx()]
            .as_deref()
            .map_or(0, |a| a.state_bytes())
    }
}

/// Configures a complete simulation scenario — topology, seed, recorder,
/// channels, agents with start times, and fault plan — then produces a
/// runnable [`Engine`].
///
/// Channel ids are assigned in registration order starting at 0.
///
/// ```
/// use sharqfec_netsim::prelude::*;
/// # let mut t = TopologyBuilder::new();
/// # let a = t.add_node("a");
/// # let b = t.add_node("b");
/// # t.add_link(a, b, LinkParams::lossless_infinite(SimDuration::from_millis(1)));
/// # #[derive(Clone, Debug)]
/// # struct Ping;
/// # impl Classify for Ping { fn class(&self) -> TrafficClass { TrafficClass::Data } }
/// let mut builder: EngineBuilder<Ping> = EngineBuilder::new(t.build(), 42);
/// builder
///     .recorder_mode(RecorderMode::Streaming)
///     .fault_plan(FaultPlan::new().link_flap(
///         LinkId(0),
///         SimTime::from_secs(2),
///         SimTime::from_secs(3),
///     ));
/// let chan = builder.add_channel(&[a, b]);
/// let mut engine = builder.build();
/// engine.advance(RunSpec::to(SimTime::from_secs(5)));
/// # let _ = chan;
/// ```
pub struct EngineBuilder<M> {
    topo: Topology,
    seed: u64,
    mode: RecorderMode,
    channels: Vec<Channel>,
    agents: Vec<(NodeId, Box<dyn Agent<M>>, SimTime)>,
    plan: FaultPlan,
    scenario: ScenarioPlan,
    /// The auditor's configuration, and whether the probe records it is
    /// fed are also kept.
    audit: Option<(AuditConfig, bool)>,
}

#[cfg(test)]
mod tests;

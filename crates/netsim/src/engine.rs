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
//! Shortest-path trees are computed lazily against the current link-up
//! mask.  A [`FaultEvent::LinkDown`] invalidates every cached tree that
//! routes over the dead link; a [`FaultEvent::LinkUp`] invalidates all of
//! them (a restored link can shorten any path).  The next packet forwarded
//! from a source recomputes that source's tree on demand, so routing
//! reacts to flaps without paying for trees nobody uses.  The
//! [`DistanceOracle`] intentionally stays frozen at build time: it models
//! a *converged* session's RTT knowledge, not instantaneous reachability.

use crate::agent::{Action, Agent, Ctx, TimerId};
use crate::arena::{PacketArena, PacketHeader, PacketRef};
use crate::channel::{Channel, ChannelId};
use crate::faults::{FaultEvent, FaultPlan};
use crate::graph::{LinkId, NodeId, Topology};
use crate::idhash::IdHashSet;
use crate::link::LinkState;
use crate::metrics::{DropRecord, Record, Recorder, RecorderMode, TrafficClass};
use crate::packet::{Classify, Packet};
use crate::probe::{AuditConfig, AuditReport, Auditor, ProbeRecord, ProbeSink};
use crate::queue::{EventKey, EventQueue};
use crate::rng::SimRng;
use crate::routing::{DistanceOracle, Spt};
use crate::scenario::{MembershipEvent, ScenarioPlan};
use crate::shard::{OutMsg, ShardCtx};
use crate::time::SimTime;
use std::any::Any;

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
    Timer {
        node: NodeId,
        id: TimerId,
        token: u64,
        /// The node's crash epoch when the timer was armed; a stale epoch
        /// means the node crashed in between and the timer dies silently.
        epoch: u32,
    },
    /// A scheduled change to state every shard holds a copy of.
    Replicated(Replicated),
}

/// The events a sharded run queues on *every* shard under one key, so
/// replicated state — link masks, loss models, crash epochs, channel
/// member sets — evolves identically everywhere.  Applying one is
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
    /// Lazily-computed shortest-path trees against the current `link_up`
    /// mask; `None` means "invalidated or never needed yet".  Stays a
    /// zero-length vec until a tree is first requested, so tree-forwarded
    /// runs never pay the `O(nodes)` table (let alone the `O(n²)` trees).
    pub(crate) spts: Vec<Option<Spt>>,
    /// Whether forwarding may use the `O(depth)`-per-hop tree fast path
    /// instead of per-source SPTs.  True only when the topology is a tree
    /// *and* no link fault can change routing mid-run; the two paths
    /// produce bit-identical schedules where both apply.
    pub(crate) tree_forwarding: bool,
    pub(crate) link_state: Vec<LinkState>,
    /// Whether each link currently carries traffic (fault injection).
    pub(crate) link_up: Vec<bool>,
    /// Whether each node's *agent* is running; a crashed node still
    /// forwards (the router outlives the application process).
    pub(crate) node_up: Vec<bool>,
    /// Per-node crash epoch; bumped on `NodeCrash` so timers armed before
    /// the crash never fire after a restart.
    pub(crate) epoch: Vec<u32>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) agents: Vec<Option<Box<dyn Agent<M>>>>,
    pub(crate) agent_rngs: Vec<SimRng>,
    /// Frozen base stream for link-loss sampling; never drawn from
    /// directly — per-(link, direction) streams split off lazily (below),
    /// so loss draws depend only on that link direction's own history and
    /// are identical at any shard count.
    pub(crate) loss_base: SimRng,
    /// Lazily-initialized loss streams per link: `[from-a, from-b]`.
    pub(crate) loss_streams: Vec<Option<Box<[SimRng; 2]>>>,
    pub(crate) queue: EventQueue<EventKind>,
    /// In-flight packets, interned once per multicast; `Arrive` events
    /// hold [`PacketRef`] handles into it.
    pub(crate) arena: PacketArena<M>,
    pub(crate) now: SimTime,
    /// Timer events scheduled but not yet fired.  Keyed by id (ids are
    /// never reused), removed when the event is popped, so both this set
    /// and `cancelled` stay bounded by the number of in-flight timers.
    pub(crate) pending_timers: IdHashSet<TimerId>,
    /// Cancellations whose timer event is still in the queue.  Invariant:
    /// `cancelled ⊆ pending_timers` — cancelling an already-fired (or
    /// never-armed) timer must not leak an entry forever.
    pub(crate) cancelled: IdHashSet<TimerId>,
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
    /// The distance oracle is computed eagerly — dense all-pairs for meshy
    /// topologies (cheap at paper scale, 113 nodes), `O(n)` tree arrays
    /// when the topology is a tree; per-source routing trees are computed
    /// lazily on first use so fault-driven invalidation stays cheap, and
    /// are never computed at all on fault-free tree topologies (see
    /// [`EngineBuilder::fault_plan`]).
    ///
    /// Crate-internal: [`EngineBuilder`] is the public way to construct
    /// an engine, configuring channels, agents, recorder mode, and the
    /// fault plan in one place.
    pub(crate) fn new(topo: Topology, seed: u64) -> Engine<M> {
        let n = topo.node_count();
        let mut root = SimRng::new(seed);
        let loss_base = root.split(u64::MAX);
        let agent_rngs = (0..n as u64).map(|i| root.split(i)).collect();
        let oracle = DistanceOracle::compute(&topo);
        let tree_forwarding = oracle.is_tree();
        Engine {
            link_state: vec![LinkState::default(); topo.link_count()],
            link_up: vec![true; topo.link_count()],
            node_up: vec![true; n],
            epoch: vec![0; n],
            spts: Vec::new(),
            tree_forwarding,
            oracle,
            channels: Vec::new(),
            agents: (0..n).map(|_| None).collect(),
            agent_rngs,
            loss_base,
            loss_streams: (0..topo.link_count()).map(|_| None).collect(),
            queue: EventQueue::new(),
            arena: PacketArena::new(),
            now: SimTime::ZERO,
            pending_timers: IdHashSet::default(),
            cancelled: IdHashSet::default(),
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

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Ground-truth propagation delays (see [`Ctx::one_way`] for the rules
    /// on which protocols may consult it).
    pub fn oracle(&self) -> &DistanceOracle {
        &self.oracle
    }

    /// The shortest-path tree rooted at `src`, computed against the
    /// current link-up mask (takes `&mut self` because trees are cached
    /// lazily and invalidated by link faults).
    pub fn spt(&mut self, src: NodeId) -> &Spt {
        self.ensure_spt(src.idx());
        self.spts[src.idx()].as_ref().expect("just ensured")
    }

    fn ensure_spt(&mut self, src: usize) {
        if self.spts.is_empty() {
            self.spts = (0..self.topo.node_count()).map(|_| None).collect();
        }
        if self.spts[src].is_none() {
            self.spts[src] = Some(Spt::compute_masked(
                &self.topo,
                NodeId(src as u32),
                Some(&self.link_up),
            ));
        }
    }

    /// Whether a link currently carries traffic.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.idx()]
    }

    /// Whether a node's agent is currently running (crashed nodes still
    /// forward traffic).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node.idx()]
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timer events scheduled but not yet fired (diagnostics).
    pub fn pending_timer_count(&self) -> usize {
        self.pending_timers.len()
    }

    /// Cancellations waiting for their timer event to pop (diagnostics).
    /// Always bounded by [`Engine::pending_timer_count`].
    pub fn cancelled_timer_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Packets currently interned in the arena, i.e. with at least one
    /// `Arrive` event still queued (diagnostics).  Zero after the queue
    /// drains — arena slots must not leak.
    pub fn packets_in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Per-source routing trees currently cached (diagnostics).  Stays
    /// zero for tree-forwarded runs, which never materialize an SPT.
    pub fn cached_spt_count(&self) -> usize {
        self.spts.iter().flatten().count()
    }

    /// Recorded observations so far.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable access to the recorder (e.g. to clear a warm-up phase).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// The probe sink agents emit decision-level events into (disabled
    /// unless an auditor is attached; see [`EngineBuilder::audit`]).
    pub fn probes(&self) -> &ProbeSink {
        &self.probes
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

    /// Registers a multicast channel over the given members.
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
    /// engine's past.
    ///
    /// A plan containing link up/down events disables the tree forwarding
    /// fast path for the rest of the run: packets already in a subtree
    /// must observe the live link mask and rerouted trees, which only the
    /// masked-SPT path models.
    pub(crate) fn schedule_faults(&mut self, plan: &FaultPlan) {
        if plan
            .events()
            .iter()
            .any(|(_, ev)| matches!(ev, FaultEvent::LinkDown(_) | FaultEvent::LinkUp(_)))
        {
            self.tree_forwarding = false;
        }
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

    /// Schedules one channel-membership change.  Unlike link faults this
    /// never disables the tree-forwarding fast path and invalidates no
    /// routing tree: scope pruning consults live membership per hop, so
    /// the membership flip is visible to the very next packet.
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
    /// A shard also stamps each event's key into its recorder and probe
    /// sink, so per-shard outputs merge back into the serial timeline, and
    /// counts the replicated events (each shard processes its own copy;
    /// the sharded driver subtracts the duplicates).  Whether this engine
    /// is a shard is decided once, outside the loop: a serial run stamps
    /// and counts nothing.
    pub(crate) fn run(&mut self, bound: Option<SimTime>) -> (u64, u64) {
        let is_shard = self.shard.is_some();
        let bound = bound.unwrap_or(SimTime::MAX);
        let (mut processed, mut replicated) = (0, 0);
        while let Some(key) = self.queue.peek_key() {
            if key.time > bound {
                break;
            }
            let (key, kind) = self.queue.pop_keyed().expect("peeked");
            debug_assert!(key.time >= self.now, "time went backwards");
            self.now = key.time;
            if is_shard {
                replicated += u64::from(matches!(kind, EventKind::Replicated(_)));
                self.recorder.set_tag(key);
                self.probes.set_tag(key);
            }
            self.dispatch(kind);
            processed += 1;
        }
        (processed, replicated)
    }

    /// What a popped `Arrive` event carried, for another engine's queue
    /// (a shard split or absorb).  Drops the event's reference: the last
    /// one moves the packet out of the arena, any other takes a copy.
    pub(crate) fn take_arrival(&mut self, pkt: PacketRef) -> (Packet<M>, TrafficClass) {
        let class = self.arena.header(pkt).class;
        let owned = match self.arena.release(pkt) {
            Some(p) => p,
            None => self.arena.copy_of(pkt),
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
            EventKind::Start(node) => {
                self.with_agent(node, |agent, ctx| agent.on_start(ctx));
            }
            EventKind::Timer {
                node,
                id,
                token,
                epoch,
            } => {
                self.pending_timers.remove(&id);
                if self.cancelled.remove(&id) {
                    return;
                }
                // Timers armed before a crash die with the old epoch, so a
                // restarted agent only sees timers it armed after coming
                // back (its on_start re-arms whatever it needs).
                if epoch != self.epoch[node.idx()] {
                    return;
                }
                self.with_agent(node, |agent, ctx| agent.on_timer(ctx, token));
            }
            EventKind::Arrive { node, pkt } => {
                // Deliver to the local agent (if any), then keep forwarding
                // down the source-rooted tree.  A crashed node still
                // forwards — the router outlives the application — but its
                // agent hears nothing (with_agent checks node_up).
                let hdr = self.arena.header(pkt);
                self.recorder.record_delivery(Record {
                    time: self.now,
                    node,
                    src: hdr.src,
                    class: hdr.class,
                    bytes: hdr.bytes,
                    channel: hdr.channel,
                });
                self.forward(node, pkt);
                let has_agent = self.agents[node.idx()].is_some();
                if let Some(owned) = self.arena.release(pkt) {
                    // Last arrival: the packet moved out of the arena with
                    // no clone; deliver it and let it drop.
                    if has_agent {
                        self.with_agent(node, |agent, ctx| agent.on_packet(ctx, &owned));
                    }
                } else if has_agent {
                    // Other arrivals still pending: lend the packet to the
                    // callback and put it back.  The slot stays reserved,
                    // so re-entrant multicasts cannot reuse it.
                    let owned = self.arena.take(pkt);
                    self.with_agent(node, |agent, ctx| agent.on_packet(ctx, &owned));
                    self.arena.restore(pkt, owned);
                }
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
            FaultEvent::LinkDown(link) => {
                if !self.link_up[link.idx()] {
                    return; // already down
                }
                self.link_up[link.idx()] = false;
                // Only trees actually routing over the dead link reroute.
                for spt in &mut self.spts {
                    if spt.as_ref().is_some_and(|s| s.uses_link(link)) {
                        *spt = None;
                    }
                }
            }
            FaultEvent::LinkUp(link) => {
                if self.link_up[link.idx()] {
                    return; // already up
                }
                self.link_up[link.idx()] = true;
                // A restored link can shorten any path: drop every cached
                // tree and let forwarding recompute on demand.
                for spt in &mut self.spts {
                    *spt = None;
                }
            }
            FaultEvent::SetLoss(link, model) => {
                self.topo.set_loss_model(link, model);
                self.link_state[link.idx()].reset_chain();
            }
            FaultEvent::NodeCrash(node) => {
                if !self.node_up[node.idx()] {
                    return;
                }
                self.node_up[node.idx()] = false;
                self.epoch[node.idx()] += 1;
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

    /// Runs one agent callback and then applies its queued actions.
    /// Crashed nodes get no callbacks at all.
    fn with_agent(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Agent<M>, &mut Ctx<'_, M>)) {
        if !self.node_up[node.idx()] {
            return;
        }
        let Some(mut agent) = self.agents[node.idx()].take() else {
            return;
        };
        // Applying an action never runs a callback, so the buffer is never
        // wanted twice at once and can leave the engine for the duration.
        let mut actions = std::mem::take(&mut self.actions);
        let mut ctx = Ctx::new(
            self.now,
            node,
            &mut self.agent_rngs[node.idx()],
            &self.oracle,
            &mut actions,
            &mut self.node_seq[node.idx()],
            &mut self.probes,
        );
        f(agent.as_mut(), &mut ctx);
        self.agents[node.idx()] = Some(agent);
        for action in actions.drain(..) {
            self.apply(node, action);
        }
        self.actions = actions;
    }

    fn apply(&mut self, node: NodeId, action: Action<M>) {
        match action {
            Action::SetTimer { id, at, token } => {
                self.pending_timers.insert(id);
                let epoch = self.epoch[node.idx()];
                // The timer id's per-node sequence doubles as the event
                // key sequence — both come from the same counter.
                self.push_from(
                    node,
                    at,
                    id.seq(),
                    EventKind::Timer {
                        node,
                        id,
                        token,
                        epoch,
                    },
                );
            }
            Action::CancelTimer(id) => {
                // Only remember cancellations for timers still in the
                // queue; cancelling an already-fired timer (or cancelling
                // twice) must be a bounded no-op, not a permanent leak.
                if self.pending_timers.contains(&id) {
                    self.cancelled.insert(id);
                }
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
        self.recorder.record_transmission(Record {
            time: self.now,
            node,
            src: node,
            class,
            bytes,
            channel,
        });
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
    /// On tree topologies without link faults the children are enumerated
    /// directly from the adjacency list (every neighbour except the one
    /// toward the source), so no per-source SPT is ever materialized —
    /// the `O(n)` trees that session-announce traffic from every member
    /// would otherwise force add up to `O(n²)`.  Both neighbour lists and
    /// SPT child groups are sorted by node id, so the hop order (and with
    /// it the loss-RNG draw order) is bit-identical across the two paths.
    fn forward(&mut self, at: NodeId, pkt: PacketRef) {
        // The cached header carries everything the hop loop needs — the
        // payload (and its class()) is never touched per hop.
        let hdr = self.arena.header(pkt);
        if self.tree_forwarding {
            let toward = if at == hdr.src {
                None
            } else {
                Some(self.oracle.tree_next_hop(at, hdr.src))
            };
            for i in 0..self.topo.neighbors(at).len() {
                let (child, link) = self.topo.neighbors(at)[i];
                if Some(child) == toward {
                    continue;
                }
                self.hop(at, child, link, pkt, hdr);
            }
            return;
        }
        // The SPT stores child edges in a flat CSR arena, so each edge is
        // copied out by index — no per-packet allocation while the rest of
        // the engine state stays mutable.
        let src = hdr.src.idx();
        self.ensure_spt(src);
        let spt = self.spts[src].as_ref().expect("just ensured");
        let (start, end) = spt.child_range(at);
        for i in start..end {
            let (child, link) = self.spts[src].as_ref().expect("ensured").child_edge(i);
            self.hop(at, child, link, pkt, hdr);
        }
    }

    /// One forwarding hop: link-mask and scope checks, loss sampling for
    /// lossy classes, then the queued arrival.
    ///
    /// Loss draws come from the link *direction*'s own lazily-split RNG
    /// stream, and the arrival's event key from `at`'s own counter — both
    /// are pure functions of this hop's local history, so the schedule is
    /// bit-identical at any shard count.  In a sharded run, an arrival at
    /// a node owned by another shard is diverted into the outbox instead
    /// of this shard's queue.
    fn hop(&mut self, at: NodeId, child: NodeId, link: LinkId, pkt: PacketRef, hdr: PacketHeader) {
        if !self.link_up[link.idx()] {
            // A link that died after this packet entered the subtree: the
            // hop simply never happens (down is not loss — no drop record,
            // and lossless classes are blocked too).
            return;
        }
        if !self.channels[hdr.channel.idx()].contains(child) {
            return; // scope boundary: prune the whole subtree
        }
        let spec = self.topo.link(link);
        if hdr.class.lossy() {
            if self.loss_streams[link.idx()].is_none() {
                let l = link.idx() as u64;
                self.loss_streams[link.idx()] = Some(Box::new([
                    self.loss_base.clone().split(2 * l),
                    self.loss_base.clone().split(2 * l + 1),
                ]));
            }
            let dir = usize::from(spec.a != at);
            let streams = self.loss_streams[link.idx()].as_mut().expect("just set");
            let state = &mut self.link_state[link.idx()];
            let dropped = {
                let bad = state.chain_state_mut(spec, at);
                spec.params.loss.sample(bad, &mut streams[dir])
            };
            if dropped {
                self.recorder.record_drop(DropRecord {
                    time: self.now,
                    from: at,
                    to: child,
                    class: hdr.class,
                });
                return;
            }
        }
        let arrive = self.link_state[link.idx()].transmit(spec, at, self.now, hdr.bytes);
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
                    pkt: self.arena.copy_of(pkt),
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
    channels: Vec<Vec<NodeId>>,
    agents: Vec<(NodeId, Box<dyn Agent<M>>, SimTime)>,
    plan: FaultPlan,
    scenario: ScenarioPlan,
    /// The auditor's configuration, and whether the probe records it is
    /// fed are also kept.
    audit: Option<(AuditConfig, bool)>,
}

impl<M: Classify + Clone + 'static> EngineBuilder<M> {
    /// Starts a scenario over a topology with a root RNG seed.
    pub fn new(topo: Topology, seed: u64) -> EngineBuilder<M> {
        EngineBuilder {
            topo,
            seed,
            mode: RecorderMode::Raw,
            channels: Vec::new(),
            agents: Vec::new(),
            plan: FaultPlan::new(),
            scenario: ScenarioPlan::new(),
            audit: None,
        }
    }

    /// How observations are stored (default [`RecorderMode::Raw`]).
    pub fn recorder_mode(&mut self, mode: RecorderMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Registers a multicast channel; ids are dense from 0 in call order.
    pub fn add_channel(&mut self, members: &[NodeId]) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(members.to_vec());
        id
    }

    /// Attaches an agent starting at t = 0.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent<M>>) -> &mut Self {
        self.add_agent_at(node, agent, SimTime::ZERO)
    }

    /// Attaches an agent with an explicit start time.
    pub fn add_agent_at(
        &mut self,
        node: NodeId,
        agent: Box<dyn Agent<M>>,
        at: SimTime,
    ) -> &mut Self {
        self.agents.push((node, agent, at));
        self
    }

    /// Schedules a fault plan (replaces any previously set plan).
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.plan = plan;
        self
    }

    /// Installs a workload scenario (replaces any previously set one).
    /// At build time the plan compiles to ordinary DES events:
    ///
    /// * membership events are scheduled *before* any agent start, so a
    ///   join at `t` orders ahead of the joining agent's start at `t`;
    /// * a node whose earliest event on a channel is a `Join` is stripped
    ///   from that channel's initial member list;
    /// * [`ScenarioPlan::starts`] override the start times passed to
    ///   [`EngineBuilder::add_agent_at`];
    /// * stops and restarts become [`FaultEvent::NodeCrash`] /
    ///   [`FaultEvent::NodeRestart`] events appended to the fault plan.
    ///
    /// If an auditor is attached, the scenario's disruption instants are
    /// excused ([`AuditConfig::excuse_scenario`]).
    pub fn scenario(&mut self, plan: ScenarioPlan) -> &mut Self {
        self.scenario = plan;
        self
    }

    /// Attaches an invariant [`Auditor`] fed from the probe stream and
    /// keeps every probe event agents emit ([`Engine::probe_records`]).
    /// Probe emission is a single branch when nothing observes it, so
    /// attaching an auditor never changes simulated behaviour — only what
    /// is retained.  If a fault plan is set, its active span is excused
    /// from the single-ZCR invariant automatically
    /// ([`AuditConfig::excuse_faults`]).
    pub fn audit(&mut self, cfg: AuditConfig) -> &mut Self {
        self.audit = Some((cfg, true));
        self
    }

    /// Attaches an invariant [`Auditor`] *without* retaining the probe
    /// stream: events flow into the auditor (whose state is zone-bounded)
    /// and are then discarded, instead of accumulating an `O(events)`
    /// record log.  Large-scale runs use this so a 10⁶-receiver sweep can
    /// stay audited without holding per-event history.
    pub fn audit_streaming(&mut self, cfg: AuditConfig) -> &mut Self {
        self.audit = Some((cfg, false));
        self
    }

    /// Builds the engine: recorder configured, channels registered, agent
    /// start events and fault events queued.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node, a node with two agents, or a fault
    /// referencing an unknown link or node.
    pub fn build(self) -> Engine<M> {
        let mut engine: Engine<M> = Engine::new(self.topo, self.seed);
        if let Some((mut cfg, keep_records)) = self.audit {
            cfg.excuse_faults(&self.plan);
            cfg.excuse_scenario(&self.scenario);
            engine.probes.set_recording(keep_records);
            engine.probes.set_auditor(Auditor::new(cfg));
        }
        engine.recorder.set_mode(self.mode);
        // One pass over the plan answers `initially_out` for every member
        // of every channel and `start_override` for every agent below.
        let (initially_out, start_overrides) = self.scenario.compile();
        for (i, members) in self.channels.iter().enumerate() {
            if self.scenario.is_empty() {
                engine.add_channel(members);
                continue;
            }
            // Future joiners start outside their channels: strip them
            // from the initial member list (keeps setup layers free to
            // register full zone rosters).
            let id = ChannelId(i as u32);
            let initial: Vec<NodeId> = members
                .iter()
                .copied()
                .filter(|&m| !initially_out.contains_key(&(id, m)))
                .collect();
            engine.add_channel(&initial);
        }
        // Membership events go in before any agent start, so a join at
        // time t orders ahead of an agent start at the same t (both are
        // origin-0 keys sequenced by push order).
        for &(when, ev) in self.scenario.events() {
            engine.schedule_membership(when, ev);
        }
        for (node, agent, at) in self.agents {
            let at = start_overrides.get(&node).copied().unwrap_or(at);
            engine.attach_agent(node, agent, at);
        }
        // Agent stops/restarts ride the fault machinery: a stop is a node
        // crash (timers die, state freezes), a rejoin a warm restart.
        let mut plan = self.plan;
        for &(when, node) in self.scenario.stops() {
            plan.push(when, FaultEvent::NodeCrash(node));
        }
        for &(when, node) in self.scenario.restarts() {
            plan.push(when, FaultEvent::NodeRestart(node));
        }
        engine.schedule_faults(&plan);
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkParams, TopologyBuilder};
    use crate::metrics::TrafficClass;
    use crate::shard::RunSpec;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Data(u32),
        Nack,
    }
    impl Classify for Msg {
        fn class(&self) -> TrafficClass {
            match self {
                Msg::Data(_) => TrafficClass::Data,
                Msg::Nack => TrafficClass::Nack,
            }
        }
    }

    /// Agent that records everything it hears.
    #[derive(Default)]
    struct Sniffer {
        heard: Vec<(SimTime, Msg)>,
    }
    impl Agent<Msg> for Sniffer {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg>, pkt: &Packet<Msg>) {
            self.heard.push((ctx.now(), pkt.payload.clone()));
        }
    }

    /// Agent that fires a burst at start.
    struct Burst {
        chan: ChannelId,
        count: u32,
    }
    impl Agent<Msg> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for i in 0..self.count {
                ctx.multicast(self.chan, Msg::Data(i), 1000);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// chain 0-1-2, 10ms links, 800kbit/s (1000B tx = 10ms).
    fn chain3(loss_mid: f64) -> (Topology, [NodeId; 3]) {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        b.add_link(n0, n1, LinkParams::new(ms(10), 800_000, 0.0));
        b.add_link(n1, n2, LinkParams::new(ms(10), 800_000, loss_mid));
        (b.build(), [n0, n1, n2])
    }

    #[test]
    fn multicast_reaches_all_members_with_correct_timing() {
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        let chan = e.add_channel(&[n0, n1, n2]);
        e.set_agent(n0, Box::new(Burst { chan, count: 1 }));
        e.set_agent(n1, Box::new(Sniffer::default()));
        e.set_agent(n2, Box::new(Sniffer::default()));
        e.advance(RunSpec::drain());
        // hop1: tx 10ms + lat 10ms = 20ms; hop2 arrives at 40ms.
        let s1 = e.agent::<Sniffer>(n1).unwrap();
        let s2 = e.agent::<Sniffer>(n2).unwrap();
        assert_eq!(s1.heard, vec![(SimTime::from_millis(20), Msg::Data(0))]);
        assert_eq!(s2.heard, vec![(SimTime::from_millis(40), Msg::Data(0))]);
    }

    #[test]
    fn scope_pruning_stops_at_non_members() {
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        // n2 is outside the channel: a scoped zone {0, 1}.
        let chan = e.add_channel(&[n0, n1]);
        e.set_agent(n0, Box::new(Burst { chan, count: 1 }));
        e.set_agent(n1, Box::new(Sniffer::default()));
        e.set_agent(n2, Box::new(Sniffer::default()));
        e.advance(RunSpec::drain());
        assert_eq!(e.agent::<Sniffer>(n1).unwrap().heard.len(), 1);
        assert!(e.agent::<Sniffer>(n2).unwrap().heard.is_empty());
    }

    #[test]
    fn middle_member_pruning_blocks_downstream_members() {
        // If the middle of the chain is not a member, scoping cuts off the
        // tail even though it is a member (zones must be contiguous).
        let (t, [n0, _n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        let chan = e.add_channel(&[n0, n2]);
        e.set_agent(n0, Box::new(Burst { chan, count: 1 }));
        e.set_agent(n2, Box::new(Sniffer::default()));
        e.advance(RunSpec::drain());
        assert!(e.agent::<Sniffer>(n2).unwrap().heard.is_empty());
    }

    #[test]
    fn serialization_queues_back_to_back_packets() {
        let (t, [n0, n1, _]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        let chan = e.add_channel(&[n0, n1]);
        e.set_agent(n0, Box::new(Burst { chan, count: 3 }));
        e.set_agent(n1, Box::new(Sniffer::default()));
        e.advance(RunSpec::drain());
        let times: Vec<SimTime> = e
            .agent::<Sniffer>(n1)
            .unwrap()
            .heard
            .iter()
            .map(|(t, _)| *t)
            .collect();
        // 10ms serialization each, pipelined: arrivals at 20, 30, 40 ms.
        assert_eq!(
            times,
            vec![
                SimTime::from_millis(20),
                SimTime::from_millis(30),
                SimTime::from_millis(40)
            ]
        );
    }

    #[test]
    fn lossy_link_drops_data_but_never_nacks() {
        let (t, [n0, n1, n2]) = chain3(1.0); // middle link always loses
        let mut e: Engine<Msg> = Engine::new(t, 7);
        let chan = e.add_channel(&[n0, n1, n2]);

        struct Both {
            chan: ChannelId,
        }
        impl Agent<Msg> for Both {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.multicast(self.chan, Msg::Data(0), 1000);
                ctx.multicast(self.chan, Msg::Nack, 40);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
        }
        e.set_agent(n0, Box::new(Both { chan }));
        e.set_agent(n2, Box::new(Sniffer::default()));
        e.advance(RunSpec::drain());
        let heard = &e.agent::<Sniffer>(n2).unwrap().heard;
        assert_eq!(heard.len(), 1, "only the NACK should survive");
        assert_eq!(heard[0].1, Msg::Nack);
        assert_eq!(e.recorder().drops.len(), 1);
        assert_eq!(e.recorder().drops[0].class, TrafficClass::Data);
    }

    #[test]
    fn loss_drops_whole_subtree() {
        // star: 0 - 1 - {2, 3}; if link 0-1 drops, neither 2 nor 3 hears.
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let n3 = b.add_node("3");
        b.add_link(n0, n1, LinkParams::infinite(ms(1), 1.0));
        b.add_link(n1, n2, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n1, n3, LinkParams::lossless_infinite(ms(1)));
        let mut e: Engine<Msg> = Engine::new(b.build(), 3);
        let chan = e.add_channel(&[n0, n1, n2, n3]);
        e.set_agent(n0, Box::new(Burst { chan, count: 1 }));
        e.set_agent(n2, Box::new(Sniffer::default()));
        e.set_agent(n3, Box::new(Sniffer::default()));
        e.advance(RunSpec::drain());
        assert!(e.agent::<Sniffer>(n2).unwrap().heard.is_empty());
        assert!(e.agent::<Sniffer>(n3).unwrap().heard.is_empty());
        assert_eq!(e.recorder().deliveries.len(), 0);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Agent<Msg> for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(ms(30), 3);
                ctx.set_timer(ms(10), 1);
                let cancel_me = ctx.set_timer(ms(20), 2);
                ctx.cancel_timer(cancel_me);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, Msg>, token: u64) {
                self.fired.push(token);
            }
        }
        let (t, [n0, ..]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        e.set_agent(n0, Box::new(Timers { fired: vec![] }));
        e.advance(RunSpec::drain());
        assert_eq!(e.agent::<Timers>(n0).unwrap().fired, vec![1, 3]);
    }

    #[test]
    fn run_until_stops_the_clock_and_resumes() {
        let (t, [n0, n1, _]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        let chan = e.add_channel(&[n0, n1]);
        e.set_agent(n0, Box::new(Burst { chan, count: 1 }));
        e.set_agent(n1, Box::new(Sniffer::default()));
        e.advance(RunSpec::to(SimTime::from_millis(5)));
        assert_eq!(e.now(), SimTime::from_millis(5));
        assert!(e.agent::<Sniffer>(n1).unwrap().heard.is_empty());
        e.advance(RunSpec::to(SimTime::from_secs(1)));
        assert_eq!(e.agent::<Sniffer>(n1).unwrap().heard.len(), 1);
        assert_eq!(e.now(), SimTime::from_secs(1));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| -> Vec<(u64, u32)> {
            let (t, [n0, n1, n2]) = chain3(0.3);
            let mut e: Engine<Msg> = Engine::new(t, seed);
            let chan = e.add_channel(&[n0, n1, n2]);
            e.set_agent(n0, Box::new(Burst { chan, count: 50 }));
            e.set_agent(n2, Box::new(Sniffer::default()));
            e.advance(RunSpec::drain());
            e.agent::<Sniffer>(n2)
                .unwrap()
                .heard
                .iter()
                .map(|(t, m)| {
                    (
                        t.as_nanos(),
                        match m {
                            Msg::Data(i) => *i,
                            Msg::Nack => u32::MAX,
                        },
                    )
                })
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(
            run(42),
            run(43),
            "different seeds should differ at 30% loss"
        );
    }

    #[test]
    fn recorder_sees_transmissions_and_deliveries() {
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        let chan = e.add_channel(&[n0, n1, n2]);
        e.set_agent(n0, Box::new(Burst { chan, count: 2 }));
        e.advance(RunSpec::drain());
        assert_eq!(e.recorder().sent_count(n0, TrafficClass::Data), 2);
        // Two deliveries at n1, two at n2 (agents not required to record).
        assert_eq!(e.recorder().delivered_count(n1, TrafficClass::Data), 2);
        assert_eq!(e.recorder().delivered_count(n2, TrafficClass::Data), 2);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn sending_from_non_member_panics() {
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        let chan = e.add_channel(&[n1, n2]);
        e.multicast_from(n0, chan, Msg::Nack, 40);
    }

    #[test]
    #[should_panic(expected = "already has an agent")]
    fn double_agent_attachment_panics() {
        let (t, [n0, ..]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        e.set_agent(n0, Box::new(Sniffer::default()));
        e.set_agent(n0, Box::new(Sniffer::default()));
    }

    struct StartClock {
        started_at: Vec<SimTime>,
    }
    impl Agent<Msg> for StartClock {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.started_at.push(ctx.now());
        }
        fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
    }

    // Ported from the removed `set_recorder_mode`/`set_agent_with_start`
    // shims: the builder covers both configuration axes they provided.
    #[test]
    fn builder_configures_recorder_mode_and_delayed_start() {
        let (t, [n0, ..]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        b.recorder_mode(RecorderMode::Streaming);
        b.add_agent_at(
            n0,
            Box::new(StartClock {
                started_at: Vec::new(),
            }),
            SimTime::from_secs(1),
        );
        let mut e = b.build();
        e.advance(RunSpec::drain());
        assert_eq!(e.recorder().mode(), RecorderMode::Streaming);
        assert_eq!(
            e.agent::<StartClock>(n0).unwrap().started_at,
            vec![SimTime::from_secs(1)]
        );
    }

    #[test]
    fn arena_drains_with_the_event_queue() {
        // Lossy traffic, pruned subtrees, and leaf deliveries all hand
        // their packet slots back: nothing may stay interned once the
        // queue is empty.
        let (t, [n0, n1, n2]) = chain3(0.3);
        let mut e: Engine<Msg> = Engine::new(t, 11);
        let chan = e.add_channel(&[n0, n1, n2]);
        let scoped = e.add_channel(&[n0]); // every first hop pruned
        e.set_agent(n0, Box::new(Burst { chan, count: 40 }));
        e.set_agent(n2, Box::new(Sniffer::default()));
        e.multicast_from(n0, scoped, Msg::Data(0), 1000);
        assert_eq!(e.packets_in_flight(), 0, "orphan reclaimed immediately");
        e.advance(RunSpec::drain());
        assert!(!e.agent::<Sniffer>(n2).unwrap().heard.is_empty());
        assert_eq!(e.packets_in_flight(), 0);
    }

    #[test]
    fn builder_honours_start_times() {
        let (t, [n0, ..]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        b.add_agent_at(
            n0,
            Box::new(StartClock {
                started_at: Vec::new(),
            }),
            SimTime::from_secs(1),
        );
        let mut e = b.build();
        e.advance(RunSpec::drain());
        assert_eq!(
            e.agent::<StartClock>(n0).unwrap().started_at,
            vec![SimTime::from_secs(1)]
        );
    }

    #[test]
    fn builder_run_is_bit_identical_to_imperative_setup() {
        let imperative = || -> Vec<(SimTime, Msg)> {
            let (t, [n0, _n1, n2]) = chain3(0.3);
            let mut e: Engine<Msg> = Engine::new(t, 9);
            let chan = e.add_channel(&[n0, _n1, n2]);
            e.set_agent(n0, Box::new(Burst { chan, count: 50 }));
            e.set_agent(n2, Box::new(Sniffer::default()));
            e.advance(RunSpec::drain());
            e.agent::<Sniffer>(n2).unwrap().heard.clone()
        };
        let built = || -> Vec<(SimTime, Msg)> {
            let (t, [n0, _n1, n2]) = chain3(0.3);
            let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 9);
            let chan = b.add_channel(&[n0, _n1, n2]);
            b.add_agent(n0, Box::new(Burst { chan, count: 50 }));
            b.add_agent(n2, Box::new(Sniffer::default()));
            let mut e = b.build();
            e.advance(RunSpec::drain());
            e.agent::<Sniffer>(n2).unwrap().heard.clone()
        };
        assert_eq!(imperative(), built());
    }

    #[test]
    #[should_panic(expected = "already has an agent")]
    fn builder_rejects_double_agents_at_build() {
        let (t, [n0, ..]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        b.add_agent(n0, Box::new(Sniffer::default()));
        b.add_agent(n0, Box::new(Sniffer::default()));
        let _ = b.build();
    }

    #[test]
    fn link_down_blocks_all_classes_and_up_restores() {
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mid = t.link_between(n1, n2).unwrap();
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        let chan = b.add_channel(&[n0, n1, n2]);
        b.add_agent(n2, Box::new(Sniffer::default()));
        b.fault_plan(FaultPlan::new().link_flap(
            mid,
            SimTime::from_millis(100),
            SimTime::from_millis(200),
        ));
        let mut e = b.build();
        // While down, even a NACK (lossless class) cannot cross.
        e.advance(RunSpec::to(SimTime::from_millis(150)));
        e.multicast_from(n0, chan, Msg::Nack, 40);
        e.advance(RunSpec::to(SimTime::from_millis(199)));
        assert!(e.agent::<Sniffer>(n2).unwrap().heard.is_empty());
        assert!(!e.link_is_up(mid));
        // After the flap heals, traffic flows again.
        e.advance(RunSpec::to(SimTime::from_millis(250)));
        assert!(e.link_is_up(mid));
        e.multicast_from(n0, chan, Msg::Data(1), 1000);
        e.advance(RunSpec::drain());
        assert_eq!(e.agent::<Sniffer>(n2).unwrap().heard.len(), 1);
    }

    #[test]
    fn link_down_reroutes_around_the_dead_link() {
        // Diamond 0-1 (1ms), 0-2 (5ms), 1-3 (1ms), 2-3 (1ms): the 0-1 leg
        // dies mid-run and node 3 must be reached via 2 instead.
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let n3 = b.add_node("3");
        let l01 = b.add_link(n0, n1, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n0, n2, LinkParams::lossless_infinite(ms(5)));
        b.add_link(n1, n3, LinkParams::lossless_infinite(ms(1)));
        b.add_link(n2, n3, LinkParams::lossless_infinite(ms(1)));
        let mut eb: EngineBuilder<Msg> = EngineBuilder::new(b.build(), 1);
        let chan = eb.add_channel(&[n0, n1, n2, n3]);
        eb.add_agent(n1, Box::new(Sniffer::default()));
        eb.add_agent(n3, Box::new(Sniffer::default()));
        eb.fault_plan(FaultPlan::new().at(SimTime::from_millis(100), FaultEvent::LinkDown(l01)));
        let mut e = eb.build();
        e.advance(RunSpec::to(SimTime::from_millis(10)));
        e.multicast_from(n0, chan, Msg::Data(0), 100);
        e.advance(RunSpec::to(SimTime::from_millis(150)));
        // Before the fault: n3 via n1 at 2ms.
        assert_eq!(
            e.agent::<Sniffer>(n3).unwrap().heard,
            vec![(SimTime::from_millis(12), Msg::Data(0))]
        );
        e.multicast_from(n0, chan, Msg::Data(1), 100);
        e.advance(RunSpec::drain());
        // After: n3 via n2 (6ms), and the cut-off n1 now via n2-n3 (7ms).
        let n3_heard = &e.agent::<Sniffer>(n3).unwrap().heard;
        assert_eq!(n3_heard[1], (SimTime::from_millis(156), Msg::Data(1)));
        let n1_heard = &e.agent::<Sniffer>(n1).unwrap().heard;
        assert_eq!(n1_heard[1], (SimTime::from_millis(157), Msg::Data(1)));
        assert_eq!(e.spt(n0).path_to(n3), vec![n0, n2, n3]);
    }

    #[test]
    fn crashed_node_forwards_but_hears_nothing_until_restart() {
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        let chan = b.add_channel(&[n0, n1, n2]);
        b.add_agent(n1, Box::new(Sniffer::default()));
        b.add_agent(n2, Box::new(Sniffer::default()));
        b.fault_plan(
            FaultPlan::new()
                .at(SimTime::from_millis(50), FaultEvent::NodeCrash(n1))
                .at(SimTime::from_millis(300), FaultEvent::NodeRestart(n1)),
        );
        let mut e = b.build();
        e.advance(RunSpec::to(SimTime::from_millis(100)));
        assert!(!e.node_is_up(n1));
        e.multicast_from(n0, chan, Msg::Data(0), 1000);
        e.advance(RunSpec::to(SimTime::from_millis(250)));
        // The crashed middle hop still forwarded to n2 …
        assert_eq!(e.agent::<Sniffer>(n2).unwrap().heard.len(), 1);
        // … but its own agent heard nothing.
        assert!(e.agent::<Sniffer>(n1).unwrap().heard.is_empty());
        e.advance(RunSpec::to(SimTime::from_millis(350)));
        assert!(e.node_is_up(n1));
        e.multicast_from(n0, chan, Msg::Data(1), 1000);
        e.advance(RunSpec::drain());
        assert_eq!(e.agent::<Sniffer>(n1).unwrap().heard.len(), 1);
    }

    #[test]
    fn crash_kills_pending_timers_and_restart_reruns_start() {
        struct Ticker {
            starts: u32,
            ticks: Vec<SimTime>,
        }
        impl Agent<Msg> for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                self.starts += 1;
                ctx.set_timer(ms(100), 0);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _: u64) {
                self.ticks.push(ctx.now());
                ctx.set_timer(ms(100), 0);
            }
        }
        let (t, [n0, ..]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        b.add_agent(
            n0,
            Box::new(Ticker {
                starts: 0,
                ticks: Vec::new(),
            }),
        );
        b.fault_plan(
            FaultPlan::new()
                .at(SimTime::from_millis(250), FaultEvent::NodeCrash(n0))
                .at(SimTime::from_millis(600), FaultEvent::NodeRestart(n0)),
        );
        let mut e = b.build();
        e.advance(RunSpec::to(SimTime::from_millis(1000)));
        let agent = e.agent::<Ticker>(n0).unwrap();
        assert_eq!(agent.starts, 2, "restart re-runs on_start");
        // Ticks at 100, 200 (pre-crash), then 700, 800, 900, 1000 — the
        // timer armed at 200 (due 300) died with the crash epoch.
        assert_eq!(
            agent.ticks,
            vec![
                SimTime::from_millis(100),
                SimTime::from_millis(200),
                SimTime::from_millis(700),
                SimTime::from_millis(800),
                SimTime::from_millis(900),
                SimTime::from_millis(1000),
            ]
        );
        assert_eq!(e.pending_timer_count(), 1);
    }

    #[test]
    fn action_buffer_is_drained_in_order_and_never_replayed() {
        /// Answers every packet it hears with one NACK.
        struct Echo {
            chan: ChannelId,
        }
        impl Agent<Msg> for Echo {
            fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {
                ctx.multicast(self.chan, Msg::Nack, 40);
            }
        }
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        let chan = b.add_channel(&[n0, n1, n2]);
        // n0 queues three actions in one callback; the callbacks that
        // follow are n1's, which queue nothing.  n2 hears the burst at 40,
        // 50 and 60 ms and is down from 45 ms on.
        b.add_agent(n0, Box::new(Burst { chan, count: 3 }));
        b.add_agent(n1, Box::new(Sniffer::default()));
        b.add_agent(n2, Box::new(Echo { chan }));
        b.fault_plan(FaultPlan::new().at(SimTime::from_millis(45), FaultEvent::NodeCrash(n2)));
        let mut e = b.build();
        e.advance(RunSpec::drain());

        // Queue order is wire order, and nothing n0 queued was applied a
        // second time at the end of a later callback (n1's, or the ones the
        // crashed n2 never got): three packets and n2's one reply.
        let sent: Vec<NodeId> = e.recorder().transmissions.iter().map(|r| r.node).collect();
        assert_eq!(sent, vec![n0, n0, n0, n2]);
        let heard: Vec<&Msg> = e
            .agent::<Sniffer>(n1)
            .unwrap()
            .heard
            .iter()
            .map(|(_, m)| m)
            .collect();
        assert_eq!(
            heard,
            [&Msg::Data(0), &Msg::Data(1), &Msg::Data(2), &Msg::Nack]
        );
        // One buffer, back in the engine, empty, with the room it grew.
        assert!(e.actions.is_empty());
        assert!(e.actions.capacity() >= 3);
    }

    #[test]
    fn set_loss_swaps_the_model_mid_run() {
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mid = t.link_between(n1, n2).unwrap();
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 5);
        let chan = b.add_channel(&[n0, n1, n2]);
        b.add_agent(n2, Box::new(Sniffer::default()));
        b.fault_plan(FaultPlan::new().at(
            SimTime::from_secs(10),
            FaultEvent::SetLoss(mid, crate::faults::LossModel::bernoulli(1.0)),
        ));
        let mut e = b.build();
        e.advance(RunSpec::to(SimTime::from_secs(1)));
        e.multicast_from(n0, chan, Msg::Data(0), 1000);
        e.advance(RunSpec::to(SimTime::from_secs(20)));
        assert_eq!(e.agent::<Sniffer>(n2).unwrap().heard.len(), 1);
        e.multicast_from(n0, chan, Msg::Data(1), 1000);
        e.advance(RunSpec::drain());
        // The swapped-in always-lose model drops everything on that link.
        assert_eq!(e.agent::<Sniffer>(n2).unwrap().heard.len(), 1);
        assert_eq!(e.recorder().drops.len(), 1);
    }

    #[test]
    fn drained_run_leaves_clock_at_last_event() {
        // Regression: run() used to leave `now` at SimTime::MAX after the
        // queue drained, so any further scheduling overflowed the clock.
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        let chan = e.add_channel(&[n0, n1, n2]);
        e.set_agent(n0, Box::new(Burst { chan, count: 1 }));
        e.set_agent(n2, Box::new(Sniffer::default()));
        e.advance(RunSpec::drain());
        // Last event is the delivery at n2: 10ms tx + 10ms latency per hop.
        assert_eq!(e.now(), SimTime::from_millis(40));
        // The engine must remain usable: schedule more work and run again.
        e.multicast_from(n0, chan, Msg::Data(99), 1000);
        let processed = e.advance(RunSpec::drain());
        assert!(processed > 0);
        assert_eq!(e.now(), SimTime::from_millis(80));
        let heard = &e.agent::<Sniffer>(n2).unwrap().heard;
        assert_eq!(
            heard.last(),
            Some(&(SimTime::from_millis(80), Msg::Data(99)))
        );
    }

    #[test]
    fn stale_and_double_cancels_do_not_leak() {
        // Regression: CancelTimer used to insert into the cancelled set
        // unconditionally, so cancelling an already-fired timer (the common
        // "ack arrived, cancel retransmit" pattern) grew the set forever.
        struct Churn {
            last: Option<TimerId>,
            rounds: u32,
        }
        impl Agent<Msg> for Churn {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                self.last = Some(ctx.set_timer(ms(1), 0));
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
                // Cancel the timer that just fired (stale), twice (double).
                let stale = self.last.take().unwrap();
                ctx.cancel_timer(stale);
                ctx.cancel_timer(stale);
                if token < self.rounds as u64 {
                    self.last = Some(ctx.set_timer(ms(1), token + 1));
                }
            }
        }
        let (t, [n0, ..]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        e.set_agent(
            n0,
            Box::new(Churn {
                last: None,
                rounds: 1000,
            }),
        );
        e.advance(RunSpec::drain());
        assert_eq!(e.pending_timer_count(), 0);
        assert_eq!(e.cancelled_timer_count(), 0, "cancelled set must not leak");
    }

    #[test]
    fn legitimate_cancel_is_reclaimed_when_deadline_passes() {
        struct SetAndCancel;
        impl Agent<Msg> for SetAndCancel {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                let id = ctx.set_timer(ms(5), 7);
                ctx.cancel_timer(id);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, Msg>, _: u64) {
                panic!("cancelled timer must not fire");
            }
        }
        let (t, [n0, ..]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        e.set_agent(n0, Box::new(SetAndCancel));
        e.advance(RunSpec::drain());
        // Once the cancelled deadline is processed, both sets are empty.
        assert_eq!(e.pending_timer_count(), 0);
        assert_eq!(e.cancelled_timer_count(), 0);
    }

    #[test]
    fn tree_fast_path_is_bit_identical_to_spt_forwarding() {
        // The same lossy tree scenario run twice: once on the tree fast
        // path, once with the legacy masked-SPT path forced by a link
        // fault scheduled far beyond the horizon.  Arrival sequences (and
        // hence every loss-RNG draw) must match exactly; the fast path
        // must cache no SPTs at all.
        let run = |force_legacy: bool| -> (Vec<(SimTime, Msg)>, usize) {
            let (t, [n0, n1, n2]) = chain3(0.3);
            let l = t.link_between(n0, n1).unwrap();
            let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 9);
            let chan = b.add_channel(&[n0, n1, n2]);
            b.add_agent(n0, Box::new(Burst { chan, count: 50 }));
            b.add_agent(n2, Box::new(Sniffer::default()));
            if force_legacy {
                b.fault_plan(
                    FaultPlan::new().at(SimTime::from_secs(1_000_000), FaultEvent::LinkDown(l)),
                );
            }
            let mut e = b.build();
            e.advance(RunSpec::to(SimTime::from_secs(100)));
            (
                e.agent::<Sniffer>(n2).unwrap().heard.clone(),
                e.cached_spt_count(),
            )
        };
        let (fast, fast_spts) = run(false);
        let (legacy, legacy_spts) = run(true);
        assert!(!fast.is_empty());
        assert_eq!(fast, legacy);
        assert_eq!(fast_spts, 0, "tree forwarding must not materialize SPTs");
        assert!(legacy_spts > 0, "the control run must use the SPT path");
    }

    #[test]
    fn audit_streaming_feeds_the_auditor_without_record_retention() {
        use crate::probe::ProbeEvent;
        struct CloseProbe;
        impl Agent<Msg> for CloseProbe {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.probe(ProbeEvent::GroupClose {
                    group: 0,
                    complete: true,
                    held: 4,
                    k: 4,
                });
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
        }
        let (t, [n0, ..]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
        b.audit_streaming(AuditConfig::default());
        b.add_agent(n0, Box::new(CloseProbe));
        let mut e = b.build();
        e.advance(RunSpec::drain());
        assert!(e.probe_records().is_empty(), "no O(events) record log");
        let report = e.audit_report().expect("auditor attached");
        assert_eq!(report.events, 1, "the probe still reached the auditor");
        assert!(report.ok());
    }

    #[test]
    fn state_bytes_aggregates_agent_reports() {
        struct Sized(usize);
        impl Agent<Msg> for Sized {
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
            fn state_bytes(&self) -> usize {
                self.0
            }
        }
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 1);
        e.set_agent(n0, Box::new(Sized(100)));
        e.set_agent(n2, Box::new(Sized(23)));
        assert_eq!(e.state_bytes(), 123);
        assert_eq!(e.agent_state_bytes(n0), 100);
        assert_eq!(e.agent_state_bytes(n1), 0, "agent-less node reports zero");
        // Sniffer has no state_bytes impl: the default reports zero.
        e.set_agent(n1, Box::new(Sniffer::default()));
        assert_eq!(e.state_bytes(), 123);
    }

    #[test]
    fn recorder_clear_midrun_keeps_tail_bit_identical() {
        // Regression: clearing the recorder between measurement windows
        // must not perturb the simulation itself — the events recorded
        // after the clear are exactly the post-clear tail of an identical
        // uninterrupted run.
        fn tail<T: Clone>(v: &[T], mid: SimTime, time: impl Fn(&T) -> SimTime) -> Vec<T> {
            v.iter().filter(|r| time(r) > mid).cloned().collect()
        }
        let build = || {
            let (t, [n0, n1, n2]) = chain3(0.2);
            let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 9);
            let chan = b.add_channel(&[n0, n1, n2]);
            b.add_agent(n0, Box::new(Burst { chan, count: 20 }));
            b.add_agent(n1, Box::new(Sniffer::default()));
            b.add_agent(n2, Box::new(Sniffer::default()));
            b.build()
        };
        let mut full = build();
        full.advance(RunSpec::drain());
        // 105ms falls between events (everything lands on 10ms ticks).
        let mid = SimTime::from_millis(105);

        let mut halved = build();
        halved.advance(RunSpec::to(mid));
        halved.recorder_mut().clear();
        halved.advance(RunSpec::drain());

        let f = full.recorder();
        let h = halved.recorder();
        assert!(!h.deliveries.is_empty() && !h.drops.is_empty());
        assert_eq!(h.deliveries, tail(&f.deliveries, mid, |r| r.time));
        assert_eq!(h.transmissions, tail(&f.transmissions, mid, |r| r.time));
        assert_eq!(h.drops, tail(&f.drops, mid, |r| r.time));
        // O(1) totals match the event tail, not the whole run.
        assert_eq!(
            h.total_delivered(TrafficClass::Data),
            tail(&f.deliveries, mid, |r| r.time).len()
        );
    }

    /// Ported pin from the PR 9 deprecation shims (`run_until`/`run`, now
    /// removed): a horizon-then-drain `advance` pair must be bit-identical
    /// to one uninterrupted drain.
    #[test]
    fn split_advance_matches_single_drain() {
        let build = || {
            let (t, [n0, n1, n2]) = chain3(0.3);
            let mut e: Engine<Msg> = Engine::new(t, 11);
            let chan = e.add_channel(&[n0, n1, n2]);
            e.set_agent(n0, Box::new(Burst { chan, count: 8 }));
            e.set_agent(n2, Box::new(Sniffer::default()));
            e
        };
        let mid = SimTime::from_millis(25);

        let mut whole = build();
        let whole_events = whole.advance(RunSpec::drain());

        let mut split = build();
        let head = split.advance(RunSpec::to(mid));
        assert_eq!(split.now(), mid, "horizon run parks the clock at t_end");
        let tail = split.advance(RunSpec::drain());

        assert_eq!(head + tail, whole_events);
        assert_eq!(split.now(), whole.now());
        assert_eq!(split.recorder().deliveries, whole.recorder().deliveries);
        assert_eq!(split.recorder().drops, whole.recorder().drops);
    }

    /// Multicasts one data packet every 10 ms, `left` times.
    struct Ticker {
        chan: ChannelId,
        left: u32,
    }
    impl Agent<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _: u64) {
            ctx.multicast(self.chan, Msg::Data(0), 100);
            self.left -= 1;
            if self.left > 0 {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
    }

    #[test]
    fn membership_events_flip_delivery_midrun() {
        // n2 leaves the channel at 15 ms and rejoins at 35 ms.  Scope is
        // checked when the parent forwards (n1's hop toward n2), so sends
        // whose n1→n2 hop lands in the gap are pruned, the rest delivered.
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut e: Engine<Msg> = Engine::new(t, 5);
        let chan = e.add_channel(&[n0, n1, n2]);
        e.set_agent(n0, Box::new(Ticker { chan, left: 5 }));
        e.set_agent(n2, Box::new(Sniffer::default()));
        // Sends at 10/20/30/40/50 ms; the n1→n2 hop happens ~11 ms after
        // each send, so hops at ~21 and ~31 ms fall inside the gap.
        e.schedule_membership(
            SimTime::from_millis(15),
            MembershipEvent::Leave {
                channel: chan,
                node: n2,
            },
        );
        e.schedule_membership(
            SimTime::from_millis(35),
            MembershipEvent::Join {
                channel: chan,
                node: n2,
            },
        );
        e.advance(RunSpec::drain());
        let got = &e.agent::<Sniffer>(n2).unwrap().heard;
        assert_eq!(got.len(), 3, "got {got:?}");
        assert!(e.channel(chan).contains(n2), "rejoin applied");
    }

    #[test]
    fn scenario_plan_strips_initial_membership_and_joins_on_time() {
        // A joiner declared via ScenarioPlan must start outside the
        // channel even though the builder listed it as a member, then
        // hear everything from its join time onward.
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 5);
        let chan = b.add_channel(&[n0, n1, n2]);
        b.add_agent(n0, Box::new(Ticker { chan, left: 4 }));
        b.add_agent(n2, Box::new(Sniffer::default()));
        b.scenario(ScenarioPlan::new().join_at(SimTime::from_millis(35), n2, &[chan]));
        let mut e = b.build();
        assert!(
            !e.channel(chan).contains(n2),
            "scenario join strips initial membership"
        );
        e.advance(RunSpec::drain());
        // Sends at 10/20/30/40 ms forward over the n1→n2 hop at ~21/31/
        // 41/51 ms; only the two hops after the 35 ms join get through.
        assert_eq!(e.agent::<Sniffer>(n2).unwrap().heard.len(), 2);
        assert!(e.channel(chan).contains(n2));
    }
    proptest! {
        /// `build` answers "does this member start outside this channel"
        /// and "when does this agent start" from one indexed pass over
        /// the plan; `ScenarioPlan::initially_out` and `start_override`,
        /// which scan it per question, are the specification.  Random
        /// plans of joins, leaves, rejoins and handoffs over six nodes and
        /// three overlapping channels, on four instants so equal-time ties
        /// are the common case.
        #[test]
        fn compiled_scenario_matches_its_specification(
            steps in proptest::collection::vec((0u32..6, 0usize..3, 0u64..4, 0u8..4), 0..40),
        ) {
            let mut t = TopologyBuilder::new();
            let nodes: Vec<NodeId> = (0..6).map(|i| t.add_node(format!("{i}"))).collect();
            for w in nodes.windows(2) {
                t.add_link(w[0], w[1], LinkParams::lossless_infinite(ms(1)));
            }
            let rosters = [&nodes[..], &nodes[..4], &nodes[2..]];
            let mut b: EngineBuilder<Msg> = EngineBuilder::new(t.build(), 1);
            let chans = rosters.map(|members| b.add_channel(members));
            let listed_start = SimTime::from_millis(7);
            for &n in &nodes {
                b.add_agent_at(n, Box::new(Sniffer::default()), listed_start);
            }
            let mut plan = ScenarioPlan::new();
            for (node, touched, at, what) in steps {
                let (node, at) = (NodeId(node), SimTime::from_millis(10 * at));
                let touched = [&chans[..1], &chans[1..], &chans[..]][touched];
                plan = match what {
                    0 => plan.join_at(at, node, touched),
                    1 => plan.leave_at(at, node, touched),
                    2 => plan.rejoin_at(at, node, touched),
                    _ => plan.handoff(at, NodeId((node.0 + 1) % 6), node, touched),
                };
            }
            b.scenario(plan.clone());
            let mut e = b.build();
            for (&c, roster) in chans.iter().zip(rosters) {
                for &n in &nodes {
                    let member = roster.contains(&n) && !plan.initially_out(c, n);
                    prop_assert_eq!(e.channel(c).contains(n), member, "{:?} in {:?}", n, c);
                }
            }
            // Nothing has run, so the queued `Start`s are the attached
            // agents', at the times `build` gave them.
            let mut starts = vec![None; nodes.len()];
            while let Some((key, kind)) = e.queue.pop_keyed() {
                if let EventKind::Start(n) = kind {
                    starts[n.idx()] = Some(key.time);
                }
            }
            for &n in &nodes {
                let want = plan.start_override(n).unwrap_or(listed_start);
                prop_assert_eq!(starts[n.idx()], Some(want), "start of {:?}", n);
            }
        }
    }

    /// `Ctx::new` is the whole interface between an agent and the engine:
    /// a callback driven by hand — same clock, node, RNG stream, oracle and
    /// timer counter — queues, action for action, what the engine applied
    /// for that callback in a real run.
    #[test]
    fn ctx_new_reproduces_what_the_engine_applied() {
        /// Draws its jitter from the RNG, so a wrong stream would show.
        struct Jittery {
            chan: ChannelId,
        }
        impl Agent<Msg> for Jittery {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                let jitter = ctx.rng().range_f64(1.0, 2.0);
                let keep = ctx.set_timer(ctx.one_way(NodeId(2)).mul_f64(jitter), 5);
                let dropped = ctx.set_timer(ms(3), 6);
                ctx.cancel_timer(dropped);
                ctx.multicast(self.chan, Msg::Data(keep.0 as u32), 100);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
        }
        /// Runs the inner agent and keeps what its callback queued, as
        /// the engine is about to apply it.
        struct Recording {
            inner: Jittery,
            queued: String,
        }
        impl Agent<Msg> for Recording {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                self.inner.on_start(ctx);
                self.queued = format!("{:?}", ctx.actions);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_, Msg>, _: &Packet<Msg>) {}
        }
        let (seed, start) = (9, SimTime::from_millis(40));
        let (t, [n0, n1, n2]) = chain3(0.0);
        let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, seed);
        let chan = b.add_channel(&[n0, n1, n2]);
        let (inner, queued) = (Jittery { chan }, String::new());
        b.add_agent_at(n1, Box::new(Recording { inner, queued }), start);
        let mut e = b.build();
        // What the engine will lend the callback, copied before it does.
        let (mut rng, mut next_timer) = (e.agent_rngs[n1.idx()].clone(), e.node_seq[n1.idx()]);
        let oracle = e.oracle.clone();
        e.advance(RunSpec::drain());
        let applied = &e.agent::<Recording>(n1).unwrap().queued;
        assert_eq!(applied.matches("SetTimer").count(), 2, "{applied}");
        assert_eq!(
            e.recorder().transmissions.len(),
            1,
            "the engine applied them"
        );

        // The same callback with no engine.
        let mut actions = Vec::new();
        let mut probes = ProbeSink::default();
        let mut ctx = Ctx::new(
            start,
            n1,
            &mut rng,
            &oracle,
            &mut actions,
            &mut next_timer,
            &mut probes,
        );
        Jittery { chan }.on_start(&mut ctx);
        assert_eq!(&format!("{actions:?}"), applied);
    }
}

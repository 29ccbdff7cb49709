//! Conservative parallel execution of the DES engine, partitioned by
//! zone subtree.
//!
//! ## Partitioning
//!
//! A [`ShardPlan`] assigns every node to one shard.  For tree topologies
//! (in particular `topology::scaled`'s zone hierarchy) the plan cuts the
//! tree at the root: each of the root's child subtrees is a unit, units
//! are greedy-packed into shards by subtree size, and the root itself
//! lives in shard 0.  A zone never straddles a shard boundary, so the
//! only inter-shard edges are the root's uplinks — exactly the links the
//! paper gives fixed inter-zone latency.  Arbitrary (non-tree) graphs
//! fall back to a single-shard plan, which is just the serial engine.
//!
//! ## Synchronization
//!
//! Classic conservative PDES with a barrier-on-min-timestamp scheme: the
//! lookahead `L` is the minimum link latency over inter-shard edges.
//! Each round, every shard publishes the timestamp of its earliest
//! pending event; the global minimum `T` defines a window `[T, T + L)`
//! that every shard may process independently, because any cross-shard
//! packet generated inside the window arrives no earlier than `T + L`.
//! Cross-shard arrivals travel as timestamped messages (`OutMsg`),
//! exchanged at the end of the round and enqueued before the next
//! window is chosen.  Threads meet at [`std::sync::Barrier`]s (blocking,
//! no busy-spin), every round makes progress (the shard holding the
//! global-minimum event always processes it), and termination is decided
//! from identical data on every thread — so the scheme cannot deadlock.
//!
//! ## Determinism
//!
//! Runs are **bit-identical at any shard count** because every source of
//! ordering or randomness is a pure function of simulation-local history,
//! never of global execution order:
//!
//! * events are ordered by [`EventKey`] `(fire time, push time, pushing
//!   node, per-node sequence)` — the key a cross-shard arrival carries is
//!   the key the serial engine would have used;
//! * agents draw from per-node RNG streams, loss sampling from
//!   per-(link, direction) streams, and per-node sequence counters are
//!   only advanced while processing that node's events — all owned by
//!   exactly one shard;
//! * fault and membership events are replicated to every shard with
//!   identical keys, so replicated state (link masks, loss models, which
//!   nodes are up, channel member sets) evolves identically everywhere;
//!   a crash removes the node's live timers on the shard that holds them,
//!   and the restart `Start` fires only in the shard owning the node's
//!   agent;
//! * shards journal, thread 0 replays: each shard appends what it
//!   observes (deliveries, transmissions, drops, probes) to one journal
//!   under the key of the event that made it, and once per round thread
//!   0 replays every journal into the master's recorder and probe sink in
//!   key order, whatever order the shards finished in.
//!
//! The one requirement is positive latency on every inter-shard link
//! (zero lookahead would admit same-instant cross-shard causality);
//! [`Engine::advance`] asserts it.

use crate::arena::PacketArena;
use crate::engine::{Engine, EventKind};
use crate::graph::{LinkId, NodeId, Topology};
use crate::idhash::IdHashSet;
use crate::metrics::{DropRecord, Record, Recorder, RecorderMode, TrafficClass};
use crate::packet::{Classify, Packet};
use crate::probe::{ProbeRecord, ProbeSink};
use crate::queue::{EventKey, EventQueue};
use crate::routing::Spt;
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

/// A deterministic assignment of every node to one shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `owner[node] = shard index`.
    owner: Vec<u32>,
    shards: u32,
}

impl ShardPlan {
    /// The trivial plan: every node in shard 0 (serial execution).
    pub fn single(node_count: usize) -> ShardPlan {
        ShardPlan {
            owner: vec![0; node_count],
            shards: 1,
        }
    }

    /// Partitions a tree topology into at most `shards` shards by cutting
    /// at `root`: each root subtree is kept whole and subtrees are
    /// greedy-packed (largest first, ties by node id) into the least
    /// loaded shard; `root` joins shard 0.  Deterministic — the same
    /// inputs always produce the same plan.  Falls back to
    /// [`ShardPlan::single`] when the topology is not a connected tree,
    /// or when `shards <= 1`.
    pub fn by_subtrees(topo: &Topology, root: NodeId, shards: usize) -> ShardPlan {
        let n = topo.node_count();
        if shards <= 1 || n <= 1 || topo.link_count() != n - 1 {
            return ShardPlan::single(n);
        }
        // Each node's unit is the root's child on its path; `size` counts
        // the nodes of each unit.
        let tree = Spt::compute(topo, root);
        let unit = |v: NodeId| tree.next_hop(root, v).idx();
        let mut size = vec![0u64; n];
        for v in topo.nodes().filter(|&v| v != root) {
            size[unit(v)] += 1;
        }
        // Greedy-pack the root's subtrees, largest first.
        let mut children: Vec<NodeId> = topo.neighbors(root).iter().map(|&(v, _)| v).collect();
        children.sort_by_key(|c| (std::cmp::Reverse(size[c.idx()]), c.0));
        let k = shards.min(children.len()).max(1);
        let mut load = vec![0u64; k];
        let mut bin = vec![0u32; n];
        for c in children {
            let b = (0..k).min_by_key(|&b| (load[b], b)).expect("k >= 1");
            load[b] += size[c.idx()];
            bin[c.idx()] = b as u32;
        }
        let mut owner = vec![0u32; n];
        for v in topo.nodes().filter(|&v| v != root) {
            owner[v.idx()] = bin[unit(v)];
        }
        ShardPlan {
            owner,
            shards: k as u32,
        }
    }

    /// Number of shards in this plan.
    pub fn shard_count(&self) -> usize {
        self.shards as usize
    }

    /// Number of nodes this plan covers.
    pub fn node_count(&self) -> usize {
        self.owner.len()
    }

    /// The shard owning `node`.
    pub fn owner(&self, node: NodeId) -> u32 {
        self.owner[node.idx()]
    }
}

/// Everything one [`Engine::advance`] call needs: a horizon and, for a
/// sharded run, the shard plan (one worker thread per shard).
#[derive(Clone, Debug, Default)]
pub struct RunSpec {
    /// Process events up to and including this instant; `None` drains the
    /// queue completely.
    pub until: Option<SimTime>,
    /// Shard plan for this run; `None` (or a single-shard plan) runs
    /// serially.
    pub plan: Option<Arc<ShardPlan>>,
}

impl RunSpec {
    /// Run to a horizon: events at exactly `t_end` are processed and the
    /// clock is left at `t_end`.
    pub fn to(t_end: SimTime) -> RunSpec {
        RunSpec {
            until: Some(t_end),
            ..RunSpec::default()
        }
    }

    /// Drain the queue completely; the clock is left at the last
    /// processed event.
    pub fn drain() -> RunSpec {
        RunSpec::default()
    }

    /// Runs sharded per `plan`.
    pub fn with_plan(mut self, plan: Arc<ShardPlan>) -> RunSpec {
        self.plan = Some(plan);
        self
    }
}

/// Shard identity attached to a per-shard engine; `hop` consults it to
/// divert remote arrivals into the outbox, and the event loop keeps the
/// shard's journal in it.
pub(crate) struct ShardCtx {
    pub(crate) plan: Arc<ShardPlan>,
    pub(crate) me: u32,
    /// The key of the event being processed.
    pub(crate) key: EventKey,
    /// What the shard observed this round, under the key of the event
    /// that made each observation, in the order it made them.
    pub(crate) journal: Vec<(EventKey, Observation)>,
}

/// A cross-shard arrival: the packet re-materialized as a value plus the
/// exact event key the serial engine would have queued it under.
pub(crate) struct OutMsg<M> {
    pub(crate) dst: u32,
    pub(crate) key: EventKey,
    pub(crate) node: NodeId,
    pub(crate) class: TrafficClass,
    pub(crate) pkt: Packet<M>,
}

/// One thing a shard observed, bound for the master's recorder or probe
/// sink.
pub(crate) enum Observation {
    Delivery(Record),
    Transmission(Record),
    Drop(DropRecord),
    Probe(ProbeRecord),
}

impl Observation {
    /// Hands the observation to the recorder or probe sink it belongs in.
    #[inline]
    pub(crate) fn replay(self, recorder: &mut Recorder, probes: &mut ProbeSink) {
        match self {
            Observation::Delivery(r) => recorder.record_delivery(r),
            Observation::Transmission(r) => recorder.record_transmission(r),
            Observation::Drop(d) => recorder.record_drop(d),
            Observation::Probe(p) => probes.ingest(p),
        }
    }
}

/// Replays the journals of every shard in global [`EventKey`] order — the
/// order the serial engine made the observations in.  Each engine event
/// is processed by exactly one shard, so no key appears in two parts, and
/// the sort is stable, so the several observations one event made keep
/// their within-shard order.
pub(crate) fn merge_by_key<T>(
    parts: impl IntoIterator<Item = Vec<(EventKey, T)>>,
    mut replay: impl FnMut(T),
) {
    let mut all: Vec<(EventKey, T)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(key, _)| *key);
    for (_, r) in all {
        replay(r);
    }
}

/// Locks rendezvous state of a sharded run.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a shard worker panicked holding this lock")
}

/// Minimum latency over links whose endpoints live in different shards —
/// the conservative lookahead.  `None` when no link crosses a shard
/// boundary (each shard can then run to the horizon unsynchronized).
fn min_cross_latency(topo: &Topology, plan: &ShardPlan) -> Option<SimDuration> {
    let mut min: Option<SimDuration> = None;
    for l in 0..topo.link_count() {
        let spec = topo.link(LinkId(l as u32));
        if plan.owner(spec.a) != plan.owner(spec.b) {
            let lat = spec.params.latency;
            min = Some(match min {
                Some(m) if m <= lat => m,
                _ => lat,
            });
        }
    }
    min
}

impl<M: Classify + Clone + Send + 'static> Engine<M> {
    /// Runs the simulation as described by `spec` and returns the number
    /// of events processed (counting each replicated fault event once, so
    /// the count matches the serial engine at any shard count).
    ///
    /// With no plan (or a single-shard plan) this is the serial engine.
    /// With `k > 1` shards the node graph is partitioned per the plan,
    /// each shard runs on its own event queue / packet arena / RNG
    /// streams, and shards synchronize conservatively on the inter-shard
    /// link-latency lookahead (see the module docs).  The result —
    /// recorder, probes, agent state, clock — is bit-identical to the
    /// serial run.
    ///
    /// # Panics
    ///
    /// Panics if the plan covers a different node count than the
    /// topology, or if some inter-shard link has zero latency (no
    /// lookahead — conservative synchronization would be impossible).
    pub fn advance(&mut self, spec: RunSpec) -> u64 {
        let processed = match spec.plan {
            Some(p) if p.shard_count() > 1 => {
                assert_eq!(
                    p.node_count(),
                    self.topo.node_count(),
                    "shard plan covers a different topology"
                );
                self.run_sharded(p, spec.until)
            }
            _ => self.run(spec.until).0,
        };
        // A horizon run parks the clock at the horizon; a drain leaves it
        // at the last event.
        if let Some(t) = spec.until {
            self.now = self.now.max(t);
        }
        processed
    }

    /// The conservative barrier-synchronized parallel driver: one worker
    /// thread per shard.
    fn run_sharded(&mut self, plan: Arc<ShardPlan>, until: Option<SimTime>) -> u64 {
        let lookahead = min_cross_latency(&self.topo, &plan);
        if let Some(l) = lookahead {
            assert!(
                l > SimDuration::ZERO,
                "conservative sharding requires positive latency on every inter-shard link"
            );
        }
        let k = plan.shard_count();
        let shards = self.split_shards(&plan);
        // Per-round rendezvous state.  `mins` is written only in the
        // publish phase (before barrier A) and read only after it; the
        // inboxes and journals are written in the process phase and
        // drained between barriers B and C.
        let mins: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let inboxes: Vec<Mutex<Vec<OutMsg<M>>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
        let journals: Vec<Mutex<Vec<(EventKey, Observation)>>> =
            (0..k).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(k);
        // Thread 0 replays every round's journals into the master.
        let mut master = Some((&mut self.recorder, &mut self.probes));

        // Each worker returns its shard with `run`'s two counts summed.
        let done: Vec<(Engine<M>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(i, mut e)| {
                    let (mins, inboxes, journals, barrier) = (&mins, &inboxes, &journals, &barrier);
                    let mut master = master.take();
                    scope.spawn(move || {
                        let (mut processed, mut replicated) = (0, 0);
                        loop {
                            // Publish this shard's earliest pending time.
                            let next = e.queue.peek_key().map_or(u64::MAX, |k| k.time.0);
                            mins[i].store(next, Ordering::SeqCst);
                            barrier.wait(); // A: all mins published
                            let t_min = mins
                                .iter()
                                .map(|m| m.load(Ordering::SeqCst))
                                .min()
                                .unwrap_or(u64::MAX);
                            // Same data on every thread → same decision;
                            // all threads leave the loop in the same round.
                            if t_min == u64::MAX || until.is_some_and(|u| t_min > u.0) {
                                break;
                            }
                            let mut bound = match lookahead {
                                Some(l) => t_min.saturating_add(l.0).saturating_sub(1),
                                None => u64::MAX - 1,
                            };
                            if let Some(u) = until {
                                bound = bound.min(u.0);
                            }
                            let (p, r) = e.run(Some(SimTime(bound)));
                            processed += p;
                            replicated += r;
                            for m in e.outbox.drain(..) {
                                locked(&inboxes[m.dst as usize]).push(m);
                            }
                            let sh = e.shard.as_mut().expect("a shard engine");
                            *locked(&journals[i]) = std::mem::take(&mut sh.journal);
                            barrier.wait(); // B: all outboxes/journals deposited
                            if let Some((recorder, probes)) = &mut master {
                                // Windows are disjoint and increasing, so a
                                // per-round merge extends the master's
                                // serial-order record and probe streams
                                // (and keeps shard memory bounded
                                // round-to-round).
                                let parts =
                                    journals.iter().map(|j| std::mem::take(&mut *locked(j)));
                                merge_by_key(parts, |obs| obs.replay(recorder, probes));
                            }
                            let msgs = std::mem::take(&mut *locked(&inboxes[i]));
                            e.ingest(msgs);
                            barrier.wait(); // C: all inboxes ingested
                        }
                        (e, processed, replicated)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        // Every shard processed its own copy of each replicated event; the
        // serial engine processes one.
        let processed: u64 = done.iter().map(|d| d.1).sum();
        let duplicates = done[0].2 * (k as u64 - 1);
        self.absorb_shards(done.into_iter().map(|d| d.0).collect(), &plan);
        processed - duplicates
    }

    /// Splits this engine into `k` per-shard engines: agents, live timers
    /// and queued events move to their owning shard; the rest (link
    /// directions, link masks, node liveness, RNG stream states,
    /// counters) is cloned everywhere, so fault replay keeps every copy
    /// identical.
    fn split_shards(&mut self, plan: &Arc<ShardPlan>) -> Vec<Engine<M>> {
        let k = plan.shard_count();
        let n = self.topo.node_count();
        let mut shards: Vec<Engine<M>> = (0..k as u32)
            .map(|me| {
                // A shard's sink only collects; the master's auditor reads
                // the replayed stream, since it depends on serial order.
                let probes = if self.probes.enabled() {
                    ProbeSink::recording()
                } else {
                    ProbeSink::default()
                };
                Engine {
                    topo: self.topo.clone(),
                    oracle: self.oracle.clone(),
                    forest: self.forest.clone(),
                    links: self.links.clone(),
                    link_up: self.link_up.clone(),
                    #[cfg(test)]
                    per_source_reference: self.per_source_reference,
                    node_up: self.node_up.clone(),
                    channels: self.channels.clone(),
                    agents: (0..n).map(|_| None).collect(),
                    agent_rngs: self.agent_rngs.clone(),
                    queue: EventQueue::new(),
                    arena: PacketArena::new(),
                    now: self.now,
                    live_timers: IdHashSet::default(),
                    node_seq: self.node_seq.clone(),
                    build_seq: self.build_seq,
                    recorder: Recorder::new(self.recorder.mode()),
                    probes,
                    shard: Some(ShardCtx {
                        plan: Arc::clone(plan),
                        me,
                        key: EventKey::default(),
                        journal: Vec::new(),
                    }),
                    outbox: Vec::new(),
                    actions: Vec::new(),
                }
            })
            .collect();
        for i in 0..n {
            if let Some(a) = self.agents[i].take() {
                shards[plan.owner[i] as usize].agents[i] = Some(a);
            }
        }
        // Live timers partition by the id's encoded owner node.
        for id in self.live_timers.drain() {
            let node = id.node().expect("an engine-issued timer id");
            shards[plan.owner(node) as usize].live_timers.insert(id);
        }
        // Distribute queued events under their existing keys: replicated
        // ones to every shard, the rest to the shard owning their node.
        while let Some((key, kind)) = self.queue.pop_keyed() {
            match kind {
                EventKind::Replicated(ev) => {
                    for s in &mut shards {
                        s.queue.push_keyed(key, EventKind::Replicated(ev));
                    }
                }
                EventKind::Arrive { node, pkt } => {
                    let (pkt, class) = self.take_arrival(pkt);
                    shards[plan.owner(node) as usize].enqueue_arrival(key, node, pkt, class);
                }
                EventKind::Start(node) | EventKind::Timer { node, .. } => {
                    shards[plan.owner(node) as usize]
                        .queue
                        .push_keyed(key, kind);
                }
            }
        }
        debug_assert_eq!(self.arena.live(), 0, "master arena drained into shards");
        shards
    }

    /// Reassembles shard engines back into this master engine after a
    /// sharded run: per-node state comes from each node's owner, each link
    /// direction from the owner of its transmitting endpoint,
    /// replicated state from shard 0, and the recorders' counts (in the
    /// modes that count on the shards) sum.
    fn absorb_shards(&mut self, mut shards: Vec<Engine<M>>, plan: &ShardPlan) {
        let n = self.topo.node_count();
        // Replicated state evolved identically in every shard (fault
        // events replay everywhere); take shard 0's copy.
        std::mem::swap(&mut self.topo, &mut shards[0].topo);
        std::mem::swap(&mut self.link_up, &mut shards[0].link_up);
        std::mem::swap(&mut self.forest, &mut shards[0].forest);
        std::mem::swap(&mut self.node_up, &mut shards[0].node_up);
        std::mem::swap(&mut self.channels, &mut shards[0].channels);
        for i in 0..n {
            let o = plan.owner[i] as usize;
            self.agents[i] = shards[o].agents[i].take();
            std::mem::swap(&mut self.agent_rngs[i], &mut shards[o].agent_rngs[i]);
            self.node_seq[i] = shards[o].node_seq[i];
        }
        // Each link direction is only driven by the shard owning its
        // transmitting endpoint.
        for l in 0..self.topo.link_count() {
            let spec = self.topo.link(LinkId(l as u32));
            for (d, from) in [spec.a, spec.b].into_iter().enumerate() {
                self.links[l][d] = shards[plan.owner(from) as usize].links[l][d].clone();
            }
        }
        for s in &mut shards {
            self.live_timers.extend(s.live_timers.drain());
        }
        // Events still queued (horizon reached before drain) come back
        // under their keys; replicated ones only from shard 0.
        for (si, s) in shards.iter_mut().enumerate() {
            while let Some((key, kind)) = s.queue.pop_keyed() {
                match kind {
                    EventKind::Replicated(_) if si != 0 => {}
                    EventKind::Arrive { node, pkt } => {
                        let (pkt, class) = s.take_arrival(pkt);
                        self.enqueue_arrival(key, node, pkt, class);
                    }
                    other => self.queue.push_keyed(key, other),
                }
            }
            debug_assert_eq!(s.arena.live(), 0, "shard arena drained back");
        }
        // A raw recorder's records reached the master round by round; the
        // other modes counted on each shard.
        if self.recorder.mode() != RecorderMode::Raw {
            for s in &shards {
                self.recorder.absorb_totals(&s.recorder);
            }
        }
        let last = shards.iter().map(|s| s.now).max().unwrap_or(self.now);
        self.now = self.now.max(last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkParams, TopologyBuilder};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// root 0 with three subtrees: {1,4,5}, {2,6}, {3}.
    fn star_of_subtrees() -> (Topology, NodeId) {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..7).map(|i| b.add_node(format!("n{i}"))).collect();
        let p = LinkParams::lossless_infinite(ms(5));
        b.add_link(nodes[0], nodes[1], p);
        b.add_link(nodes[0], nodes[2], p);
        b.add_link(nodes[0], nodes[3], p);
        b.add_link(nodes[1], nodes[4], p);
        b.add_link(nodes[1], nodes[5], p);
        b.add_link(nodes[2], nodes[6], p);
        (b.build(), nodes[0])
    }

    #[test]
    fn subtree_plan_keeps_subtrees_whole_and_balances() {
        let (t, root) = star_of_subtrees();
        let plan = ShardPlan::by_subtrees(&t, root, 2);
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.owner(root), 0);
        // Largest subtree {1,4,5} (size 3) lands in shard 0; {2,6} (size
        // 2) in shard 1; {3} (size 1) in the lighter shard 1.
        assert_eq!(plan.owner(NodeId(1)), plan.owner(NodeId(4)));
        assert_eq!(plan.owner(NodeId(1)), plan.owner(NodeId(5)));
        assert_eq!(plan.owner(NodeId(2)), plan.owner(NodeId(6)));
        assert_ne!(plan.owner(NodeId(1)), plan.owner(NodeId(2)));
        assert_eq!(plan.owner(NodeId(3)), plan.owner(NodeId(2)));
    }

    #[test]
    fn subtree_plan_caps_shards_at_subtree_count() {
        let (t, root) = star_of_subtrees();
        let plan = ShardPlan::by_subtrees(&t, root, 16);
        // Only three root subtrees exist — no empty shards.
        assert_eq!(plan.shard_count(), 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..t.node_count() {
            seen.insert(plan.owner(NodeId(i as u32)));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn non_tree_topologies_fall_back_to_single_shard() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        let p = LinkParams::lossless_infinite(ms(1));
        b.add_link(n0, n1, p);
        b.add_link(n1, n2, p);
        b.add_link(n2, n0, p); // cycle
        let plan = ShardPlan::by_subtrees(&b.build(), n0, 4);
        assert_eq!(plan.shard_count(), 1);
    }

    #[test]
    fn plan_is_deterministic() {
        let (t, root) = star_of_subtrees();
        assert_eq!(
            ShardPlan::by_subtrees(&t, root, 3),
            ShardPlan::by_subtrees(&t, root, 3)
        );
    }

    use crate::agent::{Agent, Ctx};
    use crate::channel::ChannelId;
    use crate::engine::EngineBuilder;
    use crate::faults::{FaultEvent, FaultPlan, LossModel};
    use crate::metrics::{DropRecord, Record, TrafficClass};
    use crate::probe::{ProbeEvent, ProbeRecord};

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Data(u32),
        Nack(u32),
    }
    impl crate::packet::Classify for Msg {
        fn class(&self) -> TrafficClass {
            match self {
                Msg::Data(_) => TrafficClass::Data,
                Msg::Nack(_) => TrafficClass::Nack,
            }
        }
    }

    /// Root source: multicasts a numbered packet every 10 ms, and answers
    /// the first NACK per sequence with one retransmission (bounded so the
    /// NACK/repair exchange cannot cascade into a packet storm).
    struct Source {
        chan: ChannelId,
        next: u32,
        count: u32,
        repaired: std::collections::HashSet<u32>,
    }
    impl Agent<Msg> for Source {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _token: u64) {
            ctx.multicast(self.chan, Msg::Data(self.next), 400);
            self.next += 1;
            if self.next < self.count {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg>, pkt: &Packet<Msg>) {
            if let Msg::Nack(seq) = pkt.payload {
                if self.repaired.insert(seq) {
                    ctx.multicast(self.chan, Msg::Data(seq), 400);
                }
            }
        }
    }

    /// Leaf receiver: logs everything, probes on each delivery, and NACKs
    /// a random sample of first-time sequences after RNG-jittered back-off
    /// — exercises per-agent RNG streams, timers, and leaf→root
    /// cross-shard traffic.  At most one NACK per sequence per receiver.
    #[derive(Default)]
    struct Receiver {
        chan: Option<ChannelId>,
        heard: Vec<(SimTime, Msg)>,
        seen: std::collections::HashSet<u32>,
    }
    impl Agent<Msg> for Receiver {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg>, pkt: &Packet<Msg>) {
            self.heard.push((ctx.now(), pkt.payload.clone()));
            if let Msg::Data(seq) = pkt.payload {
                ctx.probe(ProbeEvent::ZlcUpdate {
                    group: seq,
                    level: 0,
                    observed: self.heard.len() as f64,
                    pred: 0.0,
                });
                if self.seen.insert(seq) && ctx.rng().next_f64() < 0.4 {
                    let jitter = ctx.rng().next_f64();
                    let delay = SimDuration(SimDuration::from_millis(3).0 + (jitter * 4e6) as u64);
                    ctx.set_timer(delay, u64::from(seq));
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
            ctx.multicast(self.chan.unwrap(), Msg::Nack(token as u32), 60);
        }
    }

    /// Three-subtree tree with lossy, finite-bandwidth links.
    fn scenario_topology() -> (Topology, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..10).map(|i| b.add_node(format!("n{i}"))).collect();
        let up = |loss| LinkParams::new(ms(5), 800_000, loss);
        let down = |loss| LinkParams::new(ms(2), 800_000, loss);
        b.add_link(nodes[0], nodes[1], up(0.15)); // link 0 (flapped)
        b.add_link(nodes[0], nodes[2], up(0.1)); // link 1
        b.add_link(nodes[0], nodes[3], up(0.0)); // link 2
        b.add_link(nodes[1], nodes[4], down(0.1)); // link 3 (loss swapped)
        b.add_link(nodes[1], nodes[5], down(0.0)); // link 4
        b.add_link(nodes[2], nodes[6], down(0.2)); // link 5
        b.add_link(nodes[2], nodes[7], down(0.0)); // link 6
        b.add_link(nodes[3], nodes[8], down(0.1)); // link 7
        b.add_link(nodes[3], nodes[9], down(0.0)); // link 8
        (b.build(), nodes)
    }

    /// Everything observable a run produces, for bit-equality checks.
    #[derive(Debug, PartialEq)]
    struct Observed {
        processed: u64,
        now: SimTime,
        deliveries: Vec<Record>,
        transmissions: Vec<Record>,
        drops: Vec<DropRecord>,
        heard: Vec<Vec<(SimTime, Msg)>>,
        probes: Vec<ProbeRecord>,
    }

    /// The scenario both bit-identity tests run: the tree cut into
    /// `shards`, one channel over all of it, the source at the root and a
    /// receiver on every leaf.
    fn scenario(shards: usize) -> (EngineBuilder<Msg>, Arc<ShardPlan>, Vec<NodeId>, ChannelId) {
        let (topo, nodes) = scenario_topology();
        let plan = Arc::new(ShardPlan::by_subtrees(&topo, nodes[0], shards));
        assert_eq!(plan.shard_count(), shards.min(3));
        let mut builder: EngineBuilder<Msg> = EngineBuilder::new(topo, 42);
        let chan = builder.add_channel(&nodes);
        builder.add_agent(
            nodes[0],
            Box::new(Source {
                chan,
                next: 0,
                count: 12,
                repaired: Default::default(),
            }),
        );
        for &r in &nodes[4..] {
            builder.add_agent(
                r,
                Box::new(Receiver {
                    chan: Some(chan),
                    ..Default::default()
                }),
            );
        }
        (builder, plan, nodes, chan)
    }

    fn observed(e: &Engine<Msg>, processed: u64, nodes: &[NodeId]) -> Observed {
        Observed {
            processed,
            now: e.now(),
            deliveries: e.recorder().deliveries.clone(),
            transmissions: e.recorder().transmissions.clone(),
            drops: e.recorder().drops.clone(),
            heard: nodes[4..]
                .iter()
                .map(|&r| e.agent::<Receiver>(r).unwrap().heard.clone())
                .collect(),
            probes: e.probe_records().to_vec(),
        }
    }

    /// Runs the full faulted scenario split over `shards` shards, with a
    /// mid-run horizon stop to exercise the split/absorb round trip twice.
    fn run_scenario(shards: usize) -> Observed {
        let (mut builder, plan, nodes, _) = scenario(shards);
        builder.audit(crate::probe::AuditConfig::default());
        builder.fault_plan(
            FaultPlan::new()
                .link_flap(
                    LinkId(0),
                    SimTime::from_millis(40),
                    SimTime::from_millis(80),
                )
                .at(
                    SimTime::from_millis(60),
                    FaultEvent::SetLoss(LinkId(3), LossModel::burst(0.3, 3.0)),
                )
                .at(SimTime::from_millis(50), FaultEvent::NodeCrash(nodes[6]))
                .at(SimTime::from_millis(90), FaultEvent::NodeRestart(nodes[6])),
        );
        let mut e = builder.build();
        let mut processed =
            e.advance(RunSpec::to(SimTime::from_millis(70)).with_plan(Arc::clone(&plan)));
        processed += e.advance(RunSpec::drain().with_plan(plan));
        observed(&e, processed, &nodes)
    }

    #[test]
    fn sharded_runs_are_bit_identical_to_serial_at_any_shard_count() {
        let serial = run_scenario(1);
        assert!(!serial.deliveries.is_empty());
        assert!(!serial.drops.is_empty(), "scenario must exercise loss");
        assert!(!serial.probes.is_empty(), "scenario must exercise probes");
        for shards in [2, 3] {
            assert_eq!(
                serial,
                run_scenario(shards),
                "divergence at shards={shards}"
            );
        }
    }

    #[test]
    fn membership_events_replicate_and_stay_bit_identical_across_shards() {
        use crate::scenario::{MembershipEvent, ScenarioPlan};
        // Leaf 4 leaves mid-stream and rejoins; leaf 9 joins late via a
        // ScenarioPlan.  The run must match serial bit-for-bit, and the
        // master's channel state after absorb must reflect the changes.
        let run = |shards: usize| {
            let (mut builder, plan, nodes, chan) = scenario(shards);
            let scen = ScenarioPlan::new()
                .at(
                    SimTime::from_millis(30),
                    MembershipEvent::Leave {
                        channel: chan,
                        node: nodes[4],
                    },
                )
                .at(
                    SimTime::from_millis(70),
                    MembershipEvent::Join {
                        channel: chan,
                        node: nodes[4],
                    },
                )
                .join_at(SimTime::from_millis(45), nodes[9], &[chan]);
            builder.scenario(scen);
            let mut e = builder.build();
            assert!(!e.channel(chan).contains(nodes[9]), "initially stripped");
            // Horizon stop mid-gap exercises replicated-membership requeue
            // (shard-0-only) plus the channel-state swap at absorb.
            let mut processed =
                e.advance(RunSpec::to(SimTime::from_millis(50)).with_plan(Arc::clone(&plan)));
            assert!(e.channel(chan).contains(nodes[9]), "join applied by 50ms");
            assert!(!e.channel(chan).contains(nodes[4]), "leave applied");
            processed += e.advance(RunSpec::drain().with_plan(plan));
            assert!(e.channel(chan).contains(nodes[4]), "rejoin applied");
            observed(&e, processed, &nodes)
        };
        let serial = run(1);
        assert!(!serial.deliveries.is_empty());
        for shards in [2, 3] {
            assert_eq!(serial, run(shards), "divergence at shards={shards}");
        }
    }

    #[test]
    fn idle_sharded_run_terminates_and_advances_the_clock() {
        // Deadlock-freedom smoke: nothing queued, every round's global
        // minimum is +inf, so the workers must agree to stop immediately.
        let (topo, nodes) = scenario_topology();
        let plan = Arc::new(ShardPlan::by_subtrees(&topo, nodes[0], 3));
        let builder: EngineBuilder<Msg> = EngineBuilder::new(topo, 7);
        let mut e = builder.build();
        let processed = e.advance(RunSpec::to(SimTime::from_secs(5)).with_plan(plan));
        assert_eq!(processed, 0);
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn lookahead_is_min_inter_shard_latency() {
        let mut b = TopologyBuilder::new();
        let n0 = b.add_node("0");
        let n1 = b.add_node("1");
        let n2 = b.add_node("2");
        b.add_link(n0, n1, LinkParams::lossless_infinite(ms(7)));
        b.add_link(n0, n2, LinkParams::lossless_infinite(ms(3)));
        let t = b.build();
        let plan = ShardPlan::by_subtrees(&t, n0, 2);
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(min_cross_latency(&t, &plan), Some(ms(3)));
        let single = ShardPlan::single(t.node_count());
        assert_eq!(min_cross_latency(&t, &single), None);
    }
}

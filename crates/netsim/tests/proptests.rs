//! Property-based tests for the simulator substrate: routing correctness
//! against an independent oracle, delivery invariants under random
//! topologies, determinism, and the event queue's ordering contract.

use proptest::prelude::*;
use sharqfec_netsim::json::{self, Json};
use sharqfec_netsim::prelude::*;
use sharqfec_netsim::queue::EventQueue;
use sharqfec_netsim::routing::{DistanceOracle, Spt};
use sharqfec_netsim::runner::{Cell, CellOutcome, SweepResults, SweepSummary};
use std::time::Duration;

/// A random connected topology: a random tree plus a few extra edges.
#[derive(Debug, Clone)]
struct RandomTopo {
    n: usize,
    /// (a, b, latency_ms) — tree edges first, then extras.
    edges: Vec<(usize, usize, u64)>,
}

fn random_topo() -> impl Strategy<Value = RandomTopo> {
    (3usize..14).prop_flat_map(|n| {
        let tree = proptest::collection::vec(1u64..50, n - 1);
        let parents: Vec<_> = (1..n).map(|i| 0..i).collect();
        let extra = proptest::collection::vec((0usize..n, 0usize..n, 1u64..50), 0..4);
        (tree, parents, extra).prop_map(move |(lats, parents, extra)| {
            let mut edges: Vec<(usize, usize, u64)> = parents
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, i + 1, lats[i]))
                .collect();
            for (a, b, w) in extra {
                if a != b
                    && !edges
                        .iter()
                        .any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
                {
                    edges.push((a, b, w));
                }
            }
            RandomTopo { n, edges }
        })
    })
}

/// A random tree only (no extra edges): exactly the shape
/// `ShardPlan::by_subtrees` partitions, so sharded runs actually shard.
fn random_tree_topo() -> impl Strategy<Value = RandomTopo> {
    (4usize..12).prop_flat_map(|n| {
        let tree = proptest::collection::vec(1u64..50, n - 1);
        let parents: Vec<_> = (1..n).map(|i| 0..i).collect();
        (tree, parents).prop_map(move |(lats, parents)| {
            let edges = parents
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, i + 1, lats[i]))
                .collect();
            RandomTopo { n, edges }
        })
    })
}

fn build(t: &RandomTopo) -> Topology {
    let mut b = TopologyBuilder::new();
    let ids = b.add_nodes("n", t.n);
    for &(a, bb, w) in &t.edges {
        b.add_link(
            ids[a],
            ids[bb],
            LinkParams::lossless_infinite(SimDuration::from_millis(w)),
        );
    }
    b.build()
}

/// Independent all-pairs shortest paths (Floyd–Warshall) as the oracle.
fn floyd_warshall(t: &RandomTopo) -> Vec<Vec<u64>> {
    let inf = u64::MAX / 4;
    let mut d = vec![vec![inf; t.n]; t.n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for &(a, b, w) in &t.edges {
        let w = w * 1_000_000; // ms → ns
        d[a][b] = d[a][b].min(w);
        d[b][a] = d[b][a].min(w);
    }
    for k in 0..t.n {
        for i in 0..t.n {
            for j in 0..t.n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    d
}

#[derive(Clone, Debug)]
struct Ping;
impl Classify for Ping {
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

/// One step of the queue-model equivalence test.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule an event at the given millisecond timestamp.
    Push(u64),
    /// Cancel an arbitrary pending event (selector reduced mod pending).
    Cancel(u16),
    /// Pop the next non-cancelled event from both structures.
    Pop,
}

struct Once {
    chan: ChannelId,
}
impl Agent<Ping> for Once {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        ctx.multicast(self.chan, Ping, 100);
    }
    fn on_packet(&mut self, _: &mut Ctx<'_, Ping>, _: &Packet<Ping>) {}
}

/// Two-class traffic for the shard-equivalence test: ticks fan out from
/// the root, echoes fan back in.  Echoes are never themselves echoed, so
/// traffic is bounded.
#[derive(Clone, Debug)]
enum Beat {
    Tick(u32),
    Echo,
}
impl Classify for Beat {
    fn class(&self) -> TrafficClass {
        match self {
            Beat::Tick(_) => TrafficClass::Data,
            // Lossy, so loss streams draw in both directions of a link.
            Beat::Echo => TrafficClass::Repair,
        }
    }
}

/// Root source: one tick every 7 ms, `left` in total.  Like `EchoBack`
/// it probes once per callback it handles, with events the auditor
/// accepts: one seat holder, one sender, every group closed complete.
struct Metronome {
    chan: ChannelId,
    next: u32,
    left: u32,
}
impl Agent<Beat> for Metronome {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Beat>) {
        let holder = ctx.node();
        ctx.probe(ProbeEvent::Zcr {
            zone: 0,
            action: ZcrAction::Seeded,
            holder,
        });
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Beat>, _token: u64) {
        ctx.probe(ProbeEvent::Sender { seq: self.next });
        ctx.multicast(self.chan, Beat::Tick(self.next), 200);
        self.next += 1;
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(SimDuration::from_millis(7), 0);
        }
    }
    fn on_packet(&mut self, _: &mut Ctx<'_, Beat>, _: &Packet<Beat>) {}
}

/// Receiver: echoes each tick with probability ½ after an RNG-jittered
/// back-off, and calls off its latest echo when it hears a peer's, as a
/// suppression timer would — exercises per-agent RNG streams, timers and
/// their cancels (live and already fired), and cross-shard traffic in
/// both directions.
struct EchoBack {
    chan: ChannelId,
    pending: Option<TimerId>,
}
impl Agent<Beat> for EchoBack {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Beat>, pkt: &Packet<Beat>) {
        if let Beat::Echo = pkt.payload {
            if let Some(id) = self.pending.take() {
                ctx.cancel_timer(id);
            }
        }
        if let Beat::Tick(seq) = pkt.payload {
            ctx.probe(ProbeEvent::GroupClose {
                group: seq,
                complete: true,
                held: 1,
                k: 1,
            });
            if ctx.rng().next_f64() < 0.5 {
                let jitter = (ctx.rng().next_f64() * 5e6) as u64;
                self.pending = Some(ctx.set_timer(
                    SimDuration(SimDuration::from_millis(2).0 + jitter),
                    u64::from(seq),
                ));
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Beat>, token: u64) {
        let (group, outcome) = (token as u32, NackOutcome::Sent);
        ctx.probe(ProbeEvent::Nack {
            group,
            level: 0,
            outcome,
            llc: 1,
            zlc: 1,
        });
        ctx.multicast(self.chan, Beat::Echo, 60);
    }
}

/// Label text that exercises every escape the summary writer knows:
/// quotes, backslashes, control characters, and non-ASCII.
fn label_text() -> impl Strategy<Value = String> {
    const PALETTE: [char; 14] = [
        'a', 'Z', '7', ' ', '/', '=', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '∑',
    ];
    proptest::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

/// Metric values: every bit pattern (NaN, infinities, subnormals) plus
/// the integral and boundary values the writer formats specially.
fn metric_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1_000_000).prop_map(|v| v as f64),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(1e15),
        Just(-341.7857142857143),
    ]
}

/// One sweep cell's outcome: ok with metrics, or panicked with a message.
type CellResult = Result<Vec<(String, f64)>, String>;

fn cell_outcome() -> impl Strategy<Value = (String, u64, CellResult)> {
    let metrics = proptest::collection::vec((label_text(), metric_value()), 0..5);
    let result = prop_oneof![
        metrics.prop_map(Ok as fn(_) -> CellResult),
        label_text().prop_map(Err as fn(_) -> CellResult),
    ];
    (label_text(), any::<u64>(), result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every source's shortest-path distances must equal Floyd–Warshall's
    /// for every pair.  The oracle is exact from node 0 and on trees;
    /// elsewhere it is the delay along node 0's tree, never shorter.
    #[test]
    fn spt_matches_floyd_warshall(t in random_topo()) {
        let topo = build(&t);
        let fw = floyd_warshall(&t);
        let oracle = DistanceOracle::compute(&topo);
        let tree0 = Spt::compute(&topo, NodeId(0));
        let acyclic = topo.link_count() == topo.node_count() - 1;
        for (a, fw_row) in fw.iter().enumerate() {
            let spt = Spt::compute(&topo, NodeId(a as u32));
            let path_a = tree0.path_to(NodeId(a as u32));
            for (b, &fw_dist) in fw_row.iter().enumerate() {
                let ours = spt.delay_to(NodeId(b as u32)).as_nanos();
                prop_assert_eq!(ours, fw_dist, "dist {}->{}", a, b);
                let one_way = oracle.one_way(NodeId(a as u32), NodeId(b as u32)).as_nanos();
                if a == 0 || acyclic {
                    prop_assert_eq!(one_way, fw_dist);
                } else {
                    // Along node 0's tree: down from the paths' last common node.
                    let path_b = tree0.path_to(NodeId(b as u32));
                    let common = path_a.iter().zip(&path_b).take_while(|(x, y)| x == y).count();
                    let d0 = |i: usize| tree0.delay_to(NodeId(i as u32)).as_nanos();
                    prop_assert!(one_way >= fw_dist, "oracle {}->{} under Floyd–Warshall", a, b);
                    prop_assert_eq!(one_way, d0(a) + d0(b) - 2 * d0(path_a[common - 1].idx()));
                }
            }
        }
    }

    /// The masked search (fault injection's re-route) must agree with
    /// Floyd–Warshall computed over the surviving edge set, including on
    /// unreachability.
    #[test]
    fn masked_spt_matches_floyd_warshall_on_survivors(t in random_topo(), kill in any::<u32>()) {
        let topo = build(&t);
        let kill = kill as usize % t.edges.len();
        let survivors = RandomTopo {
            n: t.n,
            edges: t
                .edges
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != kill)
                .map(|(_, &e)| e)
                .collect(),
        };
        let fw = floyd_warshall(&survivors);
        let inf = u64::MAX / 4;
        let mut up = vec![true; topo.link_count()];
        // Builder may have dropped duplicate extras, so map the killed
        // edge to its LinkId through the topology.
        let (a, b, _) = t.edges[kill];
        let killed_link = topo
            .link_between(NodeId(a as u32), NodeId(b as u32))
            .expect("edge exists");
        up[killed_link.idx()] = false;
        for (src, fw_row) in fw.iter().enumerate() {
            let spt = Spt::compute_masked(&topo, NodeId(src as u32), &up);
            prop_assert!(!spt.carries(killed_link));
            for (dst, &dist) in fw_row.iter().enumerate() {
                let node = NodeId(dst as u32);
                if dist >= inf {
                    prop_assert!(!spt.reachable(node));
                    prop_assert_eq!(spt.delay_to(node), SimDuration::MAX);
                } else {
                    prop_assert!(spt.reachable(node));
                    prop_assert_eq!(spt.delay_to(node).as_nanos(), dist);
                }
            }
        }
    }

    /// SPT structure: every non-root's path is acyclic, ends at the root,
    /// and each hop's distance decreases toward the root by exactly the
    /// link latency.
    #[test]
    fn spt_paths_are_consistent(t in random_topo(), src in 0usize..14) {
        let src = src % t.n;
        let topo = build(&t);
        let spt = Spt::compute(&topo, NodeId(src as u32));
        for b in 0..t.n {
            let path = spt.path_to(NodeId(b as u32));
            prop_assert_eq!(path[0], NodeId(src as u32));
            prop_assert_eq!(*path.last().unwrap(), NodeId(b as u32));
            prop_assert!(path.len() <= t.n, "path has a cycle");
            for w in path.windows(2) {
                let link = topo.link_between(w[0], w[1]).expect("path edges exist");
                let lat = topo.link(link).params.latency;
                prop_assert_eq!(spt.delay_to(w[0]) + lat, spt.delay_to(w[1]));
            }
        }
    }

    /// On a lossless network every member except the sender receives a
    /// multicast exactly once, at exactly its oracle distance (plus
    /// serialization, which is zero on infinite-rate links).
    #[test]
    fn lossless_multicast_reaches_everyone_once(t in random_topo(), seed in any::<u64>()) {
        let topo = build(&t);
        let oracle = DistanceOracle::compute(&topo);
        let mut builder: EngineBuilder<Ping> = EngineBuilder::new(topo, seed);
        let members: Vec<NodeId> = (0..t.n as u32).map(NodeId).collect();
        let chan = builder.add_channel(&members);
        builder.add_agent(members[0], Box::new(Once { chan }));
        let mut engine = builder.build();
        engine.advance(RunSpec::drain());
        let rec = engine.recorder();
        for &m in &members[1..] {
            let hits: Vec<_> = rec
                .deliveries
                .iter()
                .filter(|d| d.node == m)
                .collect();
            prop_assert_eq!(hits.len(), 1, "node {} heard {} copies", m, hits.len());
            prop_assert_eq!(
                hits[0].time.as_nanos(),
                oracle.one_way(members[0], m).as_nanos(),
                "arrival time at {}",
                m
            );
        }
        prop_assert!(rec.deliveries.iter().all(|d| d.node != members[0]));
    }

    /// Scope pruning: only channel members receive, and members cut off
    /// by non-member intermediates receive nothing.
    #[test]
    fn scope_pruning_never_leaks(t in random_topo(), mask in any::<u16>(), seed in any::<u64>()) {
        let topo = build(&t);
        let mut builder: EngineBuilder<Ping> = EngineBuilder::new(topo, seed);
        // Random member subset always containing the sender (node 0).
        let members: Vec<NodeId> = (0..t.n as u32)
            .map(NodeId)
            .filter(|n| n.0 == 0 || mask & (1 << (n.0 % 16)) != 0)
            .collect();
        let chan = builder.add_channel(&members);
        builder.add_agent(members[0], Box::new(Once { chan }));
        let mut engine = builder.build();
        engine.advance(RunSpec::drain());
        for d in &engine.recorder().deliveries {
            prop_assert!(
                members.contains(&d.node),
                "non-member {} received a scoped packet",
                d.node
            );
        }
    }

    /// Bit-for-bit determinism: identical seeds give identical delivery
    /// logs even with loss.
    #[test]
    fn identical_seeds_identical_logs(t in random_topo(), seed in any::<u64>()) {
        let run = || {
            let mut b = TopologyBuilder::new();
            let ids = b.add_nodes("n", t.n);
            for &(a, bb, w) in &t.edges {
                b.add_link(
                    ids[a],
                    ids[bb],
                    LinkParams::new(SimDuration::from_millis(w), 1_000_000, 0.3),
                );
            }
            let mut builder: EngineBuilder<Ping> = EngineBuilder::new(b.build(), seed);
            let chan = builder.add_channel(&ids);
            builder.add_agent(ids[0], Box::new(Once { chan }));
            let mut engine = builder.build();
            engine.advance(RunSpec::drain());
            engine
                .recorder()
                .deliveries
                .iter()
                .map(|d| (d.time.as_nanos(), d.node.0))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seed sweeps through the parallel runner are bit-identical to the
    /// serial run of the same cells: thread count is not an input to the
    /// simulation.  Each cell runs a lossy random-topology scenario and
    /// reports its full delivery log.
    #[test]
    fn runner_seed_sweep_matches_serial(t in random_topo(), base_seed in any::<u32>()) {
        use sharqfec_netsim::runner::{grid, run_sweep, Cell};
        use std::num::NonZeroUsize;

        let run_cell = |c: &Cell| {
            let mut b = TopologyBuilder::new();
            let ids = b.add_nodes("n", t.n);
            for &(a, bb, w) in &t.edges {
                b.add_link(
                    ids[a],
                    ids[bb],
                    LinkParams::new(SimDuration::from_millis(w), 1_000_000, 0.3),
                );
            }
            let mut builder: EngineBuilder<Ping> = EngineBuilder::new(b.build(), c.seed);
            let chan = builder.add_channel(&ids);
            builder.add_agent(ids[0], Box::new(Once { chan }));
            let mut engine = builder.build();
            engine.advance(RunSpec::drain());
            engine
                .recorder()
                .deliveries
                .iter()
                .map(|d| (d.time.as_nanos(), d.node.0))
                .collect::<Vec<_>>()
        };

        let seeds: Vec<u64> = (0..8).map(|i| base_seed as u64 + i).collect();
        let serial = run_sweep(grid(&["lossy"], &seeds), NonZeroUsize::MIN, run_cell);
        let parallel = run_sweep(
            grid(&["lossy"], &seeds),
            NonZeroUsize::new(4).unwrap(),
            run_cell,
        );
        prop_assert_eq!(serial.into_values(), parallel.into_values());
    }

    /// The slab-backed [`EventQueue`] must pop in exactly the order the
    /// engine's old `BinaryHeap<QItem>` did: ascending time, FIFO within
    /// a timestamp (insertion-sequence tie-break).  The model is that
    /// very `BinaryHeap` over reverse-ordered `(time, seq)` pairs, and
    /// the op stream interleaves pushes, pops, and timer-style
    /// cancellations (an overlay set consulted at pop time, exactly as
    /// the engine skips cancelled timers).
    #[test]
    fn event_queue_matches_binary_heap_semantics(
        ops in proptest::collection::vec(
            // Pushes dominate (repeated arms stand in for weights), with
            // a tiny time range to force ties.
            prop_oneof![
                (0u64..16).prop_map(QueueOp::Push),
                (0u64..16).prop_map(QueueOp::Push),
                (0u64..16).prop_map(QueueOp::Push),
                any::<u16>().prop_map(QueueOp::Cancel),
                Just(QueueOp::Pop),
                Just(QueueOp::Pop),
            ],
            1..200,
        ),
    ) {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};

        let mut model: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut next_seq = 0u64;
        let mut pending: Vec<u64> = Vec::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut popped: Vec<(SimTime, u64)> = Vec::new();

        for op in ops {
            match op {
                QueueOp::Push(ms) => {
                    let time = SimTime::from_millis(ms);
                    let seq = queue.push(time, next_seq);
                    prop_assert_eq!(seq, next_seq, "queue must assign dense push sequences");
                    model.push(Reverse((time, seq)));
                    pending.push(seq);
                    next_seq += 1;
                }
                QueueOp::Cancel(pick) => {
                    // Cancel an arbitrary still-queued event, engine-style:
                    // it stays in both structures and is skipped on pop.
                    if !pending.is_empty() {
                        let seq = pending[pick as usize % pending.len()];
                        cancelled.insert(seq);
                    }
                }
                QueueOp::Pop => loop {
                    let expect = model.pop().map(|Reverse(pair)| pair);
                    let got = queue.pop();
                    prop_assert_eq!(got, expect);
                    let Some((time, seq)) = got else { break };
                    pending.retain(|&s| s != seq);
                    if !cancelled.remove(&seq) {
                        popped.push((time, seq));
                        break;
                    }
                },
            }
        }
        // Drain both and check the full surviving pop order once more.
        while let Some(Reverse(pair)) = model.pop() {
            prop_assert_eq!(queue.pop(), Some(pair));
            if !cancelled.contains(&pair.1) {
                popped.push(pair);
            }
        }
        prop_assert!(queue.is_empty());
        // Global FIFO contract: two events at the same timestamp always
        // pop in push (sequence) order, no matter how pushes and pops
        // interleaved.  (Across different timestamps a later push may
        // legally pop earlier, so only the tie case is globally ordered.)
        for (i, a) in popped.iter().enumerate() {
            for b in &popped[i + 1..] {
                if a.0 == b.0 {
                    prop_assert!(
                        a.1 < b.1,
                        "same-time FIFO violated: {:?} before {:?}", a, b
                    );
                }
            }
        }
    }

    /// The sharded engine is bit-identical to serial on random small
    /// trees, at shard counts 1/2/4, under random fault plans: same
    /// processed-event count, same recorder logs (deliveries,
    /// transmissions, drops), same probe records, same final clock.  The drain also doubles
    /// as a deadlock-freedom check — a stuck barrier would hang the test.
    #[test]
    fn sharded_runs_match_serial_on_random_trees(
        t in random_tree_topo(),
        seed in any::<u64>(),
        flap_pick in any::<u16>(),
        crash_pick in any::<u16>(),
        do_flap in any::<bool>(),
        do_crash in any::<bool>(),
    ) {
        use sharqfec_netsim::faults::{FaultEvent, FaultPlan};
        use sharqfec_netsim::graph::LinkId;
        use std::sync::Arc;

        let mut fp = FaultPlan::new();
        if do_flap {
            let link = LinkId(flap_pick as u32 % (t.n as u32 - 1));
            fp = fp.link_flap(link, SimTime::from_millis(20), SimTime::from_millis(50));
        }
        if do_crash {
            let node = NodeId(1 + crash_pick as u32 % (t.n as u32 - 1));
            fp = fp
                .at(SimTime::from_millis(30), FaultEvent::NodeCrash(node))
                .at(SimTime::from_millis(70), FaultEvent::NodeRestart(node));
        }

        let run = |shards: usize| {
            let mut b = TopologyBuilder::new();
            let ids = b.add_nodes("n", t.n);
            for &(a, bb, w) in &t.edges {
                b.add_link(
                    ids[a],
                    ids[bb],
                    LinkParams::new(SimDuration::from_millis(w), 500_000, 0.25),
                );
            }
            let topo = b.build();
            let plan = Arc::new(ShardPlan::by_subtrees(&topo, ids[0], shards));
            let mut builder: EngineBuilder<Beat> = EngineBuilder::new(topo, seed);
            builder.fault_plan(fp.clone()).audit(AuditConfig::default());
            let chan = builder.add_channel(&ids);
            builder.add_agent(ids[0], Box::new(Metronome { chan, next: 0, left: 5 }));
            for &r in &ids[1..] {
                builder.add_agent(r, Box::new(EchoBack { chan, pending: None }));
            }
            let mut engine = builder.build();
            // A mid-run horizon stop exercises the split/absorb round
            // trip twice per run.
            let mut processed =
                engine.advance(RunSpec::to(SimTime::from_millis(45)).with_plan(plan.clone()));
            processed += engine.advance(RunSpec::drain().with_plan(plan));
            let rec = engine.recorder();
            (
                processed,
                engine.now(),
                rec.deliveries.clone(),
                rec.transmissions.clone(),
                rec.drops.clone(),
                engine.probe_records().to_vec(),
            )
        };

        let serial = run(1);
        for shards in [2usize, 4] {
            prop_assert_eq!(&serial, &run(shards), "shards = {}", shards);
        }
    }

    /// The streaming recorder's O(1) aggregates agree with raw-mode counts
    /// for the same seeded run.
    #[test]
    fn streaming_counts_match_raw(t in random_topo(), seed in any::<u64>()) {
        use sharqfec_netsim::metrics::RecorderMode;

        let run_mode = |mode: RecorderMode| {
            let mut b = TopologyBuilder::new();
            let ids = b.add_nodes("n", t.n);
            for &(a, bb, w) in &t.edges {
                b.add_link(
                    ids[a],
                    ids[bb],
                    LinkParams::new(SimDuration::from_millis(w), 1_000_000, 0.3),
                );
            }
            let mut builder: EngineBuilder<Ping> = EngineBuilder::new(b.build(), seed);
            builder.recorder_mode(mode);
            let chan = builder.add_channel(&ids);
            builder.add_agent(ids[0], Box::new(Once { chan }));
            let mut engine = builder.build();
            engine.advance(RunSpec::drain());
            let rec = engine.recorder();
            let counts: Vec<usize> = (0..t.n as u32)
                .map(|n| rec.delivered_count(NodeId(n), TrafficClass::Data))
                .collect();
            (counts, rec.total_sent(TrafficClass::Data), rec.total_dropped(TrafficClass::Data))
        };

        let raw = run_mode(RecorderMode::Raw);
        let streaming = run_mode(RecorderMode::Streaming);
        prop_assert_eq!(raw, streaming);
    }

    /// The summary reader is the writer's inverse: scenario, seed,
    /// status, error and metrics survive `to_json` → `parse` exactly,
    /// non-finite metrics as `null`.
    #[test]
    fn sweep_summary_round_trips(
        name in label_text(),
        cells in proptest::collection::vec(cell_outcome(), 0..6),
    ) {
        let results = SweepResults {
            outcomes: cells
                .iter()
                .map(|(scenario, seed, result)| CellOutcome {
                    cell: Cell::new(scenario.clone(), *seed),
                    wall: Duration::from_micros(*seed % 5_000_000),
                    result: result.clone(),
                })
                .collect(),
            threads: 3,
            wall: Duration::from_millis(1234),
        };
        let json = results.to_json(&name, |metrics| metrics.clone());
        let summary = match SweepSummary::parse(&json) {
            Ok(summary) => summary,
            Err(e) => return Err(TestCaseError::fail(format!("{e} in {json}"))),
        };
        prop_assert_eq!(&summary.sweep, &name);
        prop_assert_eq!(summary.threads, 3);
        prop_assert_eq!(summary.cells_ok, results.ok_count());
        prop_assert_eq!(summary.cells_failed, cells.len() - results.ok_count());
        prop_assert_eq!(summary.cells.len(), cells.len());
        for (read, (scenario, seed, result)) in summary.cells.iter().zip(&cells) {
            prop_assert_eq!(&read.scenario, scenario);
            prop_assert_eq!(read.seed, *seed);
            let want = result.clone().map(|metrics| {
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, v.is_finite().then_some(v)))
                    .collect::<Vec<_>>()
            });
            prop_assert_eq!(&read.result, &want);
        }
        // The generic tree reader agrees with the directed one on every
        // cell's scenario, seed, status and metric (`null` as `None`).
        let tree = json::parse(&json).map_err(|e| TestCaseError::fail(format!("{e} in {json}")))?;
        let nodes = tree.get("cells").and_then(Json::as_arr).unwrap_or_default();
        prop_assert_eq!(nodes.len(), summary.cells.len());
        for (node, read) in nodes.iter().zip(&summary.cells) {
            let text = |key| node.get(key).and_then(Json::as_str);
            prop_assert_eq!(text("scenario"), Some(read.scenario.as_str()));
            prop_assert_eq!(node.get("seed").and_then(Json::as_u64), Some(read.seed));
            let number = |v: &Json| match *v {
                Json::Int(n) => Some(n as f64),
                Json::Float(f) => Some(f),
                _ => None,
            };
            match (&read.result, node.get("metrics")) {
                (Ok(metrics), Some(Json::Obj(members))) => {
                    prop_assert_eq!(text("status"), Some("ok"));
                    let values: Vec<_> = members.iter().map(|(k, v)| (k.clone(), number(v))).collect();
                    prop_assert_eq!(&values, metrics);
                }
                (Err(e), None) => {
                    prop_assert_eq!(text("status"), Some("panicked"));
                    prop_assert_eq!(text("error"), Some(e.as_str()));
                }
                _ => prop_assert!(false, "status differs in {}", json),
            }
        }
    }
}

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

/// Agent that records what it hears and echoes every original, from
/// inside `on_packet`, as a payload derived from the one it was lent.
struct Echo {
    chan: ChannelId,
    heard: Vec<(NodeId, u32)>,
}
impl Agent<Msg> for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Msg>, pkt: &Packet<Msg>) {
        let Msg::Data(x) = pkt.payload else { return };
        self.heard.push((pkt.src, x));
        if x < 100 {
            ctx.multicast(self.chan, Msg::Data(x + 100 * (ctx.node().0 + 1)), 1000);
        }
    }
}

#[test]
fn echoes_sent_from_a_lent_packet_carry_its_payload() {
    // 0 - 1 < (2, 3): at 1 the packet is lent while 2 and 3 still hold
    // references; at the later of 2 and 3 it is the last arrival, whose
    // slot the echo's own multicast reuses.
    let mut b = TopologyBuilder::new();
    let n: Vec<NodeId> = (0..4).map(|i| b.add_node(i.to_string())).collect();
    for (x, y) in [(0, 1), (1, 2), (1, 3)] {
        b.add_link(n[x], n[y], LinkParams::new(ms(1 + y as u64), 800_000, 0.0));
    }
    let mut e: Engine<Msg> = Engine::new(b.build(), 1);
    let chan = e.add_channel(&n);
    e.set_agent(n[0], Box::new(Burst { chan, count: 3 }));
    for &r in &n[1..] {
        let heard = Vec::new();
        e.set_agent(r, Box::new(Echo { chan, heard }));
    }
    e.advance(RunSpec::drain());
    assert_eq!(e.packets_in_flight(), 0);
    for &r in &n[1..] {
        let mut heard = e.agent::<Echo>(r).unwrap().heard.clone();
        heard.sort_unstable();
        // Each original from 0, then each other receiver's echo of it.
        let sent = |o: NodeId, x| if o == n[0] { x } else { x + 100 * (o.0 + 1) };
        let want: Vec<(NodeId, u32)> = (n.iter().filter(|&&o| o != r))
            .flat_map(|&o| (0..3).map(move |x| (o, sent(o, x))))
            .collect();
        assert_eq!(heard, want, "at {r:?}");
    }
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
    assert!(!e.link_up[mid.idx()]);
    // After the flap heals, traffic flows again.
    e.advance(RunSpec::to(SimTime::from_millis(250)));
    assert!(e.link_up[mid.idx()]);
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
    assert_eq!(e.forest.path_to(n3), vec![n0, n2, n3]);
}

#[test]
fn every_source_follows_node_zeros_tree_on_a_ring() {
    // Ring 0-1-2-3-0 of 1 ms links.  Node 0's tree is 0-1, 0-3 and 1-2
    // (2 is 2 ms away either way; the tie goes to the lower id, 1), so
    // node 3's multicast reaches node 2 via 0 and 1 at 3 ms — the delay
    // the oracle reports — although the direct link 3-2 takes 1 ms.
    let mut b = TopologyBuilder::new();
    let n = b.add_nodes("n", 4);
    for i in 0..4 {
        b.add_link(n[i], n[(i + 1) % 4], LinkParams::lossless_infinite(ms(1)));
    }
    let mut e: Engine<Msg> = Engine::new(b.build(), 1);
    let chan = e.add_channel(&n);
    let mut arrivals = |src: usize| {
        let (start, seen) = (e.now(), e.recorder().deliveries.len());
        e.multicast_from(n[src], chan, Msg::Data(0), 100);
        e.advance(RunSpec::drain());
        let new = &e.recorder().deliveries[seen..];
        Vec::from_iter(new.iter().map(|r| (r.node.idx(), r.time - start)))
    };
    assert_eq!(arrivals(3), [(0, ms(1)), (1, ms(2)), (2, ms(3))]);
    // Node 0's own multicasts still arrive at their Floyd–Warshall distances.
    assert_eq!(arrivals(0), [(1, ms(1)), (3, ms(1)), (2, ms(2))]);
    assert_eq!(e.oracle.one_way(n[3], n[2]), ms(3));
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
    assert!(!e.node_up[n1.idx()]);
    e.multicast_from(n0, chan, Msg::Data(0), 1000);
    e.advance(RunSpec::to(SimTime::from_millis(250)));
    // The crashed middle hop still forwarded to n2 …
    assert_eq!(e.agent::<Sniffer>(n2).unwrap().heard.len(), 1);
    // … but its own agent heard nothing.
    assert!(e.agent::<Sniffer>(n1).unwrap().heard.is_empty());
    e.advance(RunSpec::to(SimTime::from_millis(350)));
    assert!(e.node_up[n1.idx()]);
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
            .at(SimTime::from_millis(280), FaultEvent::NodeRestart(n0)),
    );
    let mut e = b.build();
    e.advance(RunSpec::to(SimTime::from_millis(600)));
    let agent = e.agent::<Ticker>(n0).unwrap();
    assert_eq!(agent.starts, 2, "restart re-runs on_start");
    // Ticks at 100, 200 (pre-crash), then 380, 480, 580 — the timer
    // armed at 200 died in the crash, though it was due (at 300) after
    // the restart.
    assert_eq!(
        agent.ticks,
        vec![
            SimTime::from_millis(100),
            SimTime::from_millis(200),
            SimTime::from_millis(380),
            SimTime::from_millis(480),
            SimTime::from_millis(580),
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
    // Regression: a cancel used to be remembered unconditionally, so
    // cancelling an already-fired timer (the common "ack arrived, cancel
    // retransmit" pattern) grew the engine's bookkeeping forever.
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
            panic!("a timer called off before its deadline must not fire");
        }
    }
    let (t, [n0, ..]) = chain3(0.0);
    let mut e: Engine<Msg> = Engine::new(t, 1);
    e.set_agent(n0, Box::new(SetAndCancel));
    // The cancel frees the timer at once, long before its deadline …
    e.advance(RunSpec::to(SimTime::from_millis(1)));
    assert_eq!(e.pending_timer_count(), 0);
    // … and the queued event it leaves behind fires nothing.
    e.advance(RunSpec::drain());
    assert_eq!(e.pending_timer_count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one forest forwards exactly as each source's own masked SPT,
    /// recomputed per hop, while links go down and come back with traffic
    /// in flight: same events, clock, deliveries, transmissions and drops,
    /// over lossy, bandwidth-limited links and a mid-run horizon stop.  On
    /// a tree that holds for several senders; on a graph with 1–3 extra
    /// links for node 0, whose masked SPT the forest is — the property the
    /// ZCR failover example's flapped bypass graph relies on.
    #[test]
    fn labelled_tree_routing_matches_masked_spt_forwarding(
        // Node `i + 1` hangs off one of the nodes before it, over 1–9 ms.
        tree in (3usize..28).prop_flat_map(|n| proptest::collection::vec((any::<u32>(), 1u64..10), n..n + 1)),
        extra in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u64..10), 0..4),
        flaps in proptest::collection::vec((any::<u32>(), 0u64..120, 1u64..80), 0..6),
        senders in proptest::collection::vec(any::<u32>(), 1..4),
        seed in any::<u64>(),
        mid in 1u64..150,
    ) {
        let n = tree.len() + 1;
        let mut t = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| t.add_node(format!("{i}"))).collect();
        // The tree's links first, then the extras that are neither loops
        // nor duplicates.
        let tree_links = tree.iter().enumerate().map(|(i, &(pick, lat))| (pick as usize % (i + 1), i + 1, lat));
        let extra_links = extra.iter().map(|&(a, b, lat)| (a as usize % n, b as usize % n, lat));
        let mut linked = std::collections::BTreeSet::new();
        for (a, b, lat) in tree_links.chain(extra_links) {
            if a != b && linked.insert((a.min(b), a.max(b))) {
                t.add_link(nodes[a], nodes[b], LinkParams::new(ms(lat), 500_000, 0.2));
            }
        }
        let topo = t.build();
        let mut plan = FaultPlan::new();
        for &(pick, down, span) in &flaps {
            let link = LinkId(pick % topo.link_count() as u32);
            plan = plan.link_flap(link, SimTime::from_millis(down), SimTime::from_millis(down + span));
        }
        // On a graph with cycles node 0 is the only sender.
        let cyclic = topo.link_count() >= n;
        let mut senders: Vec<usize> = senders.iter().map(|&s| s as usize % n * usize::from(!cyclic)).collect();
        senders.sort_unstable();
        senders.dedup();
        let run = |reference: bool| {
            let mut b: EngineBuilder<Msg> = EngineBuilder::new(topo.clone(), seed);
            let chan = b.add_channel(&nodes);
            for &s in &senders {
                b.add_agent(nodes[s], Box::new(Ticker { chan, left: 8 }));
            }
            b.fault_plan(plan.clone());
            let mut e = b.build();
            e.per_source_reference = reference;
            let mut processed = e.advance(RunSpec::to(SimTime::from_millis(mid)));
            processed += e.advance(RunSpec::drain());
            let rec = e.recorder();
            let seen = (processed, e.now(), rec.deliveries.clone(), rec.transmissions.clone());
            (seen, rec.drops.clone())
        };
        let (forest, reference) = (run(false), run(true));
        prop_assert_eq!(&forest.0, &reference.0);
        prop_assert_eq!(&forest.1, &reference.1);
    }
}

#[test]
fn a_send_after_a_horizon_stop_pops_before_the_queued_head() {
    // The horizon stop peeks the queue's head, n1's start at 1 s, which
    // moves the queue's base up to it; the multicast at `now` then queues
    // arrivals below that base, and they must still pop first.
    let (t, [n0, n1, n2]) = chain3(0.0);
    let mut b: EngineBuilder<Msg> = EngineBuilder::new(t, 1);
    let chan = b.add_channel(&[n0, n1, n2]);
    let started_at = Vec::new();
    b.add_agent_at(
        n1,
        Box::new(StartClock { started_at }),
        SimTime::from_secs(1),
    );
    let mut e = b.build();
    e.advance(RunSpec::to(SimTime::from_millis(100)));
    e.multicast_from(n0, chan, Msg::Data(0), 1000);
    e.advance(RunSpec::drain());
    let at = SimTime::from_millis;
    let order: Vec<(SimTime, NodeId)> = e
        .recorder()
        .deliveries
        .iter()
        .map(|r| (r.time, r.node))
        .collect();
    assert_eq!(order, vec![(at(120), n1), (at(140), n2)]);
    assert_eq!(
        e.agent::<StartClock>(n1).unwrap().started_at,
        vec![at(1000)]
    );
    assert_eq!(e.now(), at(1000));
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
    let (rng, next_timer) = (e.agent_rngs[n1.idx()].clone(), e.node_seq[n1.idx()]);
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
    let mut rig = crate::testkit::Rig {
        agent: Jittery { chan },
        now: start,
        node: n1,
        rng,
        oracle,
        next_timer,
        probes: ProbeSink::default(),
    };
    let actions = rig.call(|agent, ctx| agent.on_start(ctx));
    assert_eq!(&format!("{actions:?}"), applied);
}

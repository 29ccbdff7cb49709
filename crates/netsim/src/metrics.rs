//! Measurement: every transmission, delivery, and drop, timestamped.
//!
//! The paper's Figures 14–21 plot "the sum of data and repair traffic
//! visible at each session member over 0.1 second intervals" and the
//! corresponding NACK counts.  The [`Recorder`] captures the raw events
//! those plots are binned from; the `sharqfec-analysis` crate does the
//! binning.
//!
//! Every mode keeps the session-global per-class counts; the three
//! storage modes ([`RecorderMode`]) differ only in what they keep beside
//! them:
//!
//! * **Raw** (the default) keeps per-(node, class) counts and every event
//!   in the public vectors, so post-hoc tooling (binning, replays, custom
//!   filters) can see everything.
//! * **Streaming** keeps the per-(node, class) counts and no events:
//!   memory is `O(nodes)` regardless of traffic volume and run length —
//!   the mode the parallel sweep runner uses, where dozens of engines are
//!   alive at once.
//! * **Aggregate** keeps neither: `O(1)` memory, the mode the
//!   10⁵–10⁶-receiver scaling sweeps use.
//!
//! The counts are maintained as the events arrive, so
//! [`Recorder::delivered_count`], [`Recorder::sent_count`] and the
//! `total_*` accessors are O(1) lookups, never scans.
//!
//! Observations arrive through [`Recorder::record_delivery`],
//! [`Recorder::record_transmission`] and [`Recorder::record_drop`] only,
//! one at a time and in the order the run made them; a sharded run
//! replays its shards' journals through the same three calls in serial
//! order (`shard.rs`).

use crate::channel::ChannelId;
use crate::graph::NodeId;
use crate::time::SimTime;

/// Coarse protocol-independent classification of a packet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TrafficClass {
    /// Original data packets (lossy).
    Data,
    /// FEC/retransmission repair packets (lossy).
    Repair,
    /// Negative acknowledgements / repair requests (lossless per §6.2).
    Nack,
    /// Session-management messages (lossless per §6.2).
    Session,
    /// Other control traffic, e.g. ZCR challenges (lossless).
    Control,
}

/// Number of traffic classes (the aggregate tables are dense over these).
pub const CLASS_COUNT: usize = 5;

impl TrafficClass {
    /// All classes, in [`TrafficClass::index`] order.
    #[cfg(test)]
    const ALL: [TrafficClass; CLASS_COUNT] = [
        TrafficClass::Data,
        TrafficClass::Repair,
        TrafficClass::Nack,
        TrafficClass::Session,
        TrafficClass::Control,
    ];

    /// Dense index for aggregate tables.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Repair => 1,
            TrafficClass::Nack => 2,
            TrafficClass::Session => 3,
            TrafficClass::Control => 4,
        }
    }

    /// Whether link loss applies to this class (paper §6.2: data and
    /// repairs are lossy; session traffic and NACKs are not).
    pub fn lossy(self) -> bool {
        matches!(self, TrafficClass::Data | TrafficClass::Repair)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Data => "data",
            TrafficClass::Repair => "repair",
            TrafficClass::Nack => "nack",
            TrafficClass::Session => "session",
            TrafficClass::Control => "control",
        }
    }
}

/// One delivery (or transmission) observation.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// When the packet was delivered/transmitted.
    pub time: SimTime,
    /// The node observing the packet (receiver for deliveries, sender for
    /// transmissions).
    pub node: NodeId,
    /// The packet's original source.
    pub src: NodeId,
    /// Traffic class.
    pub class: TrafficClass,
    /// Wire size in bytes.
    pub bytes: u32,
    /// Channel the packet travelled on.
    pub channel: ChannelId,
}

/// One packet dropped by link loss.
#[derive(Clone, Debug, PartialEq)]
pub struct DropRecord {
    /// When the drop happened (at the head of the link).
    pub time: SimTime,
    /// Node that was transmitting onto the lossy link.
    pub from: NodeId,
    /// Node that would have received.
    pub to: NodeId,
    /// Traffic class of the lost packet.
    pub class: TrafficClass,
}

/// How the recorder stores what it observes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecorderMode {
    /// Keep every event in the raw vectors (plus the O(1) totals).
    #[default]
    Raw,
    /// Count per (node, class) at record time; the raw vectors stay
    /// empty.  Memory is `O(nodes)`.
    Streaming,
    /// Keep only session-global per-class totals — no per-node state, no
    /// raw vectors.  Memory is `O(1)` regardless of node count or traffic
    /// volume, the mode large-scale sweeps use (10⁶ receivers would make
    /// even per-node totals tens of megabytes).  Per-node queries
    /// ([`Recorder::delivered_count`], [`Recorder::sent_count`]) read as
    /// zero in this mode.
    Aggregate,
}

/// Which side of the wire an observation was made on; indexes every
/// per-direction table below.
#[derive(Clone, Copy)]
enum Direction {
    Delivered = 0,
    Sent = 1,
}
use Direction::{Delivered, Sent};

/// Packet counts per (direction, class), kept once per node and once for
/// the whole session.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Stats([[u64; CLASS_COUNT]; 2]);

impl Stats {
    /// Sums `other`'s counts into this one.
    fn absorb(&mut self, other: &Stats) {
        let counts = self.0.iter_mut().flatten();
        for (mine, theirs) in counts.zip(other.0.iter().flatten()) {
            *mine += theirs;
        }
    }
}

/// Accumulates simulation observations.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Every delivery to an agent (raw mode only).
    pub deliveries: Vec<Record>,
    /// Every send by an agent (one record per transmission, not per
    /// receiver; raw mode only).
    pub transmissions: Vec<Record>,
    /// Every loss event (raw mode only).
    pub drops: Vec<DropRecord>,
    mode: RecorderMode,
    /// Per-node counts (raw and streaming modes).
    nodes: Vec<Stats>,
    /// Session-global counts (every mode).
    global: Stats,
    drop_total: [u64; CLASS_COUNT],
}

impl Recorder {
    /// A recorder in the given mode.
    pub fn new(mode: RecorderMode) -> Recorder {
        Recorder {
            mode,
            ..Recorder::default()
        }
    }

    /// The storage mode, fixed when the recorder is built.
    pub fn mode(&self) -> RecorderMode {
        self.mode
    }

    fn node_mut(&mut self, node: NodeId) -> &mut Stats {
        if self.nodes.len() <= node.idx() {
            self.nodes.resize_with(node.idx() + 1, Stats::default);
        }
        &mut self.nodes[node.idx()]
    }

    /// Records one delivery observation.
    pub fn record_delivery(&mut self, r: Record) {
        self.record(Delivered, r);
    }

    /// Records one transmission observation.
    pub fn record_transmission(&mut self, r: Record) {
        self.record(Sent, r);
    }

    /// The one record path: the session count always, then what the mode
    /// keeps — nothing more, the node's count, or the node's count and the
    /// event itself.
    #[inline]
    fn record(&mut self, dir: Direction, r: Record) {
        let (d, c) = (dir as usize, r.class.index());
        self.global.0[d][c] += 1;
        if self.mode == RecorderMode::Aggregate {
            return;
        }
        self.node_mut(r.node).0[d][c] += 1;
        if self.mode == RecorderMode::Raw {
            match dir {
                Delivered => self.deliveries.push(r),
                Sent => self.transmissions.push(r),
            }
        }
    }

    /// Records one loss event.
    pub fn record_drop(&mut self, d: DropRecord) {
        self.drop_total[d.class.index()] += 1;
        if self.mode == RecorderMode::Raw {
            self.drops.push(d);
        }
    }

    fn node_total(&self, dir: Direction, node: NodeId, class: TrafficClass) -> usize {
        self.nodes
            .get(node.idx())
            .map_or(0, |s| s.0[dir as usize][class.index()] as usize)
    }

    /// Counts deliveries at `node` with the given class.  O(1).
    pub fn delivered_count(&self, node: NodeId, class: TrafficClass) -> usize {
        self.node_total(Delivered, node, class)
    }

    /// Counts transmissions by `node` with the given class.  O(1).
    pub fn sent_count(&self, node: NodeId, class: TrafficClass) -> usize {
        self.node_total(Sent, node, class)
    }

    /// Total deliveries across all nodes for a class.  O(1).
    pub fn total_delivered(&self, class: TrafficClass) -> usize {
        self.global.0[Delivered as usize][class.index()] as usize
    }

    /// Total transmissions across all nodes for a class.  O(1).
    pub fn total_sent(&self, class: TrafficClass) -> usize {
        self.global.0[Sent as usize][class.index()] as usize
    }

    /// Total loss events for a class.  O(1).
    pub fn total_dropped(&self, class: TrafficClass) -> usize {
        self.drop_total[class.index()] as usize
    }

    /// Number of nodes with at least one recorded observation (dense
    /// upper bound for iterating aggregate tables).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap bytes this recorder currently holds.  The
    /// scaling harness asserts this stays zero in
    /// [`RecorderMode::Aggregate`] — independent of node count and
    /// traffic volume.
    pub fn resident_bytes(&self) -> usize {
        let record = std::mem::size_of::<Record>();
        self.deliveries.capacity() * record
            + self.transmissions.capacity() * record
            + self.drops.capacity() * std::mem::size_of::<DropRecord>()
            + self.nodes.capacity() * std::mem::size_of::<Stats>()
    }

    /// Sums another recorder's counts into this one: global per-class
    /// totals, drop counts, and (when present) per-node counts.  Used to
    /// reassemble [`RecorderMode::Streaming`] / [`RecorderMode::Aggregate`]
    /// recorders that each counted part of one run; the tables are
    /// commutative sums, so the order of the parts cannot matter.
    pub(crate) fn absorb_totals(&mut self, other: &Recorder) {
        debug_assert_eq!(self.mode, other.mode, "summed recorders share one mode");
        self.global.absorb(&other.global);
        for (mine, theirs) in self.drop_total.iter_mut().zip(&other.drop_total) {
            *mine += theirs;
        }
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize_with(other.nodes.len(), Stats::default);
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            mine.absorb(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeEvent, ProbeRecord, ProbeSink};
    use crate::queue::EventKey;
    use crate::shard::{merge_by_key, Observation};

    fn rec(node: u32, class: TrafficClass) -> Record {
        rec_at(0, node, class)
    }

    fn rec_at(t_ms: u64, node: u32, class: TrafficClass) -> Record {
        Record {
            time: SimTime::from_millis(t_ms),
            node: NodeId(node),
            src: NodeId(0),
            class,
            bytes: 10,
            channel: ChannelId(0),
        }
    }

    #[test]
    fn loss_applies_to_data_and_repairs_only() {
        assert!(TrafficClass::Data.lossy());
        assert!(TrafficClass::Repair.lossy());
        assert!(!TrafficClass::Nack.lossy());
        assert!(!TrafficClass::Session.lossy());
        assert!(!TrafficClass::Control.lossy());
    }

    #[test]
    fn class_indices_are_dense_and_stable() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn recorder_counts_filter_correctly() {
        let mut r = Recorder::default();
        r.record_delivery(rec(1, TrafficClass::Data));
        r.record_delivery(rec(1, TrafficClass::Data));
        r.record_delivery(rec(1, TrafficClass::Nack));
        r.record_delivery(rec(2, TrafficClass::Data));
        r.record_transmission(rec(0, TrafficClass::Data));

        assert_eq!(r.delivered_count(NodeId(1), TrafficClass::Data), 2);
        assert_eq!(r.delivered_count(NodeId(2), TrafficClass::Data), 1);
        assert_eq!(r.delivered_count(NodeId(2), TrafficClass::Nack), 0);
        assert_eq!(r.delivered_count(NodeId(99), TrafficClass::Data), 0);
        assert_eq!(r.sent_count(NodeId(0), TrafficClass::Data), 1);
        assert_eq!(r.total_delivered(TrafficClass::Data), 3);
        assert_eq!(r.total_sent(TrafficClass::Data), 1);

        // Raw mode keeps the events themselves.
        assert_eq!(r.deliveries.len(), 4);
        assert_eq!(r.transmissions.len(), 1);
    }

    #[test]
    fn streaming_mode_bins_and_keeps_no_raw_events() {
        let mut r = Recorder::new(RecorderMode::Streaming);
        r.record_delivery(rec_at(10, 1, TrafficClass::Data));
        r.record_delivery(rec_at(99, 1, TrafficClass::Data));
        r.record_delivery(rec_at(350, 1, TrafficClass::Data));
        r.record_transmission(rec_at(120, 0, TrafficClass::Nack));

        assert!(r.deliveries.is_empty(), "streaming keeps no raw events");
        assert!(r.transmissions.is_empty());
        assert_eq!(r.delivered_count(NodeId(1), TrafficClass::Data), 3);
        assert_eq!(r.total_sent(TrafficClass::Nack), 1);
        assert_eq!(r.sent_count(NodeId(0), TrafficClass::Nack), 1);
        // Unseen (node, class) pairs read as zero.
        assert_eq!(r.delivered_count(NodeId(9), TrafficClass::Data), 0);
    }

    #[test]
    fn drops_are_counted_in_both_modes() {
        let drop = DropRecord {
            time: SimTime::from_millis(5),
            from: NodeId(0),
            to: NodeId(1),
            class: TrafficClass::Data,
        };
        let mut raw = Recorder::default();
        raw.record_drop(drop.clone());
        assert_eq!(raw.total_dropped(TrafficClass::Data), 1);
        assert_eq!(raw.drops.len(), 1);

        let mut streaming = Recorder::new(RecorderMode::Streaming);
        streaming.record_drop(drop);
        assert_eq!(streaming.total_dropped(TrafficClass::Data), 1);
        assert!(streaming.drops.is_empty());
    }

    #[test]
    fn aggregate_mode_keeps_global_bins_and_no_per_node_state() {
        let mut r = Recorder::new(RecorderMode::Aggregate);
        r.record_delivery(rec_at(10, 1, TrafficClass::Data));
        r.record_delivery(rec_at(99, 2, TrafficClass::Data));
        r.record_delivery(rec_at(350, 3, TrafficClass::Session));
        r.record_transmission(rec_at(120, 0, TrafficClass::Nack));

        assert!(r.deliveries.is_empty() && r.transmissions.is_empty());
        assert_eq!(r.node_count(), 0, "no per-node tables at all");
        assert_eq!(r.delivered_count(NodeId(1), TrafficClass::Data), 0);

        // Global totals still answer.
        assert_eq!(r.total_delivered(TrafficClass::Data), 2);
        assert_eq!(r.total_delivered(TrafficClass::Session), 1);
        assert_eq!(r.total_sent(TrafficClass::Nack), 1);
    }

    #[test]
    fn aggregate_mode_memory_is_o_bins_not_o_packets() {
        // Record 10× the traffic into the same time window from many
        // different nodes: resident bytes must not move at all.
        let record = |events: u32| -> usize {
            let mut r = Recorder::new(RecorderMode::Aggregate);
            for i in 0..events {
                r.record_delivery(rec_at((i % 1000) as u64, i % 5000, TrafficClass::Data));
            }
            r.resident_bytes()
        };
        let small = record(2_000);
        let large = record(20_000);
        assert_eq!(
            small, large,
            "aggregate-mode footprint must not depend on traffic volume"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TrafficClass::Repair.label(), "repair");
        assert_eq!(TrafficClass::Session.label(), "session");
    }

    fn probe(group: u32) -> ProbeRecord {
        ProbeRecord {
            time: SimTime::from_millis(15),
            node: NodeId(2),
            event: ProbeEvent::ZlcUpdate {
                group,
                level: 0,
                observed: 1.0,
                pred: 0.0,
            },
        }
    }

    /// Replays shard a's journal (the 10 ms event) and shard b's (the 15 ms
    /// one, two sends and two probes, and the 20 ms one), in both orders.
    fn replay_journals_both_ways() -> [(Recorder, ProbeSink); 2] {
        use {Observation::*, TrafficClass::*};
        let key = |t_ms, origin, oseq| EventKey {
            time: SimTime::from_millis(t_ms),
            push_time: SimTime::ZERO,
            origin,
            oseq,
        };
        [false, true].map(|swap| {
            let a = vec![(key(10, 1, 0), Delivery(rec_at(10, 1, Data)))];
            let b = vec![
                (key(15, 2, 0), Transmission(rec_at(15, 2, Data))),
                (key(15, 2, 0), Probe(probe(0))),
                (key(15, 2, 0), Transmission(rec_at(15, 2, Repair))),
                (key(15, 2, 0), Probe(probe(1))),
                (key(20, 2, 1), Delivery(rec_at(20, 3, Data))),
            ];
            let parts = if swap { vec![b, a] } else { vec![a, b] };
            let (mut merged, mut probes) = (Recorder::default(), ProbeSink::recording());
            merge_by_key(parts, |obs| obs.replay(&mut merged, &mut probes));
            (merged, probes)
        })
    }

    #[test]
    fn merge_raw_parts_rebuilds_serial_order_regardless_of_part_order() {
        let mut serial = Recorder::default();
        serial.record_delivery(rec_at(10, 1, TrafficClass::Data));
        serial.record_transmission(rec_at(15, 2, TrafficClass::Data));
        serial.record_transmission(rec_at(15, 2, TrafficClass::Repair));
        serial.record_delivery(rec_at(20, 3, TrafficClass::Data));
        for (merged, _) in replay_journals_both_ways() {
            assert_eq!(merged.deliveries, serial.deliveries);
            assert_eq!(merged.transmissions, serial.transmissions);
            assert_eq!(merged.delivered_count(NodeId(1), TrafficClass::Data), 1);
            assert_eq!(merged.total_sent(TrafficClass::Repair), 1);
        }
    }

    #[test]
    fn merge_raw_parts_keeps_same_event_records_in_shard_order() {
        for (merged, probes) in replay_journals_both_ways() {
            let classes: Vec<_> = merged.transmissions.iter().map(|r| r.class).collect();
            assert_eq!(classes, [TrafficClass::Data, TrafficClass::Repair]);
            assert_eq!(probes.records(), [probe(0), probe(1)]);
        }
    }

    #[test]
    fn absorb_totals_sums_streaming_tables() {
        // Node 2 is seen by both parts, nodes 1 and 7 by one each: the
        // merged counts must equal recording the union into one recorder.
        let drop = DropRecord {
            time: SimTime::from_millis(5),
            from: NodeId(0),
            to: NodeId(1),
            class: TrafficClass::Data,
        };
        let a = [
            rec_at(10, 1, TrafficClass::Data),
            rec_at(20, 2, TrafficClass::Data),
            rec_at(30, 2, TrafficClass::Nack),
        ];
        let b = [
            rec_at(350, 2, TrafficClass::Data),
            rec_at(120, 7, TrafficClass::Repair),
        ];
        for mode in [RecorderMode::Streaming, RecorderMode::Aggregate] {
            let mut union = Recorder::new(mode);
            let mut merged = Recorder::new(mode);
            for (events, drops) in [(&a[..], 1), (&b[..], 2)] {
                let mut part = Recorder::new(mode);
                for r in events {
                    part.record_delivery(r.clone());
                    union.record_delivery(r.clone());
                }
                part.record_transmission(events[0].clone());
                union.record_transmission(events[0].clone());
                for _ in 0..drops {
                    part.record_drop(drop.clone());
                    union.record_drop(drop.clone());
                }
                merged.absorb_totals(&part);
            }
            assert_eq!(merged.nodes, union.nodes);
            assert_eq!(merged.global, union.global);
            assert_eq!(merged.drop_total, union.drop_total);
            assert_eq!(merged.total_dropped(TrafficClass::Data), 3);
            assert_eq!(merged.total_delivered(TrafficClass::Data), 3);
            let per_node = mode == RecorderMode::Streaming;
            assert_eq!(merged.node_count(), if per_node { 8 } else { 0 });
            let at_2 = merged.delivered_count(NodeId(2), TrafficClass::Data);
            assert_eq!(at_2, if per_node { 2 } else { 0 });
        }
    }

    #[test]
    fn resident_bytes_do_not_grow_with_the_horizon() {
        // The same per-node event set spread over 1 s and over 1000 s.
        let record = |mode: RecorderMode, stretch: u64| -> usize {
            let mut r = Recorder::new(mode);
            for i in 0..1000u32 {
                let t_ms = u64::from(i) * stretch;
                r.record_delivery(rec_at(t_ms, i % 50, TrafficClass::Data));
                r.record_transmission(rec_at(t_ms, i % 7, TrafficClass::Nack));
            }
            r.resident_bytes()
        };
        let short = record(RecorderMode::Streaming, 1);
        assert!(short > 0, "streaming keeps per-node counts");
        assert_eq!(short, record(RecorderMode::Streaming, 1000));
        assert_eq!(record(RecorderMode::Aggregate, 1), 0);
        assert_eq!(record(RecorderMode::Aggregate, 1000), 0);
    }
}

//! Direct probes of the layers `Engine::advance` hides, sized from the
//! workload's own counts and driven only through public functions.
//!
//! Every probe reports a best-of-N: the work is deterministic, so the
//! fastest pass is the one the host disturbed least.

use crate::workloads::{H, K};
use sharqfec::SharqfecConfig;
use sharqfec_fec::codec::{DecodeScratch, GroupCodec};
use sharqfec_gf256::{mul_acc_slice, mul_slice, Gf256};
use sharqfec_netsim::metrics::Record;
use sharqfec_netsim::prelude::*;
use sharqfec_netsim::queue::EventQueue;
use sharqfec_netsim::routing::{DistanceOracle, Spt};
use sharqfec_scoping::{ZoneHierarchy, ZoneId};
use sharqfec_session::core::{SessionCore, SessionCtx, ZcrSeeding};
use sharqfec_session::msg::SessionMsg;
use sharqfec_session::SessionConfig;
use sharqfec_srm::{setup_srm_builder, SrmConfig};
use sharqfec_topology::{figure10, BuiltTopology, Figure10Params};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fastest of `passes` runs of `f`, in seconds.
fn best_secs(passes: usize, mut f: impl FnMut()) -> f64 {
    (0..passes)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `netsim.queue.push_pop_ns`: one pop plus one push on an [`EventQueue`]
/// held at `pending` entries (the classic hold model), ns per pair.
pub fn queue_push_pop_ns(pending: usize, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending.max(1) {
        q.push(SimTime(rng.below(1_000_000_000)), i as u64);
    }
    let secs = best_secs(5, || {
        for _ in 0..OPS {
            let (t, item) = q.pop().expect("held at a constant size");
            q.push(t + SimDuration(1 + rng.below(1_000_000_000)), item);
        }
    });
    black_box(q.len());
    secs * 1e9 / OPS as f64
}

#[derive(Clone, Debug)]
struct Blob;
impl Classify for Blob {
    fn class(&self) -> TrafficClass {
        TrafficClass::Data
    }
}

/// Timer-driven source: one 1000 B multicast per millisecond.
struct Cbr {
    chan: ChannelId,
    left: u32,
}
impl Agent<Blob> for Cbr {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Blob>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_packet(&mut self, _: &mut Ctx<'_, Blob>, _: &Packet<Blob>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Blob>, _: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.multicast(self.chan, Blob, 1000);
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

struct Sink;
impl Agent<Blob> for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_, Blob>, _: &Packet<Blob>) {}
}

/// The zone of `built` whose fan-out (members minus the sender) is
/// closest to `fanout`.
fn zone_near_fanout(built: &BuiltTopology, fanout: usize) -> ZoneId {
    built
        .hierarchy
        .zones()
        .iter()
        .min_by_key(|z| (z.members.len() - 1).abs_diff(fanout))
        .expect("a hierarchy has a root zone")
        .id
}

/// `netsim.fanout.delivery_ns`: a bare multicast storm with do-nothing
/// agents over the workload's own zone closest to its mean fan-out, ns per
/// delivery.  Packet interning, tree forwarding and the queue do all the
/// work.  (`PacketArena` itself is private to `netsim`, so this stands in
/// for a direct arena probe.)
pub fn fanout_delivery_ns(built: &BuiltTopology, fanout: usize) -> f64 {
    let zone = built.hierarchy.zone(zone_near_fanout(built, fanout));
    let sender = built.zcr(zone.id);
    let packets = (400_000 / zone.members.len().max(1)).clamp(50, 2_000) as u32;
    let mut deliveries = 0usize;
    let secs = (0..3)
        .map(|_| {
            let mut b: EngineBuilder<Blob> = EngineBuilder::new(built.topology.clone(), 1);
            b.recorder_mode(RecorderMode::Aggregate);
            let chan = b.add_channel(&zone.members);
            for &m in &zone.members {
                if m == sender {
                    b.add_agent(
                        m,
                        Box::new(Cbr {
                            chan,
                            left: packets,
                        }),
                    );
                } else {
                    b.add_agent(m, Box::new(Sink));
                }
            }
            let mut e = b.build();
            let t = Instant::now();
            e.advance(RunSpec::drain());
            let secs = t.elapsed().as_secs_f64();
            deliveries = e.recorder().total_delivered(TrafficClass::Data);
            secs
        })
        .fold(f64::INFINITY, f64::min);
    secs * 1e9 / deliveries.max(1) as f64
}

/// `netsim.routing.spt_compute_us`: one shortest-path tree from the source.
pub fn spt_compute_us(built: &BuiltTopology) -> f64 {
    best_secs(20, || {
        black_box(Spt::compute(&built.topology, built.source));
    }) * 1e6
}

/// `netsim.routing.oracle_compute_ms`: the all-pairs distance oracle.
pub fn oracle_compute_ms(built: &BuiltTopology) -> f64 {
    best_secs(5, || {
        black_box(DistanceOracle::compute(&built.topology));
    }) * 1e3
}

/// `netsim.recorder.record_ns.*`: one `record_delivery` in `mode`, over
/// `nodes` nodes and the paper's 0.1 s bins.
pub fn recorder_record_ns(mode: RecorderMode, nodes: usize, seed: u64) -> f64 {
    const RECORDS: usize = 200_000;
    let mut rng = SimRng::new(seed);
    let input: Vec<Record> = (0..RECORDS)
        .map(|i| Record {
            // Time rises as in a run; 10 simulated seconds overall.
            time: SimTime(i as u64 * 50_000),
            node: NodeId(rng.below(nodes.max(1) as u64) as u32),
            src: NodeId(0),
            class: if i % 8 == 0 {
                TrafficClass::Data
            } else {
                TrafficClass::Session
            },
            bytes: 1000,
            channel: ChannelId(0),
        })
        .collect();
    best_secs(5, || {
        let mut rec = Recorder::new(mode);
        for r in &input {
            rec.record_delivery(r.clone());
        }
        black_box(rec.total_delivered(TrafficClass::Data));
    }) * 1e9
        / RECORDS as f64
}

/// `netsim.auditor.ingest_ns`: the workload's recorded probe stream
/// replayed into a fresh [`Auditor`], ns per record.
pub fn auditor_ingest_ns(records: &[ProbeRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let passes = (200_000 / records.len()).clamp(1, 200);
    best_secs(5, || {
        for _ in 0..passes {
            let mut auditor = Auditor::new(AuditConfig::default());
            for r in records {
                auditor.ingest(r);
            }
            black_box(auditor.report(SimTime::MAX).events);
        }
    }) * 1e9
        / (passes * records.len()) as f64
}

/// The host a [`SessionCore`] runs against in the session probe: a clock,
/// an RNG, an outbox and a timer list.
struct MockHost {
    now: SimTime,
    rng: SimRng,
    outbox: Vec<(ZoneId, SessionMsg)>,
    /// `(due, id, token)`; cancelled timers are removed.
    timers: Vec<(SimTime, u64, u64)>,
    next_timer: u64,
}

impl SessionCtx for MockHost {
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn send(&mut self, zone: ZoneId, msg: SessionMsg, _bytes: u32) {
        self.outbox.push((zone, msg));
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.next_timer += 1;
        self.timers.push((self.now + delay, self.next_timer, token));
        TimerId(self.next_timer)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.timers.retain(|&(_, i, _)| i != id.0);
    }
}

/// `(session.on_msg_ns, session.on_timer_ns)`: the members of the
/// workload's first leaf zone as bare [`SessionCore`]s over mock hosts,
/// exchanging their own announcements and election traffic for ten
/// simulated seconds with a 5 ms hop.  Costs are per call.
pub fn session_ns(built: &BuiltTopology, seed: u64) -> (f64, f64) {
    const TICK: SimDuration = SimDuration::from_millis(5);
    const TICKS: u64 = 2_000;
    let hier: Arc<ZoneHierarchy> = Arc::new(built.hierarchy.clone());
    let zone = hier.leaves()[0];
    let members = hier.zone(zone).members.clone();
    let seeding = ZcrSeeding::Designed(built.designed_zcrs.clone());

    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let mut nodes: Vec<(SessionCore, MockHost)> = members
            .iter()
            .map(|&m| {
                let core =
                    SessionCore::new(m, Arc::clone(&hier), SessionConfig::default(), &seeding);
                let host = MockHost {
                    now: SimTime::from_secs(1),
                    rng: SimRng::new(seed ^ u64::from(m.0)),
                    outbox: Vec::new(),
                    timers: Vec::new(),
                    next_timer: 0,
                };
                (core, host)
            })
            .collect();
        for (core, host) in &mut nodes {
            core.start(host);
        }
        let (mut msg_ns, mut msg_calls, mut timer_ns, mut timer_calls) = (0u128, 0u64, 0u128, 0u64);
        let mut in_flight: Vec<(usize, ZoneId, SessionMsg)> = Vec::new();
        for tick in 0..TICKS {
            let now = SimTime::from_secs(1) + SimDuration(TICK.0 * tick);
            for (_, host) in &mut nodes {
                host.now = now;
            }
            // Last tick's sends arrive at every other member of the
            // destination zone present in this set.
            let t = Instant::now();
            for (from, zone, msg) in &in_flight {
                let src = members[*from];
                for (i, (core, host)) in nodes.iter_mut().enumerate() {
                    if i != *from && hier.is_member(*zone, members[i]) {
                        core.on_msg(host, src, msg);
                        msg_calls += 1;
                    }
                }
            }
            msg_ns += t.elapsed().as_nanos();
            in_flight.clear();

            let t = Instant::now();
            for (core, host) in &mut nodes {
                // Fire in (due, id) order, as the engine would.
                loop {
                    let due = host
                        .timers
                        .iter()
                        .filter(|&&(at, _, _)| at <= now)
                        .min()
                        .copied();
                    let Some(timer) = due else { break };
                    host.timers.retain(|&x| x != timer);
                    core.on_timer(host, timer.2);
                    timer_calls += 1;
                }
            }
            timer_ns += t.elapsed().as_nanos();

            for (i, (_, host)) in nodes.iter_mut().enumerate() {
                in_flight.extend(host.outbox.drain(..).map(|(z, m)| (i, z, m)));
            }
        }
        best.0 = best.0.min(msg_ns as f64 / msg_calls.max(1) as f64);
        best.1 = best.1.min(timer_ns as f64 / timer_calls.max(1) as f64);
    }
    best
}

/// `core.policy.injected_ns`: one ZLC measurement folded in plus one
/// injection decision on the default policy, ns per pair.
pub fn policy_injected_ns() -> f64 {
    const OPS: u32 = 1_000_000;
    const LEVELS: usize = 3;
    let cfg = SharqfecConfig::full();
    let mut policy = cfg.policy.build(LEVELS);
    let mut total = 0usize;
    let secs = best_secs(5, || {
        for i in 0..OPS {
            let level = i as usize % LEVELS;
            policy.on_zlc_measurement(level, f64::from(i % 5));
            total += policy.injected(level, cfg.group_size);
        }
    });
    black_box(total);
    secs * 1e9 / f64::from(OPS)
}

/// `srm.fig10.advance_s`: the SRM arm on the lossy Figure 10 network with
/// 128 packets — the only cover for SRM's request and repair timers, which
/// the lossless `srm_500` never arms.
pub fn srm_fig10_advance_s(seed: u64) -> f64 {
    let built = figure10(&Figure10Params::default());
    let cfg = SrmConfig {
        total_packets: 128,
        ..SrmConfig::default()
    };
    let horizon = SimTime::from_millis(6_000 + 10 * 128 + 45_000);
    (0..5)
        .map(|_| {
            let mut b = setup_srm_builder(&built, seed, cfg.clone(), SimTime::from_secs(1));
            b.recorder_mode(RecorderMode::Streaming);
            let mut e = b.build();
            let t = Instant::now();
            black_box(e.advance(RunSpec::to(horizon)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `(encode MB/s, decode MB/s)` of [`GroupCodec`] at the paper's group
/// shape with `len`-byte shards, counted in data bytes.  Decode is the
/// worst case: the first `H` data shards are missing.
pub fn codec_mb_s(len: usize) -> (f64, f64) {
    let iters = (4_000_000 / (K * len)).max(64);
    let codec = GroupCodec::new(K, H).expect("the paper's group shape is valid");
    let data: Vec<Vec<u8>> = (0..K)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 131 + j * 17 + 3) % 256) as u8)
                .collect()
        })
        .collect();
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; len]; H];
    let enc = best_secs(5, || {
        for _ in 0..iters {
            let mut bufs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec
                .encode_into(&data_refs, &mut bufs)
                .expect("a well-formed group encodes");
        }
    });
    let shards: Vec<(usize, &[u8])> = (H..K)
        .map(|i| (i, data[i].as_slice()))
        .chain((0..H).map(|j| (K + j, parity[j].as_slice())))
        .collect();
    let mut scratch = DecodeScratch::default();
    let dec = best_secs(5, || {
        for _ in 0..iters {
            let rec = codec
                .decode(&shards, &mut scratch)
                .expect("k shards decode");
            black_box(rec.flat().len());
        }
    });
    let mb = (iters * K * len) as f64 / 1e6;
    (mb / enc, mb / dec)
}

/// `(gf256.mul_acc_gb_s, gf256.mul_gb_s)` over 64 KiB buffers.
pub fn gf256_gb_s() -> (f64, f64) {
    const LEN: usize = 64 * 1024;
    const PASSES: usize = 2_048;
    let src: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; LEN];
    // Coefficients cycle so no pass hits the c == 0 / c == 1 fast paths.
    let coeff = |p: usize| Gf256((p % 254 + 2) as u8);
    let acc = best_secs(5, || {
        for p in 0..PASSES {
            mul_acc_slice(&mut dst, &src, coeff(p));
        }
    });
    let mul = best_secs(5, || {
        for p in 0..PASSES {
            mul_slice(&mut dst, coeff(p));
        }
    });
    black_box(&dst);
    let gb = (LEN * PASSES) as f64 / 1e9;
    (gb / acc, gb / mul)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharqfec_topology::{scaled_tree, ScaledTreeParams};

    #[test]
    fn probes_return_positive_finite_numbers() {
        let built = scaled_tree(&ScaledTreeParams::for_receivers(60), 42).built;
        let (on_msg, on_timer) = session_ns(&built, 42);
        for v in [
            queue_push_pop_ns(100, 42),
            fanout_delivery_ns(&built, 10),
            spt_compute_us(&built),
            recorder_record_ns(RecorderMode::Streaming, 60, 42),
            on_msg,
            on_timer,
        ] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
        assert_eq!(auditor_ingest_ns(&[]), 0.0);
    }

    #[test]
    fn fanout_zone_is_the_closest_match() {
        let built = scaled_tree(&ScaledTreeParams::for_receivers(200), 42).built;
        let all = built.receivers.len();
        assert_eq!(zone_near_fanout(&built, all), ZoneId::ROOT);
        let z = zone_near_fanout(&built, 1);
        assert!(built.hierarchy.zone(z).members.len() < all);
    }
}

//! The five workloads: what a repetition builds (set-up) and what it runs.
//!
//! A repetition is *set-up* (build the world from generated inputs)
//! followed by *run* (advance to the horizon and extract results).  Every
//! simulated cell is rebuilt here from the layers' public functions — the
//! committed cells in `crates/bench` are matched by the cross-check tests,
//! not linked.  Why each workload exists is recorded in `README.md` and in
//! `BENCHMARK.json`.

use crate::spans::Tracer;
use sharqfec::{member_channels, setup_sharqfec_scenario_builder, SfAgent, SfMsg, SharqfecConfig};
use sharqfec_analysis::series::{bin_deliveries, BinSpec};
use sharqfec_fec::group::{GroupDecoder, GroupEncoder};
use sharqfec_netsim::prelude::*;
use sharqfec_netsim::rng::SimRng;
use sharqfec_netsim::Classify;
use sharqfec_srm::{setup_srm_builder, SrmConfig, SrmMsg, SrmReceiver};
use sharqfec_topology::{
    figure10, scaled_tree, BuiltTopology, Figure10Params, ScaledTopology, ScaledTreeParams,
};
use std::sync::Arc;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "fig10_repair",
    "session_1k",
    "srm_500",
    "flash_churn_500",
    "codec_object",
];

/// Named counts a repetition produced.  Simulated statistics only — no
/// host time — so identical inputs must give identical counts.
pub type Counts = Vec<(&'static str, u64)>;

/// The value of `key` in `counts` (0 if absent).
pub fn count(counts: &Counts, key: &str) -> u64 {
    counts
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |&(_, v)| v)
}

/// Keys of [`Counts`] pinned in `expected.json` at seed 42.  `events` and
/// the engine-internal gauges are reported but not pinned: an engine
/// optimisation may legitimately change them.
pub const PINNED: [&str; 16] = [
    "unrecovered",
    "nacks_sent",
    "repairs_sent",
    "delivered_session",
    "delivered_data",
    "delivered_repair",
    "delivered_nack",
    "dropped",
    "time_to_complete_ns",
    "audit_events",
    "audit_violations",
    "binned_data_repair_milli",
    "groups",
    "shards_lost",
    "object_hash",
    "decoded_hash",
];

/// What one repetition's run phase reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Simulated statistics and gauges.
    pub counts: Counts,
    /// Ops owed: (receiver, packet) pairs at the horizon, or FEC groups.
    pub attempted: u64,
    /// Ops that failed: unrecovered packets, audit violations, groups
    /// whose decoded bytes differ.
    pub failed: u64,
}

/// A workload the measurement loop can repeat.
pub trait Bench {
    /// What set-up builds and run consumes.
    type World;
    /// Builds the world.  Spans go to `tr`.
    fn setup(&self, tr: &mut Tracer) -> Self::World;
    /// Runs the world to completion and extracts results.
    fn run(&self, world: &mut Self::World, tr: &mut Tracer) -> Outcome;
}

/// Arms of one invocation share a bench.
impl<B: Bench> Bench for &B {
    type World = B::World;

    fn setup(&self, tr: &mut Tracer) -> B::World {
        (**self).setup(tr)
    }

    fn run(&self, world: &mut B::World, tr: &mut Tracer) -> Outcome {
        (**self).run(world, tr)
    }
}

// ---------------------------------------------------------------------------
// Simulation workloads
// ---------------------------------------------------------------------------

/// Which protocol a simulated workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Full SHARQFEC.
    Sharqfec,
    /// The SRM baseline with its session layer on.
    Srm,
}

#[derive(Clone, Copy, Debug)]
enum Topo {
    /// The paper's lossy Figure 10 network (112 receivers).
    Figure10,
    /// `topology::scaled` tree with this many receivers.
    Scaled { receivers: usize, lossless: bool },
}

/// A simulated cell: everything but the seed.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// Protocol under test.
    pub proto: Proto,
    topo: Topo,
    packets: u32,
    /// When the stream starts; the join phase ends here.
    pub data_start: SimTime,
    /// Run horizon.
    pub horizon: SimTime,
    recorder: RecorderMode,
    /// `true`: the record-keeping auditor (`EngineBuilder::audit`);
    /// `false`: the streaming one.
    audit_keeps_records: bool,
    /// Flash crowd of this size + churn + regional outage, with this cap
    /// on the request-backoff exponent (the `scenario` recipe).
    flash: Option<(usize, u32)>,
    /// Bin the raw records as `fig14_21_traffic` does.
    binned: bool,
    /// Also time the cell without its auditor in a traced invocation
    /// (the workloads whose auditor is busy).
    pub audit_arm: bool,
    /// Also time the cell at 2 shards in a traced invocation.
    pub two_shard_arm: bool,
}

/// The scaled-tree generator's seed.  The network is part of a workload's
/// definition, as Figure 10 is: `--seed` draws what happens on it (losses,
/// timer jitter, the churn schedule), not its shape.  Zone sizes move host
/// time by several percent, which would hide changes of the size the
/// bounds are meant to catch.  At seed 42 this is the committed cells'
/// tree.
const TOPOLOGY_SEED: u64 = 42;

const SEND_INTERVAL_MS: u64 = 10;
const JOIN_AT: SimTime = SimTime::from_secs(1);

// The committed `scenario` recipe's timeline (crates/bench/src/scenario.rs).
const FLASH_AT: SimTime = SimTime::from_millis(2_250);
const CHURN_WINDOW: (SimTime, SimTime) = (SimTime::from_secs(1), SimTime::from_secs(8));
const CHURN_MEAN_SESSION: SimDuration = SimDuration::from_millis(1_500);
const CHURN_MEAN_DOWN: SimDuration = SimDuration::from_millis(400);
const CHURN_POOL: usize = 6;
const OUTAGE: (SimTime, SimTime) = (SimTime::from_millis(2_100), SimTime::from_millis(2_600));
/// The recipe caps the request backoff at 2^5.  At that cap roughly one
/// seed in eight leaves a churned receiver between retries at the 25 s
/// horizon (it completes by 40-50 s); at 2^3 (and 2^4) none of 124 seeds
/// tried did, and a benchmark workload must not fail ops at any seed.
#[cfg(test)]
const RECIPE_MAX_BACKOFF: u32 = 5;
const WORKLOAD_MAX_BACKOFF: u32 = 3;

impl SimSpec {
    /// The simulated workload called `name`, if it is one.
    pub fn named(name: &str) -> Option<SimSpec> {
        Some(match name {
            // §6.2: 1024 x 1000 B packets from t = 6 s, 45 s tail.
            "fig10_repair" => SimSpec {
                proto: Proto::Sharqfec,
                topo: Topo::Figure10,
                packets: 1024,
                data_start: SimTime::from_secs(6),
                horizon: SimTime::from_millis(6_000 + 10 * 1024 + 45_000),
                recorder: RecorderMode::Raw,
                audit_keeps_records: true,
                flash: None,
                binned: true,
                audit_arm: true,
                two_shard_arm: false,
            },
            "session_1k" => SimSpec {
                two_shard_arm: true,
                ..SimSpec::scale_cell(Proto::Sharqfec, 1_000)
            },
            "srm_500" => SimSpec::scale_cell(Proto::Srm, 500),
            "flash_churn_500" => SimSpec::scenario_cell(256, WORKLOAD_MAX_BACKOFF),
            _ => return None,
        })
    }

    /// A `scale_sweep` cell: lossless scaled tree, 32 packets, 8 s.
    fn scale_cell(proto: Proto, receivers: usize) -> SimSpec {
        SimSpec {
            proto,
            topo: Topo::Scaled {
                receivers,
                lossless: true,
            },
            packets: 32,
            data_start: SimTime::from_secs(6),
            horizon: SimTime::from_secs(8),
            recorder: RecorderMode::Aggregate,
            audit_keeps_records: false,
            flash: None,
            binned: false,
            audit_arm: false,
            two_shard_arm: false,
        }
    }

    /// The `scenario_sweep` recipe `n=500/flash=256/churn=on/outage=on`
    /// with a `packets`-long stream and the given request-backoff cap.
    fn scenario_cell(packets: u32, max_backoff: u32) -> SimSpec {
        SimSpec {
            proto: Proto::Sharqfec,
            topo: Topo::Scaled {
                receivers: 500,
                lossless: false,
            },
            packets,
            data_start: SimTime::from_secs(2),
            horizon: SimTime::from_secs(25),
            recorder: RecorderMode::Streaming,
            audit_keeps_records: false,
            flash: Some((256, max_backoff)),
            binned: false,
            audit_arm: true,
            two_shard_arm: false,
        }
    }

    /// The workload's own recorder mode.
    pub fn recorder(&self) -> RecorderMode {
        self.recorder
    }

    /// Stream length in packets.
    pub fn packets(&self) -> u32 {
        self.packets
    }

    /// When the source sends its last data packet.
    pub fn stream_end(&self) -> SimTime {
        self.data_start + SimDuration::from_millis(SEND_INTERVAL_MS * u64::from(self.packets))
    }
}

/// Builder options a differential measurement flips; the workload's own
/// values are [`Toggles::default`].
#[derive(Clone, Copy, Debug)]
pub struct Toggles {
    /// Attach the auditor.
    pub audit: bool,
    /// Override the recorder mode.
    pub recorder: Option<RecorderMode>,
    /// Keep the probe records for replay (forces the record-keeping
    /// auditor).
    pub keep_probes: bool,
    /// Engine shards (1 = serial).
    pub shards: usize,
}

impl Default for Toggles {
    fn default() -> Toggles {
        Toggles {
            audit: true,
            recorder: None,
            keep_probes: false,
            shards: 1,
        }
    }
}

/// A simulated workload at one seed.
#[derive(Clone, Copy, Debug)]
pub struct SimBench {
    /// The cell.
    pub spec: SimSpec,
    /// Seeds the engine (losses, timer jitter) and the churn process.
    pub seed: u64,
    /// Builder options.
    pub toggles: Toggles,
}

/// The engine of a built world.
pub enum Engines {
    /// A SHARQFEC simulation.
    Sf(Engine<SfMsg>),
    /// An SRM simulation.
    Srm(Engine<SrmMsg>),
}

/// A built simulation, ready to advance.
pub struct SimWorld {
    /// The network and its zone hierarchy.
    pub built: BuiltTopology,
    /// The engine with every agent attached.
    pub engine: Engines,
    plan: Option<Arc<ShardPlan>>,
}

/// The flash-crowd members: leaf receivers from the back of the zone list
/// (hubs skipped; the first two leaf zones are the churn pool and the
/// outage region) — the committed recipe's choice.
fn flash_joiners(built: &BuiltTopology, count: usize) -> Vec<NodeId> {
    let hier = &built.hierarchy;
    let mut out = Vec::with_capacity(count);
    'zones: for &z in hier.leaves().iter().skip(2).rev() {
        for &m in hier.zone(z).members[1..].iter().rev() {
            out.push(m);
            if out.len() == count {
                break 'zones;
            }
        }
    }
    assert_eq!(out.len(), count, "flash crowd exceeds the leaf receivers");
    out.sort_unstable();
    out
}

impl SimBench {
    /// The workload `spec` as committed, at `seed`.
    pub fn new(spec: SimSpec, seed: u64) -> SimBench {
        SimBench {
            spec,
            seed,
            toggles: Toggles::default(),
        }
    }

    fn generate(&self) -> ScaledOrPlain {
        match self.spec.topo {
            Topo::Figure10 => ScaledOrPlain::Plain(figure10(&Figure10Params::default())),
            Topo::Scaled {
                receivers,
                lossless,
            } => {
                let mut params = ScaledTreeParams::for_receivers(receivers);
                if lossless {
                    params.hub_loss = (0.0, 0.0);
                    params.leaf_loss = (0.0, 0.0);
                }
                ScaledOrPlain::Scaled(scaled_tree(&params, TOPOLOGY_SEED))
            }
        }
    }

    fn sharqfec_builder(&self, topo: &ScaledOrPlain) -> EngineBuilder<SfMsg> {
        let built = topo.built();
        let mut cfg = SharqfecConfig {
            total_packets: self.spec.packets,
            data_start: self.spec.data_start,
            ..SharqfecConfig::full()
        };
        let mut plan = ScenarioPlan::new();
        if let Some((flash, max_backoff)) = self.spec.flash {
            cfg.max_backoff = max_backoff;
            let hier = &built.hierarchy;
            let channels = |nodes: Vec<NodeId>| -> Vec<(NodeId, Vec<ChannelId>)> {
                nodes
                    .into_iter()
                    .map(|n| (n, member_channels(hier, n)))
                    .collect()
            };
            let joins = channels(flash_joiners(built, flash));
            plan = plan.batch_join(FLASH_AT, joins.iter().map(|(n, c)| (*n, c.as_slice())));
            let pool = channels(
                hier.zone(hier.leaves()[0]).members[1..]
                    .iter()
                    .copied()
                    .take(CHURN_POOL)
                    .collect(),
            );
            plan = plan.churn(
                self.seed,
                CHURN_WINDOW,
                CHURN_MEAN_SESSION,
                CHURN_MEAN_DOWN,
                pool.iter().map(|(n, c)| (*n, c.as_slice())),
            );
        }
        setup_sharqfec_scenario_builder(built, self.seed, cfg, JOIN_AT, plan, None)
    }

    fn srm_builder(&self, built: &BuiltTopology) -> EngineBuilder<SrmMsg> {
        let cfg = SrmConfig {
            total_packets: self.spec.packets,
            data_start: self.spec.data_start,
            session_announce: Some(SimDuration::from_millis(1_000)),
            announce_stride: 1,
            ..SrmConfig::default()
        };
        setup_srm_builder(built, self.seed, cfg, JOIN_AT)
    }

    /// Recorder, faults and auditor, then `EngineBuilder::build`.
    fn finish<M: Classify + Clone + Send + 'static>(
        &self,
        mut builder: EngineBuilder<M>,
        topo: &ScaledOrPlain,
    ) -> Engine<M> {
        let built = topo.built();
        builder.recorder_mode(self.toggles.recorder.unwrap_or(self.spec.recorder));
        let mut audit = AuditConfig::default();
        if self.spec.flash.is_some() {
            let ScaledOrPlain::Scaled(scaled) = topo else {
                unreachable!("scenario cells run on the scaled tree")
            };
            let zone = built.hierarchy.leaves()[1];
            builder.fault_plan(scaled.zone_outage(FaultPlan::new(), zone, OUTAGE.0, OUTAGE.1));
            // The recipe's NACK-storm cap, armed inside the excuse windows.
            audit.nack_sent_cap = Some(32 + 4 * built.hierarchy.zone_count() as u32);
        }
        if self.toggles.audit {
            if self.spec.audit_keeps_records || self.toggles.keep_probes {
                builder.audit(audit);
            } else {
                builder.audit_streaming(audit);
            }
        }
        builder.build()
    }
}

enum ScaledOrPlain {
    Plain(BuiltTopology),
    Scaled(ScaledTopology),
}

impl ScaledOrPlain {
    fn built(&self) -> &BuiltTopology {
        match self {
            ScaledOrPlain::Plain(b) => b,
            ScaledOrPlain::Scaled(s) => &s.built,
        }
    }

    fn into_built(self) -> BuiltTopology {
        match self {
            ScaledOrPlain::Plain(b) => b,
            ScaledOrPlain::Scaled(s) => s.built,
        }
    }
}

impl Bench for SimBench {
    type World = SimWorld;

    fn setup(&self, tr: &mut Tracer) -> SimWorld {
        let topo = tr.span("topology.generate", |_| self.generate());
        let engine = match self.spec.proto {
            Proto::Sharqfec => {
                let builder = tr.span("core.setup", |_| self.sharqfec_builder(&topo));
                Engines::Sf(tr.span("netsim.build", |_| self.finish(builder, &topo)))
            }
            Proto::Srm => {
                let builder = tr.span("srm.setup", |_| self.srm_builder(topo.built()));
                Engines::Srm(tr.span("netsim.build", |_| self.finish(builder, &topo)))
            }
        };
        let built = topo.into_built();
        let plan =
            (self.toggles.shards > 1).then(|| Arc::new(built.shard_plan(self.toggles.shards)));
        SimWorld {
            built,
            engine,
            plan,
        }
    }

    fn run(&self, world: &mut SimWorld, tr: &mut Tracer) -> Outcome {
        let SimWorld {
            built,
            engine,
            plan,
        } = world;
        match engine {
            Engines::Sf(e) => self.drive(
                e,
                built,
                plan.as_ref(),
                tr,
                |a: &SfAgent| a.missing(),
                |a: &SfAgent| a.completion_time(),
            ),
            // SRM receivers keep no completion instant; pinned as 0.
            Engines::Srm(e) => self.drive(
                e,
                built,
                plan.as_ref(),
                tr,
                |a: &SrmReceiver| a.missing(),
                |_: &SrmReceiver| Some(SimTime::ZERO),
            ),
        }
    }
}

/// The run's phases: `(span name, key of its event count)`.  The join
/// phase ends where the stream starts, the stream phase where the source
/// sends its last packet, the tail at the horizon.
const PHASES: [(&str, &str); 3] = [
    ("netsim.advance.join", "join_events"),
    ("netsim.advance.stream", "stream_events"),
    ("netsim.advance.tail", "tail_events"),
];

impl SimBench {
    fn drive<M: Classify + Clone + Send + 'static, A: 'static>(
        &self,
        engine: &mut Engine<M>,
        built: &BuiltTopology,
        plan: Option<&Arc<ShardPlan>>,
        tr: &mut Tracer,
        missing: impl Fn(&A) -> u32,
        completed_at: impl Fn(&A) -> Option<SimTime>,
    ) -> Outcome {
        let spec = &self.spec;
        let mut counts: Counts = vec![("events", 0)];
        match plan {
            // A sharded run goes to the horizon in one call: every
            // `advance` with a plan splits the world, spawns the shard
            // threads and merges them back.
            Some(p) => {
                let to_horizon = RunSpec::to(spec.horizon).with_plan(Arc::clone(p));
                counts[0].1 = tr.span("netsim.advance", |_| engine.advance(to_horizon));
            }
            None => {
                let until = [spec.data_start, spec.stream_end(), spec.horizon];
                for ((span, key), until) in PHASES.into_iter().zip(until) {
                    let events = tr.span(span, |_| engine.advance(RunSpec::to(until)));
                    counts[0].1 += events;
                    counts.push((key, events));
                }
            }
        }

        tr.span("collect", |_| {
            let mut unrecovered = 0u64;
            // The slowest receiver's last completion; 0 unless all finished.
            let mut done_at = Some(SimTime::ZERO);
            let mut state_bytes = 0u64;
            for &r in &built.receivers {
                let a = engine.agent::<A>(r).expect("every receiver has an agent");
                unrecovered += u64::from(missing(a));
                done_at = done_at.and_then(|t| completed_at(a).map(|c| t.max(c)));
                state_bytes += engine.agent_state_bytes(r) as u64;
            }
            let rec = engine.recorder();
            let audit = engine.audit_report();
            counts.extend([
                ("unrecovered", unrecovered),
                ("nacks_sent", rec.total_sent(TrafficClass::Nack) as u64),
                ("repairs_sent", rec.total_sent(TrafficClass::Repair) as u64),
                (
                    "delivered_session",
                    rec.total_delivered(TrafficClass::Session) as u64,
                ),
                (
                    "delivered_data",
                    rec.total_delivered(TrafficClass::Data) as u64,
                ),
                (
                    "delivered_repair",
                    rec.total_delivered(TrafficClass::Repair) as u64,
                ),
                (
                    "delivered_nack",
                    rec.total_delivered(TrafficClass::Nack) as u64,
                ),
                (
                    "dropped",
                    (rec.total_dropped(TrafficClass::Data)
                        + rec.total_dropped(TrafficClass::Repair)) as u64,
                ),
                ("time_to_complete_ns", done_at.map_or(0, SimTime::as_nanos)),
                ("audit_events", audit.as_ref().map_or(0, |a| a.events)),
                (
                    "audit_violations",
                    audit.as_ref().map_or(0, |a| a.violations.len() as u64),
                ),
                ("spt_cached", engine.cached_spt_count() as u64),
                ("state_bytes", state_bytes),
                ("recorder_resident_bytes", rec.resident_bytes() as u64),
            ]);
        });

        if self.spec.binned && engine.recorder().mode() == RecorderMode::Raw {
            let milli = tr.span("analysis.bin", |_| {
                binned_data_repair_milli(engine.recorder(), built, &self.spec)
            });
            counts.push(("binned_data_repair_milli", milli));
        }

        let receivers = built.receivers.len() as u64;
        Outcome {
            attempted: receivers * u64::from(self.spec.packets),
            failed: count(&counts, "unrecovered") + count(&counts, "audit_violations"),
            counts,
        }
    }
}

/// The six series `fig14_21_traffic` plots, binned at the paper's 0.1 s;
/// folded to the receivers' data+repair total in thousandths so the
/// analysis layer's output is pinned too.
fn binned_data_repair_milli(rec: &Recorder, built: &BuiltTopology, spec: &SimSpec) -> u64 {
    let bins = BinSpec::paper(spec.data_start, spec.horizon);
    let dr = [TrafficClass::Data, TrafficClass::Repair];
    let nk = [TrafficClass::Nack];
    let src = [built.source];
    let data_repair = bin_deliveries(&rec.deliveries, &bins, &dr, &built.receivers);
    let others = [
        bin_deliveries(&rec.deliveries, &bins, &nk, &built.receivers),
        bin_deliveries(&rec.transmissions, &bins, &dr, &src),
        bin_deliveries(&rec.deliveries, &bins, &dr, &src),
        bin_deliveries(&rec.deliveries, &bins, &nk, &src),
    ];
    std::hint::black_box(others);
    (data_repair.iter().sum::<f64>() * 1000.0).round() as u64
}

// ---------------------------------------------------------------------------
// codec_object
// ---------------------------------------------------------------------------

/// Data shards per group.
pub const K: usize = 16;
/// Parity shards per group; also the data shards each group loses.
pub const H: usize = 4;
/// Shard length in bytes (the paper's packet size).
pub const SHARD: usize = 1000;
const OBJECT_BYTES: usize = 16 << 20;

/// `codec_object`: encode a seeded object, lose `H` data shards of every
/// group, decode, compare.
pub struct CodecBench {
    object: Vec<u8>,
    object_hash: u64,
    /// Per group, the data-shard indices that never arrive.
    lost: Vec<[usize; H]>,
}

impl CodecBench {
    /// Generates the object and the loss pattern from `seed`.
    pub fn new(seed: u64) -> CodecBench {
        let mut rng = SimRng::new(seed);
        let mut object = Vec::with_capacity(OBJECT_BYTES);
        while object.len() < OBJECT_BYTES {
            object.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        let groups = GroupEncoder::new(K, H, SHARD)
            .expect("the paper's group shape is valid")
            .groups_for(object.len());
        let lost = (0..groups)
            .map(|_| {
                // H distinct indices below K, by partial shuffle.
                let mut idx: [usize; K] = std::array::from_fn(|i| i);
                for i in 0..H {
                    idx.swap(i, i + rng.index(K - i));
                }
                std::array::from_fn(|i| idx[i])
            })
            .collect();
        CodecBench {
            object_hash: fnv1a(&object),
            object,
            lost,
        }
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Bench for CodecBench {
    type World = (GroupEncoder, GroupDecoder);

    fn setup(&self, tr: &mut Tracer) -> Self::World {
        tr.span("fec.codec_new", |_| {
            let enc = GroupEncoder::new(K, H, SHARD).expect("the paper's group shape is valid");
            let dec = GroupDecoder::new(K, H, SHARD, enc.groups_for(self.object.len()))
                .expect("same shape as the encoder");
            (enc, dec)
        })
    }

    fn run(&self, (enc, dec): &mut Self::World, tr: &mut Tracer) -> Outcome {
        let groups = tr.span("fec.object.encode", |_| {
            enc.encode_object(&self.object)
                .expect("a well-formed object encodes")
        });
        tr.span("fec.object.push", |_| {
            for (g, lost) in groups.iter().zip(&self.lost) {
                for (i, payload) in g.packets() {
                    if !lost.contains(&i) {
                        dec.push(g.group_id, i, payload)
                            .expect("in-range packets are accepted");
                    }
                }
            }
        });
        let decoded = tr.span("fec.object.finish", |_| {
            dec.finish().expect("every group holds k shards")
        });

        // The byte-for-byte check, group-sized chunk by chunk so a mismatch
        // is counted per group (the 8-byte frame header shifts the real
        // group boundaries; the count still localises the damage).
        let group_bytes = K * SHARD;
        let bad_groups = tr.span("check", |_| {
            if decoded.len() != self.object.len() {
                return groups.len();
            }
            decoded
                .chunks(group_bytes)
                .zip(self.object.chunks(group_bytes))
                .filter(|(a, b)| a != b)
                .count()
        });
        // Equal bytes hash equally; only a failure pays for hashing.
        let decoded_hash = if bad_groups == 0 {
            self.object_hash
        } else {
            fnv1a(&decoded)
        };
        let n_groups = groups.len();
        // Freeing the encoded groups and the decoded object is part of what
        // a caller pays, so it is inside the run and has its own span.
        tr.span("release", |_| drop((groups, decoded)));
        Outcome {
            counts: vec![
                ("groups", n_groups as u64),
                ("shards_lost", (n_groups * H) as u64),
                ("object_hash", self.object_hash),
                ("decoded_hash", decoded_hash),
            ],
            attempted: n_groups as u64,
            failed: bad_groups as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::spans::Span;

    /// The `metrics` object of the cell labelled `scenario` in a committed
    /// sweep summary under `results/`.
    fn committed_cell(file: &str, scenario: &str) -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../results")
            .join(file);
        let text = std::fs::read_to_string(&path).expect("committed sweep summary");
        let doc = json::parse(&text).expect("well-formed summary");
        doc.get("cells")
            .and_then(Json::as_arr)
            .expect("cells array")
            .iter()
            .find(|c| c.get("scenario").and_then(Json::as_str) == Some(scenario))
            .and_then(|c| c.get("metrics"))
            .unwrap_or_else(|| panic!("{file} has no cell {scenario:?}"))
            .clone()
    }

    fn run_once(bench: &SimBench) -> Outcome {
        let mut off = Tracer::disabled();
        let mut world = bench.setup(&mut off);
        bench.run(&mut world, &mut off)
    }

    #[test]
    fn session_1k_is_the_committed_scale_sweep_cell() {
        let want = committed_cell("BENCH_scale_sweep.json", "sharqfec/n=1000");
        let want = |key: &str| want.get(key).and_then(Json::as_u64).expect(key);
        let got = run_once(&SimBench::new(SimSpec::named("session_1k").unwrap(), 42));
        let c = |key: &str| count(&got.counts, key);
        assert_eq!(c("delivered_session"), want("session_deliveries"));
        assert_eq!(
            c("delivered_data") + c("delivered_repair"),
            want("data_repair")
        );
        assert_eq!(c("nacks_sent"), want("nacks"));
        assert_eq!(c("unrecovered"), want("unrecovered"));
        assert_eq!(c("audit_violations"), want("audit_violations"));
        assert_eq!(got.attempted, want("receivers") * 32);
        // `events` is reported, not pinned; today it still matches.  The
        // committed `audit_events` (2105) predates probe sites added since
        // and no longer matches what `scale_sweep` itself prints (2137),
        // so it is pinned in expected.json and not compared here.
        assert_eq!(c("events"), want("events"));
    }

    #[test]
    fn scenario_recipe_at_64_packets_is_the_committed_scenario_sweep_cell() {
        let want = committed_cell(
            "BENCH_scenario_sweep.json",
            "n=500/flash=256/churn=on/outage=on",
        );
        let want = |key: &str| want.get(key).and_then(Json::as_u64).expect(key);
        let got = run_once(&SimBench::new(
            SimSpec::scenario_cell(64, RECIPE_MAX_BACKOFF),
            42,
        ));
        let c = |key: &str| count(&got.counts, key);
        assert_eq!(c("nacks_sent"), want("nacks"));
        assert_eq!(c("repairs_sent"), want("repairs"));
        assert_eq!(c("audit_events"), want("audit_events"));
        assert_eq!(c("audit_violations"), want("audit_violations"));
        assert_eq!(c("unrecovered"), want("unrecovered"));
        assert_eq!(c("events"), want("events"));
        assert_eq!(got.failed, 0);
    }

    #[test]
    fn phase_spans_sum_to_the_run_span() {
        let bench = SimBench {
            spec: SimSpec {
                packets: 64,
                horizon: SimTime::from_secs(20),
                ..SimSpec::named("fig10_repair").unwrap()
            },
            ..SimBench::new(SimSpec::named("fig10_repair").unwrap(), 42)
        };
        let mut tr = Tracer::recording();
        let mut world = bench.setup(&mut tr);
        let outcome = tr.span("run", |tr| bench.run(&mut world, tr));
        assert_eq!(outcome.failed, 0);

        let spans = tr.spans();
        let run = spans.iter().position(|s| s.name == "run").unwrap();
        let phases: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(run)).collect();
        // Join, stream, tail, then extraction and binning.
        let names: Vec<&str> = phases.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "netsim.advance.join",
                "netsim.advance.stream",
                "netsim.advance.tail",
                "collect",
                "analysis.bin"
            ]
        );
        let covered: u64 = phases.iter().map(|s| s.dur_ns()).sum();
        let whole = spans[run].dur_ns();
        assert!(
            covered <= whole && (whole - covered) as f64 <= 0.02 * whole as f64,
            "phases cover {covered} ns of a {whole} ns run"
        );
        // The phases see every event exactly once, and one call to the
        // horizon (as the sharded arm makes it) sees the same events.
        let c = |key: &str| count(&outcome.counts, key);
        assert_eq!(
            c("join_events") + c("stream_events") + c("tail_events"),
            c("events")
        );
        let sharded = SimBench {
            toggles: Toggles {
                shards: 2,
                ..Toggles::default()
            },
            ..bench
        };
        let mut off = Tracer::disabled();
        let one_call = sharded.run(&mut sharded.setup(&mut off), &mut off);
        assert_eq!(count(&one_call.counts, "join_events"), 0);
        assert_eq!(c("events"), count(&one_call.counts, "events"));
        assert_eq!(
            c("delivered_repair"),
            count(&one_call.counts, "delivered_repair")
        );
    }

    #[test]
    fn every_group_loses_h_distinct_data_shards() {
        let bench = CodecBench::new(7);
        assert_eq!(bench.object.len(), OBJECT_BYTES);
        assert_eq!(bench.lost.len(), 1049);
        for lost in &bench.lost {
            let mut idx = lost.to_vec();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), H);
            assert!(idx.iter().all(|&i| i < K));
        }
        assert_ne!(CodecBench::new(8).lost, bench.lost);
    }
}

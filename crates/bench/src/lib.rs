//! The figure-regeneration harness behind `sharqfec-bench <subcommand>`.
//!
//! Every table and figure in the paper's evaluation maps to one
//! subcommand of the one binary (see `DESIGN.md` §3 for the index); this
//! library holds the experiment runners and the shared sweep driver
//! ([`cli`]), so integration tests can assert on the same numbers the
//! subcommands print.  Performance is measured elsewhere: `benchmark/` at
//! the repository root is the one performance harness.
//!
//! * Every experiment cell is a [`Scenario`]: protocol variant + loss
//!   scale + workload + fault plan.  The figure sweeps, the ablation
//!   sweep, and the fault sweep all build scenarios and run them through
//!   the same code path (fanned out via `sharqfec_netsim::runner`), every
//!   run audited; the run method picks the recorder.
//! * Figures 14–21: [`Scenario::variant`] / [`Scenario::srm_baseline`]
//!   build the §6.2 workload (1024 × 1000 B packets at 800 kbit/s on the
//!   Figure 10 network); [`Scenario::run_traffic`] returns
//!   0.1-second-binned traffic series.
//! * Figures 11–13: [`RttExperiment`] runs the §6.1 session experiment
//!   and returns per-receiver estimated/actual RTT ratios.
//! * Figure 1 / Figure 8 are analytic (`sharqfec-analysis`);
//!   [`figures`] formats those computations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod grids;
pub mod policy;
pub mod scale;
pub mod scenario;
pub mod traffic;

use sharqfec::{
    setup_sharqfec_builder, PolicyConfig, SfAgent, SharqfecConfig, Variant, SEND_INTERVAL,
};
use sharqfec_analysis::series::{bin_deliveries, BinSpec};
use sharqfec_netsim::faults::{FaultPlan, LossModel};
use sharqfec_netsim::graph::LinkId;
use sharqfec_netsim::probe::AuditConfig;
use sharqfec_netsim::{
    Classify, Engine, EngineBuilder, NodeId, RecorderMode, RunSpec, SimTime, TrafficClass,
};
use sharqfec_session::core::ZcrSeeding;
use sharqfec_session::{setup_session_builder, ProbePlan, SessionAgent};
use sharqfec_srm::{setup_srm_builder, SrmConfig, SrmMember};
use sharqfec_topology::{figure10, BuiltTopology, Figure10Params};
use std::sync::Arc;
use std::time::Instant;

/// Binned traffic observed in one protocol run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficRun {
    /// Protocol label (matches the paper's figure annotations).
    pub label: String,
    /// Bin midpoints in seconds (x-axis).
    pub time: Vec<f64>,
    /// Average data+repair packets per receiver per 0.1 s bin
    /// (Figures 14, 16, 17, 18).
    pub data_repair: Vec<f64>,
    /// Average NACK packets *seen per receiver* per bin (Figures 15, 19
    /// plot "average NACK traffic", which administrative scoping shrinks
    /// because most NACKs never leave their zone).
    pub nacks: Vec<f64>,
    /// Data+repair packets crossing the source per bin — its own
    /// transmissions plus repairs delivered to it (Figure 20 plots the
    /// traffic in the core around the source, "the volume of additional
    /// traffic above the original transmissions").
    pub source_data_repair: Vec<f64>,
    /// NACKs delivered to the source per bin (Figure 21).
    pub source_nacks: Vec<f64>,
    /// Packets still unrecovered at the end (must be 0).
    pub unrecovered: u32,
    /// Total repair transmissions over the run.
    pub total_repairs: usize,
    /// Total NACK transmissions over the run.
    pub total_nacks: usize,
    /// Invariant-auditor verdict.
    pub audit: AuditOutcome,
}

/// The invariant auditor's verdict on one run (see
/// `sharqfec_netsim::probe::Auditor`): how much evidence it saw and what,
/// if anything, broke.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditOutcome {
    /// Probe events the auditor ingested.
    pub events: u64,
    /// Number of invariant violations.
    pub violations: usize,
    /// One-line human-readable verdict.
    pub summary: String,
}

impl AuditOutcome {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }
}

/// Workload scale for a traffic run.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Data packets (paper: 1024; tests use fewer).
    pub packets: u32,
    /// Extra tail time after the stream ends, seconds.
    pub tail_secs: u64,
}

impl Workload {
    /// A reduced workload for tests.
    #[cfg(test)]
    fn small() -> Workload {
        Workload {
            packets: 128,
            tail_secs: 20,
        }
    }

    fn stream_end(&self) -> SimTime {
        SimTime::from_secs(6) + SEND_INTERVAL * self.packets as u64
    }

    fn run_end(&self) -> SimTime {
        self.stream_end() + sharqfec_netsim::SimDuration::from_secs(self.tail_secs)
    }

    fn spec(&self) -> BinSpec {
        BinSpec::paper(SimTime::from_secs(6), self.run_end())
    }
}

/// When every initial member starts its session layer, in every harness
/// (the paper's t = 1 s).
pub(crate) const JOIN_AT: SimTime = SimTime::from_secs(1);

/// One finished run: the engine, and what every sweep reports of the run
/// itself.
pub(crate) struct Driven<M> {
    pub engine: Engine<M>,
    /// Events processed.
    pub events: u64,
    /// Events per wall-clock second over build + run (machine-dependent).
    pub events_per_sec: f64,
    /// Shards the topology actually split into (1 = serial).
    pub shards: usize,
    /// The auditor's verdict.
    pub audit: AuditOutcome,
}

/// The one way a harness turns a protocol's populated builder into a
/// finished run: recorder mode, auditor (fed the probe stream, keeping no
/// records — nothing here reads them; every harness run is audited) and
/// fault plan on top of `builder`,
/// then build and advance to `horizon` over up to `shards` subtrees of
/// `built`.
pub(crate) fn drive<M: Classify + Clone + Send + 'static>(
    built: &BuiltTopology,
    mut builder: EngineBuilder<M>,
    recorder: RecorderMode,
    audit: AuditConfig,
    faults: FaultPlan,
    horizon: SimTime,
    shards: usize,
) -> Driven<M> {
    builder.recorder_mode(recorder).fault_plan(faults);
    builder.audit_streaming(audit);
    let plan = Arc::new(built.shard_plan(shards.max(1)));
    let started = Instant::now();
    let mut engine = builder.build();
    let events = engine.advance(RunSpec::to(horizon).with_plan(Arc::clone(&plan)));
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let report = engine.audit_report().expect("drive attaches the auditor");
    let audit = AuditOutcome {
        events: report.events,
        violations: report.violations.len(),
        summary: report.summary(),
    };
    Driven {
        engine,
        events,
        events_per_sec: events as f64 / wall,
        shards: plan.shard_count(),
        audit,
    }
}

/// Which reliable-multicast protocol a [`Scenario`] runs.
#[derive(Clone, Debug)]
pub enum Protocol {
    /// The SRM baseline (§6.2 comparison).
    Srm(SrmConfig),
    /// A SHARQFEC variant (full or any ablation).
    Sharqfec(SharqfecConfig),
}

/// One fully-described experiment cell on the Figure 10 network: a
/// protocol, the loss scale, the workload, an optional burst-loss
/// re-model and a fault plan.  Every run is audited (fault spans are
/// excused automatically; see `EngineBuilder::audit`); [`Scenario::run`]
/// records on the streaming recorder, [`Scenario::run_traffic`] on the
/// raw one its series need.
///
/// Identical `(Scenario, seed)` pairs produce identical results at any
/// sweep thread count, so a scenario's label can serve as the
/// `runner::Cell` key across harnesses.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Cell label (the paper's figure/sweep annotation).
    pub label: String,
    /// Protocol under test.
    pub protocol: Protocol,
    /// Figure 10's loss scale.
    pub params: Figure10Params,
    /// When set, every lossy link's Bernoulli model is replaced by a
    /// Gilbert–Elliott burst model of equal mean loss and this mean
    /// burst length (packets).
    pub mean_burst: Option<f64>,
    /// Stream length and tail time.
    pub workload: Workload,
    /// Deterministic fault schedule (link flaps, loss changes, churn).
    pub faults: FaultPlan,
    /// Engine shards the run executes on (1 = serial).  Results are
    /// bit-identical at any shard count (see `sharqfec_netsim::shard`),
    /// so this is purely a throughput knob.
    pub shards: usize,
}

/// Aggregate metrics of one [`Scenario`] run, from the streaming
/// recorder's O(1) totals and the source's per-node counts.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's label.
    pub label: String,
    /// Packets still unrecovered at the end (0 = full reliability).
    pub unrecovered: u32,
    /// Total NACK transmissions.
    pub nacks: usize,
    /// Total repair transmissions.
    pub repairs: usize,
    /// Data+repair deliveries per receiver.
    pub data_repair_per_rx: f64,
    /// Data+repair packets dropped by link loss.
    pub dropped: usize,
    /// Absolute sim time (seconds) at which the *last* receiver
    /// completed its last group — the stream's time-to-complete.  `None`
    /// for SRM runs and whenever any packet stayed unrecovered.
    pub time_to_complete: Option<f64>,
    /// Invariant-auditor verdict.
    pub audit: AuditOutcome,
}

impl Scenario {
    /// A scenario with default topology, no bursts, no faults.
    fn new(label: impl Into<String>, protocol: Protocol, workload: Workload) -> Scenario {
        Scenario {
            label: label.into(),
            protocol,
            params: Figure10Params::default(),
            mean_burst: None,
            workload,
            faults: FaultPlan::new(),
            shards: 1,
        }
    }

    /// A SHARQFEC scenario with default topology, no bursts, no faults.
    pub fn sharqfec(label: impl Into<String>, cfg: SharqfecConfig, workload: Workload) -> Scenario {
        Scenario::new(label, Protocol::Sharqfec(cfg), workload)
    }

    /// An SRM scenario with default topology, no bursts, no faults.
    pub fn srm(label: impl Into<String>, cfg: SrmConfig, workload: Workload) -> Scenario {
        Scenario::new(label, Protocol::Srm(cfg), workload)
    }

    /// The §6.2 figure cell for a SHARQFEC variant: the variant's label
    /// and config on the default Figure 10 network.
    pub fn variant(variant: Variant, workload: Workload) -> Scenario {
        Scenario::sharqfec(variant.label(), SharqfecConfig::variant(variant), workload)
    }

    /// The §6.2 SRM comparison cell (adaptive timers, as the paper's
    /// comparison does) on the default Figure 10 network.
    pub fn srm_baseline(workload: Workload) -> Scenario {
        Scenario::srm("SRM", SrmConfig::default(), workload)
    }

    /// Replaces the loss scale.
    pub fn with_params(mut self, params: Figure10Params) -> Scenario {
        self.params = params;
        self
    }

    /// Converts every lossy link to Gilbert–Elliott bursts of the given
    /// mean burst length (equal mean loss).
    pub fn with_burst(mut self, mean_burst: f64) -> Scenario {
        self.mean_burst = Some(mean_burst);
        self
    }

    /// Installs a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = faults;
        self
    }

    /// Selects the injection policy (SHARQFEC scenarios only).
    ///
    /// # Panics
    ///
    /// Panics on SRM scenarios — SRM has no preemptive injection.
    pub fn with_policy(mut self, policy: PolicyConfig) -> Scenario {
        match &mut self.protocol {
            Protocol::Sharqfec(cfg) => cfg.policy = policy,
            Protocol::Srm(_) => panic!("SRM has no injection policy"),
        }
        self
    }

    /// Runs the engine sharded over up to `shards` zone subtrees
    /// (conservative PDES; bit-identical to serial).
    pub fn with_shards(mut self, shards: usize) -> Scenario {
        self.shards = shards.max(1);
        self
    }

    /// Builds the scenario's network, applying the burst re-model.
    pub fn build_topology(&self) -> BuiltTopology {
        let mut built = figure10(&self.params);
        if let Some(mean_burst) = self.mean_burst {
            for id in 0..built.topology.link_count() {
                let link = LinkId(id as u32);
                let rate = built.topology.link(link).params.loss.mean_loss();
                if rate > 0.0 {
                    built
                        .topology
                        .set_loss_model(link, LossModel::burst(rate, mean_burst));
                }
            }
        }
        built
    }

    /// Runs the protocol's `builder` on `recorder` under this scenario's
    /// fault plan, the auditor and the shard count, to the workload's end.
    fn simulate<M: Classify + Clone + Send + 'static>(
        &self,
        built: &BuiltTopology,
        builder: EngineBuilder<M>,
        recorder: RecorderMode,
    ) -> Driven<M> {
        drive(
            built,
            builder,
            recorder,
            AuditConfig::default(),
            self.faults.clone(),
            self.workload.run_end(),
            self.shards,
        )
    }

    /// Runs a SHARQFEC scenario; returns the run, the packets still
    /// unrecovered, and the stream's time-to-complete (the slowest
    /// receiver's last group completion, `None` unless every receiver
    /// completed).
    fn simulate_sharqfec(
        &self,
        built: &BuiltTopology,
        cfg: &SharqfecConfig,
        seed: u64,
        recorder: RecorderMode,
    ) -> (Driven<sharqfec::SfMsg>, u32, Option<f64>) {
        let cfg = SharqfecConfig {
            total_packets: self.workload.packets,
            ..cfg.clone()
        };
        let builder = setup_sharqfec_builder(built, seed, cfg, JOIN_AT);
        let run = self.simulate(built, builder, recorder);
        let agents = || {
            let receiver = |&r| run.engine.agent::<SfAgent>(r).expect("receiver");
            built.receivers.iter().map(receiver)
        };
        let unrecovered = agents().map(SfAgent::missing).sum();
        let ttc = agents()
            .map(SfAgent::completion_time)
            .try_fold(SimTime::ZERO, |acc, t| t.map(|t| acc.max(t)))
            .map(|t| t.as_secs_f64());
        (run, unrecovered, ttc)
    }

    /// Runs an SRM scenario; returns the run and the packets still
    /// unrecovered.
    fn simulate_srm(
        &self,
        built: &BuiltTopology,
        cfg: &SrmConfig,
        seed: u64,
        recorder: RecorderMode,
    ) -> (Driven<sharqfec_srm::SrmMsg>, u32) {
        let cfg = SrmConfig {
            total_packets: self.workload.packets,
            ..cfg.clone()
        };
        let builder = setup_srm_builder(built, seed, cfg, JOIN_AT);
        let run = self.simulate(built, builder, recorder);
        let receiver = |&r| {
            let agent = run.engine.agent::<SrmMember>(r).expect("receiver");
            agent.missing()
        };
        let unrecovered = built.receivers.iter().map(receiver).sum();
        (run, unrecovered)
    }

    /// Runs the scenario on the streaming recorder and returns aggregate
    /// metrics.
    pub fn run(&self, seed: u64) -> ScenarioOutcome {
        let built = self.build_topology();
        let streaming = RecorderMode::Streaming;
        match &self.protocol {
            Protocol::Sharqfec(cfg) => {
                let (run, unrecovered, ttc) = self.simulate_sharqfec(&built, cfg, seed, streaming);
                self.outcome(run, &built, unrecovered, ttc)
            }
            Protocol::Srm(cfg) => {
                let (run, unrecovered) = self.simulate_srm(&built, cfg, seed, streaming);
                self.outcome(run, &built, unrecovered, None)
            }
        }
    }

    fn outcome<M: Classify + Clone + 'static>(
        &self,
        run: Driven<M>,
        built: &BuiltTopology,
        unrecovered: u32,
        time_to_complete: Option<f64>,
    ) -> ScenarioOutcome {
        let rec = run.engine.recorder();
        let dr_all =
            rec.total_delivered(TrafficClass::Data) + rec.total_delivered(TrafficClass::Repair);
        let dr_src = rec.delivered_count(built.source, TrafficClass::Data)
            + rec.delivered_count(built.source, TrafficClass::Repair);
        ScenarioOutcome {
            label: self.label.clone(),
            unrecovered,
            nacks: rec.total_sent(TrafficClass::Nack),
            repairs: rec.total_sent(TrafficClass::Repair),
            data_repair_per_rx: (dr_all - dr_src) as f64 / built.receivers.len() as f64,
            dropped: rec.total_dropped(TrafficClass::Data)
                + rec.total_dropped(TrafficClass::Repair),
            time_to_complete: time_to_complete.filter(|_| unrecovered == 0),
            audit: run.audit,
        }
    }

    /// Runs the scenario on the raw recorder (the series need its event
    /// traces) and returns the binned traffic series the figure sweep
    /// plots.
    pub fn run_traffic(&self, seed: u64) -> TrafficRun {
        let built = self.build_topology();
        let spec = self.workload.spec();
        let raw = RecorderMode::Raw;
        match &self.protocol {
            Protocol::Sharqfec(cfg) => {
                let (run, unrecovered, _) = self.simulate_sharqfec(&built, cfg, seed, raw);
                extract_run(self.label.clone(), run, &built, &spec, unrecovered)
            }
            Protocol::Srm(cfg) => {
                let (run, unrecovered) = self.simulate_srm(&built, cfg, seed, raw);
                extract_run(self.label.clone(), run, &built, &spec, unrecovered)
            }
        }
    }
}

fn extract_run<M: Classify + Clone + 'static>(
    label: String,
    run: Driven<M>,
    built: &BuiltTopology,
    spec: &BinSpec,
    unrecovered: u32,
) -> TrafficRun {
    let rec = run.engine.recorder();
    let dr = [TrafficClass::Data, TrafficClass::Repair];
    let nk = [TrafficClass::Nack];
    let source_sent = bin_deliveries(&rec.transmissions, spec, &dr, &[built.source]);
    let source_recv = bin_deliveries(&rec.deliveries, spec, &dr, &[built.source]);
    TrafficRun {
        label,
        time: spec.midpoints(),
        data_repair: bin_deliveries(&rec.deliveries, spec, &dr, &built.receivers),
        nacks: bin_deliveries(&rec.deliveries, spec, &nk, &built.receivers),
        source_data_repair: source_sent
            .iter()
            .zip(&source_recv)
            .map(|(a, b)| a + b)
            .collect(),
        source_nacks: bin_deliveries(&rec.deliveries, spec, &nk, &[built.source]),
        unrecovered,
        total_repairs: rec.total_sent(TrafficClass::Repair),
        total_nacks: rec.total_sent(TrafficClass::Nack),
        audit: run.audit,
    }
}

/// One receiver's estimated/actual RTT ratios for successive probes from
/// one prober (Figures 11–13 plot these per receiver).
#[derive(Clone, Debug, PartialEq)]
pub struct RttRatioResult {
    /// The probing node (the paper uses receivers 3, 25, 36).
    pub prober: NodeId,
    /// `(receiver, probe seq, ratio)`; ratio `None` = no estimate formed.
    pub ratios: Vec<(NodeId, u32, Option<f64>)>,
}

/// The §6.1 RTT-estimation experiment: the session protocol alone on a
/// lossless Figure 10, with each prober multicasting probes at the
/// largest scope at the given times.  Built like a [`Scenario`]: the
/// constructor takes the experiment's shape, [`RttExperiment::run`] takes
/// the seed.
#[derive(Clone, Debug)]
pub struct RttExperiment {
    /// The probing nodes (the paper uses receivers 3, 25, 36).
    pub probers: Vec<NodeId>,
    /// When each prober multicasts a probe.
    pub probe_times: Vec<SimTime>,
    /// Elect ZCRs at runtime (`true`, Figure 13) or seed the by-design
    /// ones (`false`, Figures 11–12).
    pub elect: bool,
}

impl RttExperiment {
    /// An experiment with by-design ZCR seeding (Figures 11–12).
    pub fn new(probers: &[NodeId], probe_times: &[SimTime]) -> RttExperiment {
        RttExperiment {
            probers: probers.to_vec(),
            probe_times: probe_times.to_vec(),
            elect: false,
        }
    }

    /// Switches to runtime ZCR election (Figure 13).
    pub fn elected(mut self) -> RttExperiment {
        self.elect = true;
        self
    }

    /// Runs the experiment and returns per-prober ratio series.
    pub fn run(&self, seed: u64) -> Vec<RttRatioResult> {
        let built = figure10(&Figure10Params::lossless());
        let seeding = if self.elect {
            ZcrSeeding::Elect { root: built.source }
        } else {
            ZcrSeeding::Designed(built.designed_zcrs.clone())
        };
        let plans: Vec<(NodeId, ProbePlan)> = self
            .probers
            .iter()
            .map(|&p| {
                (
                    p,
                    ProbePlan {
                        times: self.probe_times.to_vec(),
                    },
                )
            })
            .collect();
        let mut engine = setup_session_builder(&built, seed, seeding, JOIN_AT, &plans).build();
        let end = self
            .probe_times
            .iter()
            .max()
            .copied()
            .unwrap_or(SimTime::from_secs(10))
            + sharqfec_netsim::SimDuration::from_secs(2);
        engine.advance(RunSpec::to(end));

        self.probers
            .iter()
            .map(|&prober| {
                let mut ratios = Vec::new();
                for &r in &built.receivers {
                    if r == prober {
                        continue;
                    }
                    let agent = engine.agent::<SessionAgent>(r).expect("receiver");
                    for obs in agent.observations.iter().filter(|o| o.src == prober) {
                        ratios.push((r, obs.seq, obs.ratio()));
                    }
                }
                RttRatioResult { prober, ratios }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke test shared by the figure sweeps: a small ECSRM-vs-full run
    /// must exhibit the paper's headline ordering (full SHARQFEC's source
    /// sees less recovery traffic and fewer NACKs fly overall than in the
    /// unscoped baseline).
    #[test]
    fn figure_shapes_hold_on_small_workload() {
        let w = Workload {
            packets: 64,
            tail_secs: 20,
        };
        let ecsrm = Scenario::variant(Variant::Ecsrm, w).run_traffic(3);
        let full = Scenario::variant(Variant::Full, w).run_traffic(3);
        assert_eq!(ecsrm.unrecovered, 0);
        assert_eq!(full.unrecovered, 0);

        // Fig 20/21 shape: the source is insulated by scoping.
        let src_ecsrm: f64 =
            ecsrm.source_data_repair.iter().sum::<f64>() + ecsrm.source_nacks.iter().sum::<f64>();
        let src_full: f64 =
            full.source_data_repair.iter().sum::<f64>() + full.source_nacks.iter().sum::<f64>();
        assert!(
            src_full < src_ecsrm,
            "source traffic: full={src_full} ecsrm={src_ecsrm}"
        );
    }

    /// The builder entry points are pure functions of (shape, seed): the
    /// seed-42 pin that used to guard the deprecated free-function shims
    /// now guards the builders directly.
    #[test]
    fn builder_entry_points_are_deterministic() {
        let w = Workload::small();
        assert_eq!(
            Scenario::srm_baseline(w).run_traffic(42),
            Scenario::srm_baseline(w).run_traffic(42)
        );
        assert_eq!(
            Scenario::variant(Variant::Ecsrm, w).run_traffic(42),
            Scenario::variant(Variant::Ecsrm, w).run_traffic(42)
        );
        let probers = [NodeId(3)];
        let times = [SimTime::from_secs(4), SimTime::from_secs(8)];
        assert_eq!(
            RttExperiment::new(&probers, &times).elected().run(42),
            RttExperiment::new(&probers, &times).elected().run(42)
        );
    }

    /// Both run methods are audited, and the streaming recorder's totals
    /// are the raw recorder's.
    #[test]
    fn run_and_run_traffic_report_the_same_totals_and_verdict() {
        let w = Workload {
            packets: 32,
            tail_secs: 15,
        };
        let cell = Scenario::variant(Variant::Full, w);
        let (totals, series) = (cell.run(42), cell.run_traffic(42));
        assert!(totals.repairs > 0 && totals.audit.events > 0);
        assert_eq!(
            (totals.unrecovered, totals.repairs, totals.nacks),
            (series.unrecovered, series.total_repairs, series.total_nacks)
        );
        assert_eq!(totals.audit, series.audit);
    }

    /// A sharded figure run is the same run: every binned series and
    /// total is bit-identical to the serial engine.
    #[test]
    fn sharded_traffic_run_matches_serial() {
        let w = Workload {
            packets: 32,
            tail_secs: 15,
        };
        let serial = Scenario::variant(Variant::Full, w).run_traffic(42);
        let sharded = Scenario::variant(Variant::Full, w)
            .with_shards(4)
            .run_traffic(42);
        assert_eq!(serial, sharded);
    }
}

//! A netsim agent running only the session protocol.
//!
//! This is the vehicle for the paper's §6.1 experiments: ZCR election on
//! chains/stars/trees, and the Figures 11–13 measurement where selected
//! receivers multicast "fake NACK" probes at the largest scope and every
//! other receiver compares its *indirect* RTT estimate against ground
//! truth.

use crate::core::{is_session_token, SessionConfig, SessionCore, SessionCtx, ZcrSeeding};
use crate::msg::SessionMsg;
use sharqfec_netsim::prelude::*;
use sharqfec_scoping::ZoneId;
use std::sync::Arc;

/// Wire payload for session-only simulations.
#[derive(Clone, Debug)]
pub struct SessionWire(pub SessionMsg);

impl Classify for SessionWire {
    fn class(&self) -> TrafficClass {
        match &self.0 {
            SessionMsg::Announce(_) => TrafficClass::Session,
            // The probe plays the role of a NACK (paper §6.1 calls it a
            // fake NACK), and NACKs are lossless in the paper's setup.
            SessionMsg::Probe { .. } => TrafficClass::Nack,
            _ => TrafficClass::Control,
        }
    }
}

/// Probe schedule for one node: absolute times at which it multicasts a
/// probe at the largest scope.
#[derive(Clone, Debug, Default)]
pub struct ProbePlan {
    /// Transmission times.
    pub times: Vec<SimTime>,
}

/// One receiver-side probe observation: estimated vs. actual RTT to the
/// probing node (the y-axis of Figures 11–13 is `estimated / actual`).
#[derive(Clone, Debug)]
pub struct SessionObservation {
    /// Probing node.
    pub src: NodeId,
    /// Probe sequence number.
    pub seq: u32,
    /// This node's indirect estimate, if it could form one.
    pub estimated: Option<SimDuration>,
    /// Ground-truth RTT from the routing substrate.
    pub actual: SimDuration,
    /// When the probe was received.
    pub at: SimTime,
}

impl SessionObservation {
    /// `estimated / actual`, the paper's plotted ratio.
    pub fn ratio(&self) -> Option<f64> {
        let actual = self.actual.as_secs_f64();
        if actual == 0.0 {
            return None;
        }
        self.estimated.map(|e| e.as_secs_f64() / actual)
    }
}

/// Timer-token namespace for probes (distinct from session tokens).
const PROBE_TOKEN_BASE: u64 = 1 << 20;

/// Session-only protocol agent.
#[derive(Clone, Debug)]
pub struct SessionAgent {
    core: SessionCore,
    probe_plan: ProbePlan,
    /// Observations of other nodes' probes.
    pub observations: Vec<SessionObservation>,
}

impl SessionAgent {
    /// Creates the agent.  Each zone's session traffic goes on
    /// [`ZoneId::channel`]; probes go on the root zone's.
    pub fn new(core: SessionCore, probe_plan: ProbePlan) -> SessionAgent {
        SessionAgent {
            core,
            probe_plan,
            observations: Vec::new(),
        }
    }

    /// The embedded session state machine (for post-run inspection).
    pub fn core(&self) -> &SessionCore {
        &self.core
    }
}

/// Bridges a netsim agent's [`Ctx`] to the engine-agnostic [`SessionCtx`]
/// for any host whose wire type `M` can carry a [`SessionMsg`]: the
/// standalone [`SessionAgent`] here, the full SHARQFEC agent in
/// `sharqfec-core`.
pub struct Bridge<'a, 'b, M> {
    ctx: &'a mut Ctx<'b, M>,
    wrap: fn(SessionMsg) -> M,
}

impl<'a, 'b, M> Bridge<'a, 'b, M> {
    /// A zone's session traffic goes on [`ZoneId::channel`]; `wrap` puts a
    /// session message on the host's wire.
    pub fn new(ctx: &'a mut Ctx<'b, M>, wrap: fn(SessionMsg) -> M) -> Self {
        Bridge { ctx, wrap }
    }
}

impl<M> SessionCtx for Bridge<'_, '_, M> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng()
    }
    fn send(&mut self, zone: ZoneId, msg: SessionMsg, bytes: u32) {
        self.ctx.multicast(zone.channel(), (self.wrap)(msg), bytes);
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.ctx.set_timer(delay, token)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel_timer(id);
    }
    fn probe(&mut self, event: sharqfec_netsim::probe::ProbeEvent) {
        self.ctx.probe(event);
    }
}

impl Agent<SessionWire> for SessionAgent {
    fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<SessionAgent>()
            + self.core.state_bytes()
            + self.probe_plan.times.capacity() * size_of::<SimTime>()
            + self.observations.capacity() * size_of::<SessionObservation>()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, SessionWire>) {
        let times = self.probe_plan.times.clone();
        for (i, t) in times.iter().enumerate() {
            let delay = t.saturating_since(ctx.now());
            ctx.set_timer(delay, PROBE_TOKEN_BASE + i as u64);
        }
        self.core.start(&mut Bridge::new(ctx, SessionWire));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SessionWire>, token: u64) {
        if is_session_token(token) {
            self.core
                .on_timer(&mut Bridge::new(ctx, SessionWire), token);
            return;
        }
        if token >= PROBE_TOKEN_BASE {
            let seq = (token - PROBE_TOKEN_BASE) as u32;
            let chain = self.core.ancestor_chain();
            let bytes = 40 + 12 * chain.len() as u32;
            ctx.multicast(
                ZoneId::ROOT.channel(),
                SessionWire(SessionMsg::Probe {
                    seq,
                    sent_at: ctx.now(),
                    chain,
                }),
                bytes,
            );
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, SessionWire>, pkt: &Packet<SessionWire>) {
        match &pkt.payload.0 {
            SessionMsg::Probe { seq, chain, .. } => {
                let estimated = self.core.estimate_rtt(pkt.src, chain);
                self.observations.push(SessionObservation {
                    src: pkt.src,
                    seq: *seq,
                    estimated,
                    actual: ctx.rtt(pkt.src),
                    at: ctx.now(),
                });
            }
            msg => {
                self.core
                    .on_msg(&mut Bridge::new(ctx, SessionWire), pkt.src, msg);
            }
        }
    }
}

/// Assembles a fully-populated [`EngineBuilder`] for a session-only
/// simulation over a `BuiltTopology`-style bundle: one channel per zone in
/// zone order — each zone's [`ZoneId::channel`] — and one [`SessionAgent`]
/// per member.
///
/// `probes` maps node → probe schedule.
pub fn setup_session_builder(
    built: &sharqfec_topology::BuiltTopology,
    seed: u64,
    seeding: ZcrSeeding,
    start_at: SimTime,
    probes: &[(NodeId, ProbePlan)],
) -> EngineBuilder<SessionWire> {
    let hier = Arc::new(built.hierarchy.clone());
    let mut builder: EngineBuilder<SessionWire> = EngineBuilder::new(built.topology.clone(), seed);
    for z in hier.zones() {
        assert_eq!(builder.add_channel(&z.members), z.id.channel());
    }

    for member in built.members() {
        let core = SessionCore::new(member, Arc::clone(&hier), SessionConfig, &seeding);
        let plan = probes
            .iter()
            .find(|(n, _)| *n == member)
            .map(|(_, p)| p.clone())
            .unwrap_or_default();
        let agent = SessionAgent::new(core, plan);
        builder.add_agent_at(member, Box::new(agent), start_at);
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharqfec_topology::{balanced_tree, chain, figure10, star, Figure10Params};

    fn run_election(built: &sharqfec_topology::BuiltTopology, seconds: u64) -> Engine<SessionWire> {
        let mut engine = setup_session_builder(
            built,
            7,
            ZcrSeeding::Elect { root: built.source },
            SimTime::from_secs(1),
            &[],
        )
        .build();
        engine.advance(RunSpec::to(SimTime::from_secs(seconds)));
        engine
    }

    /// §6.1: "purely chain- or tree-based … the appropriate receivers were
    /// elected as the ZCR for each zone".
    #[test]
    fn chain_elects_the_closest_receiver() {
        let built = chain(5);
        let engine = run_election(&built, 12);
        let expect = built.receivers[0]; // adjacent to the source
        for &r in &built.receivers {
            let agent = engine.agent::<SessionAgent>(r).unwrap();
            let child_zone = built.hierarchy.smallest_zone(r);
            assert_eq!(
                agent.core().zcr_of(child_zone),
                Some(expect),
                "receiver {r} should see {expect} as ZCR"
            );
        }
    }

    #[test]
    fn star_elects_the_gateway() {
        let built = star(6);
        let engine = run_election(&built, 12);
        let expect = built.receivers[0]; // the gateway, 20ms from the source
        for &r in &built.receivers {
            let agent = engine.agent::<SessionAgent>(r).unwrap();
            let child_zone = built.hierarchy.smallest_zone(r);
            assert_eq!(agent.core().zcr_of(child_zone), Some(expect));
        }
    }

    #[test]
    fn tree_elects_each_subtree_head() {
        let built = balanced_tree(2, 2);
        let engine = run_election(&built, 12);
        // One child zone per level-1 subtree; each must elect its head —
        // the subtree's closest receiver to the source.
        for zone in built.hierarchy.zones().iter().skip(1) {
            let head = built.zcr(zone.id);
            for &m in &zone.members {
                let agent = engine.agent::<SessionAgent>(m).unwrap();
                assert_eq!(
                    agent.core().zcr_of(zone.id),
                    Some(head),
                    "member {m} of {} should elect {head}",
                    zone.id
                );
            }
        }
    }

    /// Figures 11–13 in miniature: direct peers estimate exactly; distant
    /// receivers estimate within a few percent through the ZCR chain.
    #[test]
    fn figure10_probes_estimate_rtt_accurately() {
        let built = figure10(&Figure10Params::lossless());
        // Probing node 25 (a child in tree 1), as in Figure 12.
        let prober = NodeId(25);
        let probes = vec![(
            prober,
            ProbePlan {
                times: (0..4).map(|i| SimTime::from_secs(10 + 3 * i)).collect(),
            },
        )];
        let mut engine = setup_session_builder(
            &built,
            42,
            ZcrSeeding::Designed(built.designed_zcrs.clone()),
            SimTime::from_secs(1),
            &probes,
        )
        .build();
        engine.advance(RunSpec::to(SimTime::from_secs(21)));

        let mut with_estimate = 0usize;
        let mut within_few_percent = 0usize;
        let mut total = 0usize;
        for &r in &built.receivers {
            if r == prober {
                continue;
            }
            let agent = engine.agent::<SessionAgent>(r).unwrap();
            // Use each receiver's LAST observation (estimates improve with
            // successive measurements, per the paper).
            if let Some(obs) = agent.observations.iter().rfind(|o| o.src == prober) {
                total += 1;
                if let Some(ratio) = obs.ratio() {
                    with_estimate += 1;
                    if (ratio - 1.0).abs() < 0.10 {
                        within_few_percent += 1;
                    }
                }
            }
        }
        assert!(
            total >= 100,
            "probes should reach ~all receivers, got {total}"
        );
        // Paper: "more than 50% of receivers were able to estimate the RTT
        // to a NACK's sender to within a few percent".
        assert!(
            with_estimate as f64 >= 0.9 * total as f64,
            "only {with_estimate}/{total} receivers formed estimates"
        );
        assert!(
            within_few_percent as f64 > 0.5 * total as f64,
            "only {within_few_percent}/{total} receivers within 10%"
        );
    }

    #[test]
    fn probe_ratio_helper() {
        let obs = SessionObservation {
            src: NodeId(1),
            seq: 0,
            estimated: Some(SimDuration::from_millis(110)),
            actual: SimDuration::from_millis(100),
            at: SimTime::ZERO,
        };
        assert!((obs.ratio().unwrap() - 1.1).abs() < 1e-9);
        let none = SessionObservation {
            estimated: None,
            ..obs.clone()
        };
        assert_eq!(none.ratio(), None);
    }

    /// Session traffic must stay scoped: a deep receiver sends announces
    /// only into its smallest zone, so root-zone session volume is tiny.
    #[test]
    fn announce_traffic_is_scoped() {
        let built = figure10(&Figure10Params::lossless());
        let mut engine = setup_session_builder(
            &built,
            3,
            ZcrSeeding::Designed(built.designed_zcrs.clone()),
            SimTime::from_secs(1),
            &[],
        )
        .build();
        engine.advance(RunSpec::to(SimTime::from_secs(10)));
        let root_chan = ZoneId::ROOT.channel();
        let rec = engine.recorder();
        // Transmissions into the root channel: only the source and the 7
        // mesh-node ZCRs participate there.
        let mut senders: std::collections::HashSet<NodeId> = Default::default();
        for t in &rec.transmissions {
            if t.channel == root_chan && t.class == TrafficClass::Session {
                senders.insert(t.node);
            }
        }
        assert!(
            senders.len() <= 8,
            "root-zone session senders should be the source + 7 ZCRs, got {senders:?}"
        );
    }
}

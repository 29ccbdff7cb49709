//! [`EngineBuilder`]'s methods: the one construction path for an
//! [`Engine`].

use super::{Engine, EngineBuilder};
use crate::agent::Agent;
use crate::channel::ChannelId;
use crate::faults::{FaultEvent, FaultPlan};
use crate::graph::{NodeId, Topology};
use crate::metrics::{Recorder, RecorderMode};
use crate::packet::Classify;
use crate::probe::{AuditConfig, Auditor};
use crate::scenario::ScenarioPlan;
use crate::time::SimTime;

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
    /// * the plan's start overrides ([`ScenarioPlan::start_override`])
    ///   replace the start times passed to
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
    /// stream: events flow into the auditor and are then discarded,
    /// instead of accumulating an `O(events)` record log.  The auditor's
    /// own state is O(receivers × groups + packets) — the last close per
    /// (node, group), an injection count per (node, group, level), the
    /// first sender per sequence number — not bounded by zones.
    /// Large-scale runs use this so a 10⁶-receiver sweep can stay audited
    /// without holding per-event history.
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
        engine.recorder = Recorder::new(self.mode);
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

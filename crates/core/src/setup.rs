//! Assembling a SHARQFEC simulation over a built topology.

use crate::agent::{Role, SfAgent};
use crate::config::SharqfecConfig;
use crate::msg::SfMsg;
use sharqfec_netsim::{ChannelId, EngineBuilder, NodeId, ScenarioPlan, SimTime};
use sharqfec_scoping::{ZoneHierarchy, ZoneHierarchyBuilder};
use sharqfec_session::core::{SessionConfig, SessionCore, ZcrSeeding};
use sharqfec_topology::BuiltTopology;
use std::sync::Arc;

/// The engine channels `node` belongs to, smallest zone first, ending at
/// the root/data channel.
///
/// [`setup_sharqfec_builder`] registers one channel per zone *in zone
/// order*, so `ChannelId(i)` is exactly zone `i`'s channel.  Scenario
/// plans (joins, leaves, flash crowds) need that mapping to name the
/// channels a node enters or exits; this helper is the one place that
/// encodes it.  Pass the same hierarchy the setup used — for scoped
/// configs that is `built.hierarchy`; the `ns` variants collapse to a
/// single root zone whose channel is `ChannelId(0)`.
pub fn member_channels(hier: &ZoneHierarchy, node: NodeId) -> Vec<ChannelId> {
    hier.zone_chain(node)
        .into_iter()
        .map(|z| ChannelId(z.idx() as u32))
        .collect()
}

/// Assembles a fully-populated [`EngineBuilder`] for a SHARQFEC scenario:
/// one channel per zone (zone order, so the root zone's channel is also
/// the data channel), one [`SfAgent`] per member joining at `join_at`
/// (the paper uses t = 1 s, five seconds before data starts, so session
/// state stabilises).
///
/// With `cfg.scoping` the zone hierarchy and by-design ZCRs of the built
/// topology are used; without it (`ns` variants) the hierarchy collapses
/// to a single maximum-scope zone whose representative is the source —
/// which is exactly what "no administrative scoping" means operationally.
///
/// Harnesses that need more than the defaults — a streaming recorder, a
/// fault plan — set those on the returned builder before calling
/// [`EngineBuilder::build`].
pub fn setup_sharqfec_builder(
    built: &BuiltTopology,
    seed: u64,
    cfg: SharqfecConfig,
    join_at: SimTime,
) -> EngineBuilder<SfMsg> {
    setup_sharqfec_scenario_builder(built, seed, cfg, join_at, ScenarioPlan::new(), None)
}

/// [`setup_sharqfec_builder`] plus a declarative workload scenario.
///
/// The `plan` is handed to the engine builder verbatim: members the plan
/// joins later are stripped from the initial channel lists, leaves/rejoins
/// become crash/restart faults, and start overrides replace `join_at` for
/// the named nodes (see `sharqfec_netsim::scenario`).
///
/// `standby` names a node that takes over the stream at a sender handoff
/// (the plan must contain a matching [`ScenarioPlan::handoff`], whose
/// start override tells us the handoff instant).  That node's agent is
/// built as a *warm-replica source*: `Role::Source` with
/// [`SharqfecConfig::first_seq`] set to the count of sequences the
/// retiring sender has already put on the wire, and the original
/// `data_start` kept so its first send lands exactly on the handoff
/// instant — replacing the send the retiring sender's crash cancelled.
/// A warm standby is already a member of its zone channels, so the
/// handoff should be declared with empty `to_channels` (re-joining a
/// node that forwards for a subtree would strip it from the initial
/// membership and sever the subtree until the handoff).
///
/// # Panics
///
/// Panics if `standby` names the configured source, a node outside the
/// session, or a node the plan gives no start override.
pub fn setup_sharqfec_scenario_builder(
    built: &BuiltTopology,
    seed: u64,
    cfg: SharqfecConfig,
    join_at: SimTime,
    plan: ScenarioPlan,
    standby: Option<NodeId>,
) -> EngineBuilder<SfMsg> {
    cfg.validate();
    let standby_cfg = standby.map(|n| {
        assert_ne!(n, built.source, "standby must differ from the source");
        assert!(
            built.members().contains(&n),
            "standby {n} is not a session member"
        );
        let t = plan
            .start_override(n)
            .expect("standby needs a scenario start override (ScenarioPlan::handoff)");
        let mut c = cfg.clone();
        c.first_seq = cfg.seqs_sent_before(t);
        (n, c)
    });
    let (hierarchy, zcrs): (ZoneHierarchy, Vec<NodeId>) = if cfg.scoping {
        (built.hierarchy.clone(), built.designed_zcrs.clone())
    } else {
        let mut b = ZoneHierarchyBuilder::new(built.topology.node_count());
        b.root(&built.members());
        (
            b.build().expect("single root zone is always valid"),
            vec![built.source],
        )
    };
    let hier = Arc::new(hierarchy);

    let mut builder: EngineBuilder<SfMsg> = EngineBuilder::new(built.topology.clone(), seed);
    let channels: Vec<ChannelId> = hier
        .zones()
        .iter()
        .map(|z| builder.add_channel(&z.members))
        .collect();
    let channels = Arc::new(channels);
    let seeding = ZcrSeeding::Designed(zcrs);

    for member in built.members() {
        let (role, agent_cfg) = if member == built.source {
            (Role::Source, cfg.clone())
        } else {
            match &standby_cfg {
                Some((n, c)) if *n == member => (Role::Source, c.clone()),
                _ => (Role::Receiver, cfg.clone()),
            }
        };
        let session = SessionCore::new(member, Arc::clone(&hier), SessionConfig, &seeding);
        let agent = SfAgent::new(
            agent_cfg,
            role,
            session,
            Arc::clone(&hier),
            Arc::clone(&channels),
            built.source,
        );
        builder.add_agent_at(member, Box::new(agent), join_at);
    }
    builder.scenario(plan);
    builder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use sharqfec_netsim::RunSpec;
    use sharqfec_netsim::TrafficClass;
    use sharqfec_topology::{chain, figure10, Figure10Params};

    fn small_cfg(mut cfg: SharqfecConfig) -> SharqfecConfig {
        cfg.total_packets = 64;
        cfg
    }

    #[test]
    fn lossless_run_completes_without_nacks() {
        let built = chain(4);
        let cfg = small_cfg(SharqfecConfig::full());
        let mut engine = setup_sharqfec_builder(&built, 1, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(60)));
        for &r in &built.receivers {
            let a = engine.agent::<SfAgent>(r).unwrap();
            assert!(
                a.complete(),
                "receiver {r} incomplete: {} missing",
                a.missing()
            );
        }
        let nacks = engine
            .recorder()
            .transmissions
            .iter()
            .filter(|t| t.class == TrafficClass::Nack)
            .count();
        assert_eq!(nacks, 0, "lossless run should never NACK");
    }

    #[test]
    fn full_sharqfec_recovers_figure10_losses() {
        let built = figure10(&Figure10Params::default());
        let cfg = small_cfg(SharqfecConfig::full());
        let mut engine = setup_sharqfec_builder(&built, 42, cfg, SimTime::from_secs(1)).build();
        engine.advance(RunSpec::to(SimTime::from_secs(120)));
        let mut missing = 0u32;
        for &r in &built.receivers {
            missing += engine.agent::<SfAgent>(r).unwrap().missing();
        }
        assert_eq!(missing, 0, "{missing} packets unrecovered across receivers");
        // Real repair work must have happened at ~13-28% loss.
        assert!(engine
            .recorder()
            .transmissions
            .iter()
            .any(|t| t.class == TrafficClass::Repair));
    }

    #[test]
    fn every_ablation_variant_recovers() {
        let built = figure10(&Figure10Params::default());
        for v in [
            Variant::Ecsrm,
            Variant::NoScopingNoInjection,
            Variant::NoScoping,
            Variant::NoInjection,
            Variant::Full,
        ] {
            let cfg = small_cfg(SharqfecConfig::variant(v));
            let mut engine = setup_sharqfec_builder(&built, 7, cfg, SimTime::from_secs(1)).build();
            engine.advance(RunSpec::to(SimTime::from_secs(180)));
            let missing: u32 = built
                .receivers
                .iter()
                .map(|&r| engine.agent::<SfAgent>(r).unwrap().missing())
                .sum();
            assert_eq!(
                missing,
                0,
                "{} left {missing} packets unrecovered",
                v.label()
            );
        }
    }

    #[test]
    fn scoping_localizes_repairs() {
        // Intra-tree link losses are identical across trees, so the
        // localization benefit shows up (as in the paper's Figures 20-21)
        // at the source and in what the clean trees are spared, not as a
        // per-tree skew.  Compare full SHARQFEC against the non-scoped
        // variant on identical seeds.
        let built = figure10(&Figure10Params::default());
        let run = |scoped: bool| {
            let cfg = small_cfg(if scoped {
                SharqfecConfig::full()
            } else {
                SharqfecConfig::variant(Variant::NoScoping)
            });
            let mut engine = setup_sharqfec_builder(&built, 11, cfg, SimTime::from_secs(1)).build();
            engine.advance(RunSpec::to(SimTime::from_secs(120)));
            let missing: u32 = built
                .receivers
                .iter()
                .map(|&r| engine.agent::<SfAgent>(r).unwrap().missing())
                .sum();
            assert_eq!(missing, 0, "run(scoped={scoped}) failed to recover");
            let source_sees = engine
                .recorder()
                .deliveries
                .iter()
                .filter(|d| {
                    d.node == built.source
                        && matches!(d.class, TrafficClass::Repair | TrafficClass::Nack)
                })
                .count();
            let clean_tree_repairs = engine
                .recorder()
                .deliveries
                .iter()
                .filter(|d| {
                    d.class == TrafficClass::Repair
                        && d.node.0 >= 1
                        && (d.node.0 as usize - 1) / 16 == 5 // least-loss tree
                })
                .count();
            (source_sees, clean_tree_repairs)
        };
        let (src_scoped, clean_scoped) = run(true);
        let (src_unscoped, clean_unscoped) = run(false);
        // The source must be insulated from localized recovery traffic…
        assert!(
            (src_scoped as f64) < 0.7 * src_unscoped as f64,
            "scoping should shield the source: scoped={src_scoped} unscoped={src_unscoped}"
        );
        // …and the cleanest tree must carry less repair traffic than when
        // every repair is global.
        assert!(
            (clean_scoped as f64) < clean_unscoped as f64,
            "clean tree should be spared: scoped={clean_scoped} unscoped={clean_unscoped}"
        );
    }

    #[test]
    fn zlc_measurement_defers_until_rtt_known() {
        // Startup-ordering regression: with a short `default_dist`, the
        // source's first ZLC measurement timer — armed off the
        // `default_dist * 2` fallback because no RTT is known yet — fires
        // before the stream's first NACK can possibly arrive.  It used to
        // fold `zone_needed = 0` into the EWMA and mark the level
        // measured, so the prediction decayed to 0.75 and the zone's real
        // repair demand never fed it.  The measurement must instead defer
        // until the session has an RTT estimate (bounded), by which time
        // the receiver's NACK has established the true demand.
        use sharqfec_netsim::prelude::{FaultEvent, FaultPlan, LossModel};
        use sharqfec_netsim::{LinkId, SimDuration};
        let built = chain(2);
        let mut cfg = small_cfg(SharqfecConfig::full());
        cfg.total_packets = 16; // one group
        cfg.data_start = SimTime::from_millis(10);
        cfg.send_interval = SimDuration::from_millis(1);
        cfg.default_dist = SimDuration::from_millis(1); // fallback: 5 ms
        let plan = FaultPlan::new()
            .at(
                SimTime::ZERO,
                FaultEvent::SetLoss(LinkId(0), LossModel::bernoulli(1.0)),
            )
            .at(
                SimTime::from_millis(18),
                FaultEvent::SetLoss(LinkId(0), LossModel::bernoulli(0.0)),
            );
        let mut builder = setup_sharqfec_builder(&built, 3, cfg, SimTime::ZERO);
        builder.fault_plan(plan);
        let mut engine = builder.build();
        engine.advance(RunSpec::to(SimTime::from_secs(30)));
        let src = engine.agent::<SfAgent>(built.source).unwrap();
        // The root-level prediction must reflect the NACKed demand (many
        // lost packets folded at gain 0.25 from an initial 1.0), not the
        // decayed 0.75 a premature measurement would produce.
        assert!(
            src.zlc_prediction(0) > 1.0,
            "ZLC prediction fed before the first repair round settled: {}",
            src.zlc_prediction(0)
        );
        let rx = engine.agent::<SfAgent>(built.receivers[0]).unwrap();
        assert!(rx.complete(), "receiver should still recover fully");
    }

    #[test]
    fn probe_recording_never_perturbs_the_simulation() {
        // Tentpole acceptance: probes are observation only.  The same
        // scenario with recording (and the auditor) on and off must
        // produce identical traffic traces.
        use sharqfec_netsim::prelude::AuditConfig;
        let built = figure10(&Figure10Params::default());
        let run = |probes: bool| {
            let cfg = small_cfg(SharqfecConfig::full());
            let mut builder = setup_sharqfec_builder(&built, 42, cfg, SimTime::from_secs(1));
            if probes {
                builder.audit(AuditConfig::default());
            }
            let mut engine = builder.build();
            engine.advance(RunSpec::to(SimTime::from_secs(60)));
            (
                engine.recorder().transmissions.clone(),
                engine.recorder().deliveries.clone(),
                engine.recorder().drops.clone(),
            )
        };
        let (tx_off, rx_off, drop_off) = run(false);
        let (tx_on, rx_on, drop_on) = run(true);
        assert_eq!(tx_off, tx_on, "transmissions diverged with probes on");
        assert_eq!(rx_off, rx_on, "deliveries diverged with probes on");
        assert_eq!(drop_off, drop_on, "drops diverged with probes on");
    }

    #[test]
    fn audited_figure10_run_reports_no_violations() {
        use sharqfec_netsim::prelude::AuditConfig;
        let built = figure10(&Figure10Params::default());
        let cfg = small_cfg(SharqfecConfig::full());
        let mut builder = setup_sharqfec_builder(&built, 42, cfg, SimTime::from_secs(1));
        builder.audit(AuditConfig::default());
        let mut engine = builder.build();
        engine.advance(RunSpec::to(SimTime::from_secs(120)));
        assert!(
            !engine.probe_records().is_empty(),
            "an audited run must record probe events"
        );
        let report = engine.audit_report().expect("auditor attached");
        assert!(
            report.ok(),
            "invariant violations in a healthy run: {}",
            report.summary()
        );
    }

    #[test]
    fn member_channels_match_setup_registration_order() {
        let built = figure10(&Figure10Params::default());
        let hier = &built.hierarchy;
        for member in built.members() {
            let chans = member_channels(hier, member);
            assert!(!chans.is_empty(), "{member} belongs to no channel");
            // Smallest zone first, root (the data channel) last.
            assert_eq!(
                chans.first().copied().unwrap(),
                ChannelId(hier.smallest_zone(member).idx() as u32)
            );
            for &c in &chans {
                assert!(
                    hier.zones()[c.idx()].members.contains(&member),
                    "{member} mapped to channel {c:?} of a zone it is not in"
                );
            }
        }
    }

    #[test]
    fn sender_handoff_completes_the_stream_with_one_active_sender() {
        // The retiring sender crashes at the handoff instant; the warm
        // standby — built as a Role::Source with `first_seq` — takes over
        // on the very send slot the crash cancelled.  Receivers must
        // complete and the single-sender audit must stay clean.
        use sharqfec_netsim::prelude::AuditConfig;
        use sharqfec_netsim::TrafficClass;
        let built = chain(4);
        let standby = built.receivers[2]; // leaf: never forwards for others
        let mut cfg = small_cfg(SharqfecConfig::full());
        cfg.total_packets = 64;
        // 6 s data start + 10 ms interval: handoff lands exactly on the
        // send slot of seq 20.
        let handoff_at = SimTime::from_millis(6200);
        assert_eq!(cfg.seqs_sent_before(handoff_at), 20);
        let plan = ScenarioPlan::new().handoff(handoff_at, built.source, standby, &[]);
        let mut builder = setup_sharqfec_scenario_builder(
            &built,
            9,
            cfg,
            SimTime::from_secs(1),
            plan,
            Some(standby),
        );
        builder.audit(AuditConfig::default());
        let mut engine = builder.build();
        engine.advance(sharqfec_netsim::RunSpec::to(SimTime::from_secs(120)));

        for &r in &built.receivers {
            if r == standby {
                continue;
            }
            let a = engine.agent::<SfAgent>(r).unwrap();
            assert!(a.complete(), "receiver {r} missing {} packets", a.missing());
        }
        // Both halves of the stream made it onto the wire exactly once as
        // fresh data: 20 sequences from the retiring sender, 44 from the
        // standby.
        let fresh_by = |n: NodeId| {
            engine
                .recorder()
                .transmissions
                .iter()
                .filter(|t| t.node == n && t.class == TrafficClass::Data)
                .count()
        };
        assert_eq!(fresh_by(built.source), 20, "retiring sender overran");
        assert_eq!(fresh_by(standby), 44, "standby sent the wrong tail");
        let report = engine.audit_report().expect("auditor attached");
        assert!(report.ok(), "handoff run not clean: {}", report.summary());
    }

    /// Scenario-fuzzing regression (churn cells of the scenario sweep):
    /// a receiver that crashes *while request timers are armed* used to
    /// wedge — the crash epoch killed its pending timers but the group
    /// state kept the handles, so `maybe_request` and the completeness
    /// watchdog both saw "a request is already pending" forever and the
    /// node never asked again.  Churn it twice: once mid-stream (to
    /// leave groups incomplete) and once mid-recovery (to orphan the
    /// armed timers).  It must still finish the stream.
    #[test]
    fn restart_mid_recovery_forgets_dead_request_timers() {
        use sharqfec_netsim::prelude::AuditConfig;
        let built = chain(4);
        // The chain's last receiver: the only member that forwards for
        // nobody, so its leaves cannot sever anyone else.
        let victim = *built.receivers.last().unwrap();
        let chans = member_channels(&built.hierarchy, victim);
        let cfg = small_cfg(SharqfecConfig::full());
        // Stream spans 6.0-6.64 s; the completeness watchdog first fires
        // at 7.14 s and arms request timers for whatever is missing.
        let plan = ScenarioPlan::new()
            .leave_at(SimTime::from_millis(6_250), victim, &chans)
            .rejoin_at(SimTime::from_millis(6_450), victim, &chans)
            .leave_at(SimTime::from_millis(7_180), victim, &chans)
            .rejoin_at(SimTime::from_millis(7_500), victim, &chans);
        let mut builder =
            setup_sharqfec_scenario_builder(&built, 13, cfg, SimTime::from_secs(1), plan, None);
        builder.audit(AuditConfig::default());
        let mut engine = builder.build();
        engine.advance(RunSpec::to(SimTime::from_secs(60)));
        for &r in &built.receivers {
            let a = engine.agent::<SfAgent>(r).unwrap();
            assert!(
                a.complete(),
                "receiver {r} never recovered after churn: {} missing",
                a.missing()
            );
        }
        let report = engine.audit_report().expect("auditor attached");
        assert!(report.ok(), "churn run not clean: {}", report.summary());
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let built = figure10(&Figure10Params::default());
        let run = |seed: u64| {
            let cfg = small_cfg(SharqfecConfig::full());
            let mut engine =
                setup_sharqfec_builder(&built, seed, cfg, SimTime::from_secs(1)).build();
            engine.advance(RunSpec::to(SimTime::from_secs(60)));
            (
                engine.recorder().transmissions.len(),
                engine.recorder().deliveries.len(),
                engine.recorder().drops.len(),
            )
        };
        assert_eq!(run(5), run(5));
    }
}

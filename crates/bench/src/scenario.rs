//! The audited workload-scenario sweep (the `scenario` subcommand): flash
//! crowds, membership churn, and correlated regional outages on the
//! hierarchical `topology::scaled` generator, every cell running under
//! the streaming invariant auditor.
//!
//! Where the figure sweeps measure *steady* sessions and the scale sweep
//! measures the *session plane*, this sweep stresses the membership
//! machinery the paper only sketches (§5.2's late-join audit, scoped
//! recovery under regional failure): each cell compiles a declarative
//! [`ScenarioPlan`] — a batch join of `flash` receivers mid-stream, a
//! seeded churn process over a leaf zone, a zone-subtree link outage —
//! down to ordinary DES events, so a cell remains a pure function of
//! `(cell, seed)` and bit-identical at any `--shards` value.
//!
//! Reported per cell, and gated both live and by `scenario --check`:
//!
//! * `unrecovered` — must be 0: every receiver, including every flash
//!   joiner and every churned node, ends the run complete;
//! * `flash_repair_per_member` — repair deliveries per flash joiner.
//!   Scoped recovery promises the repair traffic a batch join pulls into
//!   the joining zone is proportional to the *zone*, not the session:
//!   per member it must stay under [`REPAIR_BOUND_FACTOR`] × the stream
//!   length, whatever `n` is;
//! * `audit_violations` — must be 0 under the full invariant set plus
//!   the NACK-storm cap ([`nack_cap`]), which stays armed *inside* the
//!   membership excuse windows (suppression must hold during the join,
//!   not just after it).
//!
//! The default grid crosses flash ∈ {0, 64, 256} with churn and outage
//! on/off at n = 500, then appends [`FLASH_10K`] — the 10⁴-receiver
//! flash-crowd acceptance cell; `--smoke` runs the three-cell CI grid.

use crate::cli::{self, Args, Ran, Sweep};
use crate::{drive, AuditOutcome, JOIN_AT};
use sharqfec::{member_channels, setup_sharqfec_scenario_builder, SfAgent, SharqfecConfig};
use sharqfec_netsim::prelude::FaultPlan;
use sharqfec_netsim::probe::AuditConfig;
use sharqfec_netsim::runner::SweepSummary;
use sharqfec_netsim::{
    ChannelId, NodeId, RecorderMode, ScenarioPlan, SimDuration, SimTime, TrafficClass,
};
use sharqfec_scoping::ZoneId;
use sharqfec_topology::{scaled_tree, ScaledTopology, ScaledTreeParams};

/// The `scenario` sweep; the summary lands in
/// `results/BENCH_scenario_sweep.json`.
pub struct Scenarios;

/// Per-member repair-delivery bound for flash joiners, as a multiple of
/// the stream length: a joiner missed at most the whole stream, so
/// scoped recovery should hand it roughly its missing packets plus
/// bounded duplicate/parity overhead — never traffic that grows with the
/// session size.
pub const REPAIR_BOUND_FACTOR: f64 = 3.0;

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioCell {
    /// Receiver count (hubs + leaf receivers).
    pub receivers: usize,
    /// Flash-crowd size: receivers batch-joining mid-stream (0 = none).
    pub flash: usize,
    /// Seeded churn process over the first leaf zone.
    pub churn: bool,
    /// Correlated link outage over the second leaf zone's subtree.
    pub outage: bool,
}

impl ScenarioCell {
    /// The cell's sweep label, `n=<n>/flash=<f>/churn=<on|off>/outage=<on|off>`.
    pub fn label(&self) -> String {
        let on = |b: bool| if b { "on" } else { "off" };
        format!(
            "n={}/flash={}/churn={}/outage={}",
            self.receivers,
            self.flash,
            on(self.churn),
            on(self.outage)
        )
    }
}

/// The 10⁴-receiver flash-crowd acceptance cell: 512 receivers (about
/// five leaf zones) batch-join seconds into the stream.
pub const FLASH_10K: ScenarioCell = ScenarioCell {
    receivers: 10_000,
    flash: 512,
    churn: false,
    outage: false,
};

/// The full grid: flash × churn × outage crossed at n = 500, plus
/// [`FLASH_10K`].
pub fn default_grid() -> Vec<ScenarioCell> {
    let mut cells = Vec::new();
    for &flash in &[0usize, 64, 256] {
        for &churn in &[false, true] {
            for &outage in &[false, true] {
                cells.push(ScenarioCell {
                    receivers: 500,
                    flash,
                    churn,
                    outage,
                });
            }
        }
    }
    cells.push(FLASH_10K);
    cells
}

/// The CI smoke grid (`--smoke`): small enough for every run of ci.sh,
/// still covering a quiet cell, a flash crowd, and churn + outage.
pub fn smoke_grid() -> Vec<ScenarioCell> {
    [(0, false, false), (32, false, false), (16, true, true)]
        .iter()
        .map(|&(flash, churn, outage)| ScenarioCell {
            receivers: 200,
            flash,
            churn,
            outage,
        })
        .collect()
}

// ---- the shared timeline every cell runs on ----

/// The stream starts here (pulled forward from the paper's 6 s so cells
/// stay short).
const DATA_START: SimTime = SimTime::from_secs(2);
/// The flash crowd joins here — mid-stream for every packet count the
/// sweep runs.
const FLASH_AT: SimTime = SimTime::from_millis(2_250);
/// Churn window, means, and pool size.
const CHURN_WINDOW: (SimTime, SimTime) = (SimTime::from_secs(1), SimTime::from_secs(8));
const CHURN_MEAN_SESSION: SimDuration = SimDuration::from_millis(1_500);
const CHURN_MEAN_DOWN: SimDuration = SimDuration::from_millis(400);
const CHURN_POOL: usize = 6;
/// Regional outage span: the second leaf zone's link bundle is down
/// across the middle of the stream.
const OUTAGE_DOWN: SimTime = SimTime::from_millis(2_100);
const OUTAGE_UP: SimTime = SimTime::from_millis(2_600);
/// Run horizon: leaves the post-churn tail enough NACK/repair rounds to
/// finish.
const HORIZON: SimTime = SimTime::from_secs(25);
/// Request-backoff cap for scenario cells.  The paper's default (8 ⇒
/// 2⁸ × the base window) is sized for its 150 s figure runs; a receiver
/// that burned attempts into a regional outage would otherwise push its
/// next retry past this sweep's horizon.  2⁵ keeps the longest retry gap
/// a few seconds while preserving exponential suppression.
const MAX_BACKOFF: u32 = 5;

/// The NACK-storm cap a cell is audited with: per (group, level) the
/// auditor counts *sent* (unsuppressed) NACKs globally, so the cap
/// scales with the number of zones that can legitimately request at a
/// level — a storm of per-receiver NACKs on a batch join blows through
/// it, a suppressed handful per zone does not.
pub fn nack_cap(zone_count: usize) -> u32 {
    32 + 4 * zone_count as u32
}

fn params(receivers: usize) -> ScaledTreeParams {
    ScaledTreeParams::for_receivers(receivers)
}

/// The flash-crowd members: leaf receivers taken from the *back* of the
/// zone list (zone hubs are skipped — stripping a forwarding hub from
/// its channels would sever its subtree; the front two leaf zones are
/// reserved for the churn pool and the outage region).
pub fn flash_joiners(topo: &ScaledTopology, count: usize) -> Vec<NodeId> {
    if count == 0 {
        return Vec::new();
    }
    let hier = &topo.built.hierarchy;
    let leaves = hier.leaves();
    let mut out = Vec::with_capacity(count);
    for &z in leaves.iter().skip(2).rev() {
        for &m in hier.zone(z).members[1..].iter().rev() {
            out.push(m);
            if out.len() == count {
                out.sort_unstable();
                return out;
            }
        }
    }
    panic!(
        "flash crowd of {count} exceeds the {} leaf receivers available \
         outside the reserved zones",
        out.len()
    );
}

/// The churn pool: up to `CHURN_POOL` (6) receivers of the first leaf zone.
pub fn churn_pool(topo: &ScaledTopology) -> Vec<NodeId> {
    let hier = &topo.built.hierarchy;
    let z = hier.leaves()[0];
    hier.zone(z).members[1..]
        .iter()
        .copied()
        .take(CHURN_POOL)
        .collect()
}

/// The outage region: the second leaf zone.
pub fn outage_zone(topo: &ScaledTopology) -> ZoneId {
    topo.built.hierarchy.leaves()[1]
}

/// What one cell measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioOutcome {
    /// The cell's label.
    pub label: String,
    /// Receiver count.
    pub receivers: usize,
    /// Flash-crowd size.
    pub flash: usize,
    /// Stream length the cell ran.
    pub packets: u32,
    /// Packets unrecovered across all receivers at the horizon (flash
    /// joiners and churned nodes included) — must be 0.
    pub unrecovered: u64,
    /// Repair deliveries into the flash crowd, total and per member.
    pub flash_repairs: u64,
    /// `flash_repairs / flash` (0 when the cell has no flash crowd).
    pub flash_repair_per_member: f64,
    /// NACK transmissions across the run.
    pub nacks: usize,
    /// Repair transmissions across the run.
    pub repairs: usize,
    /// Events processed.
    pub events: u64,
    /// Events per wall-clock second (machine-dependent; excluded from
    /// every `--check` assertion).
    pub events_per_sec: f64,
    /// Engine shards the cell ran with (1 = serial).  Results are
    /// bit-identical at any shard count; only throughput may differ.
    pub shards: usize,
    /// The invariant auditor's verdict.
    pub audit: AuditOutcome,
}

/// Runs one cell: generate the tree, compile the cell's scenario plan,
/// run audited, collect aggregate metrics.  Deterministic in
/// `(cell, seed, packets)` at any `shards` value; only `events_per_sec`
/// varies across machines and shard counts.
pub fn run_cell(cell: ScenarioCell, seed: u64, packets: u32, shards: usize) -> ScenarioOutcome {
    let topo = scaled_tree(&params(cell.receivers), seed);
    let built = &topo.built;
    let hier = &built.hierarchy;

    let joiners = flash_joiners(&topo, cell.flash);
    let joins: Vec<(NodeId, Vec<ChannelId>)> = joiners
        .iter()
        .map(|&n| (n, member_channels(hier, n)))
        .collect();
    let mut plan =
        ScenarioPlan::new().batch_join(FLASH_AT, joins.iter().map(|(n, c)| (*n, c.as_slice())));
    if cell.churn {
        let pool: Vec<(NodeId, Vec<ChannelId>)> = churn_pool(&topo)
            .into_iter()
            .map(|n| (n, member_channels(hier, n)))
            .collect();
        plan = plan.churn(
            seed,
            CHURN_WINDOW,
            CHURN_MEAN_SESSION,
            CHURN_MEAN_DOWN,
            pool.iter().map(|(n, c)| (*n, c.as_slice())),
        );
    }

    let cfg = SharqfecConfig {
        total_packets: packets,
        data_start: DATA_START,
        max_backoff: MAX_BACKOFF,
        ..SharqfecConfig::full()
    };
    let builder = setup_sharqfec_scenario_builder(built, seed, cfg, JOIN_AT, plan, None);
    let mut faults = FaultPlan::new();
    if cell.outage {
        faults = topo.zone_outage(faults, outage_zone(&topo), OUTAGE_DOWN, OUTAGE_UP);
    }
    let audit = AuditConfig {
        nack_sent_cap: Some(nack_cap(hier.zone_count())),
        ..AuditConfig::default()
    };
    let streaming = RecorderMode::Streaming;
    let run = drive(built, builder, streaming, audit, faults, HORIZON, shards);

    let mut unrecovered = 0u64;
    for &r in &built.receivers {
        let agent = run.engine.agent::<SfAgent>(r).expect("receiver");
        unrecovered += u64::from(agent.missing());
    }
    let rec = run.engine.recorder();
    let flash_repairs: u64 = joiners
        .iter()
        .map(|&j| rec.delivered_count(j, TrafficClass::Repair) as u64)
        .sum();

    ScenarioOutcome {
        label: cell.label(),
        receivers: cell.receivers,
        flash: cell.flash,
        packets,
        unrecovered,
        flash_repairs,
        flash_repair_per_member: if cell.flash == 0 {
            0.0
        } else {
            flash_repairs as f64 / cell.flash as f64
        },
        nacks: rec.total_sent(TrafficClass::Nack),
        repairs: rec.total_sent(TrafficClass::Repair),
        events: run.events,
        events_per_sec: run.events_per_sec,
        shards: run.shards,
        audit: run.audit,
    }
}

/// The flash-repair bound, shared by the live failure rule and
/// `--check`: a flash crowd's per-member repair deliveries must stay
/// under [`REPAIR_BOUND_FACTOR`] × the stream length.
fn flash_repairs_unbounded(flash: usize, per_member: f64, packets: f64) -> bool {
    flash > 0 && per_member > REPAIR_BOUND_FACTOR * packets
}

/// The value of `key` in a cell label's `key=value/key=value/…` form.
fn label_field<'a>(label: &'a str, key: &str) -> Option<&'a str> {
    label
        .split('/')
        .find_map(|part| part.strip_prefix(key)?.strip_prefix('='))
}

impl Sweep for Scenarios {
    type Cell = ScenarioCell;
    type Outcome = ScenarioOutcome;

    fn name(&self) -> &'static str {
        "BENCH_scenario_sweep"
    }

    fn plan(&self, args: &Args) -> Vec<(String, ScenarioCell)> {
        let grid = if args.smoke {
            smoke_grid()
        } else {
            default_grid()
        };
        grid.into_iter().map(|c| (c.label(), c)).collect()
    }

    fn run(&self, cell: &ScenarioCell, args: &Args) -> ScenarioOutcome {
        run_cell(*cell, args.seed, args.packets, args.shard_count())
    }

    fn metrics(&self, o: &ScenarioOutcome) -> Vec<(String, f64)> {
        vec![
            ("receivers".into(), o.receivers as f64),
            ("flash".into(), o.flash as f64),
            ("packets".into(), o.packets as f64),
            ("unrecovered".into(), o.unrecovered as f64),
            ("flash_repairs".into(), o.flash_repairs as f64),
            ("flash_repair_per_member".into(), o.flash_repair_per_member),
            ("nacks".into(), o.nacks as f64),
            ("repairs".into(), o.repairs as f64),
            ("events".into(), o.events as f64),
            ("events_per_sec".into(), o.events_per_sec),
            ("shards".into(), o.shards as f64),
            ("audit_events".into(), o.audit.events as f64),
            ("audit_violations".into(), o.audit.violations as f64),
        ]
    }

    fn print(&self, args: &Args, ran: Ran, outcomes: &[ScenarioOutcome]) {
        let title = format!(
            "Workload-scenario sweep ({} packets, scaled trees, audited \
             membership, seed {})",
            args.packets, args.seed
        );
        let header = vec![
            "cell",
            "unrec",
            "flash rep/member",
            "nacks",
            "repairs",
            "events",
            "ev/s",
            "audit",
        ];
        let rows = outcomes.iter().map(|o| {
            vec![
                o.label.clone(),
                o.unrecovered.to_string(),
                format!("{:.1}", o.flash_repair_per_member),
                o.nacks.to_string(),
                o.repairs.to_string(),
                o.events.to_string(),
                format!("{:.2e}", o.events_per_sec),
                cli::audit_column(&o.audit),
            ]
        });
        cli::print_table(&title, ran, "streaming", header, rows);
    }

    fn failures(&self, o: &ScenarioOutcome) -> Vec<String> {
        let mut failures: Vec<String> = cli::audit_failure(&o.label, &o.audit)
            .into_iter()
            .chain(cli::delivery_failure(&o.label, o.unrecovered))
            .collect();
        if flash_repairs_unbounded(o.flash, o.flash_repair_per_member, o.packets as f64) {
            failures.push(format!(
                "{}: joining-zone repair traffic unbounded ({:.1}/member)",
                o.label, o.flash_repair_per_member
            ));
        }
        failures
    }

    /// Over the committed full grid or a `--smoke` run: the grid covers a
    /// flash crowd, a churn cell, and an outage cell; flash cells'
    /// per-member repair deliveries are positive and bounded, quiet
    /// cells' zero.
    fn check(&self, summary: &SweepSummary, problems: &mut Vec<String>) {
        let labels = || summary.cells.iter().map(|c| c.scenario.as_str());
        if !labels().any(|l| label_field(l, "flash").is_some_and(|f| f != "0")) {
            problems.push("grid has no flash-crowd cell".to_string());
        }
        if !labels().any(|l| label_field(l, "churn") == Some("on")) {
            problems.push("grid has no churn cell".to_string());
        }
        if !labels().any(|l| label_field(l, "outage") == Some("on")) {
            problems.push("grid has no outage cell".to_string());
        }

        for c in summary.cells.iter().filter(|c| c.result.is_ok()) {
            let label = &c.scenario;
            let Some(flash) = label_field(label, "flash").and_then(|f| f.parse::<usize>().ok())
            else {
                problems.push(format!("cell {label:?} is not a scenario cell"));
                continue;
            };
            let Some(pm) = c.metric("flash_repair_per_member") else {
                problems.push(format!("cell {label:?} missing flash_repair_per_member"));
                continue;
            };
            if flash == 0 {
                if pm != 0.0 {
                    problems.push(format!(
                        "cell {label:?} has flash repairs without a flash crowd"
                    ));
                }
                continue;
            }
            if pm <= 0.0 {
                problems.push(format!(
                    "cell {label:?}: flash joiners recovered without repairs (pm={pm})"
                ));
            }
            match c.metric("packets") {
                Some(p) if flash_repairs_unbounded(flash, pm, p) => problems.push(format!(
                    "cell {label:?}: joining-zone repair traffic unbounded: \
                     {pm} repairs/member > {REPAIR_BOUND_FACTOR} x {p} packets"
                )),
                Some(_) => {}
                None => problems.push(format!("cell {label:?} missing packets")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::{summary_of, Metrics};

    #[test]
    fn grids_cover_every_disruption_kind() {
        let grid = default_grid();
        assert_eq!(grid.len(), 13);
        assert!(grid.iter().any(|c| c.flash > 0 && c.churn && c.outage));
        assert!(grid.iter().any(|c| c.receivers == 10_000 && c.flash == 512));
        let smoke = smoke_grid();
        assert!(smoke.len() <= 3, "smoke must stay cheap");
        assert!(smoke.iter().any(|c| c.flash > 0));
        assert!(smoke.iter().any(|c| c.churn && c.outage));
        assert_eq!(smoke_grid()[2].label(), "n=200/flash=16/churn=on/outage=on");
    }

    #[test]
    fn flash_joiners_are_leaf_receivers_outside_reserved_zones() {
        let topo = scaled_tree(&params(200), 7);
        let hier = &topo.built.hierarchy;
        let joiners = flash_joiners(&topo, 32);
        assert_eq!(joiners.len(), 32);
        let reserved = [hier.leaves()[0], outage_zone(&topo)];
        for &j in &joiners {
            let z = hier.smallest_zone(j);
            assert!(!reserved.contains(&z), "{j} drawn from a reserved zone");
            assert_ne!(
                hier.zone(z).members[0],
                j,
                "{j} is a forwarding hub — joining it would sever its subtree"
            );
        }
        let pool = churn_pool(&topo);
        assert!(!pool.is_empty() && pool.len() <= CHURN_POOL);
        assert!(joiners.iter().all(|j| !pool.contains(j)));
    }

    /// A fully-loaded cell (flash + churn + outage) is bit-identical
    /// between the serial and the 4-shard engine — the grid's
    /// determinism gate in miniature.
    #[test]
    fn sharded_scenario_cell_matches_serial() {
        let cell = ScenarioCell {
            receivers: 200,
            flash: 16,
            churn: true,
            outage: true,
        };
        let serial = run_cell(cell, 42, 24, 1);
        let sharded = run_cell(cell, 42, 24, 4);
        assert_eq!(serial.shards, 1);
        assert!(sharded.shards > 1, "the scaled tree must actually shard");
        assert_eq!(serial.unrecovered, 0, "cell must fully deliver");
        assert_eq!(serial.label, sharded.label);
        assert_eq!(serial.unrecovered, sharded.unrecovered);
        assert_eq!(serial.flash_repairs, sharded.flash_repairs);
        assert_eq!(serial.nacks, sharded.nacks);
        assert_eq!(serial.repairs, sharded.repairs);
        assert_eq!(serial.events, sharded.events);
        assert_eq!(serial.audit, sharded.audit);
    }

    /// Scenario-fuzzing regression (the `n=500/flash=256/outage=on`
    /// grid cells): a regional outage leaves a whole zone missing the
    /// *same* packets, so no zone member — ZCR included — can repair
    /// locally, and the ZCR's one upstream NACK dies on the downed
    /// uplink.  The in-zone retry chatter then livelocked the zone:
    /// every overheard L0 duplicate doubled everyone's backoff and
    /// redrew their timers, including members whose *next* request had
    /// already escalated to a wider scope, so the upstream ask that
    /// could actually provoke a repair was postponed forever.  Narrow
    /// chatter must not suppress escalated requests; the cell must
    /// fully deliver with a clean audit.
    #[test]
    fn correlated_zone_outage_escalates_past_futile_local_nacks() {
        let cell = ScenarioCell {
            receivers: 500,
            flash: 256,
            churn: false,
            outage: true,
        };
        let o = run_cell(cell, 42, 64, 1);
        assert_eq!(
            o.unrecovered, 0,
            "outage zone never recovered: {} packets missing",
            o.unrecovered
        );
        assert_eq!(o.audit.violations, 0, "audit: {}", o.audit.summary);
    }

    /// The problems `--check` finds in a summary of `(label, metrics)` cells.
    fn synthetic(cells: &[(&str, Metrics)]) -> Vec<String> {
        let cells: Vec<_> = cells
            .iter()
            .map(|(label, metrics)| (label.to_string(), metrics.clone()))
            .collect();
        cli::check_summary(&Scenarios, &summary_of(Scenarios.name(), &cells))
    }

    fn healthy(per_member: f64) -> Metrics {
        vec![
            ("packets", 64.0),
            ("unrecovered", 0.0),
            ("audit_violations", 0.0),
            ("flash_repair_per_member", per_member),
        ]
    }

    #[test]
    fn check_passes_healthy_and_catches_unbounded_flash_repairs() {
        let good = synthetic(&[
            ("n=500/flash=0/churn=on/outage=off", healthy(0.0)),
            ("n=500/flash=64/churn=off/outage=on", healthy(70.0)),
        ]);
        assert_eq!(good, Vec::<String>::new());

        // A flash cell pulling repairs past the zone bound must fail.
        let unbounded = synthetic(&[
            ("n=500/flash=0/churn=on/outage=off", healthy(0.0)),
            ("n=500/flash=64/churn=off/outage=on", healthy(900.0)),
        ]);
        assert!(unbounded.iter().any(|p| p.contains("unbounded")));

        // A violation must fail, and a grid without churn must fail.
        let mut metrics = healthy(70.0);
        metrics[2].1 = 3.0;
        let violated = synthetic(&[("n=500/flash=64/churn=off/outage=on", metrics)]);
        assert!(violated.iter().any(|p| p.contains("audit violations")));
        assert!(violated.iter().any(|p| p.contains("no churn cell")));
    }
}

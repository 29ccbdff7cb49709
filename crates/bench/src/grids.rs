//! The Figure 10 parameter grids: full SHARQFEC cells in **streaming**
//! recorder mode (every number comes from the recorder's O(1) aggregate
//! tables, no raw traces), every cell audited.  [`Fig10Grid`] is what
//! such a sweep contributes to the shared driver; [`ABLATION`] and
//! [`FAULT`] live here, the policy grid in [`crate::policy`].

use crate::cli::{self, Args, Ran, Sweep};
use crate::{Scenario, ScenarioOutcome, Workload};
use sharqfec::{PolicyConfig, SharqfecConfig};
use sharqfec_netsim::faults::FaultPlan;
use sharqfec_netsim::runner::SweepSummary;
use sharqfec_netsim::SimTime;
use sharqfec_topology::figure10::mesh_node;
use sharqfec_topology::{figure10, Figure10Params};

/// A grid of [`Scenario`]s labelled `a/b`, each [`Scenario::run`], reported as
/// one table row per cell.
pub struct Fig10Grid {
    /// Sweep name (summary file stem).
    pub name: &'static str,
    /// The grid for a packet count.
    pub plan: fn(u32) -> Vec<Scenario>,
    /// The table's title line, from `(packets, seed)`.
    pub title: fn(u32, u64) -> String,
    /// Column headers for the two halves of a cell's `a/b` label.
    pub label_columns: [&'static str; 2],
    /// A sweep-specific metric and column beyond the common set.
    pub extra: Option<Extra>,
    /// Domain gates over a parsed summary (see [`Sweep::check`]).
    pub check: fn(&SweepSummary, &mut Vec<String>),
}

/// One sweep-specific measurement: published after `unrecovered` in the
/// summary, shown before it in the table.
pub struct Extra {
    /// Metric key in the summary JSON.
    pub metric: &'static str,
    /// Table column header.
    pub column: &'static str,
    /// The published value.
    pub value: fn(&ScenarioOutcome) -> f64,
    /// The table cell.
    pub shown: fn(&ScenarioOutcome) -> String,
}

impl Sweep for Fig10Grid {
    type Cell = Scenario;
    type Outcome = ScenarioOutcome;

    fn name(&self) -> &'static str {
        self.name
    }

    fn plan(&self, args: &Args) -> Vec<(String, Scenario)> {
        cli::apply_policy_override((self.plan)(args.packets), args.policy.as_ref())
            .into_iter()
            .map(|s| (s.label.clone(), s))
            .collect()
    }

    fn run(&self, cell: &Scenario, args: &Args) -> ScenarioOutcome {
        cell.run(args.seed)
    }

    fn metrics(&self, o: &ScenarioOutcome) -> Vec<(String, f64)> {
        let audit = &o.audit;
        let mut m = vec![
            ("data_repair_per_rx".to_string(), o.data_repair_per_rx),
            ("nacks".to_string(), o.nacks as f64),
            ("repairs".to_string(), o.repairs as f64),
            ("unrecovered".to_string(), o.unrecovered as f64),
        ];
        if let Some(extra) = &self.extra {
            m.push((extra.metric.to_string(), (extra.value)(o)));
        }
        m.push(("audit_events".to_string(), audit.events as f64));
        m.push(("audit_violations".to_string(), audit.violations as f64));
        m
    }

    fn print(&self, args: &Args, ran: Ran, outcomes: &[ScenarioOutcome]) {
        let mut header = self.label_columns.to_vec();
        header.extend(["data+repair/rx", "NACKs", "repairs"]);
        header.extend(self.extra.as_ref().map(|e| e.column));
        header.extend(["unrecovered", "audit"]);
        let rows = outcomes.iter().map(|o| {
            let (a, b) = o.label.split_once('/').expect("label is a/b");
            let mut row = vec![
                a.to_string(),
                b.to_string(),
                format!("{:.0}", o.data_repair_per_rx),
                o.nacks.to_string(),
                o.repairs.to_string(),
            ];
            row.extend(self.extra.as_ref().map(|e| (e.shown)(o)));
            row.push(o.unrecovered.to_string());
            row.push(cli::audit_column(&o.audit));
            row
        });
        let title = (self.title)(args.packets, args.seed);
        cli::print_table(&title, ran, "streaming", header, rows);
    }

    fn failures(&self, o: &ScenarioOutcome) -> Vec<String> {
        cli::audit_failure(&o.label, &o.audit).into_iter().collect()
    }

    fn check(&self, summary: &SweepSummary, problems: &mut Vec<String>) {
        (self.check)(summary, problems)
    }
}

/// `ablation` — sweeps over SHARQFEC's design choices (DESIGN.md §8):
///
/// * **group size** `k` — 8 / 16 (paper) / 32: smaller groups repair
///   faster but amortize FEC worse;
/// * **ZLC EWMA gain** — 0.1 / 0.25 (paper) / 0.5: how fast preemptive
///   injection tracks loss;
/// * **adaptive request timers** (the §7 future-work extension) vs the
///   paper's fixed C1 = C2 = 2;
/// * **loss scaling** — ×0.5 / ×1.0 / ×1.5 the paper's loss plan.
///
/// 256 packets by default, run to t = 60 s.
pub const ABLATION: Fig10Grid = Fig10Grid {
    name: "ablation_sweep",
    plan: ablation_plan,
    title: |packets, seed| {
        format!("SHARQFEC ablation sweeps ({packets} packets, Figure 10, seed {seed})")
    },
    label_columns: ["sweep", "setting"],
    extra: None,
    check: |_, _| {},
};

fn ablation_plan(packets: u32) -> Vec<Scenario> {
    let workload = Workload {
        packets,
        tail_secs: 51, // stream ends at 6 s + 2.56 s; 60 s total
    };
    let cell = |sweep: &str, setting: String, cfg: SharqfecConfig, loss_scale: f64| {
        Scenario::sharqfec(format!("{sweep}/{setting}"), cfg, workload)
            .with_params(Figure10Params::default().scaled_loss(loss_scale))
    };
    let base = SharqfecConfig::full;
    let mut cells = Vec::new();
    for k in [8u32, 16, 32] {
        let cfg = SharqfecConfig {
            group_size: k,
            ..base()
        };
        cells.push(cell("group size", format!("k={k}"), cfg, 1.0));
    }
    for gain in [0.1f64, 0.25, 0.5] {
        let cfg = SharqfecConfig {
            policy: PolicyConfig::Ewma { gain },
            ..base()
        };
        cells.push(cell("zlc EWMA gain", format!("w={gain}"), cfg, 1.0));
    }
    for adaptive in [false, true] {
        let cfg = SharqfecConfig {
            adaptive_timers: adaptive,
            ..base()
        };
        let setting = if adaptive {
            "adaptive (§7)"
        } else {
            "fixed (paper)"
        };
        cells.push(cell("request timers", setting.to_string(), cfg, 1.0));
    }
    for scale in [0.5f64, 1.0, 1.5] {
        cells.push(cell("loss scale", format!("x{scale}"), base(), scale));
    }
    cells
}

/// `fault` — burst loss × fault plan: SHARQFEC (full ladder) on the
/// Figure 10 network with every lossy link re-modelled as a
/// Gilbert–Elliott chain, crossed with a mid-stream backbone link flap.
///
/// The grid is mean burst length {1, 4, 8, 16} packets (mb=1 is the
/// memoryless control — same mean loss as the paper's Bernoulli plan) ×
/// loss scale {0.5, 1.0, 1.5}.  Every cell additionally flaps the
/// source↔mesh link of tree 3 from t = 7 s to t = 9 s, cutting 16
/// receivers off mid-stream; the recovery machinery must still deliver
/// everything by the horizon.  The tail is 82 s: at mean burst 16 an
/// unlucky chain realization can keep a group in exponential-backoff
/// repair for well over a minute after the stream ends, and the horizon
/// must outlast the worst cell.
pub const FAULT: Fig10Grid = Fig10Grid {
    name: "fault_sweep",
    plan: fault_plan,
    title: |packets, seed| {
        format!(
            "SHARQFEC under Gilbert-Elliott burst loss + backbone flap 7s-9s \
             ({packets} packets, Figure 10, seed {seed})"
        )
    },
    label_columns: ["mean burst", "loss scale"],
    extra: Some(Extra {
        metric: "dropped",
        column: "dropped",
        value: |o| o.dropped as f64,
        shown: |o| o.dropped.to_string(),
    }),
    check: |_, _| {},
};

fn fault_plan(packets: u32) -> Vec<Scenario> {
    let workload = Workload {
        packets,
        tail_secs: 82,
    };
    // The link that flaps: tree 3's backbone attachment.  Link ids depend
    // only on construction order, so computing it on a throwaway build is
    // valid for every cell in the grid.
    let built = figure10(&Figure10Params::default());
    let flapped = built
        .topology
        .link_between(built.source, mesh_node(3))
        .expect("figure 10 wires every mesh router to the source");
    let flap = FaultPlan::new().link_flap(flapped, SimTime::from_secs(7), SimTime::from_secs(9));
    let mut cells = Vec::new();
    for mean_burst in [1.0f64, 4.0, 8.0, 16.0] {
        for scale in [0.5f64, 1.0, 1.5] {
            cells.push(
                Scenario::sharqfec(
                    format!("mb={mean_burst}/x{scale}"),
                    SharqfecConfig::full(),
                    workload,
                )
                .with_params(Figure10Params::default().scaled_loss(scale))
                .with_burst(mean_burst)
                .with_faults(flap.clone()),
            );
        }
    }
    cells
}

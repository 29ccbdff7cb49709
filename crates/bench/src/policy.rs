//! The injection-policy ablation grid (the `policy` subcommand).
//!
//! The three [`sharqfec::Policy`] variants — the paper's
//! EWMA, the quantile tracker, and the TAROT-style optimizing
//! controller — run the same workload over the Gilbert–Elliott burst
//! ladder from `fault_sweep` (no faults: this grid isolates the
//! predictor), plus a Bernoulli "base" cell that is configured
//! identically to the ablation sweep's EWMA baseline so the two sweeps
//! pin each other.  Compared per cell: repair traffic, NACK count, and
//! the stream's time-to-complete.
//!
//! `policy --check results/BENCH_policy_sweep.json` is the CI gate:
//! every grid cell present with its metrics, the EWMA baseline's
//! bit-exact historical numbers, and the redesign's payoff criterion (the
//! optimizing policy spends fewer repair packets than the EWMA on the
//! long-burst cells at full delivery).  `--policy` narrows the grid to
//! one arm (useful for tuning); the default run compares all three.

use crate::grids::{Extra, Fig10Grid};
use crate::{Scenario, Workload};
use sharqfec::{PolicyConfig, SharqfecConfig};
use sharqfec_netsim::runner::SweepSummary;

/// The `policy` sweep; the summary lands in
/// `results/BENCH_policy_sweep.json`.
pub const SWEEP: Fig10Grid = Fig10Grid {
    name: "BENCH_policy_sweep",
    plan,
    title: |packets, seed| {
        format!(
            "SHARQFEC injection-policy ablation ({packets} packets, Figure 10, \
             Gilbert-Elliott burst ladder, seed {seed})"
        )
    },
    label_columns: ["policy", "loss"],
    // The stream's time-to-complete: -1 / "-" when a packet stayed
    // unrecovered.
    extra: Some(Extra {
        metric: "time_to_complete_s",
        column: "ttc (s)",
        value: |o| o.time_to_complete.unwrap_or(-1.0),
        shown: |o| {
            o.time_to_complete
                .map_or("-".to_string(), |s| format!("{s:.2}"))
        },
    }),
    check,
};

/// The policies compared, by [`PolicyConfig::named`] name.
pub const POLICIES: [&str; 3] = ["ewma", "percentile", "optimizing"];

/// The loss cells: the Bernoulli baseline plus the Gilbert–Elliott
/// mean-burst ladder (packets per burst; equal mean loss throughout).
pub const CELLS: [(&str, Option<f64>); 5] = [
    ("base", None),
    ("mb=1", Some(1.0)),
    ("mb=4", Some(4.0)),
    ("mb=8", Some(8.0)),
    ("mb=16", Some(16.0)),
];

/// The `ewma/base` cell must reproduce the ablation sweep's EWMA
/// baseline ("zlc EWMA gain/w=0.25", seed 42, 256 packets) bit-exactly:
/// same scenario, same seed, different harness.
pub const EWMA_BASE_PINS: [(&str, f64); 5] = [
    ("data_repair_per_rx", 341.7857142857143),
    ("nacks", 209.0),
    ("repairs", 562.0),
    ("unrecovered", 0.0),
    ("audit_events", 5923.0),
];

/// Metric keys every cell must carry.
pub const REQUIRED_METRICS: [&str; 7] = [
    "data_repair_per_rx",
    "nacks",
    "repairs",
    "unrecovered",
    "time_to_complete_s",
    "audit_events",
    "audit_violations",
];

/// The full grid: `policy/cell` labelled scenarios, every cell audited
/// and streaming (metrics come from the recorder's O(1) totals).
pub fn plan(packets: u32) -> Vec<Scenario> {
    let workload = Workload {
        packets,
        tail_secs: 51,
    };
    let mut cells = Vec::new();
    for policy in POLICIES {
        for (cell, mean_burst) in CELLS {
            let mut s =
                Scenario::sharqfec(format!("{policy}/{cell}"), SharqfecConfig::full(), workload)
                    .with_policy(PolicyConfig::named(policy).expect("known policy"));
            if let Some(mb) = mean_burst {
                s = s.with_burst(mb);
            }
            cells.push(s);
        }
    }
    cells
}

/// The policy grid's gates over a summary (seed-42 defaults): every grid
/// cell present with the required metrics, the `ewma/base` cell
/// bit-identical to the pre-redesign ablation baseline, and the
/// optimizing policy beating the EWMA's repair bill on the long-burst
/// cells (mb ≥ 8) at full delivery.
fn check(summary: &SweepSummary, problems: &mut Vec<String>) {
    for policy in POLICIES {
        for (cell, _) in CELLS {
            let label = format!("{policy}/{cell}");
            let Some(c) = summary.cell(&label) else {
                problems.push(format!("missing cell {label:?}"));
                continue;
            };
            for m in REQUIRED_METRICS {
                if c.result.is_ok() && c.metric(m).is_none() {
                    problems.push(format!("missing metric {m:?} (cell {label:?})"));
                }
            }
        }
    }
    // The EWMA arm must not have moved: its base cell re-runs the
    // ablation sweep's historical baseline under a different harness.
    if let Some(base) = summary.cell("ewma/base") {
        for (key, value) in EWMA_BASE_PINS {
            if base.metric(key) != Some(value) {
                problems.push(format!(
                    "ewma/base {key} drifted from the pinned baseline {value}"
                ));
            }
        }
    }
    // The redesign's payoff: under sustained bursts the optimizing
    // controller must deliver everything with a smaller repair bill.
    for cell in ["mb=8", "mb=16"] {
        let (Some(ewma), Some(opt)) = (
            summary.cell(&format!("ewma/{cell}")),
            summary.cell(&format!("optimizing/{cell}")),
        ) else {
            continue; // already reported as missing
        };
        match (ewma.metric("repairs"), opt.metric("repairs")) {
            (Some(e), Some(o)) if o < e => {}
            (e, o) => problems.push(format!(
                "optimizing/{cell} repairs ({o:?}) not below ewma ({e:?})"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::check_summary;
    use crate::cli::tests::{summary_of, Metrics};
    use crate::Protocol;

    #[test]
    fn plan_covers_the_policy_by_burst_grid() {
        let specs = plan(256);
        assert_eq!(specs.len(), 15);
        for policy in POLICIES {
            for (cell, mb) in CELLS {
                let s = specs
                    .iter()
                    .find(|s| s.label == format!("{policy}/{cell}"))
                    .expect("cell planned");
                assert_eq!(s.mean_burst, mb);
                let Protocol::Sharqfec(cfg) = &s.protocol else {
                    panic!("policy sweep is SHARQFEC-only");
                };
                assert_eq!(cfg.policy.name(), policy);
            }
        }
    }

    /// The pinned value of one `ewma/base` metric.
    fn pinned(key: &str) -> f64 {
        EWMA_BASE_PINS
            .iter()
            .find(|(k, _)| *k == key)
            .expect("key is pinned")
            .1
    }

    /// The problems `--check` finds in a minimal summary that satisfies
    /// every gate, after `edit` has had its way with the cells.  Metric
    /// values come from [`EWMA_BASE_PINS`] so re-deriving the pins never
    /// breaks the fixture.
    fn problems(edit: impl Fn(&mut Vec<(String, Metrics)>)) -> Vec<String> {
        let mut cells = Vec::new();
        for policy in POLICIES {
            for (cell, _) in CELLS {
                let repairs = match (policy, cell) {
                    ("optimizing", _) => 500.0,
                    ("ewma", "base") => pinned("repairs"),
                    _ => 900.0,
                };
                let metrics = vec![
                    ("data_repair_per_rx", pinned("data_repair_per_rx")),
                    ("nacks", pinned("nacks")),
                    ("repairs", repairs),
                    ("unrecovered", 0.0),
                    ("time_to_complete_s", 9.5),
                    ("audit_events", pinned("audit_events")),
                    ("audit_violations", 0.0),
                ];
                cells.push((format!("{policy}/{cell}"), metrics));
            }
        }
        edit(&mut cells);
        check_summary(&SWEEP, &summary_of(SWEEP.name, &cells))
    }

    #[test]
    fn checker_accepts_a_conforming_summary() {
        // The pinned EWMA numbers double as this fixture's values, so a
        // conforming file passes clean.
        assert_eq!(problems(|_| {}), Vec::<String>::new());
    }

    #[test]
    fn checker_flags_schema_and_criterion_breaks() {
        // A cell missing from the grid is named…
        let gapped = problems(|cells| cells[7].0 = "percentile/mb=5".to_string());
        assert!(gapped
            .iter()
            .any(|p| p.contains("missing cell \"percentile/mb=4\"")));

        // …drift in the pinned EWMA baseline is caught…
        let drifted = problems(|cells| cells[0].1[0].1 = 340.0);
        assert!(drifted
            .iter()
            .any(|p| p.contains("data_repair_per_rx drifted from the pinned baseline")));

        // …and so is an optimizing arm that stopped paying for itself.
        let regressed = problems(|cells| {
            for (_, metrics) in &mut cells[10..] {
                metrics[2].1 = 900.0;
            }
        });
        assert!(regressed.iter().any(|p| p.contains("not below ewma")));
    }
}

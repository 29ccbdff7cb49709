//! `fig14-21` — the paper's Figures 14–21 (§6.2): data/repair and NACK
//! traffic for SRM and the SHARQFEC ablation ladder on the Figure 10
//! network under the paper's workload (1024 × 1000 B packets at
//! 800 kbit/s, groups of 16, joins at t = 1 s, data from t = 6 s).
//!
//! Without `--fig` all eight figures are printed; `--tsv` emits the raw
//! binned series for plotting.  Each protocol runs at most once and is
//! reused across figures.  Results are identical at any `--threads`
//! value — each cell is a pure function of (scenario, seed) — and at any
//! `--shards` value, which shards each engine over the Figure 10
//! backbone subtrees (conservative PDES, bit-identical).

use crate::cli::{self, Args, Ran, Sweep};
use crate::{Scenario, TrafficRun, Workload};
use sharqfec::Variant;
use sharqfec_analysis::spark::spark_row;
use sharqfec_analysis::table::Table;

const SRM: &str = "SRM";

/// The `fig14-21` sweep.
pub struct Traffic;

/// One figure: its number, the protocols it compares, the series it
/// plots, and its caption.
struct Figure {
    number: u32,
    /// Cell labels, in plot order.
    runs: [&'static str; 2],
    series: fn(&TrafficRun) -> &[f64],
    caption: &'static str,
}

fn figures() -> [Figure; 8] {
    let ecsrm = Variant::Ecsrm.label();
    let full = Variant::Full.label();
    [
        Figure {
            number: 14,
            runs: [SRM, ecsrm],
            series: |r| &r.data_repair,
            caption: "data and repair traffic — SRM vs SHARQFEC(ns,ni,so)/ECSRM",
        },
        Figure {
            number: 15,
            runs: [SRM, ecsrm],
            series: |r| &r.nacks,
            caption: "NACK traffic — SRM vs SHARQFEC(ns,ni,so)/ECSRM",
        },
        Figure {
            number: 16,
            runs: [
                Variant::NoScopingNoInjection.label(),
                Variant::NoScoping.label(),
            ],
            series: |r| &r.data_repair,
            caption: "data and repair traffic — SHARQFEC(ns,ni) vs SHARQFEC(ns)",
        },
        Figure {
            number: 17,
            runs: [ecsrm, full],
            series: |r| &r.data_repair,
            caption: "data and repair traffic — SHARQFEC(ns,ni,so) vs SHARQFEC",
        },
        Figure {
            number: 18,
            runs: [Variant::NoInjection.label(), full],
            series: |r| &r.data_repair,
            caption: "data and repair traffic — SHARQFEC(ni) vs SHARQFEC",
        },
        Figure {
            number: 19,
            runs: [ecsrm, full],
            series: |r| &r.nacks,
            caption: "NACK traffic — SHARQFEC(ns,ni,so) vs SHARQFEC",
        },
        Figure {
            number: 20,
            runs: [ecsrm, full],
            series: |r| &r.source_data_repair,
            caption: "data and repair traffic seen by the source",
        },
        Figure {
            number: 21,
            runs: [ecsrm, full],
            series: |r| &r.source_nacks,
            caption: "NACK traffic seen by the source",
        },
    ]
}

/// The figures a run prints: all eight, or the one `--fig` names.
fn wanted(args: &Args) -> impl Iterator<Item = Figure> + '_ {
    figures()
        .into_iter()
        .filter(|f| args.fig.is_none() || args.fig == Some(f.number))
}

impl Sweep for Traffic {
    type Cell = Scenario;
    type Outcome = TrafficRun;

    fn name(&self) -> &'static str {
        "fig14_21_traffic"
    }

    /// The ladder in the paper's order, keeping the protocols some wanted
    /// figure plots — and ECSRM and full SHARQFEC always, so the summary
    /// carries the headline pair whatever `--fig` says.
    fn plan(&self, args: &Args) -> Vec<(String, Scenario)> {
        let w = Workload {
            packets: args.packets,
            tail_secs: 45,
        };
        let ladder = [
            Variant::Ecsrm,
            Variant::NoScopingNoInjection,
            Variant::NoScoping,
            Variant::NoInjection,
            Variant::Full,
        ];
        let always = [Variant::Ecsrm.label(), Variant::Full.label()];
        let wanted: Vec<Figure> = wanted(args).collect();
        let scenarios = std::iter::once(Scenario::srm_baseline(w))
            .chain(ladder.map(|v| Scenario::variant(v, w)))
            .filter(|s| {
                always.contains(&s.label.as_str())
                    || wanted.iter().any(|f| f.runs.contains(&s.label.as_str()))
            })
            .map(|s| s.with_shards(args.shard_count()))
            .collect();
        cli::apply_policy_override(scenarios, args.policy.as_ref())
            .into_iter()
            .map(|s| (s.label.clone(), s))
            .collect()
    }

    fn run(&self, cell: &Scenario, args: &Args) -> TrafficRun {
        cell.run_traffic(args.seed)
    }

    fn metrics(&self, r: &TrafficRun) -> Vec<(String, f64)> {
        let audit = &r.audit;
        vec![
            ("total_repairs".into(), r.total_repairs as f64),
            ("total_nacks".into(), r.total_nacks as f64),
            ("unrecovered".into(), r.unrecovered as f64),
            ("audit_events".into(), audit.events as f64),
            ("audit_violations".into(), audit.violations as f64),
        ]
    }

    fn print(&self, args: &Args, _ran: Ran, runs: &[TrafficRun]) {
        for fig in wanted(args) {
            let pair = fig.runs.map(|label| {
                runs.iter()
                    .find(|r| r.label == label)
                    .expect("every wanted figure's protocols were planned")
            });
            print_figure(&fig, &pair, args.tsv);
        }
    }

    fn failures(&self, r: &TrafficRun) -> Vec<String> {
        cli::audit_failure(&r.label, &r.audit).into_iter().collect()
    }

    /// SRM's exponential backoff leaves a long repair tail (the paper's
    /// Figure 14 remarks on it): packets still in recovery at the horizon
    /// are the measurement, not a failure.
    fn must_deliver(&self, label: &str) -> bool {
        label != SRM
    }
}

fn print_figure(fig: &Figure, runs: &[&TrafficRun], tsv: bool) {
    println!("=== Figure {}: {} ===", fig.number, fig.caption);
    for r in runs {
        if r.unrecovered > 0 {
            // Reported, not hidden (see `Traffic::must_deliver`).
            println!(
                "note: {} still had {} packets in recovery at the horizon",
                r.label, r.unrecovered
            );
        }
    }
    let series: Vec<&[f64]> = runs.iter().map(|r| (fig.series)(r)).collect();
    if tsv {
        let mut header = vec!["t".to_string()];
        header.extend(runs.iter().map(|r| r.label.clone()));
        let mut t = Table::new(header);
        for (i, &mid) in runs[0].time.iter().enumerate() {
            let mut row = vec![format!("{mid:.2}")];
            for s in &series {
                row.push(format!("{:.3}", s[i]));
            }
            t.row(row);
        }
        println!("{}", t.to_tsv());
    } else {
        let mut t = Table::new(vec![
            "protocol",
            "total",
            "peak/bin",
            "mean/bin",
            "repairs sent",
            "NACKs sent",
            "unrecovered",
        ]);
        for (r, s) in runs.iter().zip(&series) {
            let total: f64 = s.iter().sum();
            let peak = s.iter().copied().fold(0.0, f64::max);
            let mean = total / s.len().max(1) as f64;
            t.row(vec![
                r.label.clone(),
                format!("{total:.1}"),
                format!("{peak:.2}"),
                format!("{mean:.3}"),
                r.total_repairs.to_string(),
                r.total_nacks.to_string(),
                r.unrecovered.to_string(),
            ]);
        }
        println!("{}", t.to_aligned());
        // Shared-scale sparklines of the binned series (the figure's shape).
        let max = series
            .iter()
            .flat_map(|s| s.iter().copied())
            .fold(0.0, f64::max);
        for (r, s) in runs.iter().zip(&series) {
            println!("{}", spark_row(&r.label, s, max, 72));
        }
        println!();
    }
}

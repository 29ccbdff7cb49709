//! The one harness behind `sharqfec-bench <subcommand>`: a single flag
//! parser, a single sweep driver, and a single `--check` path.
//!
//! A sweep contributes only what differs — its grid, how a cell runs,
//! the metrics it publishes, its table, its failure rule, and its domain
//! checks — by implementing [`Sweep`]; [`drive`] does the rest:
//! `plan → run_sweep → write_json(--out) → table → failure exit`, or,
//! with `--check FILE`, read a summary back through
//! [`SweepSummary::parse`] and apply [`check_summary`].
//!
//! Bad input at the command line is a [`CliError`]: one `error: …` line
//! plus the usage text on stderr and exit status 2, never a panic.
//! Violated invariants (a live run's failure rule, or a checked
//! summary's problems) also exit 2, after naming every violation.

use crate::{figures, grids, policy, scale, scenario, traffic, AuditOutcome, Scenario};
use sharqfec::PolicyConfig;
use sharqfec_analysis::table::Table;
use sharqfec_netsim::json::ParseError;
use sharqfec_netsim::runner::{default_threads, run_sweep, Cell, SweepSummary};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;

/// Exit status for bad usage and for violated invariants alike.
const EXIT_FAILED: u8 = 2;

/// Every flag the harness understands; each subcommand accepts a subset
/// (see [`USAGE`]).
#[derive(Clone, Debug)]
pub struct Args {
    /// Root RNG seed shared by every cell (default 42).
    pub seed: u64,
    /// Worker threads for the sweep runner (default: all cores).
    pub threads: NonZeroUsize,
    /// Data packets per run (default: the subcommand's historical count).
    pub packets: u32,
    /// Injection-policy override for every SHARQFEC cell; `None` keeps
    /// each cell's own configuration.
    pub policy: Option<PolicyConfig>,
    /// `fig14-21`: print only this figure (14..=21).
    pub fig: Option<u32>,
    /// `fig14-21`: emit the raw binned series as TSV.
    pub tsv: bool,
    /// `scale`/`scenario`: run the CI-sized grid.
    pub smoke: bool,
    /// `scale`: append the 10⁶-receiver cell.
    pub mega: bool,
    /// `fig11-13`: elect ZCRs at runtime instead of seeding the designed ones.
    pub elect: bool,
    /// Engine shard counts: one for the sweeps, a list for
    /// `shard-scaling`; empty when the flag was not given.
    pub shards: Vec<usize>,
    /// `shard-scaling`: receiver count of the measured cell.
    pub receivers: usize,
    /// Directory the summary JSON is written to.
    pub out: String,
    /// Validate this summary file instead of running the sweep.
    pub check: Option<String>,
}

impl Args {
    /// Shards each sweep engine runs on (1 = serial).
    pub fn shard_count(&self) -> usize {
        self.shards.first().copied().unwrap_or(1)
    }
}

/// Why the command line (or a file it names) could not be used.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or flag, a bad flag value, or a flag the
    /// chosen subcommand does not take.
    Usage(String),
    /// The `--check` file could not be read.
    Unreadable(String, std::io::Error),
    /// The `--check` file is not a sweep summary.
    Malformed(String, ParseError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::Unreadable(path, e) => write!(f, "could not read {path}: {e}"),
            CliError::Malformed(path, e) => write!(f, "{path} is not a sweep summary: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// The usage text printed after every [`CliError`].
pub const USAGE: &str = "\
usage: sharqfec-bench <subcommand> [flags]

figures (print to stdout):
  fig01           Figure 1: non-scoped FEC on the example tree (analytic)
  fig08           Figure 8: national-hierarchy state and traffic (analytic)
  fig11-13        Figures 11-13: estimated/actual RTT ratios   [--elect]
  zcr             section 6.1: dynamic ZCR election convergence
  shard-scaling   one scale cell at several shard counts
                  [--receivers N] [--shards 1,2,4,8] [--seed S] [--packets P]

sweeps (print a table, write <out>/<sweep>.json, exit 2 on a violated invariant):
  fig14-21        Figures 14-21: SRM and the SHARQFEC ladder   [--fig N] [--tsv] [--shards K]
  ablation        group size, EWMA gain, timers, loss scale
  fault           burst loss x backbone link flap
  policy          injection policies x burst ladder
  scale           SHARQFEC vs SRM at 10^2..10^5 receivers      [--smoke] [--mega] [--shards K]
  scenario        flash crowds, churn, regional outages        [--smoke] [--shards K]
  every sweep:    [--seed S] [--threads N] [--packets P] [--out DIR] [--check FILE]
  Figure 10 sweeps (fig14-21, ablation, fault, policy) also take
                  [--policy ewma|percentile|optimizing]

--check FILE validates an existing summary instead of running (exit 2 on any problem).";

const SWEEP_FLAGS: [&str; 5] = ["--seed", "--threads", "--packets", "--out", "--check"];

/// One entry of the subcommand table.
struct Subcommand {
    name: &'static str,
    /// Flags accepted beyond [`SWEEP_FLAGS`] (sweeps) or in total (figures).
    flags: Flags,
    run: Run,
}

enum Run {
    /// Prints its output; nothing can fail past flag parsing.
    Figure(fn(&Args)),
    /// Goes through [`drive`] and takes [`SWEEP_FLAGS`]; `packets` is the
    /// sweep's default `--packets`.
    Sweep {
        packets: u32,
        drive: fn(&Args) -> Result<ExitCode, CliError>,
    },
}

type Flags = &'static [&'static str];

const fn figure(name: &'static str, flags: Flags, print: fn(&Args)) -> Subcommand {
    let run = Run::Figure(print);
    Subcommand { name, flags, run }
}

const fn sweep(
    name: &'static str,
    flags: Flags,
    packets: u32,
    drive: fn(&Args) -> Result<ExitCode, CliError>,
) -> Subcommand {
    let run = Run::Sweep { packets, drive };
    Subcommand { name, flags, run }
}

const SUBCOMMANDS: [Subcommand; 11] = [
    figure("fig01", &[], |_| figures::fig01()),
    figure("fig08", &[], |_| figures::fig08()),
    figure("fig11-13", &["--elect"], |a| figures::fig11_13(a.elect)),
    sweep(
        "fig14-21",
        &["--policy", "--fig", "--tsv", "--shards"],
        1024,
        |a| drive(&traffic::Traffic, a),
    ),
    figure("zcr", &[], |_| figures::zcr()),
    sweep("ablation", &["--policy"], 256, |a| {
        drive(&grids::ABLATION, a)
    }),
    sweep("fault", &["--policy"], 128, |a| drive(&grids::FAULT, a)),
    sweep("policy", &["--policy"], 256, |a| drive(&policy::SWEEP, a)),
    sweep("scale", &["--smoke", "--mega", "--shards"], 32, |a| {
        drive(&scale::Scale, a)
    }),
    sweep("scenario", &["--smoke", "--shards"], 64, |a| {
        drive(&scenario::Scenarios, a)
    }),
    figure(
        "shard-scaling",
        &["--receivers", "--shards", "--seed", "--packets"],
        scale::shard_scaling,
    ),
];

/// Parses `text` as a number, naming the flag and what it takes on failure.
fn number<T: std::str::FromStr>(flag: &str, takes: &str, text: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| usage(format!("{flag} takes {takes}, got {text:?}")))
}

impl Args {
    /// Parses a subcommand's flags.
    fn parse(sub: &Subcommand, argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            seed: 42,
            threads: default_threads(),
            packets: match sub.run {
                Run::Sweep { packets, .. } => packets,
                Run::Figure(_) => 32, // shard-scaling measures a `scale` cell
            },
            policy: None,
            fig: None,
            tsv: false,
            smoke: false,
            mega: false,
            elect: false,
            shards: Vec::new(),
            receivers: 100_000,
            out: "results".to_string(),
            check: None,
        };
        let mut argv = argv.iter();
        while let Some(flag) = argv.next() {
            let flag = flag.as_str();
            let mut value = |takes: &str| {
                argv.next()
                    .map(String::as_str)
                    .ok_or_else(|| usage(format!("{flag} takes {takes}")))
            };
            match flag {
                "--seed" => args.seed = number(flag, "a number", value("a number")?)?,
                "--threads" => {
                    let n: usize = number(flag, "a count", value("a count")?)?;
                    args.threads =
                        NonZeroUsize::new(n).ok_or_else(|| usage("--threads must be >= 1"))?;
                }
                "--packets" => args.packets = number(flag, "a count", value("a count")?)?,
                "--policy" => {
                    let takes = "ewma|percentile|optimizing";
                    let name = value(takes)?;
                    args.policy =
                        Some(PolicyConfig::named(name).ok_or_else(|| {
                            usage(format!("--policy takes {takes}, got {name:?}"))
                        })?);
                }
                "--fig" => {
                    let takes = "a figure number 14..=21";
                    let n: u32 = number(flag, takes, value(takes)?)?;
                    if !(14..=21).contains(&n) {
                        return Err(usage(format!("--fig takes {takes}, got {n}")));
                    }
                    args.fig = Some(n);
                }
                "--shards" => {
                    // One count per sweep engine; a list for the figure
                    // that compares shard counts.
                    let list = matches!(sub.run, Run::Figure(_));
                    let takes = if list {
                        "a comma-separated list of positive shard counts"
                    } else {
                        "a positive shard count"
                    };
                    args.shards = value(takes)?
                        .split(',')
                        .map(|s| number(flag, takes, s.trim()))
                        .collect::<Result<_, _>>()?;
                    if args.shards.contains(&0) || (args.shards.len() != 1 && !list) {
                        return Err(usage(format!("--shards takes {takes}")));
                    }
                }
                "--receivers" => {
                    args.receivers = number(flag, "a receiver count", value("a receiver count")?)?
                }
                "--out" => args.out = value("a directory")?.to_string(),
                "--check" => args.check = Some(value("a summary JSON path")?.to_string()),
                "--tsv" => args.tsv = true,
                "--smoke" => args.smoke = true,
                "--mega" => args.mega = true,
                "--elect" => args.elect = true,
                other => return Err(usage(format!("unknown argument {other:?}"))),
            }
            let applies = sub.flags.contains(&flag)
                || (matches!(sub.run, Run::Sweep { .. }) && SWEEP_FLAGS.contains(&flag));
            if !applies {
                return Err(usage(format!("{flag} does not apply to {}", sub.name)));
            }
        }
        Ok(args)
    }
}

/// Runs `sharqfec-bench` on the arguments after the program name and
/// returns the process exit status.
pub fn main(argv: &[String]) -> ExitCode {
    let run = || {
        let Some((name, flags)) = argv.split_first() else {
            return Err(usage("missing subcommand"));
        };
        let Some(sub) = SUBCOMMANDS.iter().find(|s| s.name == name) else {
            return Err(usage(format!("unknown subcommand {name:?}")));
        };
        let args = Args::parse(sub, flags)?;
        match sub.run {
            Run::Figure(print) => {
                print(&args);
                Ok(ExitCode::SUCCESS)
            }
            Run::Sweep { drive, .. } => drive(&args),
        }
    };
    run().unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::from(EXIT_FAILED)
    })
}

/// How a finished sweep ran, for its table's header line.
#[derive(Clone, Copy, Debug)]
pub struct Ran {
    /// Cells in the grid.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

/// What one sweep contributes to the shared driver.
pub trait Sweep: Sync {
    /// One planned grid cell.
    type Cell: Sync;
    /// What running a cell yields.
    type Outcome: Send;

    /// Sweep name: the summary lands in `<out>/<name>.json`.
    fn name(&self) -> &'static str;
    /// The grid, each cell with its unique label.
    fn plan(&self, args: &Args) -> Vec<(String, Self::Cell)>;
    /// Runs one cell; a pure function of `(cell, args)`.
    fn run(&self, cell: &Self::Cell, args: &Args) -> Self::Outcome;
    /// The per-cell numbers published to the summary JSON.
    fn metrics(&self, outcome: &Self::Outcome) -> Vec<(String, f64)>;
    /// Prints the sweep's table or figures to stdout.
    fn print(&self, args: &Args, ran: Ran, outcomes: &[Self::Outcome]);
    /// The live failure rule: one message per invariant a finished cell
    /// violated (any message fails the run with exit status 2).
    fn failures(&self, outcome: &Self::Outcome) -> Vec<String>;
    /// Whether `--check` demands `unrecovered == 0` of the labelled cell.
    fn must_deliver(&self, _label: &str) -> bool {
        true
    }
    /// The sweep's own gates over a parsed summary, beyond the per-cell
    /// rules of [`check_summary`].
    fn check(&self, _summary: &SweepSummary, _problems: &mut Vec<String>) {}
}

/// The failure message for an audited run whose auditor found violations.
pub fn audit_failure(label: &str, audit: &AuditOutcome) -> Option<String> {
    (!audit.ok()).then(|| format!("{label}: {}", audit.summary))
}

/// The failure message for a run that ended with packets unrecovered.
pub fn delivery_failure(label: &str, unrecovered: u64) -> Option<String> {
    (unrecovered > 0).then(|| format!("{label}: {unrecovered} packets unrecovered"))
}

/// The table cell summarizing an auditor verdict.
pub fn audit_column(audit: &AuditOutcome) -> String {
    if audit.ok() {
        "ok".to_string()
    } else {
        format!("{} violations", audit.violations)
    }
}

/// Prints a sweep's title, its `(N cells on T threads…)` line, and its
/// aligned table.
pub fn print_table(
    title: &str,
    ran: Ran,
    recorder: &str,
    header: Vec<&str>,
    rows: impl Iterator<Item = Vec<String>>,
) {
    let mut t = Table::new(header);
    for row in rows {
        t.row(row);
    }
    println!("{title}");
    println!(
        "({} cells on {} threads, {:.1}s wall, {recorder} recorder)",
        ran.cells,
        ran.threads,
        ran.wall.as_secs_f64()
    );
    println!();
    println!("{}", t.to_aligned());
}

/// Applies a `--policy` override (when given) to every SHARQFEC
/// scenario in a grid; SRM cells pass through untouched.  An `ni` cell
/// still injects nothing: its variant, not its policy, decides that.
pub fn apply_policy_override(specs: Vec<Scenario>, policy: Option<&PolicyConfig>) -> Vec<Scenario> {
    let Some(p) = policy else {
        return specs;
    };
    specs
        .into_iter()
        .map(|s| match s.protocol {
            crate::Protocol::Sharqfec(_) => s.with_policy(*p),
            crate::Protocol::Srm(_) => s,
        })
        .collect()
}

/// Prints every violation and returns the failing exit status.
fn fail(heading: &str, violations: &[String]) -> ExitCode {
    eprintln!("{heading}");
    for v in violations {
        eprintln!("  {v}");
    }
    ExitCode::from(EXIT_FAILED)
}

/// The shared driver: with `--check`, validates the named summary;
/// otherwise fans the sweep's grid over the parallel runner (every cell
/// at the root seed), writes the summary JSON under `--out`, prints the
/// table, and fails the run if any cell violated the sweep's failure
/// rule.
///
/// # Panics
///
/// Panics, after the summary is written, if a cell itself panicked.
pub fn drive<S: Sweep>(sweep: &S, args: &Args) -> Result<ExitCode, CliError> {
    if let Some(path) = &args.check {
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::Unreadable(path.clone(), e))?;
        let summary =
            SweepSummary::parse(&text).map_err(|e| CliError::Malformed(path.clone(), e))?;
        let problems = check_summary(sweep, &summary);
        if problems.is_empty() {
            println!("{path}: ok ({} bytes)", text.len());
            return Ok(ExitCode::SUCCESS);
        }
        return Ok(fail(
            &format!("{path}: {} problem(s):", problems.len()),
            &problems,
        ));
    }

    let plan = sweep.plan(args);
    let cells = plan
        .iter()
        .map(|(label, _)| Cell::new(label.clone(), args.seed))
        .collect();
    let results = run_sweep(cells, args.threads, |cell| {
        let (_, spec) = plan
            .iter()
            .find(|(label, _)| *label == cell.scenario)
            .expect("cell matches a planned cell");
        sweep.run(spec, args)
    });
    let ran = Ran {
        cells: plan.len(),
        threads: results.threads,
        wall: results.wall,
    };
    // On stderr, so tables stay pipeable.
    match results.write_json(&args.out, sweep.name(), |o| sweep.metrics(o)) {
        Ok(path) => eprintln!("summary: {}", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
    let outcomes = results.into_values();
    sweep.print(args, ran, &outcomes);
    let failures: Vec<String> = outcomes.iter().flat_map(|o| sweep.failures(o)).collect();
    if failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(fail("invariant auditor found violations:", &failures))
    }
}

/// Validates a parsed summary against a sweep: the right sweep, no
/// failed cells, every cell ok with zero audit violations and (where
/// the sweep [demands it](Sweep::must_deliver)) nothing unrecovered,
/// then the sweep's [own gates](Sweep::check).  Returns problems (empty
/// = pass).
pub fn check_summary<S: Sweep>(sweep: &S, summary: &SweepSummary) -> Vec<String> {
    let mut problems = Vec::new();
    if summary.sweep != sweep.name() {
        problems.push(format!(
            "sweep is {:?}, expected {:?}",
            summary.sweep,
            sweep.name()
        ));
    }
    if summary.cells_failed != 0 {
        problems.push("has failed cells".to_string());
    }
    if summary.cells.is_empty() {
        problems.push("no cells found".to_string());
    }
    for c in &summary.cells {
        let label = &c.scenario;
        if c.result.is_err() {
            problems.push(format!("cell {label:?} not ok"));
            continue;
        }
        if c.metric("audit_violations") != Some(0.0) {
            problems.push(format!("cell {label:?} has audit violations"));
        }
        if sweep.must_deliver(label) && c.metric("unrecovered") != Some(0.0) {
            problems.push(format!("cell {label:?} did not deliver everything"));
        }
    }
    sweep.check(summary, &mut problems);
    problems
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Protocol, Workload};
    use sharqfec::{SharqfecConfig, Variant};
    use sharqfec_netsim::runner::{CellOutcome, SweepResults};
    use sharqfec_srm::SrmConfig;

    const W: Workload = Workload {
        packets: 1,
        tail_secs: 1,
    };

    fn config_of(s: &Scenario) -> &SharqfecConfig {
        match &s.protocol {
            Protocol::Sharqfec(cfg) => cfg,
            Protocol::Srm(_) => unreachable!(),
        }
    }

    #[test]
    fn policy_override_rewrites_sharqfec_cells_only() {
        let specs = vec![
            Scenario::sharqfec("sf", SharqfecConfig::full(), W),
            Scenario::srm("srm", SrmConfig::default(), W),
        ];
        let out = apply_policy_override(specs, Some(&PolicyConfig::Optimizing));
        assert_eq!(config_of(&out[0]).policy, PolicyConfig::Optimizing);
        assert!(matches!(out[1].protocol, Protocol::Srm(_)));

        let kept = apply_policy_override(
            vec![Scenario::sharqfec("sf", SharqfecConfig::full(), W)],
            None,
        );
        assert_eq!(config_of(&kept[0]).policy.name(), "ewma");
    }

    #[test]
    fn policy_override_preserves_a_cells_disabled_injection_gate() {
        let no_injection = SharqfecConfig::variant(Variant::NoInjection);
        let out = apply_policy_override(
            vec![Scenario::sharqfec("sf", no_injection, W)],
            Some(&PolicyConfig::Optimizing),
        );
        let cfg = config_of(&out[0]);
        assert_eq!(cfg.policy, PolicyConfig::Optimizing);
        assert_eq!(
            cfg.variant,
            Variant::NoInjection,
            "--policy must not enable injection"
        );
    }

    /// A fixture cell's published metrics.
    pub(crate) type Metrics = Vec<(&'static str, f64)>;

    /// A summary as the writer emits it (read back through the parser)
    /// for the sweeps' `--check` tests: ok cells at seed 42 with the
    /// given metrics.
    pub(crate) fn summary_of(sweep: &str, cells: &[(String, Metrics)]) -> SweepSummary {
        let outcomes = cells
            .iter()
            .map(|(label, metrics)| CellOutcome {
                cell: Cell::new(label.clone(), 42),
                wall: Duration::ZERO,
                result: Ok(metrics.clone()),
            })
            .collect();
        let results = SweepResults {
            outcomes,
            threads: 1,
            wall: Duration::ZERO,
        };
        let json = results.to_json(sweep, |m| {
            m.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        });
        SweepSummary::parse(&json).expect("the writer's output parses")
    }

    /// Two cells that report the seed they ran at.
    struct Echo;

    impl Sweep for Echo {
        type Cell = ();
        type Outcome = u64;

        fn name(&self) -> &'static str {
            "echo"
        }
        fn plan(&self, _: &Args) -> Vec<(String, ())> {
            vec![("a".to_string(), ()), ("b".to_string(), ())]
        }
        fn run(&self, (): &(), args: &Args) -> u64 {
            args.seed
        }
        fn metrics(&self, seed: &u64) -> Vec<(String, f64)> {
            vec![("ran_at".to_string(), *seed as f64)]
        }
        fn print(&self, _: &Args, _: Ran, _: &[u64]) {}
        fn failures(&self, _: &u64) -> Vec<String> {
            Vec::new()
        }
    }

    #[test]
    fn scenario_sweep_runs_every_cell_at_the_root_seed() {
        let out = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/tmp/bench_cli_echo"
        );
        let args = parse("ablation", &["--seed", "7", "--threads", "1", "--out", out]).unwrap();
        drive(&Echo, &args).expect("no usage error");
        let text = std::fs::read_to_string(format!("{out}/echo.json")).expect("summary written");
        let summary = SweepSummary::parse(&text).expect("summary parses");
        let ran: Vec<_> = summary
            .cells
            .iter()
            .map(|c| (c.scenario.as_str(), c.seed, c.metric("ran_at")))
            .collect();
        assert_eq!(ran, vec![("a", 7, Some(7.0)), ("b", 7, Some(7.0))]);
    }

    fn parse(sub: &str, flags: &[&str]) -> Result<Args, CliError> {
        let sub = SUBCOMMANDS.iter().find(|s| s.name == sub).expect("known");
        let flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        Args::parse(sub, &flags)
    }

    #[test]
    fn flags_parse_to_each_subcommands_defaults() {
        let a = parse("fault", &[]).unwrap();
        assert_eq!((a.seed, a.packets, a.out.as_str()), (42, 128, "results"));
        assert_eq!(a.shard_count(), 1);
        let a = parse("fig14-21", &["--fig", "17", "--shards", "4", "--tsv"]).unwrap();
        assert_eq!(
            (a.packets, a.fig, a.shard_count(), a.tsv),
            (1024, Some(17), 4, true)
        );
        let a = parse("shard-scaling", &["--shards", "1, 2,8"]).unwrap();
        assert_eq!(a.shards, vec![1, 2, 8]);
    }
}

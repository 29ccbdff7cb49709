//! The large-n scaling sweep (the `scale` subcommand): SHARQFEC vs SRM on
//! the hierarchical `topology::scaled` generator at n ∈ {10², 10³, 10⁴,
//! 10⁵, opt-in 10⁶} receivers.
//!
//! This is the measurement the paper could only argue analytically (§5.1):
//! session traffic O(Σ n_α²) for scoped announcements against SRM's
//! global O(n²), and per-receiver resident state bounded by zone size
//! against SRM's full-membership peer table.  Each cell runs the same
//! short CBR workload on the same generated tree, with the protocol's
//! session layer on, and reports
//!
//! * `session_deliveries` — session-class packets delivered, as measured;
//! * `session_norm` — the full-fidelity estimate `measured ×
//!   announce_stride` (see below; stride is 1 wherever feasible);
//! * `state_bytes_per_rx` — mean [`Agent::state_bytes`] across receivers
//!   via the [`Engine::state_bytes`] accounting hooks;
//! * `events` / `events_per_sec` — simulator throughput.
//!
//! **Lossless links.**  The sweep isolates the *session plane*, where the
//! scaling claim lives.  The repair plane is exercised by the paper-scale
//! sweeps (ablation/fault/policy); at n = 10⁵ a single global SRM
//! request/repair round costs O(n) deliveries per loss, which would
//! swamp the event budget without adding information about session
//! scaling.
//!
//! **Announcer sampling.**  A full SRM announce round is n multicasts × n
//! deliveries = O(n²) simulated events — at n = 10⁵ that is 10¹⁰ events
//! per round, infeasible to simulate honestly.  Large SRM cells therefore
//! rotate announcers ([`SrmConfig::announce_stride`]): member `m`
//! announces only in rounds `r` with `(m + r) % stride == 0`, so each
//! round a deterministic 1/stride of the membership announces.  The
//! measured traffic times the stride is an unbiased estimate of one
//! round's full-fidelity traffic and is reported as `session_norm`.  The
//! stride thins traffic, not state: an SRM peer table has one slot per
//! member id from the first announcement heard, so `state_bytes_per_rx`
//! is exact at every cell.  Not every residue class gets a turn, though:
//! an 8 s cell holds six or seven announce rounds (members join at 1 s;
//! the last round falls just after the stream ends), so at a stride
//! above that only the classes whose rounds came up announce, and
//! `peers_per_rx` counts only them (the committed `srm/n=100000` cell,
//! stride 50, reads 12 839.87 peers, 12.8 % of n).
//! SHARQFEC cells never stride — zone-scoped announcements are O(n·z̄)
//! per round and simulate in full at every n.
//!
//! `scale --check` gates the emitted `results/BENCH_scale_sweep.json`:
//! every cell audited clean at full delivery, SHARQFEC's session traffic
//! below SRM's at the crossover bound n = 10⁴ (and at the largest common
//! cell), a smaller fitted session-traffic exponent, SHARQFEC state flat
//! in n while SRM's grows.
//!
//! `--smoke` runs the 10²/10³ CI grid; the default adds 10⁴ and 10⁵;
//! `--mega` appends the opt-in 10⁶ cell (consider `--threads 1` — two
//! million-agent engines resident at once is a lot of memory).
//! `--shards K` runs each engine sharded over K zone subtrees
//! (conservative PDES); results are bit-identical to `--shards 1`, only
//! `events_per_sec`/`wall_ms` change.
//!
//! [`Agent::state_bytes`]: sharqfec_netsim::Agent::state_bytes
//! [`Engine::state_bytes`]: sharqfec_netsim::Engine::state_bytes
//! [`SrmConfig::announce_stride`]: sharqfec_srm::SrmConfig::announce_stride

use crate::cli::{self, Args, Ran, Sweep};
use crate::{drive, AuditOutcome, Driven, JOIN_AT};
use sharqfec::{setup_sharqfec_builder, SfAgent, SharqfecConfig};
use sharqfec_analysis::table::Table;
use sharqfec_netsim::faults::FaultPlan;
use sharqfec_netsim::probe::AuditConfig;
use sharqfec_netsim::runner::SweepSummary;
use sharqfec_netsim::{Classify, EngineBuilder, RecorderMode, SimDuration, SimTime, TrafficClass};
use sharqfec_srm::{setup_srm_builder, SrmConfig, SrmMember};
use sharqfec_topology::{scaled_tree, BuiltTopology, ScaledTreeParams};
use std::time::Instant;

/// The `scale` sweep; the summary lands in
/// `results/BENCH_scale_sweep.json`.
pub struct Scale;

/// Default receiver counts (the opt-in 10⁶ cell is appended by
/// `--mega`).
pub const SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// The CI smoke grid (`--smoke`): small enough for every run of ci.sh.
pub const SMOKE_SIZES: [usize; 2] = [100, 1_000];

/// The crossover bound the paper claims and `scale --check` enforces:
/// SHARQFEC session traffic must be below SRM's by this n.
pub const CROSSOVER_N: usize = 10_000;

/// One cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScaleCell {
    /// Receiver count (hubs + leaf receivers).
    pub receivers: usize,
    /// SRM baseline (`true`) or SHARQFEC (`false`).
    pub srm: bool,
}

impl ScaleCell {
    /// The cell's sweep label, `protocol/n=<receivers>`.
    pub fn label(&self) -> String {
        let proto = if self.srm { "srm" } else { "sharqfec" };
        format!("{proto}/n={}", self.receivers)
    }
}

/// Both protocols at every size, SHARQFEC first (cheapest cells first
/// within a protocol so smoke failures surface fast).
pub fn plan(sizes: &[usize]) -> Vec<ScaleCell> {
    let mut cells = Vec::new();
    for &srm in &[false, true] {
        for &receivers in sizes {
            cells.push(ScaleCell { receivers, srm });
        }
    }
    cells
}

/// SRM announcer-rotation stride per receiver count (see the module docs
/// for why and how this keeps the measurement honest).  Through n = 10⁴
/// the stride (at most 5) stays within the cell's six or seven announce
/// rounds, so every residue class announces and `peers_per_rx` is n − 1;
/// the 10⁵ cell (stride 50) and the opt-in 10⁶ cell trade peer count for
/// feasibility: `session_norm` stays an unbiased per-round estimate and
/// `state_bytes` exact, but `peers_per_rx` counts only the classes that
/// got a turn.
pub fn announce_stride(receivers: usize) -> u64 {
    match receivers {
        0..=9_999 => 1,
        10_000..=49_999 => 5,
        50_000..=499_999 => 50,
        _ => 5_000,
    }
}

/// What one cell measured.
#[derive(Clone, Debug)]
pub struct ScaleOutcome {
    /// The cell's label.
    pub label: String,
    /// Receiver count.
    pub receivers: usize,
    /// Session-class deliveries, as simulated.
    pub session_deliveries: usize,
    /// Announcer-rotation stride the cell ran with (1 = full fidelity).
    pub announce_stride: u64,
    /// Full-fidelity session-traffic estimate
    /// (`session_deliveries × announce_stride`).
    pub session_norm: f64,
    /// Data + repair deliveries.
    pub data_repair: usize,
    /// NACK transmissions.
    pub nacks: usize,
    /// Packets unrecovered across all receivers (must be 0).
    pub unrecovered: u64,
    /// Mean resident protocol-state bytes per receiver.
    pub state_bytes_per_rx: f64,
    /// Mean session peer-table entries per receiver (SRM cells; 0 for
    /// SHARQFEC, whose session state is inside `state_bytes_per_rx`).
    pub peers_per_rx: f64,
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

/// The session-announce interval both protocols run at (the SHARQFEC
/// session default is uniform 0.9–1.1 s; SRM announces at the same mean
/// rate so raw traffic is comparable).
const SRM_ANNOUNCE: SimDuration = SimDuration::from_millis(1_000);

fn scale_params(receivers: usize) -> ScaledTreeParams {
    ScaledTreeParams {
        // Lossless: see the module docs.
        hub_loss: (0.0, 0.0),
        leaf_loss: (0.0, 0.0),
        ..ScaledTreeParams::for_receivers(receivers)
    }
}

const HORIZON: SimTime = SimTime::from_secs(8);

/// Runs one cell: generate the tree, run the protocol with its session
/// layer on, collect aggregate metrics.  Deterministic in
/// `(cell, seed)` at any `shards` value — the sharded engine is
/// bit-identical to serial; only `events_per_sec` varies across machines
/// and shard counts.
pub fn run_cell(cell: ScaleCell, seed: u64, packets: u32, shards: usize) -> ScaleOutcome {
    let built = scaled_tree(&scale_params(cell.receivers), seed).built;
    if cell.srm {
        let stride = announce_stride(cell.receivers);
        let cfg = SrmConfig {
            total_packets: packets,
            session_announce: Some(SRM_ANNOUNCE),
            announce_stride: stride,
            ..SrmConfig::default()
        };
        let run = advance(
            &built,
            setup_srm_builder(&built, seed, cfg, JOIN_AT),
            shards,
        );
        let (mut unrecovered, mut peers) = (0u64, 0u64);
        for &r in &built.receivers {
            let a = run.engine.agent::<SrmMember>(r).expect("receiver");
            unrecovered += u64::from(a.missing());
            peers += a.session_peer_count() as u64;
        }
        outcome(cell, run, &built, (unrecovered, peers, stride))
    } else {
        let cfg = SharqfecConfig {
            total_packets: packets,
            ..SharqfecConfig::full()
        };
        let builder = setup_sharqfec_builder(&built, seed, cfg, JOIN_AT);
        let run = advance(&built, builder, shards);
        let missing = |&r| {
            let agent = run.engine.agent::<SfAgent>(r).expect("receiver");
            u64::from(agent.missing())
        };
        let unrecovered = built.receivers.iter().map(missing).sum();
        outcome(cell, run, &built, (unrecovered, 0, 1))
    }
}

/// Runs a protocol's builder to the horizon, audited, on the aggregate
/// recorder.
fn advance<M: Classify + Clone + Send + 'static>(
    built: &BuiltTopology,
    builder: EngineBuilder<M>,
    shards: usize,
) -> Driven<M> {
    let (aggregate, audit) = (RecorderMode::Aggregate, AuditConfig::default());
    let no_faults = FaultPlan::new();
    drive(built, builder, aggregate, audit, no_faults, HORIZON, shards)
}

/// Reads a finished run's aggregate metrics; `ran` is `(unrecovered,
/// session peers summed over receivers, announce stride)`.
fn outcome<M: Classify + Clone + 'static>(
    cell: ScaleCell,
    run: Driven<M>,
    built: &BuiltTopology,
    (unrecovered, peers_sum, announce_stride): (u64, u64, u64),
) -> ScaleOutcome {
    let rec = run.engine.recorder();
    let state_sum: u64 = built
        .receivers
        .iter()
        .map(|&r| run.engine.agent_state_bytes(r) as u64)
        .sum();
    let session_deliveries = rec.total_delivered(TrafficClass::Session);
    let n = cell.receivers as f64;
    ScaleOutcome {
        label: cell.label(),
        receivers: cell.receivers,
        session_deliveries,
        announce_stride,
        session_norm: session_deliveries as f64 * announce_stride as f64,
        data_repair: rec.total_delivered(TrafficClass::Data)
            + rec.total_delivered(TrafficClass::Repair),
        nacks: rec.total_sent(TrafficClass::Nack),
        unrecovered,
        state_bytes_per_rx: state_sum as f64 / n,
        peers_per_rx: peers_sum as f64 / n,
        events: run.events,
        events_per_sec: run.events_per_sec,
        shards: run.shards,
        audit: run.audit,
    }
}

impl Sweep for Scale {
    type Cell = ScaleCell;
    type Outcome = ScaleOutcome;

    fn name(&self) -> &'static str {
        "BENCH_scale_sweep"
    }

    fn plan(&self, args: &Args) -> Vec<(String, ScaleCell)> {
        let mut sizes = if args.smoke {
            SMOKE_SIZES.to_vec()
        } else {
            SIZES.to_vec()
        };
        if args.mega {
            sizes.push(1_000_000);
        }
        plan(&sizes).into_iter().map(|c| (c.label(), c)).collect()
    }

    fn run(&self, cell: &ScaleCell, args: &Args) -> ScaleOutcome {
        run_cell(*cell, args.seed, args.packets, args.shard_count())
    }

    fn metrics(&self, o: &ScaleOutcome) -> Vec<(String, f64)> {
        vec![
            ("receivers".into(), o.receivers as f64),
            ("session_deliveries".into(), o.session_deliveries as f64),
            ("announce_stride".into(), o.announce_stride as f64),
            ("session_norm".into(), o.session_norm),
            ("data_repair".into(), o.data_repair as f64),
            ("nacks".into(), o.nacks as f64),
            ("unrecovered".into(), o.unrecovered as f64),
            ("state_bytes_per_rx".into(), o.state_bytes_per_rx),
            ("peers_per_rx".into(), o.peers_per_rx),
            ("events".into(), o.events as f64),
            ("events_per_sec".into(), o.events_per_sec),
            ("shards".into(), o.shards as f64),
            ("audit_events".into(), o.audit.events as f64),
            ("audit_violations".into(), o.audit.violations as f64),
        ]
    }

    fn print(&self, args: &Args, ran: Ran, outcomes: &[ScaleOutcome]) {
        let title = format!(
            "SHARQFEC-vs-SRM scaling sweep ({} packets, scaled trees, \
             lossless session plane, seed {})",
            args.packets, args.seed
        );
        let header = vec![
            "cell",
            "session",
            "(norm)",
            "stride",
            "state B/rx",
            "peers/rx",
            "events",
            "ev/s",
            "audit",
        ];
        let rows = outcomes.iter().map(|o| {
            vec![
                o.label.clone(),
                o.session_deliveries.to_string(),
                format!("{:.3e}", o.session_norm),
                o.announce_stride.to_string(),
                format!("{:.0}", o.state_bytes_per_rx),
                format!("{:.0}", o.peers_per_rx),
                o.events.to_string(),
                format!("{:.2e}", o.events_per_sec),
                cli::audit_column(&o.audit),
            ]
        });
        cli::print_table(&title, ran, "aggregate", header, rows);
    }

    fn failures(&self, o: &ScaleOutcome) -> Vec<String> {
        cli::audit_failure(&o.label, &o.audit)
            .into_iter()
            .chain(cli::delivery_failure(&o.label, o.unrecovered))
            .collect()
    }

    /// Over either the committed full sweep or a `--smoke` run: both
    /// protocols at every size, SHARQFEC session traffic below SRM's at
    /// every size ≥ [`CROSSOVER_N`] and at the largest size present, and —
    /// when three or more sizes are present — a smaller fitted
    /// session-traffic exponent plus flat-vs-growing per-receiver state.
    fn check(&self, summary: &SweepSummary, problems: &mut Vec<String>) {
        // A metric for one (protocol, size), when that cell exists and is ok.
        let lookup = |srm: bool, n: usize, key: &str| -> Option<f64> {
            summary
                .cell(&ScaleCell { receivers: n, srm }.label())?
                .metric(key)
        };
        let mut sizes: Vec<usize> = summary
            .cells
            .iter()
            .filter_map(|c| c.scenario.split_once("/n=")?.1.parse().ok())
            .collect();
        sizes.sort_unstable();
        sizes.dedup();

        let mut sf_traffic = Vec::new();
        let mut srm_traffic = Vec::new();
        let mut sf_state = Vec::new();
        let mut srm_state = Vec::new();
        for &n in &sizes {
            let (Some(sf), Some(srm)) = (
                lookup(false, n, "session_norm"),
                lookup(true, n, "session_norm"),
            ) else {
                problems.push(format!("size n={n} missing one of the two protocols"));
                continue;
            };
            sf_traffic.push((n as f64, sf));
            srm_traffic.push((n as f64, srm));
            if let (Some(a), Some(b)) = (
                lookup(false, n, "state_bytes_per_rx"),
                lookup(true, n, "state_bytes_per_rx"),
            ) {
                sf_state.push((n, a));
                srm_state.push((n, b));
            }
            // The paper's crossover: scoped session traffic must be the
            // cheaper one from CROSSOVER_N up, and already at the largest
            // cell any run produces.
            if (n >= CROSSOVER_N || Some(&n) == sizes.last()) && sf >= srm {
                problems.push(format!(
                    "no crossover at n={n}: sharqfec session {sf} >= srm {srm}"
                ));
            }
        }

        if sizes.len() < 3 {
            return;
        }
        match (loglog_slope(&sf_traffic), loglog_slope(&srm_traffic)) {
            (Some(sf), Some(srm)) if sf + EXPONENT_MARGIN < srm => {}
            (sf, srm) => problems.push(format!(
                "session-traffic exponents do not separate: sharqfec {sf:?} vs srm {srm:?} \
                 (need srm > sharqfec + {EXPONENT_MARGIN})"
            )),
        }
        // State: SHARQFEC flat in n (zone-bounded; zone sizes drift with
        // the generator's tiering, hence the loose factor), SRM growing
        // with the membership it must track.
        let ratio = |v: &[(usize, f64)]| -> Option<f64> {
            let lo = v.first()?.1;
            let hi = v.last()?.1;
            (lo > 0.0).then(|| hi / lo)
        };
        match ratio(&sf_state) {
            Some(r) if r < 8.0 => {}
            r => problems.push(format!(
                "sharqfec per-receiver state not flat in n (max/min {r:?}, need < 8)"
            )),
        }
        match ratio(&srm_state) {
            Some(r) if r > 10.0 => {}
            r => problems.push(format!(
                "srm per-receiver state not growing with n (max/min {r:?}, need > 10)"
            )),
        }
        for ((n, sf), (_, srm)) in sf_state.iter().zip(&srm_state) {
            if *n >= CROSSOVER_N && sf >= srm {
                problems.push(format!(
                    "at n={n} sharqfec state {sf} should be below srm {srm}"
                ));
            }
        }
    }
}

/// Least-squares slope of ln(y) against ln(x) — the fitted power-law
/// exponent.  `None` with fewer than two usable points.
fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (sxx, sxy): (f64, f64) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x * x, b + x * y));
    let denom = n * sxx - sx * sx;
    (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
}

/// Fitted-exponent margin `scale --check` demands between SRM's and
/// SHARQFEC's session-traffic growth (measured: ~2.0 vs ~1.4).
pub const EXPONENT_MARGIN: f64 = 0.25;

/// `shard-scaling` — one SHARQFEC scale cell run serially and at
/// increasing shard counts, verifying bit-identical results while
/// reporting throughput per configuration.
///
/// The sharded engine is a conservative PDES: correctness never depends
/// on shard count, so the only honest question is throughput.  On a
/// single-core host the shard workers time-slice one CPU and the
/// barrier protocol is pure overhead — expect speedup ≤ 1 there; the
/// measurement is still useful as the determinism gate and as the
/// baseline the multi-core numbers are read against.
///
/// # Panics
///
/// Panics if a sharded run diverges from the first configuration's.
pub fn shard_scaling(args: &Args) {
    let (receivers, packets, seed) = (args.receivers, args.packets, args.seed);
    let shard_counts: &[usize] = if args.shards.is_empty() {
        &[1, 2, 4, 8]
    } else {
        &args.shards
    };
    let cell = ScaleCell {
        receivers,
        srm: false,
    };
    println!(
        "shard scaling on sharqfec/n={receivers} ({packets} packets, seed {seed}, \
         host cores: {})",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!();

    let runs: Vec<(f64, ScaleOutcome)> = shard_counts
        .iter()
        .map(|&shards| {
            let start = Instant::now();
            let outcome = run_cell(cell, seed, packets, shards);
            (start.elapsed().as_secs_f64(), outcome)
        })
        .collect();

    // Determinism gate: every sharded run must match the first run
    // field-for-field on everything but throughput.
    let (serial_wall, baseline) = &runs[0];
    for (_, o) in &runs[1..] {
        let same = o.session_deliveries == baseline.session_deliveries
            && o.session_norm == baseline.session_norm
            && o.data_repair == baseline.data_repair
            && o.nacks == baseline.nacks
            && o.unrecovered == baseline.unrecovered
            && o.state_bytes_per_rx == baseline.state_bytes_per_rx
            && o.peers_per_rx == baseline.peers_per_rx
            && o.events == baseline.events
            && o.audit == baseline.audit;
        assert!(
            same,
            "sharded run ({} shards) diverged from the {}-shard baseline",
            o.shards, baseline.shards
        );
    }

    let mut t = Table::new(vec!["shards", "events", "wall s", "ev/s", "speedup"]);
    for (wall, o) in &runs {
        t.row(vec![
            o.shards.to_string(),
            o.events.to_string(),
            format!("{wall:.1}"),
            format!("{:.2e}", o.events_per_sec),
            format!("{:.2}x", serial_wall / wall),
        ]);
    }
    println!("{}", t.to_aligned());
    println!();
    println!(
        "all {} configurations bit-identical ({} events, {} unrecovered, audit {})",
        runs.len(),
        baseline.events,
        baseline.unrecovered,
        if baseline.audit.ok() { "ok" } else { "FAILED" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::tests::{summary_of, Metrics};

    #[test]
    fn plan_orders_cheap_cells_first_within_each_protocol() {
        let cells = plan(&SIZES);
        assert_eq!(cells.len(), 2 * SIZES.len());
        assert!(!cells[0].srm && cells[0].receivers == 100);
        assert_eq!(cells[0].label(), "sharqfec/n=100");
        assert_eq!(cells[SIZES.len()].label(), "srm/n=100");
    }

    #[test]
    fn strides_are_full_fidelity_through_the_crossover_bound() {
        assert_eq!(announce_stride(100), 1);
        assert_eq!(announce_stride(1_000), 1);
        // 10⁴ rotates but its six or seven rounds still cover every
        // residue class, so peer tables stay complete.
        assert!(announce_stride(10_000) <= 5);
        assert!(announce_stride(100_000) > announce_stride(10_000));
    }

    #[test]
    fn loglog_slope_recovers_power_laws() {
        let quad: Vec<(f64, f64)> = [1e2, 1e3, 1e4].iter().map(|&n| (n, 3.0 * n * n)).collect();
        assert!((loglog_slope(&quad).unwrap() - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = [1e2, 1e3, 1e4].iter().map(|&n| (n, 7.0 * n)).collect();
        assert!((loglog_slope(&lin).unwrap() - 1.0).abs() < 1e-9);
        assert!(loglog_slope(&[(1.0, 1.0)]).is_none());
    }

    /// The problems `--check` finds in a summary of `(protocol, n,
    /// metrics)` cells.
    fn synthetic(cells: &[(&str, usize, Metrics)]) -> Vec<String> {
        let cells: Vec<_> = cells
            .iter()
            .map(|(proto, n, metrics)| (format!("{proto}/n={n}"), metrics.clone()))
            .collect();
        cli::check_summary(&Scale, &summary_of(Scale.name(), &cells))
    }

    fn healthy_metrics(session: f64, state: f64) -> Metrics {
        vec![
            ("session_norm", session),
            ("state_bytes_per_rx", state),
            ("unrecovered", 0.0),
            ("audit_violations", 0.0),
        ]
    }

    #[test]
    fn check_passes_a_healthy_sweep_and_catches_a_missing_crossover() {
        // SHARQFEC ~n^1.3, SRM ~n^2, SF state flat, SRM state linear.
        let good = synthetic(&[
            ("sharqfec", 100, healthy_metrics(4e3, 2000.0)),
            ("sharqfec", 1000, healthy_metrics(8e4, 3000.0)),
            ("sharqfec", 10000, healthy_metrics(1.6e6, 4000.0)),
            ("srm", 100, healthy_metrics(5e4, 3000.0)),
            ("srm", 1000, healthy_metrics(5e6, 30000.0)),
            ("srm", 10000, healthy_metrics(5e8, 300000.0)),
        ]);
        assert_eq!(good, Vec::<String>::new());

        // SHARQFEC above SRM at the crossover bound must fail.
        let crossed = synthetic(&[
            ("sharqfec", 100, healthy_metrics(4e3, 2000.0)),
            ("sharqfec", 1000, healthy_metrics(8e4, 3000.0)),
            ("sharqfec", 10000, healthy_metrics(6e8, 4000.0)),
            ("srm", 100, healthy_metrics(5e4, 3000.0)),
            ("srm", 1000, healthy_metrics(5e6, 30000.0)),
            ("srm", 10000, healthy_metrics(5e8, 300000.0)),
        ]);
        assert!(crossed
            .iter()
            .any(|p| p.contains("no crossover at n=10000")));

        // An audit violation must fail.
        let mut metrics = healthy_metrics(1.0, 1.0);
        metrics[3].1 = 2.0;
        let violated = synthetic(&[("sharqfec", 100, metrics)]);
        assert!(violated.iter().any(|p| p.contains("audit violations")));
    }

    /// The sharded engine must not change a single published number:
    /// every field of [`ScaleOutcome`] except throughput (and the shard
    /// count itself) is bit-identical between serial and 4-shard runs,
    /// for both protocols.
    #[test]
    fn sharded_scale_cell_matches_serial() {
        for srm in [false, true] {
            let cell = ScaleCell {
                receivers: 100,
                srm,
            };
            let serial = run_cell(cell, 42, 24, 1);
            let sharded = run_cell(cell, 42, 24, 4);
            assert_eq!(serial.shards, 1);
            assert!(sharded.shards > 1, "the scaled tree must actually shard");
            assert_eq!(serial.label, sharded.label);
            assert_eq!(serial.session_deliveries, sharded.session_deliveries);
            assert_eq!(serial.session_norm, sharded.session_norm);
            assert_eq!(serial.data_repair, sharded.data_repair);
            assert_eq!(serial.nacks, sharded.nacks);
            assert_eq!(serial.unrecovered, sharded.unrecovered);
            assert_eq!(serial.state_bytes_per_rx, sharded.state_bytes_per_rx);
            assert_eq!(serial.peers_per_rx, sharded.peers_per_rx);
            assert_eq!(serial.events, sharded.events);
            assert_eq!(serial.audit, sharded.audit);
        }
    }

    #[test]
    fn smoke_sized_summaries_skip_the_exponent_fit() {
        // Two sizes: crossover at the largest is enforced, exponents are
        // not (the fit needs three points).
        let smoke = synthetic(&[
            ("sharqfec", 100, healthy_metrics(4e3, 2000.0)),
            ("sharqfec", 1000, healthy_metrics(8e4, 3000.0)),
            ("srm", 100, healthy_metrics(5e4, 3000.0)),
            ("srm", 1000, healthy_metrics(5e6, 30000.0)),
        ]);
        assert_eq!(smoke, Vec::<String>::new());

        let inverted = synthetic(&[
            ("sharqfec", 100, healthy_metrics(4e3, 2000.0)),
            ("sharqfec", 1000, healthy_metrics(9e6, 3000.0)),
            ("srm", 100, healthy_metrics(5e4, 3000.0)),
            ("srm", 1000, healthy_metrics(5e6, 30000.0)),
        ]);
        assert!(inverted
            .iter()
            .any(|p| p.contains("no crossover at n=1000")));
    }
}

//! Seed-ensemble gate for the `policy` sweep's claim: on the long-burst
//! cells (`mb=8`, `mb=16`) the optimizing controller sends fewer repairs
//! than the EWMA, the rule `policy --check` applies at seed 42.  Over
//! seeds 1–8 at 256 packets it fails on exactly [`POLICY_KNOWN_FAILING`]:
//! a seed that starts to hold must leave that list, any other seed that
//! fails is a regression, and the ensemble is never trimmed to hide one.

use sharqfec_bench::policy::plan;
use sharqfec_netsim::runner::{default_threads, grid, run_sweep};

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Each long-burst cell's EWMA arm, then its optimizing arm.
const CELLS: [&str; 4] = [
    "ewma/mb=8",
    "optimizing/mb=8",
    "ewma/mb=16",
    "optimizing/mb=16",
];

/// Seeds on which optimizing's repairs are not below EWMA's in at least
/// one long-burst cell.
const POLICY_KNOWN_FAILING: [u64; 4] = [1, 3, 4, 5];

/// The one (cell, seed) that leaves a packet unrecovered or breaks an
/// audited invariant: a receiver closes a group short (ROADMAP item 1(a)).
const STALLED: [(&str, u64); 1] = [("optimizing/mb=8", 3)];

#[test]
fn optimizing_beats_ewma_on_long_bursts_but_on_the_known_seeds() {
    let scenarios = plan(256);
    let outcomes = run_sweep(grid(&CELLS, &SEEDS), default_threads(), |c| {
        let s = scenarios.iter().find(|s| s.label == c.scenario);
        s.expect("a planned cell").run(c.seed)
    })
    .into_values();
    // Outcome `k` is cell `k / 8` at seed `k % 8` (the grid is cell-major).
    let repairs = |cell: usize, i: usize| outcomes[cell * SEEDS.len() + i].repairs;
    let rows: Vec<(u64, [usize; 4])> = (SEEDS.iter().enumerate())
        .map(|(i, &seed)| (seed, [0, 1, 2, 3].map(|cell| repairs(cell, i))))
        .collect();
    let failing: Vec<u64> = (rows.iter())
        .filter(|(_, r)| r[1] >= r[0] || r[3] >= r[2])
        .map(|&(seed, _)| seed)
        .collect();
    assert_eq!(failing, POLICY_KNOWN_FAILING, "repairs {CELLS:?}: {rows:?}");

    let stalled: Vec<(&str, u64)> = (outcomes.iter().enumerate())
        .filter(|(_, o)| o.unrecovered > 0 || o.audit.as_ref().is_some_and(|a| !a.ok()))
        .map(|(k, _)| (CELLS[k / SEEDS.len()], SEEDS[k % SEEDS.len()]))
        .collect();
    assert_eq!(stalled, STALLED);
}

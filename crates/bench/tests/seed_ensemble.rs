//! Seed-ensemble gate: the scenario cell `n=500/flash=256/churn=on/
//! outage=on` at 64 packets over seeds 1–32.  The zone-wide recovery
//! stall (ROADMAP item 1(a)) fails exactly [`KNOWN_FAILING`] today: a seed
//! that starts to pass must leave that list, and any other seed that fails
//! is a regression.  The ensemble is never trimmed to hide a failure.

use sharqfec_bench::scenario::{run_cell, ScenarioCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

/// Seeds that leave a packet unrecovered or break an audited invariant.
const KNOWN_FAILING: [u64; 3] = [2, 16, 24];

#[test]
fn exactly_the_known_seeds_fail_the_flash_churn_outage_cell() {
    let cell = ScenarioCell {
        receivers: 500,
        flash: 256,
        churn: true,
        outage: true,
    };
    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    let (next, failed) = (AtomicU64::new(1), Mutex::new(Vec::new()));
    thread::scope(|s| {
        for _ in 0..threads.min(32) {
            s.spawn(|| {
                while let seed @ 1..=32 = next.fetch_add(1, Ordering::Relaxed) {
                    let out = run_cell(cell, seed, 64, 1);
                    if out.unrecovered > 0 || out.audit.violations > 0 {
                        let row = (seed, out.unrecovered, out.audit.violations);
                        failed.lock().expect("no worker panicked").push(row);
                    }
                }
            });
        }
    });
    let mut failed = failed.into_inner().expect("no worker panicked");
    failed.sort_unstable();
    let seeds: Vec<u64> = failed.iter().map(|f| f.0).collect();
    assert_eq!(seeds, KNOWN_FAILING, "{failed:?}");
}

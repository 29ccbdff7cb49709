//! Parallel experiment-sweep runner.
//!
//! Figure regeneration and ablation studies are grids of independent
//! simulation runs — (scenario, seed) cells that share nothing but code.
//! This module fans such a grid across OS threads with
//! [`std::thread::scope`]: every worker constructs its *own* [`Engine`]
//! inside its cell closure, so no engine state crosses a thread boundary
//! and `Engine` needs no `Send` bound.
//!
//! Guarantees, in order of importance:
//!
//! * **Determinism** — each cell is a pure function of its inputs, and
//!   results come back in cell order regardless of which worker ran what
//!   first.  A sweep at 8 threads is bit-identical to the same sweep at 1.
//! * **Isolation** — a panicking cell is caught and reported with its
//!   scenario and seed; the other cells complete normally.
//! * **Reporting** — [`SweepResults::write_json`] writes a
//!   machine-readable summary (status, wall time, and caller-chosen
//!   metrics per cell) under a results directory, and
//!   [`SweepSummary::parse`] reads one back: the summary format lives
//!   in this module and nowhere else, its lexing in [`crate::json`].
//!
//! Wall-clock fields in the summary are measured, hence *not*
//! deterministic; every simulation metric is.
//!
//! [`Engine`]: crate::engine::Engine

use crate::json::{json_number, json_string, ParseError, Parsed, Reader};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One (scenario, seed) grid cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Human-readable scenario label (e.g. `"k=16"` or `"fig14/srm"`).
    pub scenario: String,
    /// RNG seed for the run.
    pub seed: u64,
}

impl Cell {
    /// Convenience constructor.
    pub fn new(scenario: impl Into<String>, seed: u64) -> Cell {
        Cell {
            scenario: scenario.into(),
            seed,
        }
    }
}

/// The cross product of scenarios and seeds, scenarios-major (all seeds of
/// the first scenario, then the second, ...).
pub fn grid(scenarios: &[&str], seeds: &[u64]) -> Vec<Cell> {
    scenarios
        .iter()
        .flat_map(|s| seeds.iter().map(move |&seed| Cell::new(*s, seed)))
        .collect()
}

/// What happened to one cell.
#[derive(Debug)]
pub struct CellOutcome<T> {
    /// The cell that ran.
    pub cell: Cell,
    /// Wall-clock time the cell took (measured; not deterministic).
    pub wall: Duration,
    /// The cell's value, or the panic message if it panicked.
    pub result: Result<T, String>,
}

/// All outcomes of one sweep, in cell order.
#[derive(Debug)]
pub struct SweepResults<T> {
    /// Per-cell outcomes, index-aligned with the input cells.
    pub outcomes: Vec<CellOutcome<T>>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole sweep (measured; not deterministic).
    pub wall: Duration,
}

/// The machine's available parallelism, as a default worker count.
pub fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Runs `run` over every cell on `threads` workers and returns outcomes
/// in cell order.
///
/// Cells are claimed work-stealing style (an atomic cursor), so long cells
/// don't serialize behind short ones; a panic inside a cell is caught and
/// surfaces as that cell's `Err` without disturbing its neighbours.
pub fn run_sweep<T, F>(cells: Vec<Cell>, threads: NonZeroUsize, run: F) -> SweepResults<T>
where
    T: Send,
    F: Fn(&Cell) -> T + Sync,
{
    type Slot<T> = Option<(Duration, Result<T, String>)>;
    let started = Instant::now();
    let n = cells.len();
    let workers = threads.get().min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Slot<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let run = &run;
    let cells_ref = &cells;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = &cells_ref[i];
                let cell_start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| run(cell)))
                    .map_err(|payload| panic_message(cell, payload.as_ref()));
                let wall = cell_start.elapsed();
                slots.lock().expect("runner slots poisoned")[i] = Some((wall, result));
            });
        }
    });

    let outcomes = slots
        .into_inner()
        .expect("runner slots poisoned")
        .into_iter()
        .zip(cells)
        .map(|(slot, cell)| {
            let (wall, result) = slot.expect("every cell index was claimed");
            CellOutcome { cell, wall, result }
        })
        .collect();
    SweepResults {
        outcomes,
        threads: workers,
        wall: started.elapsed(),
    }
}

/// Renders a caught panic payload with the failing cell's coordinates.
fn panic_message(cell: &Cell, payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!(
        "cell '{}' (seed {}) panicked: {msg}",
        cell.scenario, cell.seed
    )
}

impl<T> SweepResults<T> {
    /// Number of cells that completed without panicking.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Outcomes of cells that panicked.
    pub fn failures(&self) -> Vec<&CellOutcome<T>> {
        self.outcomes.iter().filter(|o| o.result.is_err()).collect()
    }

    /// The values of all successful cells, in cell order, panicking with
    /// every failure message if any cell failed.
    pub fn into_values(self) -> Vec<T> {
        let mut errors = Vec::new();
        let mut values = Vec::new();
        for o in self.outcomes {
            match o.result {
                Ok(v) => values.push(v),
                Err(e) => errors.push(e),
            }
        }
        assert!(
            errors.is_empty(),
            "sweep had failures:\n{}",
            errors.join("\n")
        );
        values
    }

    /// Writes a machine-readable JSON summary to `dir/<name>.json`,
    /// creating `dir` if needed.  `metrics` extracts the per-cell numbers
    /// to publish (empty is fine).  Returns the path written.
    pub fn write_json(
        &self,
        dir: impl AsRef<Path>,
        name: &str,
        metrics: impl Fn(&T) -> Vec<(String, f64)>,
    ) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.to_json(name, metrics))?;
        Ok(path)
    }

    /// The JSON summary as a string (see [`SweepResults::write_json`]).
    pub fn to_json(&self, name: &str, metrics: impl Fn(&T) -> Vec<(String, f64)>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"sweep\": {},", json_string(name));
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"wall_ms\": {:.3},", self.wall.as_secs_f64() * 1e3);
        let _ = writeln!(s, "  \"cells_ok\": {},", self.ok_count());
        let _ = writeln!(
            s,
            "  \"cells_failed\": {},",
            self.outcomes.len() - self.ok_count()
        );
        s.push_str("  \"cells\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"scenario\": {}, \"seed\": {}, \"wall_ms\": {:.3}, ",
                json_string(&o.cell.scenario),
                o.cell.seed,
                o.wall.as_secs_f64() * 1e3
            );
            match &o.result {
                Ok(v) => {
                    s.push_str("\"status\": \"ok\", \"metrics\": {");
                    for (j, (k, val)) in metrics(v).iter().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        let _ = write!(s, "{}: {}", json_string(k), json_number(*val));
                    }
                    s.push_str("}}");
                }
                Err(e) => {
                    let _ = write!(
                        s,
                        "\"status\": \"panicked\", \"error\": {}}}",
                        json_string(e)
                    );
                }
            }
            s.push_str(if i + 1 < self.outcomes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A sweep summary read back from the JSON [`SweepResults::to_json`]
/// writes — the one reader of that format.  [`SweepSummary::parse`] is
/// the writer's inverse: it accepts exactly the fields the writer emits,
/// in the writer's order, in any whitespace layout, and nothing else.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSummary {
    /// Sweep name (the summary file's stem).
    pub sweep: String,
    /// Worker threads the sweep ran on.
    pub threads: usize,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// The writer's count of cells that completed.
    pub cells_ok: usize,
    /// The writer's count of cells that panicked.
    pub cells_failed: usize,
    /// Per-cell records, in cell order.
    pub cells: Vec<SummaryCell>,
}

/// One cell of a [`SweepSummary`].
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryCell {
    /// Scenario label.
    pub scenario: String,
    /// RNG seed the cell ran at.
    pub seed: u64,
    /// Wall-clock milliseconds the cell took.
    pub wall_ms: f64,
    /// An ok cell's metrics in written order (`None` is a non-finite
    /// value, written as `null`), or a panicked cell's error message.
    pub result: Result<Vec<(String, Option<f64>)>, String>,
}

impl SweepSummary {
    /// Parses a summary document: the writer's fields in the writer's
    /// order, in any whitespace layout.  Recursive descent directed by
    /// the summary's own shape, so nesting is bounded by construction
    /// (document → cells → cell → metrics) whatever the input holds.
    pub fn parse(text: &str) -> Result<SweepSummary, ParseError> {
        let mut r = Reader::new(text);
        let summary = SweepSummary {
            sweep: r.field("{", "\"sweep\"")?.string()?,
            threads: r.field(",", "\"threads\"")?.number("a thread count")?,
            wall_ms: r.field(",", "\"wall_ms\"")?.number("a number")?,
            cells_ok: r.field(",", "\"cells_ok\"")?.number("a cell count")?,
            cells_failed: r.field(",", "\"cells_failed\"")?.number("a cell count")?,
            cells: r.field(",", "\"cells\"")?.list("[", "]", cell)?,
        };
        r.token("}")?;
        r.end()?;
        Ok(summary)
    }

    /// The cell with the given scenario label (the first, if several
    /// seeds share it).
    pub fn cell(&self, scenario: &str) -> Option<&SummaryCell> {
        self.cells.iter().find(|c| c.scenario == scenario)
    }
}

impl SummaryCell {
    /// A metric's value; `None` when the cell panicked, the metric is
    /// absent, or it was written as `null`.
    pub fn metric(&self, key: &str) -> Option<f64> {
        let metrics = self.result.as_ref().ok()?;
        metrics.iter().find(|(k, _)| k == key)?.1
    }
}

/// `"name": <number or null>`.
fn metric(r: &mut Reader<'_>) -> Parsed<(String, Option<f64>)> {
    let name = r.string()?;
    r.token(":")?;
    let value = if r.eat("null") {
        None
    } else {
        Some(r.number("a number or null")?)
    };
    Ok((name, value))
}

fn cell(r: &mut Reader<'_>) -> Parsed<SummaryCell> {
    let scenario = r.field("{", "\"scenario\"")?.string()?;
    let seed = r.field(",", "\"seed\"")?.number("an unsigned seed")?;
    let wall_ms = r.field(",", "\"wall_ms\"")?.number("a number")?;
    let result = match r.field(",", "\"status\"")?.string()?.as_str() {
        "ok" => Ok(r.field(",", "\"metrics\"")?.list("{", "}", metric)?),
        "panicked" => Err(r.field(",", "\"error\"")?.string()?),
        _ => return r.err("status \"ok\" or \"panicked\""),
    };
    r.token("}")?;
    Ok(SummaryCell {
        scenario,
        seed,
        wall_ms,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_threads() -> NonZeroUsize {
        NonZeroUsize::new(2).unwrap()
    }

    #[test]
    fn grid_is_scenario_major() {
        let cells = grid(&["a", "b"], &[1, 2]);
        let got: Vec<(&str, u64)> = cells
            .iter()
            .map(|c| (c.scenario.as_str(), c.seed))
            .collect();
        assert_eq!(got, vec![("a", 1), ("a", 2), ("b", 1), ("b", 2)]);
    }

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<Cell> = (0..32).map(|i| Cell::new("c", i)).collect();
        let res = run_sweep(cells, two_threads(), |c| c.seed * 10);
        let values: Vec<u64> = res.into_values();
        assert_eq!(values, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cells = || grid(&["x", "y"], &(0..8).collect::<Vec<u64>>());
        let serial = run_sweep(cells(), NonZeroUsize::MIN, |c| {
            (c.scenario.clone(), c.seed * c.seed)
        });
        let parallel = run_sweep(cells(), NonZeroUsize::new(4).unwrap(), |c| {
            (c.scenario.clone(), c.seed * c.seed)
        });
        assert_eq!(serial.into_values(), parallel.into_values());
    }

    #[test]
    fn panics_are_captured_with_seed_and_scenario() {
        let cells = grid(&["stable"], &[1, 2, 3]);
        let res = run_sweep(cells, two_threads(), |c| {
            if c.seed == 2 {
                panic!("boom at {}", c.seed);
            }
            c.seed
        });
        assert_eq!(res.ok_count(), 2);
        let failures = res.failures();
        assert_eq!(failures.len(), 1);
        let msg = failures[0].result.as_ref().unwrap_err();
        assert!(msg.contains("seed 2"), "message names the seed: {msg}");
        assert!(msg.contains("boom"), "message keeps the payload: {msg}");
        // Surviving cells are untouched and ordered.
        assert_eq!(res.outcomes[0].result.as_ref().ok(), Some(&1));
        assert_eq!(res.outcomes[2].result.as_ref().ok(), Some(&3));
    }

    #[test]
    #[should_panic(expected = "sweep had failures")]
    fn into_values_surfaces_failures() {
        let res = run_sweep(grid(&["s"], &[1]), NonZeroUsize::MIN, |_| -> u64 {
            panic!("nope")
        });
        let _ = res.into_values();
    }

    #[test]
    fn json_summary_reads_back() {
        let res = run_sweep(grid(&["a\"b"], &[1, 2]), two_threads(), |c| {
            if c.seed == 2 {
                panic!("boom");
            }
            c.seed as f64
        });
        let json = res.to_json("unit", |v| vec![("value".to_string(), *v)]);
        let summary = SweepSummary::parse(&json).expect("the writer's output parses");
        assert_eq!(summary.sweep, "unit");
        assert_eq!((summary.cells_ok, summary.cells_failed), (1, 1));
        let ok = summary.cell("a\"b").expect("scenario quotes survive");
        assert_eq!((ok.seed, ok.metric("value")), (1, Some(1.0)));
        assert_eq!(ok.metric("absent"), None);
        let msg = summary.cells[1].result.as_ref().unwrap_err();
        assert!(msg.contains("seed 2") && msg.contains("boom"), "{msg}");
    }

    /// Malformed documents are typed errors carrying the offending
    /// offset — never a panic, and never recursion the input controls.
    #[test]
    fn parse_rejections_are_typed() {
        let good = run_sweep(grid(&["s"], &[1]), NonZeroUsize::MIN, |c| c.seed as f64)
            .to_json("unit", |v| vec![("value".to_string(), *v)]);
        assert!(SweepSummary::parse(&good).is_ok());
        let rejected = |text: &str| SweepSummary::parse(text).expect_err("must be rejected");

        for cut in 0..good.trim_end().len() {
            if good.is_char_boundary(cut) {
                assert!(rejected(&good[..cut]).offset <= cut, "truncated at {cut}");
            }
        }
        let trailing = rejected(&format!("{good}x"));
        assert_eq!(
            (trailing.offset, trailing.expected),
            (good.len(), "end of document")
        );
        assert_eq!(
            rejected("{\"sweep\": \"never closed").expected,
            "a closing '\"'"
        );
        assert_eq!(
            rejected("{\"sweep\": \"a\\qb\"}").expected,
            "an escape character"
        );
        // A lone surrogate is not a scalar value.
        assert!(rejected("{\"sweep\": \"\\ud800\"}")
            .expected
            .contains("hex digits"));
        let deep = "[".repeat(10_000);
        assert_eq!(rejected(&deep).offset, 0);
        let deep_metric = good.replace("\"value\": 1", &format!("\"value\": {deep}"));
        assert_eq!(rejected(&deep_metric).expected, "a number or null");
        assert_eq!(
            rejected(&good.replace("\"threads\"", "\"cores\"")).expected,
            "\"threads\""
        );
        assert_eq!(
            rejected(&good.replace("\"status\": \"ok\"", "\"status\": \"fine\"")).expected,
            "status \"ok\" or \"panicked\""
        );
    }

    #[test]
    fn empty_sweep_is_fine() {
        let res = run_sweep(Vec::new(), two_threads(), |c: &Cell| c.seed);
        assert_eq!(res.outcomes.len(), 0);
        assert_eq!(res.ok_count(), 0);
        let json = res.to_json("empty", |_| Vec::new());
        assert!(json.contains("\"cells\": [\n  ]"));
    }

    #[test]
    fn engines_run_inside_cells() {
        // The whole point: Engine is not Send, but each cell builds its
        // own, so sweeps parallelize anyway.
        use crate::engine::Engine;
        use crate::graph::{LinkParams, TopologyBuilder};
        use crate::packet::Classify;
        use crate::shard::RunSpec;
        use crate::time::SimDuration;

        #[derive(Clone)]
        struct P;
        impl Classify for P {
            fn class(&self) -> crate::metrics::TrafficClass {
                crate::metrics::TrafficClass::Data
            }
        }

        let lossy_link = |c: &Cell| {
            let mut b = TopologyBuilder::new();
            let n0 = b.add_node("0");
            let n1 = b.add_node("1");
            b.add_link(
                n0,
                n1,
                LinkParams::new(SimDuration::from_millis(1), 800_000, 0.5),
            );
            let mut e: Engine<P> = Engine::new(b.build(), c.seed);
            let chan = e.add_channel(&[n0, n1]);
            for _ in 0..64 {
                e.multicast_from(n0, chan, P, 100);
            }
            e.advance(RunSpec::drain());
            e.recorder()
                .delivered_count(n1, crate::metrics::TrafficClass::Data)
        };
        let cells = || grid(&["lossy"], &[1, 2, 3, 4]);
        let values = run_sweep(cells(), two_threads(), lossy_link).into_values();
        assert_eq!(values.len(), 4);
        // Deterministic per seed: running again yields the same numbers.
        let again = run_sweep(cells(), NonZeroUsize::MIN, lossy_link);
        assert_eq!(values, again.into_values());
    }
}

#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> line ledger: the total and the file cap only move on purpose"
# ROADMAP item 5.  The ceiling is this tree's own total when the table
# was last edited: a PR that needs more lines raises it deliberately, like
# alloc_ceiling below, and states its budget in CHANGES.md; one that
# removes lines lowers it to keep them removed.  No source file outside
# vendor/ may pass 1800 lines.
line_ceiling=33019
ledger=$(find crates vendor src tests examples -name '*.rs' | xargs wc -l | sort -n)
total=$(awk '$2 == "total" {print $1}' <<< "$ledger")
echo "    total $total (ceiling $line_ceiling); five largest:"
awk '$2 != "total"' <<< "$ledger" | tail -n 5 | sed 's/^/    /'
if (( total > line_ceiling )); then
  echo "line total $total over its ceiling $line_ceiling" >&2
  exit 1
fi
long=$(awk '$2 != "total" && $2 !~ /^vendor\// && $1 > 1800' <<< "$ledger")
if [[ -n "$long" ]]; then
  echo "over the 1800-line file cap:" >&2
  echo "$long" >&2
  exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --all-targets (examples, tests, bins link)"
cargo build --workspace --all-targets

echo "==> cargo doc --workspace --no-deps (warnings denied)"
# The vendored proptest stand-in is exempt: its doc comments mirror the
# upstream crate's wording, ambiguous intra-doc links included.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude proptest

echo "==> benchmark/ builds against this tree (the names it imports still exist)"
# benchmark/ is a workspace of its own that no step above compiles, and no
# PR but a benchmark one may edit it: a renamed function it imports should
# fail here, in the first minute, not after the test suite.
cargo build --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> GF(256) and codec tests, optimized (the kernel every run uses)"
# The step above compiles the slice kernels at opt-level 0; the benchmark,
# the examples and every sweep run them vectorized.
cargo test --release -q -p sharqfec-gf256 -p sharqfec-fec

cargo build --release -p sharqfec-bench --quiet
bench=./target/release/sharqfec-bench

echo "==> explore example: probe decisions follow the first loss"
# Examples are otherwise only built.  explore prints the NACK/ZLC probe
# records after the first data loss; a lossy Figure 10 run must show at
# least one NACK decision there.
explore_out=$(cargo run --release -q --example explore -- full figure10 64 7)
if ! sed -n '/after the first data loss/,$p' <<< "$explore_out" | grep -q ' nack '; then
  echo "explore printed no nack probe line after the first loss:" >&2
  echo "$explore_out" >&2
  exit 1
fi

echo "==> live_event example: the 4-level national shape delivers everything"
# The only run of the depth-3 hub tree outside the test suite.
live_out=$(cargo run --release -q --example live_event)
if ! grep -q 'all packets delivered' <<< "$live_out"; then
  echo "live_event did not report full delivery:" >&2
  echo "$live_out" >&2
  exit 1
fi

# Fresh output never lands in results/: every sweep writes under --out.
fresh=target/tmp/bench_ci
sharded=target/tmp/bench_ci_sharded
rm -rf "$fresh" "$sharded"
# The fields that legitimately differ between two runs of one grid: wall
# clock, thread and shard counts, machine-dependent throughput.
strip_timing() {
  sed -E 's/"(wall_ms|threads|shards|events_per_sec)": [0-9.eE+-]+/"\1": _/g' "$1"
}
same_summary() {
  diff <(strip_timing "$1") <(strip_timing "$2")
}

echo "==> seed-42 sweep grids: audited fresh, pinned to results/, checked"
# Each sweep attaches the invariant auditor to every cell and exits
# non-zero on a violation.  The fresh summary must equal the committed
# one (modulo timing), and both must pass the sweep's --check: for the
# policy grid that pins the EWMA arm bit-identical to the ablation
# sweep's historical baseline and requires the optimizing policy to beat
# the EWMA's repair bill on the long-burst cells.
pinned_sweep() {
  local sub=$1 name=$2
  shift 2
  "$bench" "$sub" --seed 42 "$@" --out "$fresh" > /dev/null
  same_summary "results/$name.json" "$fresh/$name.json"
  "$bench" "$sub" --check "$fresh/$name.json"
  "$bench" "$sub" --check "results/$name.json"
}
pinned_sweep fault fault_sweep
pinned_sweep ablation ablation_sweep
pinned_sweep fig14-21 fig14_21_traffic --packets 128
pinned_sweep policy BENCH_policy_sweep
# The full scenario grid (the 10^4-receiver flash cell included): its
# outage cells are the runs whose routing follows link faults.
pinned_sweep scenario BENCH_scenario_sweep

echo "==> scaling sweep smoke (10^2/10^3) + crossover check"
# The smoke grid re-measures the SHARQFEC-vs-SRM session crossover at
# CI-sized memberships; the committed full run (through 10^5) carries
# the exponent fit and the state-growth assertions.
"$bench" scale --smoke --out "$fresh" > /dev/null
"$bench" scale --check "$fresh/BENCH_scale_sweep.json"
"$bench" scale --check results/BENCH_scale_sweep.json

echo "==> workload-scenario sweep smoke"
# Flash crowds, churn, and regional outages compiled through the
# scenario DSL, every cell audited: the smoke grid runs fresh for the
# sharded gate below (the full grid is pinned above).
"$bench" scenario --smoke --out "$fresh" > /dev/null
"$bench" scenario --check "$fresh/BENCH_scenario_sweep.json"

echo "==> sharded engine determinism gate (--shards 4 vs serial)"
# The conservative-PDES shard path must be bit-identical to the serial
# engine: rerun the smoke grids at 4 shards and diff the summaries.
"$bench" scale --smoke --shards 4 --out "$sharded" > /dev/null
"$bench" scenario --smoke --shards 4 --out "$sharded" > /dev/null
same_summary "$fresh/BENCH_scale_sweep.json" "$sharded/BENCH_scale_sweep.json"
same_summary "$fresh/BENCH_scenario_sweep.json" "$sharded/BENCH_scenario_sweep.json"

echo "==> newspaper_delivery example: every receiver rebuilds the object"
# The only protocol-driven caller of encode_object and finish.
paper_out=$(cargo run --release -q --example newspaper_delivery)
if ! grep -q 'reassembled the newspaper byte-for-byte' <<< "$paper_out"; then
  echo "newspaper_delivery did not report a byte-for-byte reassembly:" >&2
  echo "$paper_out" >&2
  exit 1
fi

echo "==> benchmark/: its own tests, then one counted pass per workload"
# The benchmark is a workspace of its own; nothing above builds it.  Each
# workload must reproduce its pinned statistics ("correct": true) and stay
# under its heap-allocation ceiling.  `allocs` is an exact count (the
# counted repetition always runs the seed-42 inputs), so the ceilings are
# the committed code's own counts + 1%, the bound the benchmark gate itself
# applies (BENCHMARK.json, allocs.bound): what passes here passes there.
# Timings stay out of CI.
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
alloc_ceiling() {
  case "$1" in
    fig10_repair)    echo 17989 ;; # 17811
    session_1k)      echo 16523 ;; # 16360
    srm_500)         echo 1588 ;;  # 1573
    flash_churn_500) echo 25157 ;; # 24908 (24958 before channels dropped their member lists)
    # 1059 on one core; each further core adds one split range, whose
    # encode buffer, thread spawns and decode scratch cost 16 allocations.
    codec_object)    echo $(( (1059 + 16 * ($(nproc) - 1)) * 101 / 100 )) ;;
    *) echo "no allocs ceiling for workload $1" >&2; return 1 ;;
  esac
}
for w in fig10_repair session_1k srm_500 flash_churn_500 codec_object; do
  ceiling=$(alloc_ceiling "$w")
  json=$(bash benchmark/run.sh --workload "$w" --seconds 1 | tail -n 1)
  allocs=$(sed -nE 's/.*"correct": true.*"allocs": \{"value": ([0-9]+)[,.}].*/\1/p' <<< "$json")
  if [[ -z "$allocs" ]]; then
    echo "benchmark workload $w did not end in a correct result: $json" >&2
    exit 1
  fi
  if (( allocs > ceiling )); then
    echo "benchmark workload $w: allocs $allocs over its ceiling $ceiling" >&2
    exit 1
  fi
  echo "    $w: allocs $allocs (ceiling $ceiling)"
done

echo "==> results/ untouched by this run"
git diff --quiet -- results/

echo "CI OK"

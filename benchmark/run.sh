#!/usr/bin/env bash
# The repo benchmark, one workload per process:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
#                    [--record-expected]
#
# Without --workload every workload runs in turn.  An untraced invocation
# repeats its workload for --seconds (default 22); a traced one runs a
# fixed number of rounds.  Builds first (--offline --release, the root
# workspace's own profile: no RUSTFLAGS, no target-cpu), never inside the
# timed window.  Exits non-zero on any mismatch.  See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/sharqfec-benchmark"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" --dir "$here" "$@"
  fi
done
for w in $("$bin" --list); do
  "$bin" --dir "$here" --workload "$w" "$@"
done

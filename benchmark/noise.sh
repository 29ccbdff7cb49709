#!/usr/bin/env bash
# How steady is the benchmark on this host?
#
#   benchmark/noise.sh [N] [seeds|same] [SETS]
#
# Runs every workload N times (default 10) per set, SETS sets (default 2)
# one after the other.  `seeds` (default) runs seeds 1..N, which is what
# the driver that gates this benchmark does: the spread then also holds
# what the loss draws and the churn schedule add.  `same` runs every
# invocation at seed 42: identical inputs, so all spread is the host's.
#
# Prints per set and end-to-end metric the median, the quartiles (as
# Python's statistics.quantiles(values, n=4) gives them), their distance
# over the median, (max-min)/median and the farthest single run from the
# median; then, per pair of consecutive sets, how far the medians moved.
# Exits non-zero by the driver's rule: a quartile spread over the metric's
# own bound from BENCHMARK.json (setup_s exempt), or a median that got
# worse from one set to the next by more than the bound (setup_s too).
# A spread over a third of its bound is marked `wide`.  The output is
# Markdown, ready for BASELINE.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
n="${1:-10}"
mode="${2:-seeds}"
sets="${3:-2}"
spec="$here/../BENCHMARK.json"
[[ "$mode" == same || "$mode" == seeds ]] || { echo "usage: $0 [N] [seeds|same] [SETS]" >&2; exit 2; }

seconds="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$spec")"

mkdir -p "$here/out"
runs="$(mktemp "$here/out/noise.XXXXXX")"
trap 'rm -f "$runs"' EXIT
started="$(date +%s)"
for set in $(seq 1 "$sets"); do
  for w in $(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$spec"); do
    for i in $(seq 1 "$n"); do
      seed=42
      [[ "$mode" == seeds ]] && seed="$i"
      echo "noise: set $set $w run $i seed $seed" >&2
      line="$("$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" | tail -n 1)"
      echo "$set $w $line" >> "$runs"
    done
  done
done

echo "host: $(nproc) vCPU, $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)"
if [[ "$mode" == same ]]; then seeds="seed 42 every time"; else seeds="seeds 1..$n"; fi
echo "runs: $sets sets of $n per workload, $seconds s each, $seeds, $(( $(date +%s) - started )) s in all"
python3 - "$spec" "$runs" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
values = {}  # set -> (workload, metric) -> [value per run]
for line in open(sys.argv[2]):
    s, workload, result = line.split(" ", 2)
    result = json.loads(result)
    assert result["correct"] and result["failed"] == 0, line
    for name, m in result["metrics"].items():
        values.setdefault(int(s), {}).setdefault((workload, name), []).append(m["value"])

over = []
medians = {}
for s, table in values.items():
    print(f"\n### Set {s}\n")
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | farthest run | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for (workload, name), v in table.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = medians[s, workload, name] = statistics.median(v)
        spread, span = (q3 - q1) / med, (max(v) - min(v)) / med
        far = max(abs(x - med) for x in v) / med
        mark = "ok" if 3 * spread <= bounds[name] else "wide"
        if spread > bounds[name] and name != "setup_s":
            mark = "OVER"
            over.append(f"set {s} {workload}.{name}")
        print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.2f}% | "
              f"{100 * span:.2f}% | {100 * far:.2f}% | {100 * bounds[name]:g}% | {mark} |")

for s in sorted(values)[1:]:
    print(f"\n### Set {s} against set {s - 1}\n")
    print("| workload | metric | median before | median after | moved | bound | |")
    print("|---|---|---|---|---|---|---|")
    for workload, name in values[s]:
        before, after = medians[s - 1, workload, name], medians[s, workload, name]
        moved = (after - before) / before
        # Every end-to-end metric is lower-is-better.
        ok = moved <= bounds[name]
        if not ok:
            over.append(f"sets {s - 1}-{s} {workload}.{name}")
        print(f"| {workload} | {name} | {before:.6g} | {after:.6g} | {100 * moved:+.2f}% | "
              f"{100 * bounds[name]:g}% | {'ok' if ok else 'OVER'} |")
if over:
    print()
    sys.exit("over bound: " + ", ".join(over))
PY

#!/usr/bin/env bash
# Repeatability check, the way the benchmark's driver judges it: two sets
# of untraced runs of the same code, each set RUNS runs per workload with
# seeds 1..RUNS. Per end-to-end metric and workload it prints
#   spread  = (Q3 - Q1) / median of a set's values   (must stay within the bound;
#             setup_s is exempt)
#   drift   = how much worse the second set's median is than the first's
#             (must stay within the bound)
# with the bounds read from BENCHMARK.json, and exits non-zero on a breach.
#
#   bench/repeat.sh [RUNS=10] [SECONDS=run_seconds of BENCHMARK.json]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs="${1:-10}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
mkdir -p bench/out
for set in 1 2; do
    : > "bench/out/repeat_set$set.jsonl"
    for workload in kaggle_hit tb_miss kaggle_update avazu_serve; do
        for seed in $(seq 1 "$runs"); do
            echo "set $set: $workload seed $seed" >&2
            bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
                tail -n 1 | sed "s/^{/{\"workload\": \"$workload\", \"seed\": $seed, /" \
                >> "bench/out/repeat_set$set.jsonl"
        done
    done
done
python3 - <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
sets = [[json.loads(l) for l in open(f"bench/out/repeat_set{i}.jsonl")] for i in (1, 2)]
breaches = 0
print(f"{'workload':<14} {'metric':<20} {'bound':>6} {'spread1':>8} {'spread2':>8} {'drift':>8}")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        medians, spreads = [], []
        for runs in sets:
            rows = [r for r in runs if r["workload"] == w["name"]]
            if not all(r["correct"] and r["failed"] == 0 for r in rows):
                print(f"{w['name']}: a run was incorrect or had failures")
                breaches += 1
            values = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians.append(med)
            spreads.append((q3 - q1) / med)
        worse = (medians[1] - medians[0]) / medians[0]
        if m["better"] == "higher":
            worse = -worse
        bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
        breaches += bad
        print(f"{w['name']:<14} {name:<20} {bound:>6.2f} {spreads[0]:>8.4f} {spreads[1]:>8.4f} {worse:>+8.4f}"
              + ("  BREACH" if bad else ""))
sys.exit(1 if breaches else 0)
PY

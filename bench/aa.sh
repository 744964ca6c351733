#!/usr/bin/env bash
# A/A gate: runs the same code in two sets, alternating, and shows
# whether the benchmark agrees with itself within its own bounds.
#
#   bash bench/aa.sh [runs-per-set] [first-seed] [workload ...]
#
# Every run of a set takes another seed; both sets take the same
# seeds. Per workload and end-to-end metric it prints each set's
# median and quartiles, the spread (q3-q1)/median, and the worsening
# of set B's median against set A's, next to the metric's bound from
# BENCHMARK.json. A spread above a third of the bound, or a delta
# above half of it, is flagged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs=${1:-5}
seed0=${2:-1}
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p bench/out
log=bench/out/aa-$(date +%Y%m%d-%H%M%S).jsonl
for w in "${workloads[@]}"; do
  for ((i = 0; i < runs; i++)); do
    for set in A B; do
      line=$(bash bench/run.sh --workload "$w" --seed $((seed0 + i)) --seconds "$seconds" --trace 0 | tail -n 1)
      echo "{\"workload\":\"$w\",\"set\":\"$set\",\"seed\":$((seed0 + i)),\"result\":$line}" | tee -a "$log" >&2
    done
  done
done
python3 - "$log" <<'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(sys.argv[1])]
print(f"{'workload':13} {'metric':16} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'B vs A':>7} {'bound':>6}")
bad = 0
for w in dict.fromkeys(r["workload"] for r in runs):
    for m in bench["end_to_end"]:
        med = {}
        for s in "AB":
            rs = [r["result"] for r in runs if r["workload"] == w and r["set"] == s]
            bad += sum(1 for r in rs if not r["correct"] or r["failed"])
            v = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med[s] = statistics.median(v)
            spread = (q3 - q1) / med[s]
            delta = ""
            if s == "B":
                worse = (med["B"] - med["A"]) / med["A"] * (1 if m["better"] == "lower" else -1)
                delta = f"{worse:+7.3f}" + (" !" if worse > m["bound"] / 2 else "")
            flag = " !" if m["name"] != "setup_s" and spread > m["bound"] / 3 else ""
            print(f"{w:13} {m['name']:16} {s:3} {med[s]:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f}{flag} {delta:>7} {m['bound']:6.2f}")
print(f"runs that were incorrect or had failed ops: {bad}")
PY

#!/usr/bin/env bash
# bench/check_repeat.sh — does the benchmark agree with itself?
#
# Runs two sets of untraced runs of the *same* code — per set, `--runs` runs of
# every workload, each with another seed — and compares them the way a later
# change will be compared with its parent: for every end-to-end metric and
# workload, the second set's median may not be worse than the first's by more
# than the metric's bound in BENCHMARK.json. A metric whose run-to-run spread
# (interquartile range ÷ median, per set) is wider than its bound is printed
# as UNRESOLVED — the benchmark cannot tell a change of that size from noise —
# never as unchanged. Exit status is non-zero on any violation or failed run.
#
#     bash bench/check_repeat.sh [--runs <n>] [--seconds <s>]
#
# Ten runs per workload and set, thirty seconds each, take about forty minutes.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

runs=10 seconds=""
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        *) echo "check_repeat.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p bench/out
results="bench/out/repeat.jsonl"
: > "$results"
failed_runs=0
for set in 1 2; do
    for workload in warm_oneshot cold_process durable_commit live_standing; do
        for run in $(seq 1 "$runs"); do
            seed=$(( (set - 1) * runs + run ))
            args=(--workload "$workload" --seed "$seed" --trace 0)
            [ -z "$seconds" ] || args+=(--seconds "$seconds")
            if line="$(bash bench/run.sh "${args[@]}" | tail -n 1)"; then
                printf '{"set": %s, "workload": "%s", "seed": %s, "result": %s}\n' "$set" "$workload" "$seed" "$line" >> "$results"
            else
                echo "check_repeat.sh: $workload seed $seed failed" >&2
                failed_runs=$((failed_runs + 1))
            fi
        done
    done
done

python3 - "$results" BENCHMARK.json "$failed_runs" <<'EOF'
import json, statistics, sys

results, benchmark, failed_runs = sys.argv[1], json.load(open(sys.argv[2])), int(sys.argv[3])
values = {}  # (workload, metric, set) -> [value]
for line in open(results):
    row = json.loads(line)
    if not row["result"]["correct"]:
        failed_runs += 1
    for name, m in row["result"]["metrics"].items():
        values.setdefault((row["workload"], name, row["set"]), []).append(m["value"])

def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

violations = 0
print(f"{'workload':15} {'metric':20} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict")
for w in (x["name"] for x in benchmark["workloads"]):
    for m in benchmark["end_to_end"]:
        a, b = values.get((w, m["name"], 1), []), values.get((w, m["name"], 2), [])
        if len(a) < 2 or len(b) < 2:
            print(f"{w:15} {m['name']:20} missing"); violations += 1; continue
        m1, m2 = statistics.median(a), statistics.median(b)
        worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
        s1, s2 = spread(a), spread(b)
        if max(s1, s2) > m["bound"]:
            verdict = "UNRESOLVED (spread wider than the bound)"; violations += 1
        elif worse > m["bound"]:
            verdict = "VIOLATION"; violations += 1
        else:
            verdict = "agrees"
        print(f"{w:15} {m['name']:20} {m1:12.4f} {m2:12.4f} {worse:9.3f} {s1:9.3f} {s2:9.3f} {m['bound']:6.2f}  {verdict}")
print(f"failed runs: {failed_runs}; violations: {violations}")
sys.exit(1 if violations or failed_runs else 0)
EOF

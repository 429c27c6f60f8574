#!/usr/bin/env bash
# bench/run.sh — build privid_e2e in release mode, pin it to one core, run it.
#
# One run (what BENCHMARK.json's `command` invokes; the last line of standard
# output is the result object):
#     bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything (the four workloads untraced, then traced; every metric printed as
# `workload metric value unit`; results gathered in bench/out/latest.json;
# non-zero exit on any correctness failure):
#     bash bench/run.sh [--seed <n>] [--seconds <s>] [--smoke]
#
# `--smoke` is a ~2 s per workload pass that measures nothing and needs no
# pinning; it exists so CI can check the benchmark still runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workload="" seed=1 trace="" smoke=0
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json 2>/dev/null | head -n 1)"
seconds="${seconds:-25}"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --smoke) smoke=1; seconds=2; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build from source, here: the checkout the driver runs in holds no binaries.
# Cargo's chatter goes to stderr so the result stays the last line of stdout.
cargo build --release --offline --manifest-path bench/Cargo.toml >&2
binary="${CARGO_TARGET_DIR:-bench/target}/release/privid_e2e"

# glibc gives threads arenas of their own as they appear, and which thread
# lands in which depends on timing: peak memory of identical runs then differs
# by a third (8.3 to 11.5 MiB). With one arena it repeats within 2 %. On the
# one core the run is pinned to, arenas buy no speed.
export MALLOC_ARENA_MAX=1

# Server and load generator share one core, the last this process may use.
# The binary refuses a measured run on more than one.
pin=()
extra=()
if [ "$smoke" -eq 1 ]; then
    extra+=(--smoke)
else
    allowed="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)"
    cpu="${allowed##*[,-]}"
    pin=(taskset -c "$cpu")
fi

run_one() { # workload trace
    "${pin[@]}" "$binary" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" "${extra[@]}"
}

if [ -n "$workload" ]; then
    run_one "$workload" "${trace:-0}"
    exit $?
fi

status=0
for t in 0 1; do
    for w in warm_oneshot cold_process durable_commit live_standing; do
        run_one "$w" "$t" || status=1
    done
done
{
    printf '{"commit": "%s", "seed": %s, "seconds": %s, "smoke": %s, "runs": [\n' \
        "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" "$seed" "$seconds" "$smoke"
    first=1
    for f in bench/out/result-*-trace[01].json; do
        [ "$first" -eq 1 ] || printf ',\n'
        first=0
        tr -d '\n' < "$f"
    done
    printf '\n]}\n'
} > bench/out/latest.json
echo "# wrote bench/out/latest.json (spans in bench/out/trace-<workload>.json)"
exit "$status"

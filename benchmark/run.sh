#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh                         every workload, untraced then traced
#   benchmark/run.sh --workload W            one workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run (this is what BENCHMARK.json calls)
#   benchmark/run.sh --check                 fast paths == slow twins, quick scale
#   --label L                                results go to benchmark/out/L (default: local)
#
# Builds the harness offline, runs each workload in a fresh process,
# prints `workload metric value unit` for every metric and, as the last
# line of each run, the JSON object described in benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

label=local
workload=
trace=
check=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --label) label=$2; shift 2 ;;
        --workload) workload=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        --seed | --seconds) pass+=("$1" "$2"); shift 2 ;;
        --check) check=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

target=${CARGO_TARGET_DIR:-benchmark/target}
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
bin=$target/release/specweb-benchmark

if [ "$check" = 1 ]; then
    exec "$bin" --check "${pass[@]}"
fi

# What the results are stamped with. The driver's checkout is not a git
# repository; there the commit reads "unknown".
SPECWEB_BENCH_GIT=$(git describe --always 2>/dev/null || echo unknown)
if [ "$SPECWEB_BENCH_GIT" = unknown ]; then
    SPECWEB_BENCH_DIRTY=unknown
elif [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    SPECWEB_BENCH_DIRTY=true
else
    SPECWEB_BENCH_DIRTY=false
fi
SPECWEB_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
SPECWEB_BENCH_NPROC=$(nproc 2>/dev/null || echo unknown)
export SPECWEB_BENCH_GIT SPECWEB_BENCH_DIRTY SPECWEB_BENCH_RUSTC SPECWEB_BENCH_NPROC

out=benchmark/out/$label
if [ -n "$workload" ] && [ -n "$trace" ]; then
    exec "$bin" --workload "$workload" --trace "$trace" --out "$out" "${pass[@]}"
fi

workloads=${workload:-est-daily est-aged replay-wide dissem-cluster serve-paced serve-sessions}
mkdir -p "$out"
status=0
for w in $workloads; do
    for t in ${trace:-0 1}; do
        "$bin" --workload "$w" --trace "$t" --out "$out" "${pass[@]}" | tee "$out/.last" || status=1
        tail -n 1 "$out/.last" | grep -q '"correct":true' || status=1
    done
done
rm -f "$out/.last"
exit $status

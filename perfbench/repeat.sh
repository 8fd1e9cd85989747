#!/usr/bin/env bash
# Runs one workload with seeds 1..N and prints the median and quartiles of
# every metric over the runs (the spread the benchmark's bounds are set
# against). Run from the repository root:
#
#   bash perfbench/repeat.sh <workload> [runs=10] [seconds=25] [trace=0]
set -euo pipefail

workload=$1
runs=${2:-10}
seconds=${3:-25}
trace=${4:-0}
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
results=$out/results-$workload-trace$trace.jsonl
: >"$results"
for seed in $(seq 1 "$runs"); do
	bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1 | tee -a "$results"
done
"$out/perfbench" -summarize "$results"

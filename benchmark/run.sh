#!/usr/bin/env bash
# Builds the harness and runs the whole benchmark: every workload timed
# (tracing off, one process per run) and then traced, each printing its
# metrics by name with units. The full records go to a results file that
# `bench.sh check <a> <b>` compares.
#
# usage: run.sh [--seed N] [--repeats R] [--seconds S] [--results FILE]
#   --repeats  timed runs per workload (default 1; `check` needs
#              several to know the run-to-run spread)
#   --seconds  measuring time per run (default: run_seconds of BENCHMARK.json)
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
cd "$HERE/.."

field() {
  python3 -c 'import json, sys
b = json.load(open("BENCHMARK.json"))
print(" ".join(w["name"] for w in b["workloads"]) if sys.argv[1] == "workloads" else b[sys.argv[1]])' "$1"
}

SEED=1
REPEATS=1
SECONDS_PER_RUN="$(field run_seconds)"
RESULTS=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) SEED="$2" ;;
    --repeats) REPEATS="$2" ;;
    --seconds) SECONDS_PER_RUN="$2" ;;
    --results) RESULTS="$2" ;;
    *) echo "usage: run.sh [--seed N] [--repeats R] [--seconds S] [--results FILE]" >&2; exit 2 ;;
  esac
  shift 2
done
RESULTS="${RESULTS:-benchmark/out/results-seed$SEED.jsonl}"

bash benchmark/build.sh >/dev/null
mkdir -p "$(dirname "$RESULTS")"
: > "$RESULTS"
for workload in $(field workloads); do
  for _ in $(seq "$REPEATS"); do
    echo "== $workload, timed =="
    bash benchmark/bench.sh --workload "$workload" --seed "$SEED" \
      --seconds "$SECONDS_PER_RUN" --trace 0 --out "$RESULTS"
  done
  echo "== $workload, traced =="
  bash benchmark/bench.sh --workload "$workload" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 1 --out "$RESULTS"
done
echo "results: $RESULTS"

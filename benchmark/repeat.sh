#!/usr/bin/env bash
# The repeatability check: every workload once per seed, untraced, appended
# to one -out file; then the file's own spreads (quartile distance over
# median, as the driver computes them) against the bounds in BENCHMARK.json.
#
#   bash benchmark/repeat.sh first.jsonl                 # seeds 1..10
#   bash benchmark/repeat.sh second.jsonl 11 12 13       # chosen seeds
#   bash benchmark/run.sh -compare first.jsonl second.jsonl
set -euo pipefail
out=$1
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
for w in live-small live-large live-durable sim-mix; do
    for s in "${seeds[@]}"; do
        bash benchmark/run.sh --workload "$w" --seed "$s" --trace 0 --out "$out" | tail -n 1 | cut -c1-80
    done
done
bash benchmark/run.sh -compare "$out" "$out"

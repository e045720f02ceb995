#!/bin/sh
# Every workload, untraced and then traced, each through run.py.
# Usage, from the repository root:  sh perfbench/all.sh [seed] [seconds]
set -e
for workload in confocal-doubling bnl-coalesce reach-analysis; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-20}" --trace "$trace"
  done
done

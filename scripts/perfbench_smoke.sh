#!/usr/bin/env bash
# Benchmark smoke: builds the perfbench package (its own workspace under
# perfbench/), runs its self-tests, then runs each workload once, briefly,
# and fails unless the run's last line reports "correct": true. A library
# change that breaks the benchmark's build or its correctness check fails
# here rather than in a timed benchmark run.
#
#   bash scripts/perfbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=perfbench/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test -q --release --offline --manifest-path "$manifest"

for workload in churn long_session shard_chaos; do
  last=$(cargo run --quiet --release --offline --manifest-path "$manifest" -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*) echo "perfbench $workload: correct" ;;
    *)
      echo "perfbench $workload failed its correctness check: $last" >&2
      exit 1
      ;;
  esac
done

#!/usr/bin/env bash
# Full local gate: formatting, lints, tier-1 build + tests.
#
#   bash scripts/check.sh
#
# Mirrors what CI would run; every step must pass before a PR merges.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> trust-lint (trust boundary / dataflow taint / determinism / journal discipline)"
mkdir -p target
cargo run --release --bin trust_lint -- --json > target/trust_lint_findings.json

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# Montgomery multiply and the bignum carry chains lean on wrapping and
# carry arithmetic, which debug builds check for overflow and release
# builds do not: run the crypto tests under both.
echo "==> crypto tests in release mode"
cargo test -q --release -p btd-crypto

# Runs a deterministic --json bench into $2 and fails fast on a nonzero
# exit status BEFORE any diff: a binary that panics mid-emit leaves a
# truncated JSON whose diff noise would bury the real failure.
run_bench_json() {
  local bin="$1" out="$2"
  if ! cargo run -q --release -p btd-bench --bin "$bin" -- --json > "$out"; then
    echo "$bin exited nonzero before emitting complete JSON; fix the bench, then re-run" >&2
    exit 1
  fi
}

echo "==> goodput matrix vs checked-in BENCH_goodput.json"
mkdir -p target
run_bench_json goodput_matrix target/goodput_matrix.json
diff -u BENCH_goodput.json target/goodput_matrix.json \
  || { echo "goodput drifted: re-bless BENCH_goodput.json if intended"; exit 1; }

echo "==> storage matrix vs checked-in BENCH_storage.json"
run_bench_json storage_matrix target/storage_matrix.json
diff -u BENCH_storage.json target/storage_matrix.json \
  || { echo "storage drifted: re-bless BENCH_storage.json if intended"; exit 1; }

echo "==> parallel matrix vs checked-in BENCH_parallel.json"
run_bench_json parallel_matrix target/parallel_matrix.json
diff -u BENCH_parallel.json target/parallel_matrix.json \
  || { echo "parallel drifted: re-bless BENCH_parallel.json if intended"; exit 1; }

echo "==> parallel matrix determinism gate (same seed, second run must be byte-identical)"
run_bench_json parallel_matrix target/parallel_matrix.run2.json
diff -u target/parallel_matrix.json target/parallel_matrix.run2.json \
  || { echo "parallel_matrix is nondeterministic across same-seed runs"; exit 1; }

echo "==> bench-delta gate (per-metric comparison against the blessed baselines)"
cargo run -q --release -p btd-bench --bin goodput_matrix -- --delta BENCH_goodput.json \
  || { echo "goodput regressed against BENCH_goodput.json"; exit 1; }
cargo run -q --release -p btd-bench --bin storage_matrix -- --delta BENCH_storage.json \
  || { echo "storage regressed against BENCH_storage.json"; exit 1; }
cargo run -q --release -p btd-bench --bin parallel_matrix -- --delta BENCH_parallel.json \
  || { echo "parallel regressed against BENCH_parallel.json"; exit 1; }

echo "==> fleet_top smoke (telemetry invariance + reconciliation + SLO health)"
cargo run -q --release -p btd-bench --bin fleet_top -- 16 > target/fleet_top.txt \
  || { echo "fleet_top failed: telemetry contract or SLO health broke"; cat target/fleet_top.txt; exit 1; }

echo "==> perfbench smoke (build, self-tests, one short correct run per workload)"
bash scripts/perfbench_smoke.sh

echo "All checks passed."

#!/usr/bin/env bash
# Regenerates every figure harness and stores the outputs under results/.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

run() {
  local name="$1"; shift
  echo "=== $name ==="
  "$@" 2>&1 | tee "results/$name.txt"
  echo
}

cargo build -p rtm-bench --bins --release

run fig3 cargo run -q -p rtm-bench --bin fig3_buffer_table --release
run fig4 cargo run -q -p rtm-bench --bin fig4_chain --release
run fig5 cargo run -q -p rtm-bench --bin fig5_case_study1 --release
run fig6 cargo run -q -p rtm-bench --bin fig6_survey --release
run case_study2 cargo run -q -p rtm-bench --bin case_study2_hang --release
run fig7 cargo run -q -p rtm-bench --bin fig7_overhead --release

echo "all harness outputs written to results/"

#!/usr/bin/env bash
# Local CI gate: format, lint, test. Mirrors what reviewers run before
# merging. Works fully offline — every dependency is vendored in-tree, so
# no step touches a registry (--offline keeps cargo from trying).
set -euo pipefail

cd "$(dirname "$0")/.."

# Some cargo versions reject --offline for fmt; it takes no deps anyway.
echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test"
# Includes the curl-free HTTP e2e suites (tests/http_e2e.rs,
# tests/monitoring_contract.rs): a real server on a real socket driven by
# the in-process blocking client — no external tools needed.
cargo test --offline --workspace -q

echo "==> cargo bench --no-run (benches compile)"
cargo bench --offline --workspace --no-run

echo "==> perfbench correctness smoke (reference events + end time, every request 200)"
# Each run must commit exactly the events and end time of an untimed
# reference run of the same inputs, and every HTTP request must answer 200;
# perfbench reports both as `"correct": true` and `"failed": 0`.
# mcm_matmul_live serves a polling dashboard's queries mid-run, so it covers
# the run loop's query path with a monitor attached.
for workload in chain mcm_matmul_live mcm_matmul_par; do
    line="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 3 --trace 0 | tail -n 1)"
    python3 - "$workload" "$line" <<'EOF'
import json, sys
workload, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"FAIL: perfbench {workload}: {line}")
print(f"perfbench {workload} OK ({result['attempted']} operations, all correct)")
EOF
done

echo "==> parallel engine bit-identity (--threads 2 diffed against --threads 1)"
# Full event-log identity is asserted at test level (the engine
# differential suite in crates/akita/tests/par_differential.rs and the
# MCM-GPU platform test). This step closes the loop
# end-to-end through the CLI: the same MCM-GPU FIR run must report the
# same completion summary (events + virtual time) at both thread counts.
par_a="$(mktemp)"
par_b="$(mktemp)"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --chiplets 4 --threads 1 --no-monitor |
    sed -n 's/\( of virtual time\).*/\1/; s/^done: //p' >"$par_a"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --chiplets 4 --threads 2 --no-monitor |
    sed -n 's/\( of virtual time\).*/\1/; s/^done: //p' >"$par_b"
if [ ! -s "$par_a" ]; then
    echo "FAIL: --threads 1 run produced no completion summary" >&2
    exit 1
fi
if ! diff "$par_a" "$par_b"; then
    echo "FAIL: --threads 2 diverged from --threads 1" >&2
    exit 1
fi
echo "parallel bit-identity gate OK ($(cat "$par_a"))"
rm -f "$par_a" "$par_b"

echo "==> fault-injection smoke (determinism, clean drop drain, hang diagnosis)"
cargo run --offline --release -q -p rtm-bench --bin fault_smoke

echo "==> watchdog catches the canned stuck-full hang plan (rtm-sim exit 5)"
# The canned plan wedges GPU[0].L2[0]'s front door; the armed watchdog must
# end the run with the documented stall exit code and name the injected
# site in its diagnosis.
hang_out="$(mktemp)"
set +e
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --faults plans/hang_l2.json --watchdog >"$hang_out" 2>&1
hang_rc=$?
set -e
if [ "$hang_rc" -ne 5 ]; then
    echo "FAIL: expected watchdog stall exit code 5, got $hang_rc" >&2
    cat "$hang_out" >&2
    exit 1
fi
if ! grep -q "injected stuck-full fault" "$hang_out"; then
    echo "FAIL: stall diagnosis never named the injected site" >&2
    cat "$hang_out" >&2
    exit 1
fi
echo "watchdog hang gate OK (exit 5, injected site named)"
rm -f "$hang_out"

echo "==> chrome trace export shape (rtm-sim trace)"
trace_out="$(mktemp -d)/trace.json"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    trace --workload fir --out "$trace_out"
python3 - "$trace_out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete spans in the export"
for e in spans:
    for key in ("name", "ts", "dur", "pid", "tid"):
        assert key in e, f"span missing {key}: {e}"
print(f"trace export OK: {len(spans)} spans")
EOF
rm -rf "$(dirname "$trace_out")"

echo "==> OK"

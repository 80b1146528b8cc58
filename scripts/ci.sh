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

echo "==> monitor survives a flood of 200 nested-JSON POSTs"
# 200 connections at once, each posting 200,000 `[` to the fault-injection
# route: every one must answer 400 (nesting limit), 408 (read timeout) or
# 503 (over the connection cap), or be closed; afterwards the monitor still
# answers /api/status and the process is alive until it is terminated.
flood_port="$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1])')"
flood_log="$(mktemp)"
cargo run --offline --release -q -p akita-rtm-cli --bin rtm-sim -- \
    run --workload fir --hold --port "$flood_port" >"$flood_log" 2>&1 &
flood_pid=$!
if ! python3 - "$flood_port" "$flood_pid" <<'EOF'; then
import http.client, os, socket, sys, threading, time
port, pid = int(sys.argv[1]), int(sys.argv[2])

def answer(method, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path)
        rsp = conn.getresponse()
        return rsp.status, rsp.read()
    finally:
        conn.close()

def status(method, path):
    return answer(method, path)[0]

deadline = time.time() + 60
while True:
    try:
        status("GET", "/api/status")
        break
    except OSError:
        if time.time() > deadline:
            sys.exit("FAIL: the monitor never came up")
        time.sleep(0.1)

body = b"[" * 200_000
request = (
    b"POST /api/faults/inject HTTP/1.1\r\nHost: localhost\r\n"
    b"Content-Type: application/json\r\nConnection: close\r\n"
    b"Content-Length: %d\r\n\r\n" % len(body)
) + body
socks = [socket.create_connection(("127.0.0.1", port), timeout=30) for _ in range(200)]
outcomes = [None] * len(socks)

def flood(i):
    sock, raw = socks[i], b""
    try:
        sock.sendall(request)
    except OSError:
        pass  # shed or cut off mid-body: its answer may still be readable
    try:
        while chunk := sock.recv(65536):
            raw += chunk
    except OSError:
        pass
    sock.close()
    outcomes[i] = int(raw.split(b" ", 2)[1]) if raw else "closed"

threads = [threading.Thread(target=flood, args=(i,)) for i in range(len(socks))]
for t in threads:
    t.start()
for t in threads:
    t.join()
bad = [o for o in outcomes if o not in (400, 408, 503, "closed")]
if bad:
    sys.exit(f"FAIL: unexpected flood answers {bad}")
tally = {o: outcomes.count(o) for o in set(outcomes)}
after = status("GET", "/api/status")
if after != 200:
    sys.exit(f"FAIL: /api/status answered {after} after the flood")
os.kill(pid, 0)  # raises if rtm-sim died
print(f"flood OK: {tally}; /api/status 200 afterwards")
# rtm-sim stops its server as soon as the engine exits; the server lets
# this answer finish first, so it must arrive whole.
terminated = answer("POST", "/api/terminate")
if terminated != (200, b'{"ok":true}'):
    sys.exit(f"FAIL: /api/terminate answered {terminated}")
EOF
    kill "$flood_pid" 2>/dev/null || true
    cat "$flood_log" >&2
    exit 1
fi
set +e
wait "$flood_pid"
flood_rc=$?
set -e
if [ "$flood_rc" -ne 0 ]; then
    echo "FAIL: rtm-sim exited $flood_rc after /api/terminate" >&2
    cat "$flood_log" >&2
    exit 1
fi
echo "flood gate OK (rtm-sim exit 0 after /api/terminate)"
rm -f "$flood_log"

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

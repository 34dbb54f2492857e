#!/usr/bin/env bash
# Serving soak gate: build the quickstart artifact, start the pathrep-serve
# daemon on an ephemeral port with full telemetry, hammer it with a
# concurrent loadgen that bit-compares every served prediction against the
# offline predictor, then shut it down cleanly and check the evidence:
#   * loadgen reports zero mismatches and zero dropped/errored requests,
#   * the daemon's own error counter is zero,
#   * the daemon exits 0 after a clean drain,
#   * the Prometheus export carries the pathrep_serve_* families,
#     including the reactor's pathrep_serve_shard_* ones,
#   * the live obs-http plane (PATHREP_OBS_HTTP) answers /healthz and
#     serves the pathrep_serve_* families on /metrics DURING the soak,
#   * the ledger carries the serve/model_load record and pathrep-doctor
#     accepts it (unknown-kind records are reported, never fatal).
#
# Every non-self-test run soaks the daemon twice: once over the JSON
# protocol and once over the compact binary protocol (loadgen --binary),
# both bit-compared against the offline predictor.
#
# Usage: scripts/serve_gate.sh [--self-test] [--clients N] [--requests M]
#   --self-test  inject a deliberate expected-value mismatch into the
#                loadgen and require the byte-identity check to FAIL
#                (proves the gate trips).
set -euo pipefail
cd "$(dirname "$0")/.."

self_test=0
clients=8
requests=50
while [ $# -gt 0 ]; do
    case "$1" in
        --self-test) self_test=1; shift ;;
        --clients)   clients="$2"; shift 2 ;;
        --requests)  requests="$2"; shift 2 ;;
        *) echo "serve_gate.sh: unknown flag $1" >&2; exit 2 ;;
    esac
done

WORK="${TMPDIR:-/tmp}/pathrep_serve_gate_$$"
mkdir -p "$WORK"
ARTIFACT="$WORK/quickstart.artifact"
PROM="$WORK/serve.prom"
LEDGER="$WORK/serve_ledger.jsonl"
SERVE_LOG="$WORK/daemon.log"
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

cargo build --release -p pathrep-serve --bin pathrep-serve --bin pathrep-client
cargo build --release -p pathrep-bench --bin pathrep-doctor

SERVE=./target/release/pathrep-serve
CLIENT=./target/release/pathrep-client
DOCTOR=./target/release/pathrep-doctor

"$CLIENT" build-artifact "$ARTIFACT"

echo "serve_gate.sh: starting daemon on an ephemeral port"
PATHREP_OBS=1 PATHREP_OBS_PROM="$PROM" PATHREP_OBS_LEDGER="$LEDGER" \
    PATHREP_OBS_HTTP=127.0.0.1:0 \
    PATHREP_SERVE_ADDR=127.0.0.1:0 "$SERVE" > "$SERVE_LOG" 2>&1 &
serve_pid=$!

# The daemon prints `pathrep-serve: listening on HOST:PORT (…)` once bound.
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^pathrep-serve: listening on \([0-9.:]*\) .*$/\1/p' "$SERVE_LOG" | head -1)"
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "serve_gate.sh: FAIL — daemon died before binding:" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve_gate.sh: FAIL — daemon never printed its address" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
echo "serve_gate.sh: daemon is listening on $addr"

# The live telemetry plane prints its own address on a second line.
obs_addr="$(sed -n 's/^pathrep-serve: obs http listening on \([0-9.:]*\)$/\1/p' "$SERVE_LOG" | head -1)"
if [ -z "$obs_addr" ]; then
    echo "serve_gate.sh: FAIL — daemon never printed its obs http address" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
echo "serve_gate.sh: obs http plane is listening on $obs_addr"

loadgen_flags=(--clients "$clients" --requests "$requests")
if [ "$self_test" = 1 ]; then
    echo "serve_gate.sh: self-test — injecting an expected-value mismatch; loadgen must FAIL"
    if "$CLIENT" loadgen "$addr" "$ARTIFACT" "${loadgen_flags[@]}" --inject-mismatch; then
        echo "serve_gate.sh: SELF-TEST FAILED — injected mismatch was not caught" >&2
        exit 1
    fi
    "$CLIENT" shutdown "$addr"
    wait "$serve_pid"
    serve_pid=""
    echo "serve_gate.sh: self-test OK — the byte-identity check trips on an injected mismatch"
    exit 0
fi

echo "serve_gate.sh: soaking with $clients concurrent clients x $requests requests"
"$CLIENT" loadgen "$addr" "$ARTIFACT" "${loadgen_flags[@]}" &
loadgen_pid=$!

# Scrape the live plane MID-SOAK: the endpoints must answer while the
# daemon is under concurrent load, and scrapes must not perturb it.
if [ "$("$CLIENT" scrape "$obs_addr" /healthz)" != "ok" ]; then
    echo "serve_gate.sh: FAIL — /healthz did not answer ok during the soak" >&2
    kill "$loadgen_pid" 2>/dev/null || true
    exit 1
fi
# Poll until the first request lands — the scrape races the loadgen's
# opening load_model, and an empty registry has no serve families yet.
scraped=0
for _ in $(seq 1 50); do
    if "$CLIENT" scrape "$obs_addr" /metrics | grep -q '^pathrep_serve_requests '; then
        scraped=1
        break
    fi
    sleep 0.1
done
if [ "$scraped" != 1 ]; then
    echo "serve_gate.sh: FAIL — live /metrics never showed pathrep_serve_requests mid-soak" >&2
    kill "$loadgen_pid" 2>/dev/null || true
    exit 1
fi
echo "serve_gate.sh: live /healthz + /metrics answered mid-soak"

if ! wait "$loadgen_pid"; then
    echo "serve_gate.sh: FAIL — loadgen reported mismatches or errors" >&2
    exit 1
fi

# Second soak over the compact binary protocol: same concurrent clients,
# same per-prediction bit-compare against the offline predictor. Binary
# and JSON clients have now interleaved on one daemon lifetime.
echo "serve_gate.sh: binary-protocol soak with $clients concurrent clients x $requests requests"
if ! "$CLIENT" loadgen "$addr" "$ARTIFACT" "${loadgen_flags[@]}" --binary; then
    echo "serve_gate.sh: FAIL — binary-protocol loadgen reported mismatches or errors" >&2
    exit 1
fi

# A short fixed-rate pass: latencies measured from the intended arrival
# schedule (coordinated-omission-safe), p50/p99/p999 from the HDR buckets.
echo "serve_gate.sh: CO-safe fixed-rate loadgen pass"
rate_out="$("$CLIENT" loadgen "$addr" "$ARTIFACT" --clients 2 --requests 25 --rate 400)"
printf '%s\n' "$rate_out" | grep '^pathrep-client: loadgen latency' || true
if ! printf '%s\n' "$rate_out" | grep -q 'coordinated-omission-safe'; then
    echo "serve_gate.sh: FAIL — rate-mode loadgen did not report CO-safe percentiles" >&2
    printf '%s\n' "$rate_out" >&2
    exit 1
fi

stats="$("$CLIENT" stats "$addr")"
echo "serve_gate.sh: daemon stats: $stats"
case "$stats" in
    *" errors=0 "*) ;;
    *)
        echo "serve_gate.sh: FAIL — daemon reports request errors" >&2
        exit 1
        ;;
esac

"$CLIENT" shutdown "$addr"
if ! wait "$serve_pid"; then
    echo "serve_gate.sh: FAIL — daemon exited non-zero after shutdown:" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
serve_pid=""
echo "serve_gate.sh: daemon drained and exited cleanly"

if ! grep -q '^pathrep_serve_requests ' "$PROM"; then
    echo "serve_gate.sh: FAIL — Prometheus export lacks pathrep_serve_* families" >&2
    cat "$PROM" >&2
    exit 1
fi
if ! grep -q '^pathrep_serve_request_ns_count ' "$PROM"; then
    echo "serve_gate.sh: FAIL — Prometheus export lacks the serve.request_ns HDR histogram" >&2
    cat "$PROM" >&2
    exit 1
fi
if ! grep -q '^pathrep_serve_shard_requests ' "$PROM"; then
    echo "serve_gate.sh: FAIL — Prometheus export lacks the reactor's pathrep_serve_shard_* families" >&2
    cat "$PROM" >&2
    exit 1
fi
if ! grep -q '"stage":"serve","name":"model_load"' "$LEDGER"; then
    echo "serve_gate.sh: FAIL — ledger lacks the serve/model_load record" >&2
    cat "$LEDGER" >&2
    exit 1
fi
# The doctor must tolerate (and surface) the serve record kinds.
doctor_out="$("$DOCTOR" "$LEDGER")"
if ! printf '%s\n' "$doctor_out" | grep -q 'serve/model_load'; then
    echo "serve_gate.sh: FAIL — pathrep-doctor silently dropped serve/model_load:" >&2
    printf '%s\n' "$doctor_out" >&2
    exit 1
fi
echo "serve_gate.sh: PASS — $((2 * clients * requests)) predictions (json + binary) byte-identical, telemetry and ledger complete"

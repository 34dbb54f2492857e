#!/usr/bin/env bash
# Failure-forensics gate: prove the flight recorder, the watchdog and
# trace stitching actually work when things go wrong — by making things
# go wrong.
#
# Phase A — panic forensics:
#   start the daemon with --inject-panic N so the Nth request panics
#   inside its span; the panic hook must dump the flight ring to
#   PATHREP_OBS_FLIGHT_DUMP and exit 101. The dump must be loadable
#   (pathrep-client check-flight: valid Chrome trace, B/E balanced per
#   track) and must carry the dying request's trace_id.
#
# Phase C — stall watchdog:
#   start a daemon with --allow-fault, inject a batcher slowdown over
#   the wire (set_fault) longer than PATHREP_SERVE_WATCHDOG_MS and pile
#   up concurrent requests; the watchdog thread must log `[watchdog]` on
#   stderr and write a flight dump on its own, while the daemon keeps
#   serving (requests still complete). An on-demand dump-flight request
#   must also land.
#
# Phase D — end-of-run traces:
#   run a daemon and a one-request loadgen client, both with
#   PATHREP_OBS_TRACE set; each process must write its flight ring as a
#   balanced Chrome trace at report time, and the stitched file must
#   carry the traced request's trace_id under both processes.
#
# Usage: scripts/obs_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="${TMPDIR:-/tmp}/pathrep_obs_gate_$$"
mkdir -p "$WORK"
ARTIFACT="$WORK/quickstart.artifact"
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

SERVE=./target/release/pathrep-serve
CLIENT=./target/release/pathrep-client

"$CLIENT" build-artifact "$ARTIFACT"

# Waits for the daemon to print its listening line into $1, echoes ADDR.
wait_for_addr() {
    local log="$1" pid="$2" addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^pathrep-serve: listening on \([0-9.:]*\) .*$/\1/p' "$log" | head -1)"
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "obs_gate.sh: FAIL — daemon died before binding:" >&2
            cat "$log" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "obs_gate.sh: FAIL — daemon never printed its address" >&2
    cat "$log" >&2
    return 1
}

# ---------------------------------------------------------------- Phase A
echo "obs_gate.sh: phase A — injected panic must flight-dump and exit 101"
PANIC_LOG="$WORK/panic_daemon.log"
PANIC_DUMP="$WORK/panic_flight.json"
PATHREP_OBS=1 PATHREP_OBS_FLIGHT_DUMP="$PANIC_DUMP" \
    PATHREP_SERVE_ADDR=127.0.0.1:0 \
    "$SERVE" --inject-panic 3 > "$PANIC_LOG" 2>&1 &
serve_pid=$!
addr="$(wait_for_addr "$PANIC_LOG" "$serve_pid")"

"$CLIENT" load "$addr" "$ARTIFACT" > "$WORK/load.out"
model="$(sed -n 's/^pathrep-client: loaded \([0-9a-f]*\) .*$/\1/p' "$WORK/load.out")"
if [ -z "$model" ]; then
    echo "obs_gate.sh: FAIL — could not parse the model id from:" >&2
    cat "$WORK/load.out" >&2
    exit 1
fi

# Request 1 was load_model, 2 is this predict; request 3 panics. The
# panicking client sees a connection error — that is the point.
"$CLIENT" predict "$addr" "$model" "1.0" > /dev/null
if "$CLIENT" predict "$addr" "$model" "1.0" > /dev/null 2>&1; then
    echo "obs_gate.sh: FAIL — the injected-panic request succeeded" >&2
    exit 1
fi

rc=0
wait "$serve_pid" || rc=$?
serve_pid=""
if [ "$rc" != 101 ]; then
    echo "obs_gate.sh: FAIL — daemon exited $rc, expected 101 from the panic hook:" >&2
    cat "$PANIC_LOG" >&2
    exit 1
fi
if [ ! -s "$PANIC_DUMP" ]; then
    echo "obs_gate.sh: FAIL — panic hook left no flight dump at $PANIC_DUMP" >&2
    cat "$PANIC_LOG" >&2
    exit 1
fi
"$CLIENT" check-flight "$PANIC_DUMP"
if ! grep -q 'trace_id' "$PANIC_DUMP"; then
    echo "obs_gate.sh: FAIL — the flight dump carries no trace_id" >&2
    exit 1
fi
# The dying request's span was open at panic time: the repaired dump
# closes it synthetically, preserving its trace context.
if ! grep -q '"synthetic_end":true' "$PANIC_DUMP"; then
    echo "obs_gate.sh: FAIL — no synthetically closed span in the panic dump" >&2
    exit 1
fi
echo "obs_gate.sh: phase A OK — exit 101, dump balanced, trace_id present"

# ---------------------------------------------------------------- Phase C
echo "obs_gate.sh: phase C — a stalled batcher must trip the watchdog"
WATCH_LOG="$WORK/watchdog_daemon.log"
WATCH_DUMP="$WORK/watchdog_flight.json"
PATHREP_OBS=1 PATHREP_OBS_FLIGHT_DUMP="$WATCH_DUMP" \
    PATHREP_SERVE_WATCHDOG_MS=400 PATHREP_SERVE_BATCH=1 \
    PATHREP_SERVE_ADDR=127.0.0.1:0 \
    "$SERVE" --allow-fault > "$WATCH_LOG" 2>&1 &
serve_pid=$!
addr="$(wait_for_addr "$WATCH_LOG" "$serve_pid")"
"$CLIENT" load "$addr" "$ARTIFACT" > /dev/null

# 1500 ms per batch against a 400 ms watchdog deadline; concurrent
# clients keep the queue non-empty during the stall.
"$CLIENT" fault "$addr" 1500
for i in 1 2 3; do
    "$CLIENT" predict "$addr" "$model" "1.0" > /dev/null &
    eval "pred_$i=$!"
done
wait "$pred_1" "$pred_2" "$pred_3"
"$CLIENT" fault "$addr" 0
fired=0
for _ in $(seq 1 50); do
    if grep -q '\[watchdog\]' "$WATCH_LOG"; then
        fired=1
        break
    fi
    sleep 0.1
done
if [ "$fired" != 1 ]; then
    echo "obs_gate.sh: FAIL — watchdog never logged during a 1500 ms stall:" >&2
    cat "$WATCH_LOG" >&2
    exit 1
fi
if [ ! -s "$WATCH_DUMP" ]; then
    echo "obs_gate.sh: FAIL — watchdog fired but wrote no flight dump" >&2
    exit 1
fi
"$CLIENT" check-flight "$WATCH_DUMP"

# On-demand dump over the wire, to an explicit path.
REQ_DUMP="$WORK/requested_flight.json"
"$CLIENT" dump-flight "$addr" "$REQ_DUMP"
"$CLIENT" check-flight "$REQ_DUMP"

"$CLIENT" shutdown "$addr"
if ! wait "$serve_pid"; then
    echo "obs_gate.sh: FAIL — daemon exited non-zero after the watchdog scenario:" >&2
    cat "$WATCH_LOG" >&2
    exit 1
fi
serve_pid=""
echo "obs_gate.sh: phase C OK — watchdog fired, dumps loadable, daemon survived"

# ---------------------------------------------------------------- Phase D
echo "obs_gate.sh: phase D — PATHREP_OBS_TRACE files from both processes must stitch"
TRACE_LOG="$WORK/trace_daemon.log"
SERVER_TRACE="$WORK/server_trace.json"
CLIENT_TRACE="$WORK/client_trace.json"
STITCHED="$WORK/stitched_trace.json"
PATHREP_OBS=1 PATHREP_OBS_TRACE="$SERVER_TRACE" \
    PATHREP_SERVE_ADDR=127.0.0.1:0 \
    "$SERVE" > "$TRACE_LOG" 2>&1 &
serve_pid=$!
addr="$(wait_for_addr "$TRACE_LOG" "$serve_pid")"

# One client, one traced predict (loadgen adds one untraced batch).
PATHREP_OBS=1 PATHREP_OBS_TRACE="$CLIENT_TRACE" \
    "$CLIENT" loadgen "$addr" "$ARTIFACT" --clients 1 --requests 1 > "$WORK/trace_client.log"
"$CLIENT" shutdown "$addr" > /dev/null
if ! wait "$serve_pid"; then
    echo "obs_gate.sh: FAIL — traced daemon exited non-zero:" >&2
    cat "$TRACE_LOG" >&2
    exit 1
fi
serve_pid=""
for f in "$SERVER_TRACE" "$CLIENT_TRACE"; do
    if [ ! -s "$f" ]; then
        echo "obs_gate.sh: FAIL — PATHREP_OBS_TRACE left no trace at $f" >&2
        exit 1
    fi
    "$CLIENT" check-flight "$f"
done
"$CLIENT" stitch-trace "$STITCHED" "$CLIENT_TRACE" "$SERVER_TRACE"

# loadgen tags client c's request k with trace_id (c+1)<<20 | k.
TRACE_ID=$(( 1 << 20 ))
pids="$(grep "\"trace_id\":$TRACE_ID[,}]" "$STITCHED" | grep -o '"pid":[0-9]*' | sort -u | tr '\n' ' ')"
if [ "$pids" != '"pid":0 "pid":1 ' ]; then
    echo "obs_gate.sh: FAIL — trace_id $TRACE_ID must appear under both pids, got: $pids" >&2
    exit 1
fi
echo "obs_gate.sh: phase D OK — both traces balanced, trace_id $TRACE_ID in client and daemon"
echo "obs_gate.sh: PASS — panic forensics, watchdog and traces all verified"

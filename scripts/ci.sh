#!/usr/bin/env bash
# Tier-2 CI runner: chains every repo gate and reports one line per gate.
#
#   perf_gate.sh      p50 regressions vs the newest BENCH_*.json baseline
#   accuracy_gate.sh  numerical-health diff vs the golden ledger, plus the
#                     thread-count determinism and work-fact cross-checks
#   serve_gate.sh     prediction-server contract (batching, artifacts,
#                     JSON + binary protocol soaks)
#   obs_gate.sh       failure forensics (panic flight dump, stall watchdog,
#                     client + daemon traces stitched by trace_id)
#   large_gate.sh     sparse/sketched *_large workloads under a wall
#                     timeout
#
# Each gate's full output is captured to a temp log and dumped only when
# that gate fails; the summary stays one line per gate, plus one line
# with the repo's code-line count (every *.rs and *.sh file under crates,
# src, tests, examples, vendor and scripts). Exits non-zero when any gate
# fails (all gates still run — one report per push, not a fail-fast
# scavenger hunt).
#
# Usage: scripts/ci.sh
set -uo pipefail
cd "$(dirname "$0")/.."

gates=(perf_gate accuracy_gate serve_gate obs_gate large_gate)
logdir="$(mktemp -d "${TMPDIR:-/tmp}/pathrep_ci.XXXXXX")"
trap 'rm -rf "$logdir"' EXIT

failures=0
for gate in "${gates[@]}"; do
    log="$logdir/$gate.log"
    start=$SECONDS
    if "scripts/$gate.sh" > "$log" 2>&1; then
        printf 'ci.sh: %-14s PASS  (%3ds)\n' "$gate" "$((SECONDS - start))"
    else
        rc=$?
        printf 'ci.sh: %-14s FAIL  (%3ds, exit %d)\n' "$gate" "$((SECONDS - start))" "$rc"
        echo "ci.sh: ---- $gate output (last 40 lines) ----"
        tail -40 "$log"
        echo "ci.sh: ---- end $gate output ----"
        failures=$((failures + 1))
    fi
done

lines="$(find crates src tests examples vendor scripts \( -name '*.rs' -o -name '*.sh' \) \
    -not -path '*/target/*' | xargs cat | wc -l)"
echo "ci.sh: code lines $lines"

if [ "$failures" -gt 0 ]; then
    echo "ci.sh: FAIL — $failures gate(s) failed" >&2
    exit 1
fi
echo "ci.sh: OK — all ${#gates[@]} gates passed"

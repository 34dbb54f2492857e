#!/usr/bin/env bash
# Perf-regression gate: build release and run the perf_gate workload matrix
# against the newest BENCH_*.json baseline at the repo root (if any).
# Exits non-zero when any sequential workload's p50 regresses beyond 25 %,
# or when an operation counter differs between 1 and 4 workers.
#
# The report lands in a temp dir, so repeated runs never gate against an
# earlier run's report. Pass `--out BENCH_<k>.json` to record a baseline:
# the last `--out` wins.
#
# Usage: scripts/perf_gate.sh [extra perf_gate flags…]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pathrep-bench --bin perf_gate

outdir="$(mktemp -d "${TMPDIR:-/tmp}/pathrep_perf.XXXXXX")"
trap 'rm -rf "$outdir"' EXIT

latest=""
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    k="${f#BENCH_}"
    k="${k%.json}"
    case "$k" in
        *[!0-9]*) continue ;;
    esac
    if [ -z "$latest" ] || [ "$k" -gt "$latest_k" ]; then
        latest="$f"
        latest_k="$k"
    fi
done

if [ -n "$latest" ]; then
    echo "perf_gate.sh: gating against $latest"
    ./target/release/perf_gate --out "$outdir/BENCH.json" --baseline "$latest" "$@"
else
    echo "perf_gate.sh: no baseline found — measuring without a gate"
    ./target/release/perf_gate --out "$outdir/BENCH.json" "$@"
fi

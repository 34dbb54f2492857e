#!/usr/bin/env bash
# Large-instance scale gate: runs each `*_large` sparse/sketched workload
# (120k-gate netlist, past the dense ceiling) under a per-workload wall
# timeout. A hung sketch pipeline fails the gate with `timeout`'s exit 124
# instead of wedging CI. Sketch-vs-dense parity on the small instance is
# the `tests/sketch_parity.rs` integration test.
#
# Reports land in a temp dir (not the repo root) so the large matrix never
# perturbs the BENCH_<k>.json numbering the default perf gate uses.
#
# Usage: scripts/large_gate.sh
#   PATHREP_LARGE_TIMEOUT  per-workload timeout in seconds (default 420)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p pathrep-bench --bin perf_gate

limit="${PATHREP_LARGE_TIMEOUT:-420}"
outdir="$(mktemp -d "${TMPDIR:-/tmp}/pathrep_large.XXXXXX")"
trap 'rm -rf "$outdir"' EXIT

for w in pipeline_large exact_large approx_large; do
    echo "large_gate.sh: $w (timeout ${limit}s)"
    if ! timeout "$limit" ./target/release/perf_gate \
        --include-large --only "$w" --out "$outdir/BENCH_$w.json"; then
        rc=$?
        if [ "$rc" -eq 124 ]; then
            echo "large_gate.sh: FAIL — $w exceeded ${limit}s" >&2
        else
            echo "large_gate.sh: FAIL — $w exited $rc" >&2
        fi
        exit 1
    fi
done

echo "large_gate.sh: OK — large workloads within ${limit}s"

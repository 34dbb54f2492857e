#!/usr/bin/env bash
# Accuracy-regression gate: run the seeded quickstart workload with a
# fresh numerical-health ledger and doctor-diff it against the committed
# golden ledger. Exits non-zero when any health threshold is breached
# (ε_r growth, e1 growth, condition-number growth, effective-rank drop,
# new ADMM stalls, or a stage that stopped writing records).
#
# The workload runs twice — PATHREP_THREADS=1 and PATHREP_THREADS=4 —
# and both candidate ledgers are doctor-diffed against the golden, then
# byte-compared against each other: the pathrep-par kernels must produce
# bit-identical numbers at every worker count.
#
# Finally `table2 --fast` and `guardband` rerun and must reproduce the
# committed results/table2_fast.txt and results/guardband.txt byte for
# byte (~8 s together).
#
# Usage: scripts/accuracy_gate.sh [--self-test] [extra pathrep-doctor flags…]
#   --self-test  inject a synthetic rank-drop regression and require the
#                gate to FAIL (proves the gate trips).
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN="golden/quickstart_ledger.jsonl"
CANDIDATE="${TMPDIR:-/tmp}/pathrep_accuracy_gate_$$.jsonl"
CANDIDATE_T4="${TMPDIR:-/tmp}/pathrep_accuracy_gate_t4_$$.jsonl"
trap 'rm -f "$CANDIDATE" "$CANDIDATE_T4"' EXIT

self_test=0
doctor_flags=()
for arg in "$@"; do
    if [ "$arg" = "--self-test" ]; then
        self_test=1
    else
        doctor_flags+=("$arg")
    fi
done

cargo build --release --example quickstart
cargo build --release -p pathrep-bench --bin pathrep-doctor
cargo build --release -p pathrep-eval --bin table2 --bin guardband

if [ ! -f "$GOLDEN" ]; then
    echo "accuracy_gate.sh: no golden ledger — seeding $GOLDEN"
    mkdir -p "$(dirname "$GOLDEN")"
    PATHREP_THREADS=1 PATHREP_OBS_LEDGER="$GOLDEN" PATHREP_OBS_RUN_ID=golden \
        ./target/release/examples/quickstart > /dev/null
    echo "accuracy_gate.sh: seeded; commit $GOLDEN to enable the gate"
    exit 0
fi

echo "accuracy_gate.sh: collecting candidate ledger (PATHREP_THREADS=1)"
PATHREP_THREADS=1 PATHREP_OBS_LEDGER="$CANDIDATE" PATHREP_OBS_RUN_ID=candidate \
    ./target/release/examples/quickstart > /dev/null

echo "accuracy_gate.sh: collecting candidate ledger (PATHREP_THREADS=4)"
PATHREP_THREADS=4 PATHREP_OBS_LEDGER="$CANDIDATE_T4" PATHREP_OBS_RUN_ID=candidate \
    ./target/release/examples/quickstart > /dev/null

if ! cmp -s "$CANDIDATE" "$CANDIDATE_T4"; then
    echo "accuracy_gate.sh: FAIL — ledgers differ between PATHREP_THREADS=1 and 4;" >&2
    echo "a pathrep-par kernel broke the bit-determinism contract:" >&2
    diff "$CANDIDATE" "$CANDIDATE_T4" | head -20 >&2 || true
    exit 1
fi
echo "accuracy_gate.sh: thread-count determinism OK (ledgers byte-identical at 1 and 4 workers)"

# Work-accounting cross-check: the model-based work facts must be present
# and byte-identical across worker counts on their own — a sharper error
# than the whole-ledger cmp when only the work plane drifts, and a guard
# against the facts silently disappearing from the ledger records.
work_t1="$(grep -o '"work_flops":[0-9]*' "$CANDIDATE" || true)"
work_t4="$(grep -o '"work_flops":[0-9]*' "$CANDIDATE_T4" || true)"
if [ -z "$work_t1" ]; then
    echo "accuracy_gate.sh: FAIL — candidate ledger carries no work_flops facts;" >&2
    echo "kernel work accounting stopped stamping ledger records" >&2
    exit 1
fi
if [ "$work_t1" != "$work_t4" ]; then
    echo "accuracy_gate.sh: FAIL — work facts differ between PATHREP_THREADS=1 and 4" >&2
    diff <(printf '%s\n' "$work_t1") <(printf '%s\n' "$work_t4") | head -10 >&2 || true
    exit 1
fi
work_n="$(printf '%s\n' "$work_t1" | wc -l | tr -d ' ')"
echo "accuracy_gate.sh: work accounting OK ($work_n work facts identical at 1 and 4 workers)"

if [ "$self_test" = 1 ]; then
    echo "accuracy_gate.sh: self-test — injecting a rank-drop regression; the gate must FAIL"
    if ./target/release/pathrep-doctor "$GOLDEN" --diff "$CANDIDATE" \
        --inject-rank-drop ${doctor_flags[@]+"${doctor_flags[@]}"}; then
        echo "accuracy_gate.sh: SELF-TEST FAILED — injected regression was not caught" >&2
        exit 1
    fi
    echo "accuracy_gate.sh: self-test OK — the gate trips on an injected regression"
    exit 0
fi

./target/release/pathrep-doctor "$GOLDEN" --diff "$CANDIDATE" \
    ${doctor_flags[@]+"${doctor_flags[@]}"}
./target/release/pathrep-doctor "$GOLDEN" --diff "$CANDIDATE_T4" \
    ${doctor_flags[@]+"${doctor_flags[@]}"}

for run in "table2 --fast:table2_fast" "guardband:guardband"; do
    cmd="${run%%:*}"
    recorded="results/${run##*:}.txt"
    # shellcheck disable=SC2086 # $cmd is a binary name plus its flags
    if ! diff -u "$recorded" <(./target/release/$cmd); then
        echo "accuracy_gate.sh: FAIL — \`$cmd\` no longer reproduces $recorded" >&2
        exit 1
    fi
done
echo "accuracy_gate.sh: recorded results OK (table2 --fast and guardband reproduce results/)"

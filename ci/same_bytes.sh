#!/usr/bin/env bash
# "Same bytes" check: a full `exp_all` sweep must reproduce every
# committed `results/*.json` byte for byte, and produce no other artifact.
# A change that moves any layout, miss ratio or reported number fails
# here; an intended change re-commits `results/` in the same change.
#
# Usage: ci/same_bytes.sh [path-to-exp_all] [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

EXP_ALL=${1:-target/release/exp_all}
JOBS=${2:-2}
if [[ ! -x "$EXP_ALL" ]]; then
    echo "building exp_all (release)..."
    cargo build --release -p clop-bench --bin exp_all
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/clop-same-bytes.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

OUT="$WORK/results"

CLOP_RESULTS_DIR="$OUT" "$EXP_ALL" --jobs "$JOBS" >"$WORK/stdout" 2>"$WORK/stderr" || {
    tail -n 40 "$WORK/stderr" >&2
    exit 1
}

if diff -ru --exclude=.checkpoint --exclude=all_experiments.txt results "$OUT"; then
    echo "PASS: exp_all --jobs $JOBS reproduced all $(ls results/*.json | wc -l) results/*.json"
else
    echo "FAIL: exp_all --jobs $JOBS output differs from the committed results/" >&2
    exit 1
fi

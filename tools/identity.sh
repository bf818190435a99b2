#!/usr/bin/env bash
# Check that the working tree's simulation outputs are byte-identical to a
# git revision's.
#
#   tools/identity.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory, runs
# `uavmec simulate --out` with one BLAS thread on that source and on the
# working tree's, and compares the two output trees with `diff -r`:
#   desk:  OJTRTA, EO, ERA, FLP and OCQ, seeds 0-9
#   paper: FLP and ERA, seeds 0-4
#   paper: OJTRTA, seed 0, 20 slots
# Exits 0 when every file is identical, 1 on any difference, 2 on misuse.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

simulate() {   # <source tree> <output dir> <simulate arguments...>
    local tree=$1 out=$2
    shift 2
    # exit 1 may be a failed audit, whose outputs are still written and
    # compared; a run that wrote no summary crashed
    PYTHONPATH="$tree/src" python3 -m uavmec.cli simulate --out "$out" "$@" \
        > /dev/null || true
    if [ ! -f "$out/summary.json" ]; then
        echo "error: no outputs from $tree for: $*" >&2
        exit 2
    fi
}

run_all() {    # <source tree> <output dir>
    simulate "$1" "$2/desk" --profile desk --approach all \
        --seeds 0 1 2 3 4 5 6 7 8 9
    simulate "$1" "$2/paper" --profile paper --approach FLP,ERA \
        --seeds 0 1 2 3 4
    simulate "$1" "$2/paper-ojtrta" --profile paper --approach OJTRTA \
        --seeds 0 --slots 20
}

echo "running $1"
run_all "$tmp/src" "$tmp/rev"
echo "running the working tree"
run_all "$root" "$tmp/tree"

files=$(find "$tmp/rev" -type f | wc -l)
if diff -r "$tmp/rev" "$tmp/tree"; then
    echo "identical: $files files"
else
    echo "outputs differ from $1" >&2
    exit 1
fi

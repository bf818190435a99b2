#!/usr/bin/env bash
# Check that the working tree's simulation outputs are byte-identical to a
# git revision's.
#
#   tools/identity.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory, runs
# `uavmec simulate --out` with one BLAS thread on that source and on the
# working tree's, and compares the two output trees with `diff -r`:
#   desk:  OJTRTA, EO, ERA, FLP and OCQ, seeds 0-9, with --trace, so the
#          per-slot UD and SUAV positions (trajectory_*.csv) are compared too
#   paper: FLP and ERA, seeds 0-4
#   paper: OJTRTA, seed 0, 20 slots
#   paper: EO and OCQ, seeds 0-1, 20 slots, so stage 1 without local
#          computing (EO) and with zero queue weights (OCQ) is compared
#          at M = 60 too
#   desk with binding deadlines (deadline_range (0.05, 0.15) s,
#   data_bits_range (0, 1e6) bits): every approach, seeds 0-2
#   paper with the same binding deadlines: EO and ERA, seeds 0-1, 20 slots,
#          so stage 1's deadline fallbacks are compared at M = 60 too
#   desk: OJTRTA at lyapunov_v 50 and 5000, seeds 0-9, the other two V
#         values that acceptance criterion 8 averages (V=500 is above)
#   desk with zero-size tasks (data_bits_range (0, 0)): every approach,
#         seeds 0-1, 10 slots, so EO's tie-break draws and the
#         allocation's uniform-share fallback are compared too
#   the two stage-2 gate configs of tests/test_engine.py, every approach:
#         OCQ seed 982's 7-UD desk config and the 4-SUAV config whose
#         separation rows bind, so the solver's later tiers, the Newton
#         polish's working-set repairs and binding separation rows are
#         compared too
#   verify: the four oracle suites' lines at seeds 0 and 1, with each
#         line's trailing runtime stripped, so the independent routes
#         are compared too
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
# tight deadlines reach EO's waiver and the game's no-feasible-edge fallback
echo '{"deadline_range": [0.05, 0.15], "data_bits_range": [0.0, 1e6]}' \
    > "$tmp/binding.json"
for v in 50 5000; do
    echo "{\"lyapunov_v\": $v.0}" > "$tmp/v$v.json"
done
# zero-size tasks cost nothing on any server, so EO's UDs tie: stage 1
# draws its tie-breaks and the allocation falls back to uniform shares
echo '{"data_bits_range": [0.0, 0.0]}' > "$tmp/empty.json"
# STAGE2_GATE_CONFIGS in tests/test_engine.py, over the desk profile
cat > "$tmp/ocq-982.json" <<'JSON'
{"num_uds": 7, "num_suavs": 2,
 "suav_initial_positions": [[125.0, 125.0], [245.0, 225.0]],
 "num_slots": 3, "deadline_range": [0.062383679082367714, 0.07727908334354497],
 "data_bits_range": [0.0, 1e6], "lyapunov_v": 3.0342416460194617,
 "seed": 982}
JSON
cat > "$tmp/4-suav-separation.json" <<'JSON'
{"num_uds": 6, "num_suavs": 4,
 "suav_initial_positions": [[125.0, 125.0], [375.0, 375.0], [125.0, 375.0],
                            [375.0, 125.0]],
 "num_slots": 3, "deadline_range": [0.2989923177710316, 0.4995617062223448],
 "suav_max_speed": 25.0, "min_separation": 244.65408462197655,
 "lyapunov_v": 118.96365552541337,
 "suav_energy_budget": 322.7367437229712, "seed": 32360}
JSON

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

verify() {     # <source tree> <output file> <seed>
    # exit 1 is a failed suite, whose lines are still compared; the
    # runtime that ends each line differs from run to run
    PYTHONPATH="$1/src" python3 -m uavmec.cli verify --seed "$3" \
        | sed -E 's/, [0-9.]+s\)$/)/' > "$2" || true
    if [ "$(wc -l < "$2")" -ne 4 ]; then
        echo "error: no suite lines from $1 for: verify --seed $3" >&2
        exit 2
    fi
}

run_all() {    # <source tree> <output dir>
    simulate "$1" "$2/desk" --profile desk --approach all --trace \
        --seeds 0 1 2 3 4 5 6 7 8 9
    simulate "$1" "$2/paper" --profile paper --approach FLP,ERA \
        --seeds 0 1 2 3 4
    simulate "$1" "$2/paper-ojtrta" --profile paper --approach OJTRTA \
        --seeds 0 --slots 20
    simulate "$1" "$2/paper-eo-ocq" --profile paper --approach EO,OCQ \
        --seeds 0 1 --slots 20
    simulate "$1" "$2/desk-binding" --profile desk --approach all \
        --config "$tmp/binding.json" --seeds 0 1 2
    simulate "$1" "$2/paper-binding" --profile paper --approach EO,ERA \
        --config "$tmp/binding.json" --seeds 0 1 --slots 20
    for v in 50 5000; do
        simulate "$1" "$2/desk-v$v" --profile desk --approach OJTRTA \
            --config "$tmp/v$v.json" --seeds 0 1 2 3 4 5 6 7 8 9
    done
    simulate "$1" "$2/desk-empty" --profile desk --approach all \
        --config "$tmp/empty.json" --seeds 0 1 --slots 10
    simulate "$1" "$2/gate-ocq-982" --profile desk --approach all \
        --config "$tmp/ocq-982.json" --seeds 982
    simulate "$1" "$2/gate-4-suav-separation" --profile desk \
        --approach all --config "$tmp/4-suav-separation.json" --seeds 32360
    for seed in 0 1; do
        verify "$1" "$2/verify-seed$seed.txt" "$seed"
    done
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

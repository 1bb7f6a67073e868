#!/usr/bin/env sh
# Runs every figure binary at a small fixed scale and keeps each stdout.
#
# Usage: ./scripts/figures.sh OUTDIR
#
# Builds the phelps-bench binaries, clears inherited PHELPS_* variables,
# and runs all ten binaries at PHELPS_REGION=100000 PHELPS_EPOCH=10000
# on PHELPS_JOBS=2 workers, with the result cache off and a fresh
# checkpoint directory. The fixed worker count keeps the `[runner] ...
# jobs=N` line independent of the host. Each binary runs from a
# temporary working directory, so the tree's results/*.csv are left
# alone. Stdout goes to OUTDIR/<bin>.txt; any nonzero exit fails the
# script (the failing binary's stderr is shown).
#
# The region is long enough for pre-execution to trigger: every fig11
# configuration and most fig12a Phelps cells move from Baseline, so the
# outputs include cells where helper threads run. At a region of 20000
# no Phelps cell triggers and every one reads +0.0%.
#
# results/ci/ holds the committed output, and ci.sh fails when a fresh
# run differs from it. A change that moves a number regenerates it with
# `./scripts/figures.sh results/ci` and gives the reason in CHANGES.md.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 OUTDIR" >&2; exit 2; }
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
root=$(pwd)

bins="fig11 fig12a fig12b fig13 fig14 fig15 fig_corun ablate table2 simpoints"
cargo build --release -q -p phelps-bench --bins

for v in $(env | sed -n 's/^\(PHELPS_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done
export PHELPS_JOBS=2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ckpt"
cd "$work"
for bin in $bins; do
    if PHELPS_REGION=100000 PHELPS_EPOCH=10000 PHELPS_NO_CACHE=1 \
        PHELPS_CKPT_DIR="$work/ckpt" \
        "$root/target/release/$bin" >"$out/$bin.txt" 2>"$work/stderr"; then
        echo "    $bin: $(wc -l <"$out/$bin.txt") lines"
    else
        status=$?
        echo "figures.sh: $bin exited with status $status" >&2
        cat "$work/stderr" >&2
        exit 1
    fi
done

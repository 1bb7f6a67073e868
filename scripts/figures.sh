#!/usr/bin/env sh
# Runs every figure binary at a fixed scale and keeps each stdout.
#
# Usage: ./scripts/figures.sh OUTDIR [ci|default]
#
# Builds the phelps-bench binaries, clears inherited PHELPS_* variables,
# and runs all ten binaries on PHELPS_JOBS=2 workers, with the result
# cache off and a fresh checkpoint directory. The fixed worker count
# keeps the `[runner] ... jobs=N` line independent of the host. Each
# binary runs from a temporary working directory, so the tree's
# results/*.csv are left alone. Stdout goes to OUTDIR/<bin>.txt, and the
# script prints each binary's line count and wall time; any nonzero exit
# fails the script (the failing binary's stderr is shown).
#
# The scale is one of:
#
# * ci (the default): PHELPS_REGION=100000 PHELPS_EPOCH=10000, about
#   20 s on 2 vCPUs. The region is long enough for pre-execution to
#   trigger: every fig11 configuration and most fig12a Phelps cells move
#   from Baseline, so the outputs include cells where helper threads
#   run. At a region of 20000 no Phelps cell triggers and every one
#   reads +0.0%. results/ci/ holds the committed output.
# * default: no region or epoch set, so each binary runs its own
#   default (2M-instruction regions, 150K-instruction epochs), about
#   2.5 min on 2 vCPUs. results/<bin>.txt hold the committed output, the
#   numbers EXPERIMENTS.md quotes.
#
# ci.sh runs both scales and fails when a fresh run differs from the
# committed output. A change that moves a number regenerates it with
# `./scripts/figures.sh results/ci` and `./scripts/figures.sh results
# default`, and gives the reason in CHANGES.md.
set -eu

usage() { echo "usage: $0 OUTDIR [ci|default]" >&2; exit 2; }
[ $# -eq 1 ] || [ $# -eq 2 ] || usage
scale=${2:-ci}
case $scale in
ci | default) ;;
*) usage ;;
esac
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
if [ "$scale" = ci ]; then
    export PHELPS_REGION=100000 PHELPS_EPOCH=10000
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ckpt"
cd "$work"
for bin in $bins; do
    start=$(date +%s)
    if PHELPS_NO_CACHE=1 PHELPS_CKPT_DIR="$work/ckpt" \
        "$root/target/release/$bin" >"$out/$bin.txt" 2>"$work/stderr"; then
        echo "    $bin: $(wc -l <"$out/$bin.txt") lines, $(($(date +%s) - start)) s"
    else
        status=$?
        echo "figures.sh: $bin exited with status $status" >&2
        cat "$work/stderr" >&2
        exit 1
    fi
done

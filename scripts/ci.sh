#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, and the full test suite.
#
# Usage: ./scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (workspace, debug-invariants, -D warnings)"
# The pipeline's per-cycle assertions compile only under this feature.
cargo clippy --workspace --all-targets --features phelps-verify/debug-invariants \
    -- -D warnings

echo "==> cargo doc (workspace, no-deps, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> differential fuzz (200 programs, fixed seed, debug-invariants)"
# Seeded and therefore deterministic run-to-run; PHELPS_FUZZ_SEED=<seed>
# replays a reported failure (see crates/verify). The feature compiles the
# pipeline's per-cycle microarchitectural assertions into the fuzzed runs.
cargo run --release -q -p phelps-verify --features debug-invariants \
    --bin phelps-fuzz -- 200

echo "==> kernel prefix oracle (bfs, astar_small x Phelps, BR, co-run pairs; debug-invariants)"
# The fuzzed programs never trigger an engine; this runs real kernels
# whose helper threads trigger and retire, and fails a run that triggers
# nothing, so every side-thread path meets the per-cycle assertions.
# Both tenants of a bfs/astar_small co-run pair are checked against
# their solo emulator prefixes too.
cargo test --release -q -p phelps-verify --features debug-invariants \
    --test kernel_prefix

echo "==> workload halt check (release; ~290M emulated instructions)"
cargo test --release -q -p phelps-repro --test workload_differential \
    -- --ignored

echo "==> runner smoke test (2-cell matrix, 2 workers, then warm cache)"
cargo build --release -q -p phelps-bench --bin fig11
smoke_cache=$(mktemp -d)
smoke_out=$(PHELPS_JOBS=2 PHELPS_REGION=20000 PHELPS_EPOCH=10000 \
    PHELPS_CACHE_DIR="$smoke_cache" \
    ./target/release/fig11 --only=BR- | grep '^\[runner\]')
echo "    $smoke_out"
case $smoke_out in
*"cells=2 hits=0 simulated=2"*) ;;
*) echo "ci.sh: cold runner smoke run did not simulate" >&2; exit 1 ;;
esac
smoke_out=$(PHELPS_JOBS=2 PHELPS_REGION=20000 PHELPS_EPOCH=10000 \
    PHELPS_CACHE_DIR="$smoke_cache" \
    ./target/release/fig11 --only=BR- | grep '^\[runner\]')
echo "    $smoke_out"
rm -rf "$smoke_cache"
case $smoke_out in
*"cells=2 hits=2 simulated=0"*) ;;
*) echo "ci.sh: warm runner smoke run missed the cache" >&2; exit 1 ;;
esac

echo "==> traced runner smoke test (solo and co-run cells under PHELPS_TRACE, 1 and 2 workers)"
# The trace files are ordered by cell submission and each run's epoch
# series is its own pipeline's, so neither file may depend on the worker
# count, and tracing only observes: a traced run prints what an
# untraced one does. fig_corun's bfs row is two solo and two co-run
# cells, so its trace must hold exactly four runs.
cargo build --release -q -p phelps-bench --bin fig_corun
trace_dir=$(mktemp -d)
traced_smoke() { # <binary> <filter> <runs the trace must hold>
    t="$trace_dir/$1"
    for jobs in 1 2; do
        PHELPS_JOBS=$jobs PHELPS_REGION=20000 PHELPS_EPOCH=10000 PHELPS_NO_CACHE=1 \
            PHELPS_TRACE="$t$jobs.json" "./target/release/$1" "$2" >"$t$jobs.out"
    done
    PHELPS_JOBS=2 PHELPS_REGION=20000 PHELPS_EPOCH=10000 PHELPS_NO_CACHE=1 \
        "./target/release/$1" "$2" >"$t.out"
    cmp "${t}1.json" "${t}2.json" || {
        echo "ci.sh: $1 PHELPS_TRACE JSON depends on PHELPS_JOBS" >&2; exit 1; }
    cmp "${t}1.csv" "${t}2.csv" || {
        echo "ci.sh: $1 PHELPS_TRACE CSV depends on PHELPS_JOBS" >&2; exit 1; }
    cmp "$t.out" "${t}2.out" || {
        echo "ci.sh: $1 prints differently under PHELPS_TRACE" >&2; exit 1; }
    runs=$(grep -o '"label":' "${t}1.json" | wc -l)
    [ "$runs" -eq "$3" ] || {
        echo "ci.sh: $1 $2 traced $runs runs, expected $3" >&2; exit 1; }
    case $(head -n 1 "${t}1.csv") in
    label,epoch,end_cycle,cycles,*) ;;
    *) echo "ci.sh: PHELPS_TRACE CSV header is not label,epoch,end_cycle,cycles,..." >&2
       exit 1 ;;
    esac
    echo "    $1 $2: $runs runs, $(($(wc -l <"${t}1.csv") - 1)) epoch rows," \
        "identical at 1 and 2 workers; stdout as untraced"
}
traced_smoke fig11 --only=BR- 2
traced_smoke fig_corun --only=bfs/ 4
rm -rf "$trace_dir"

echo "==> figure binaries (all ten, PHELPS_REGION=100000, cold cache, diff vs results/ci)"
# Every figure binary must run to completion and print exactly the
# committed results/ci/<bin>.txt, so a change that moves a number fails
# here until it commits the new output.
fig_out=$(mktemp -d)
./scripts/figures.sh "$fig_out"
diff -r results/ci "$fig_out" || {
    rm -rf "$fig_out"
    echo "ci.sh: figure output differs from results/ci (diff above)." >&2
    echo "ci.sh: if the change is meant to move these numbers, regenerate" \
        "them with ./scripts/figures.sh results/ci and give the reason" \
        "in CHANGES.md." >&2
    exit 1; }
rm -rf "$fig_out"

echo "==> figure binaries (all ten, default scale, cold cache, diff vs results/*.txt)"
# The same binaries at their default region and epoch must print exactly
# the committed results/<bin>.txt, the numbers EXPERIMENTS.md quotes.
fig_out=$(mktemp -d)
./scripts/figures.sh "$fig_out" default
for f in "$fig_out"/*.txt; do
    diff "results/$(basename "$f")" "$f" || {
        rm -rf "$fig_out"
        echo "ci.sh: default-scale $(basename "$f") differs from results/ (diff above)." >&2
        echo "ci.sh: if the change is meant to move these numbers, regenerate" \
            "them with ./scripts/figures.sh results default and give the reason" \
            "in CHANGES.md." >&2
        exit 1; }
done
rm -rf "$fig_out"

echo "==> co-run smoke test (idle-peer identity, contended slowdown, fig_corun)"
# The release-profile co-run invariants: a tenant co-scheduled against a
# memory-silent peer on unlimited uncore ports is bit-identical to its
# solo run; a contended pair slows both tenants (per-tenant IPC <= solo
# IPC) with nonzero attributed shared-uncore stalls; and the pair result
# is byte-stable across repeated runs. These are the `corun` tests in
# crates/core/src/sim/mod.rs.
cargo test --release -q -p phelps --lib corun
# End-to-end bench wiring: the fig_corun binary's bfs row must produce
# all four cells (solo + co-run x baseline + Phelps) from a cold cache.
cargo build --release -q -p phelps-bench --bin fig_corun
corun_cache=$(mktemp -d)
corun_out=$(PHELPS_JOBS=2 PHELPS_REGION=20000 PHELPS_EPOCH=10000 \
    PHELPS_CACHE_DIR="$corun_cache" ./target/release/fig_corun --only=bfs/)
rm -rf "$corun_cache"
echo "$corun_out" | grep '^\[runner\]' | sed 's/^/    /'
echo "$corun_out" | grep -q 'cells=4 hits=0 simulated=4' || {
    echo "ci.sh: fig_corun smoke run did not simulate its 4 bfs cells" >&2
    exit 1; }
echo "$corun_out" | grep -Eq '^ *bfs  ' || {
    echo "ci.sh: fig_corun printed no bfs row" >&2; exit 1; }

echo "==> benchmark tests (the public API benchmark/ builds against)"
# benchmark/ is a separate cargo package that drives the simulator only
# through public functions; its tests make a signature change there fail
# here rather than at benchmark time. --locked fails the step when a
# change to the simulator crates would rewrite benchmark/Cargo.lock.
cargo test --offline --locked -q --manifest-path benchmark/Cargo.toml

echo "==> checkpoint restore-equivalence oracle (fixed seeds, all modes)"
cargo test --release -q -p phelps-verify --test restore_equivalence

echo "==> checkpoint round-trip + sharded-equivalence smoke test (simpoints)"
# First run (4 workers) captures region checkpoints into a fresh store;
# the second (1 worker) restores them. The result cache is disabled so
# the second run really simulates. Two invariants ride on the diff pair:
#   1. stdout (every table and IPC line) and the --merged-out JSON
#      (merged SimStats + spliced telemetry) must be byte-identical
#      across worker counts — PHELPS_JOBS is pure execution parallelism
#      and may never leak into a result;
#   2. the restored run must match the cold run exactly — the SimStats
#      equality half of the checkpoint guarantee.
# The [ckpt] stderr counters then prove the fast-forward wall-clock
# collapsed.
cargo build --release -q -p phelps-bench --bin simpoints
ckpt_dir=$(mktemp -d)
cold_out=$(mktemp); cold_err=$(mktemp); warm_out=$(mktemp); warm_err=$(mktemp)
cold_merged=$(mktemp); warm_merged=$(mktemp)
PHELPS_NO_CACHE=1 PHELPS_REGION=20000 PHELPS_EPOCH=10000 PHELPS_JOBS=4 \
    PHELPS_CKPT_DIR="$ckpt_dir" \
    ./target/release/simpoints --merged-out="$cold_merged" \
    >"$cold_out" 2>"$cold_err"
PHELPS_NO_CACHE=1 PHELPS_REGION=20000 PHELPS_EPOCH=10000 PHELPS_JOBS=1 \
    PHELPS_CKPT_DIR="$ckpt_dir" \
    ./target/release/simpoints --merged-out="$warm_merged" \
    >"$warm_out" 2>"$warm_err"
ckpt_field() { grep '^\[ckpt\]' "$1" | tr ' ' '\n' | sed -n "s/^$2=//p"; }
echo "    cold: $(grep '^\[ckpt\]' "$cold_err")"
echo "    warm: $(grep '^\[ckpt\]' "$warm_err")"
cold_ff=$(ckpt_field "$cold_err" ff_ns)
warm_ff=$(ckpt_field "$warm_err" ff_ns)
warm_restore=$(ckpt_field "$warm_err" restore_ns)
echo "    ratio: cold ff / (warm ff + restore) =" \
    "$(awk "BEGIN { printf \"%.1f\", $cold_ff / ($warm_ff + $warm_restore + 1) }") (bound 5)"
diff "$cold_out" "$warm_out" || {
    echo "ci.sh: restored simpoints run diverged from the cold run" >&2; exit 1; }
diff "$cold_merged" "$warm_merged" || {
    echo "ci.sh: merged stats/telemetry depend on PHELPS_JOBS" >&2; exit 1; }
grep -q '"schema":"phelps-simpoints-merged/4"' "$cold_merged" || {
    echo "ci.sh: simpoints --merged-out JSON missing or malformed" >&2; exit 1; }
[ "$(ckpt_field "$cold_err" saves)" -gt 0 ] || {
    echo "ci.sh: cold run saved no checkpoints" >&2; exit 1; }
[ "$(ckpt_field "$warm_err" hits)" -gt 0 ] || {
    echo "ci.sh: warm run restored no checkpoints" >&2; exit 1; }
[ "$(ckpt_field "$warm_err" misses)" -eq 0 ] || {
    echo "ci.sh: warm run still missed checkpoints" >&2; exit 1; }
awk "BEGIN { exit !($cold_ff >= 5 * ($warm_ff + $warm_restore + 1)) }" || {
    echo "ci.sh: checkpoint restore saved <5x fast-forward time" \
         "(cold ff ${cold_ff}ns vs warm ff ${warm_ff}ns + restore ${warm_restore}ns)" >&2
    exit 1; }
rm -rf "$ckpt_dir" "$cold_out" "$cold_err" "$warm_out" "$warm_err" \
    "$cold_merged" "$warm_merged"

echo "==> ci.sh: all green"

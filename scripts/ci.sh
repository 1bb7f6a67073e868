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

echo "==> serve smoke test (daemon on ephemeral port: stream, dedup, drain)"
cargo build --release -q -p phelps-serve --bin phelps-serve
serve_cache=$(mktemp -d)
serve_log=$(mktemp)
./target/release/phelps-serve serve --addr=127.0.0.1:0 --workers=2 \
    --cache-dir="$serve_cache" >"$serve_log" 2>&1 &
serve_pid=$!
serve_port=""
for _ in $(seq 1 100); do
    serve_port=$(sed -n 's/^\[serve\] listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$serve_log")
    [ -n "$serve_port" ] && break
    sleep 0.1
done
[ -n "$serve_port" ] || {
    echo "ci.sh: daemon never announced its port" >&2; cat "$serve_log" >&2; exit 1; }
cold_submit=$(./target/release/phelps-serve submit --port="$serve_port" \
    --workload=bfs --mode=phelps --region=20000 --epoch=5000)
echo "$cold_submit" | grep -q '"type":"epoch"' || {
    echo "ci.sh: cold serve submit streamed no epoch samples" >&2; exit 1; }
# Each epoch frame carries the epoch's SimStats delta.
echo "$cold_submit" | grep -q '"type":"epoch".*"stats":{.*"mt_retired":' || {
    echo "ci.sh: cold serve submit epoch frames carry no SimStats delta" >&2; exit 1; }
echo "$cold_submit" | grep -q '"type":"result".*"dedup":"simulated"' || {
    echo "ci.sh: cold serve submit did not simulate" >&2; exit 1; }
warm_submit=$(./target/release/phelps-serve submit --port="$serve_port" \
    --workload=bfs --mode=phelps --region=20000 --epoch=5000)
echo "$warm_submit" | grep -q '"type":"result".*"dedup":"session"' || {
    echo "ci.sh: warm serve submit was not a dedup hit" >&2; exit 1; }
echo "$warm_submit" | grep -q '"type":"epoch".*"replay":true' || {
    echo "ci.sh: warm serve submit replayed no epoch samples" >&2; exit 1; }
./target/release/phelps-serve shutdown --port="$serve_port" >/dev/null
# The daemon joins every worker/connection thread before exiting; a
# nonzero status here means a leaked thread or an unclean drain.
wait "$serve_pid" || {
    echo "ci.sh: daemon exited uncleanly" >&2; cat "$serve_log" >&2; exit 1; }
grep -q '^\[serve\] shutdown clean' "$serve_log" || {
    echo "ci.sh: daemon never reported a clean shutdown" >&2
    cat "$serve_log" >&2; exit 1; }
echo "    cold: $(echo "$cold_submit" | grep -c '"type":"epoch"') epochs streamed;" \
    "warm: session replay; shutdown clean"
rm -rf "$serve_cache" "$serve_log"

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
diff "$cold_out" "$warm_out" || {
    echo "ci.sh: restored simpoints run diverged from the cold run" >&2; exit 1; }
diff "$cold_merged" "$warm_merged" || {
    echo "ci.sh: merged stats/telemetry depend on PHELPS_JOBS" >&2; exit 1; }
grep -q '"schema":"phelps-simpoints-merged/3"' "$cold_merged" || {
    echo "ci.sh: simpoints --merged-out JSON missing or malformed" >&2; exit 1; }
[ "$(ckpt_field "$cold_err" saves)" -gt 0 ] || {
    echo "ci.sh: cold run saved no checkpoints" >&2; exit 1; }
[ "$(ckpt_field "$warm_err" hits)" -gt 0 ] || {
    echo "ci.sh: warm run restored no checkpoints" >&2; exit 1; }
[ "$(ckpt_field "$warm_err" misses)" -eq 0 ] || {
    echo "ci.sh: warm run still missed checkpoints" >&2; exit 1; }
cold_ff=$(ckpt_field "$cold_err" ff_ns)
warm_ff=$(ckpt_field "$warm_err" ff_ns)
warm_restore=$(ckpt_field "$warm_err" restore_ns)
awk "BEGIN { exit !($cold_ff >= 5 * ($warm_ff + $warm_restore + 1)) }" || {
    echo "ci.sh: checkpoint restore saved <5x fast-forward time" \
         "(cold ff ${cold_ff}ns vs warm ff ${warm_ff}ns + restore ${warm_restore}ns)" >&2
    exit 1; }
rm -rf "$ckpt_dir" "$cold_out" "$cold_err" "$warm_out" "$warm_err" \
    "$cold_merged" "$warm_merged"

echo "==> ci.sh: all green"

//! Golden statistics pinning the simulator's cycle-level behavior.
//!
//! These exact values were captured on the astar_small kernel after the
//! pipeline stage decomposition (`crates/core/src/sim/pipeline/`) and
//! re-pinned twice since:
//!
//! * once for the memory-hierarchy accounting fixes — the store-counter
//!   split (counters only, cycle-neutral) and training the L1 prefetcher
//!   on MSHR-merged demand accesses (baseline 152_783 → 152_471, Phelps
//!   149_493 → 149_181);
//! * once for the port-based memory system: the paper-default config now
//!   models a 32KB L1I and finite per-level port widths, so fetch takes
//!   compulsory I-misses and demand traffic sees admission delay
//!   (baseline 152_471 → 152_952, Phelps 149_181 → 149_658, region
//!   restore 91_708 → 92_703). The pre-refactor numbers remain pinned —
//!   exactly, not approximately — under [`CoreConfig::ideal_memory`] in
//!   `tests/mem_ports.rs`, which isolates the delta to the new bandwidth
//!   and L1I modeling.
//!
//! Any further change must keep these bit-identical: a drift here means
//! timing behavior changed, not just code layout.

use phelps_repro::phelps_ckpt::{capture_snapshots, resume};
use phelps_repro::prelude::*;

fn cfg(mode: Mode) -> RunConfig {
    RunConfig::quick(mode, 200_000, 80_000)
}

#[test]
fn golden_baseline_astar_small() {
    let r = simulate(suite::astar_small().cpu, &cfg(Mode::Baseline));
    assert_eq!(r.stats.cycles, 152_952, "baseline cycles drifted");
    assert_eq!(r.stats.mt_retired, 200_000);
    assert_eq!(r.stats.mt_cond_branches, 24_837);
    assert_eq!(r.stats.mt_mispredicts, 4_191);
    assert_eq!(r.stats.l1d_misses, 935);
    // The kernel's code fits one 32KB L1I comfortably: a handful of
    // compulsory misses, then fetch streams from the cache.
    assert_eq!(r.stats.l1i_misses, 14);
    // Store refill traffic is counted apart from demand loads; the kernel
    // retires stores, so the split counters must be populated.
    assert!(r.stats.l1d_store_accesses > 0);
    assert!(r.stats.l1d_store_misses <= r.stats.l1d_store_accesses);
}

/// Mode-sweep pin added with the data-oriented pipeline tables (the
/// slab/SoA rewrite of the in-flight window): all four modes must stay
/// cycle-identical to the HashMap-backed implementation they replaced.
/// The perfect-BP and partition-only cells exercise squash-free and
/// repartition-heavy schedules respectively, the corners most sensitive
/// to bookkeeping-order bugs in the table rewrite.
#[test]
fn golden_mode_sweep_astar_small() {
    let perfect = simulate(suite::astar_small().cpu, &cfg(Mode::PerfectBp));
    assert_eq!(perfect.stats.cycles, 46_741, "perfect-bp cycles drifted");
    assert_eq!(perfect.stats.mt_mispredicts, 0);
    assert_eq!(perfect.stats.l1d_misses, 937);

    let part = simulate(suite::astar_small().cpu, &cfg(Mode::PartitionOnly));
    assert_eq!(part.stats.cycles, 168_324, "partition-only cycles drifted");
    assert_eq!(part.stats.mt_mispredicts, 4_185);
    assert_eq!(part.stats.l1d_misses, 937);
}

#[test]
fn golden_phelps_full_astar_small() {
    let r = simulate(
        suite::astar_small().cpu,
        &cfg(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert_eq!(r.stats.cycles, 149_658, "phelps cycles drifted");
    assert_eq!(r.stats.mt_mispredicts, 3_653);
    assert_eq!(r.stats.ht_retired, 60_734);
    assert_eq!(r.stats.triggers, 35);
    assert_eq!(r.stats.preds_from_queue, 3_336);
    assert_eq!(r.stats.l1d_misses, 957);
    // Fig. 14 classes; "ht wrong outcome" is `mispredicts_from_queue`.
    let s = &r.stats;
    assert_eq!(s.misp_eliminated, 548);
    assert_eq!(s.misp_gathering_delinquency, 1_714);
    assert_eq!(s.misp_ht_being_constructed, 1_599);
    assert_eq!(s.misp_not_delinquent, 119);
    assert_eq!(s.mispredicts_from_queue, 27);
    assert_eq!(s.misp_ht_untimely, 194);
    assert_eq!(
        [
            s.misp_ht_not_constructed,
            s.misp_ht_too_big,
            s.misp_not_in_loop,
            s.misp_not_iterating_enough,
        ],
        [0; 4],
        "unused classes"
    );
}

/// Branch Runahead pin: the only golden run whose side threads execute
/// chains with loose (dataflow) retirement and whose main thread keeps
/// the whole ROB and SQ under explicit quotas.
#[test]
fn golden_branch_runahead_astar_small() {
    let r = simulate_runahead(
        suite::astar_small().cpu,
        &cfg(Mode::Baseline),
        BrVariant::Speculative,
    );
    assert_eq!(r.stats.cycles, 168_216, "branch runahead cycles drifted");
    assert_eq!(r.stats.mt_retired, 200_000);
    assert_eq!(r.stats.mt_mispredicts, 3_774);
    assert_eq!(r.stats.ht_retired, 87_230);
    assert_eq!(r.stats.triggers, 58);
    assert_eq!(r.stats.preds_from_queue, 3_764);
    assert_eq!(r.stats.mispredicts_from_queue, 180);
    assert_eq!(r.stats.l1d_misses, 962);
    // Fig. 14 classes: BR knows no delinquency stages.
    let s = &r.stats;
    assert_eq!(s.misp_eliminated, 557);
    assert_eq!(s.misp_not_delinquent, 3_522);
    assert_eq!(s.misp_ht_untimely, 72);
    assert_eq!(
        [
            s.misp_gathering_delinquency,
            s.misp_ht_being_constructed,
            s.misp_ht_not_constructed,
            s.misp_ht_too_big,
            s.misp_not_in_loop,
            s.misp_not_iterating_enough,
        ],
        [0; 6],
        "unused classes"
    );
}

/// Region-restore pin: a W=0 checkpoint restore at instruction 50,000
/// must reproduce the fast-forwarded region run bit-for-bit, down to the
/// exact cycle count. A drift here means the restore path perturbs
/// timing state, not just that timing behavior changed.
#[test]
fn golden_region_restore_astar_small() {
    let mut c = cfg(Mode::Baseline);
    c.max_mt_insts = 100_000;
    let skip = 50_000;

    let mut ff = suite::astar_small().cpu;
    ff.run(skip).expect("fast-forward");
    let cold = simulate(ff, &c);

    let snap = capture_snapshots(&mut suite::astar_small().cpu, &[skip], 0)
        .expect("capture")
        .pop()
        .expect("one snapshot");
    let restored = resume(suite::astar_small().cpu, &snap, 0).expect("restore");
    let mut p = Pipeline::from_config(restored.cpu, &c);
    p.warm_microarch(&restored.warm);
    let warmed = p.run();

    assert_eq!(cold.stats, warmed.stats, "restored stats drifted from ff");
    assert_eq!(
        warmed.stats.cycles, 92_703,
        "restored region cycles drifted"
    );
    assert_eq!(warmed.stats.mt_retired, 100_000);
}

//! End-to-end integration tests spanning every crate: workloads run through
//! the full simulator under each mode, checking the paper's qualitative
//! claims at reduced scale.

use phelps_repro::prelude::*;

fn quick(mode: Mode) -> RunConfig {
    RunConfig::quick(mode, 500_000, 80_000)
}

/// Perfect branch prediction is an upper bound; Phelps sits between the
/// baseline and perfect BP on the delinquent astar kernel.
#[test]
fn astar_ordering_baseline_phelps_perfect() {
    let base = simulate(suite::astar().cpu, &quick(Mode::Baseline));
    let ph = simulate(
        suite::astar().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    let perf = simulate(suite::astar().cpu, &quick(Mode::PerfectBp));
    assert!(
        ph.stats.ipc() > base.stats.ipc(),
        "phelps {} > baseline {}",
        ph.stats.ipc(),
        base.stats.ipc()
    );
    assert!(
        perf.stats.ipc() > ph.stats.ipc(),
        "perfect BP {} > phelps {}",
        perf.stats.ipc(),
        ph.stats.ipc()
    );
    assert!(ph.stats.mpki() < base.stats.mpki());
}

/// The astar helper thread reaches the Fig. 5 structure: stores are
/// retained, predicated, and mostly suppressed.
#[test]
fn astar_helper_thread_engages() {
    let ph = simulate(
        suite::astar().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert!(ph.stats.triggers > 0, "helper thread triggered");
    assert!(ph.stats.ht_retired > 10_000, "helper thread did real work");
    assert!(
        ph.stats.preds_from_queue > 1_000,
        "queues supplied predictions: {}",
        ph.stats.preds_from_queue
    );
}

/// Dual decoupled helper threads engage on bfs's nested-loop idiom: one
/// trigger per frontier pass, with visits flowing outer→inner.
#[test]
fn bfs_uses_dual_threads_per_frontier_pass() {
    let ph = simulate(
        suite::bfs().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert!(
        ph.stats.triggers > 10,
        "one trigger per frontier pass: {}",
        ph.stats.triggers
    );
    assert!(ph.stats.preds_from_queue > 1_000);
    let base = simulate(suite::bfs().cpu, &quick(Mode::Baseline));
    assert!(
        ph.stats.mpki() < base.stats.mpki(),
        "bfs MPKI improves: {} vs {}",
        ph.stats.mpki(),
        base.stats.mpki()
    );
}

/// Fig. 11's headline: full-featured Phelps beats Branch Runahead on astar.
#[test]
fn phelps_beats_branch_runahead_on_astar() {
    let ph = simulate(
        suite::astar().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    let br = simulate_runahead(
        suite::astar().cpu,
        &quick(Mode::Baseline),
        BrVariant::Speculative,
    );
    assert!(
        ph.stats.ipc() > br.stats.ipc(),
        "phelps {} > BR {}",
        ph.stats.ipc(),
        br.stats.ipc()
    );
}

/// Fig. 13c: partitioning alone slows the main thread.
#[test]
fn partitioning_only_slows_down() {
    for make in [suite::pr, suite::cc_sv] {
        let base = simulate(make().cpu, &quick(Mode::Baseline));
        let part = simulate(make().cpu, &quick(Mode::PartitionOnly));
        assert!(
            part.stats.ipc() < base.stats.ipc(),
            "{}: partitioned {} < full {}",
            make().name,
            part.stats.ipc(),
            base.stats.ipc()
        );
    }
}

/// Predictable code never triggers helper threads (no delinquency).
#[test]
fn predictable_kernels_stay_untouched() {
    use phelps_workloads::spec;
    let r = simulate(
        spec::exchange2_like(3_000),
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert_eq!(r.stats.triggers, 0, "exchange2-like never triggers");
    assert!(r.stats.mpki() < 2.0, "and is nearly perfectly predicted");
}

/// Fig. 14 bins: the mcf idiom lands in "not in loop".
#[test]
fn mcf_like_classified_not_in_loop() {
    use phelps::classify::MispredictClass;
    use phelps_workloads::spec;
    let r = simulate(
        spec::mcf_like(200_000, 3),
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert_eq!(r.stats.triggers, 0);
    let not_in_loop = MispredictClass::NotInLoop.mpki(&r.stats);
    assert!(
        not_in_loop > 0.5 * r.stats.mpki(),
        "most mispredictions are 'not in loop': {not_in_loop} of {}",
        r.stats.mpki()
    );
}

/// Determinism: identical runs give identical cycle counts.
#[test]
fn runs_are_deterministic() {
    let a = simulate(
        suite::astar_small().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    let b = simulate(
        suite::astar_small().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.mt_mispredicts, b.stats.mt_mispredicts);
    assert_eq!(a.stats.ht_retired, b.stats.ht_retired);
}

/// Guest architectural results are independent of the timing mode: the
/// pipeline must never corrupt architectural execution.
#[test]
fn timing_mode_does_not_change_architecture() {
    // Run the same program functionally and under two timing modes; the
    // MT retires the same number of instructions either way (the trace is
    // the architecture).
    let base = simulate(suite::astar_small().cpu, &quick(Mode::Baseline));
    let ph = simulate(
        suite::astar_small().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert_eq!(base.stats.mt_retired, ph.stats.mt_retired);
    assert_eq!(base.stats.mt_cond_branches, ph.stats.mt_cond_branches);
}

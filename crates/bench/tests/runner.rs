//! Integration tests for the experiment runner: determinism across
//! worker counts, cache hit/miss accounting, invalidation, and corrupt
//! cache entries.
//!
//! All experiments here use explicit builder overrides (`.jobs()`,
//! `.cache_dir()`, `.filter()`, `.telemetry()`, `.quiet()`) instead of
//! environment variables, so the tests can run concurrently in one
//! process. The `PHELPS_NO_CACHE` environment path is covered by the
//! separate `runner_env` test binary (its own process).

use phelps::sim::{simulate_corun_pair, Mode, PhelpsFeatures, RunConfig};
use phelps_bench::runner::{Experiment, MatrixResults};
use phelps_uarch::config::CoreConfig;
use phelps_workloads::suite;
use std::path::PathBuf;
use std::sync::Once;

/// Clears `PHELPS_NO_CACHE` once so a stray developer environment
/// cannot flip the cache tests below into spurious failures.
fn clean_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::remove_var("PHELPS_NO_CACHE"));
}

/// A per-test scratch cache directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("phelps-runner-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_cfg(mode: Mode) -> RunConfig {
    RunConfig::quick(mode, 20_000, 10_000)
}

/// The shared 2×2 matrix (astar/bfs × baseline/phelps).
fn matrix(jobs: usize, cache: Option<PathBuf>, telemetry: bool) -> MatrixResults {
    clean_env();
    let mut exp = Experiment::new("runner-test")
        .jobs(jobs)
        .cache_dir(cache)
        .telemetry(telemetry)
        .quiet(true);
    for name in ["astar", "bfs"] {
        let make = move || suite::gap_workload(name).expect("known workload").cpu;
        exp.cfg_cell(name, "baseline", tiny_cfg(Mode::Baseline), make);
        exp.cfg_cell(
            name,
            "phelps",
            tiny_cfg(Mode::Phelps(PhelpsFeatures::full())),
            make,
        );
    }
    exp.run()
}

#[test]
fn parallel_run_matches_sequential() {
    let seq = matrix(1, None, true);
    let par = matrix(4, None, true);
    assert_eq!(seq.cells.len(), 4);
    assert_eq!(par.cells.len(), 4);
    for (a, b) in seq.cells.iter().zip(&par.cells) {
        assert_eq!((&a.workload, &a.config), (&b.workload, &b.config));
        let ra = a.result.as_ref().expect("sequential cell ran");
        let rb = b.result.as_ref().expect("parallel cell ran");
        assert_eq!(
            format!("{:?}", ra.stats),
            format!("{:?}", rb.stats),
            "SimStats differ for {}/{}",
            a.workload,
            a.config
        );
        let ta = ra.telemetry.as_ref().expect("telemetry harvested");
        let tb = rb.telemetry.as_ref().expect("telemetry harvested");
        assert_eq!(
            ta.epochs, tb.epochs,
            "telemetry epoch series differ for {}/{}",
            a.workload, a.config
        );
        assert_eq!(ta.label, format!("{}/{}", a.workload, a.config));
    }
}

/// Co-run determinism across worker counts: the two-tenant shared-uncore
/// engine, driven through the runner's worker pool, produces
/// byte-identical per-tenant stats whether the cells run sequentially or
/// on four workers. One cell per tenant of the same (bfs, astar) pair,
/// plus a `corun_cell` for the primary-tenant path the figure binaries
/// use.
#[test]
fn corun_results_are_identical_across_worker_counts() {
    clean_env();
    let corun_matrix = |jobs: usize| {
        let mut exp = Experiment::new("runner-test")
            .jobs(jobs)
            .cache_dir(None)
            .quiet(true);
        for (config, tenant) in [("pair-t0", 0usize), ("pair-t1", 1usize)] {
            let cfg0 = tiny_cfg(Mode::Baseline);
            let cfg1 = tiny_cfg(Mode::Baseline);
            let key = format!("{cfg0:?}|peer={cfg1:?}|corun=astar|tenant={tenant}");
            exp.cell("bfs", config, key, move |_| {
                let pair = simulate_corun_pair(suite::bfs().cpu, &cfg0, suite::astar().cpu, &cfg1);
                let [t0, t1] = pair;
                Some(if tenant == 0 { t0 } else { t1 })
            });
        }
        exp.corun_cell(
            "bfs",
            "phelps-corun",
            tiny_cfg(Mode::Phelps(PhelpsFeatures::full())),
            || suite::bfs().cpu,
            "astar",
            tiny_cfg(Mode::Baseline),
            || suite::astar().cpu,
        );
        exp.run()
    };
    let seq = corun_matrix(1);
    let par = corun_matrix(4);
    assert_eq!(seq.cells.len(), 3);
    for (a, b) in seq.cells.iter().zip(&par.cells) {
        assert_eq!((&a.workload, &a.config), (&b.workload, &b.config));
        assert_eq!(
            format!("{:?}", a.result.as_ref().expect("jobs=1 cell ran").stats),
            format!("{:?}", b.result.as_ref().expect("jobs=4 cell ran").stats),
            "per-tenant co-run stats differ across worker counts for {}/{}",
            a.workload,
            a.config
        );
    }
    // The shared uncore really coupled the tenants: the primary tenant
    // saw nonzero shared-tier contention.
    let t0 = seq.get("bfs", "pair-t0").expect("tenant 0 cell");
    assert!(
        t0.stats.l2_port_stalls + t0.stats.l3_port_stalls + t0.stats.dram_queue_stalls > 0,
        "contended pair must attribute shared-uncore stalls to tenant 0"
    );
}

#[test]
fn warm_cache_run_simulates_nothing() {
    let dir = ScratchDir::new("warm");
    let cold = matrix(2, Some(dir.path()), false);
    assert_eq!((cold.hits, cold.simulated), (0, 4), "cold run misses");
    let warm = matrix(2, Some(dir.path()), false);
    assert_eq!((warm.hits, warm.simulated), (4, 0), "warm run all hits");
    for (a, b) in cold.cells.iter().zip(&warm.cells) {
        assert!(b.from_cache);
        assert_eq!(
            format!("{:?}", a.result.as_ref().unwrap().stats),
            format!("{:?}", b.result.as_ref().unwrap().stats),
            "cached stats round-trip for {}/{}",
            a.workload,
            a.config
        );
    }
}

#[test]
fn telemetry_forces_simulation_past_a_warm_cache() {
    let dir = ScratchDir::new("telemetry");
    let cold = matrix(1, Some(dir.path()), false);
    assert_eq!(cold.simulated, 4);
    // Telemetry reports are never cached, so a traced run simulates.
    let traced = matrix(1, Some(dir.path()), true);
    assert_eq!((traced.hits, traced.simulated), (0, 4));
    assert!(traced
        .cells
        .iter()
        .all(|c| c.result.as_ref().is_some_and(|r| r.telemetry.is_some())));
}

#[test]
fn changed_core_config_invalidates_cache() {
    clean_env();
    let dir = ScratchDir::new("invalidate");
    let run = |core: CoreConfig| {
        let mut cfg = tiny_cfg(Mode::Baseline);
        cfg.core = core;
        let mut exp = Experiment::new("runner-test")
            .jobs(1)
            .cache_dir(Some(dir.path()))
            .quiet(true);
        exp.cfg_cell("astar", "baseline", cfg, || suite::astar().cpu);
        exp.run()
    };
    let first = run(CoreConfig::paper_default());
    assert_eq!((first.hits, first.simulated), (0, 1));
    // Any CoreConfig change lands in the fingerprint and misses.
    let changed = run(CoreConfig::paper_default().with_window(400));
    assert_eq!((changed.hits, changed.simulated), (0, 1));
    // The original entry is still present and still hits.
    let again = run(CoreConfig::paper_default());
    assert_eq!((again.hits, again.simulated), (1, 0));
}

#[test]
fn corrupt_cache_file_is_a_miss() {
    clean_env();
    let dir = ScratchDir::new("corrupt");
    let run = || {
        let mut exp = Experiment::new("runner-test")
            .jobs(1)
            .cache_dir(Some(dir.path()))
            .quiet(true);
        exp.cfg_cell("astar", "baseline", tiny_cfg(Mode::Baseline), || {
            suite::astar().cpu
        });
        exp.run()
    };
    let cold = run();
    assert_eq!(cold.simulated, 1);
    let entries: Vec<_> = std::fs::read_dir(dir.path())
        .expect("cache dir exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "one cache entry written");
    std::fs::write(&entries[0], "{ not json").expect("clobber cache entry");
    // The corrupt entry warns (stderr) and is treated as a miss...
    let after = run();
    assert_eq!((after.hits, after.simulated), (0, 1));
    // ...and the re-simulated result repairs it.
    let repaired = run();
    assert_eq!((repaired.hits, repaired.simulated), (1, 0));
}

#[test]
fn filter_drops_non_matching_cells() {
    clean_env();
    let build = || {
        let mut exp = Experiment::new("runner-test").jobs(1).quiet(true);
        exp = exp.cache_dir(None);
        for name in ["astar", "bfs"] {
            let make = move || suite::gap_workload(name).expect("known workload").cpu;
            exp.cfg_cell(name, "baseline", tiny_cfg(Mode::Baseline), make);
        }
        exp
    };
    let kept = build().filter(Some("ASTAR")).run();
    assert_eq!(kept.cells.len(), 1, "case-insensitive substring match");
    assert_eq!(kept.filtered, 1);
    assert!(kept.get("astar", "baseline").is_some());
    // A filter matching nothing warns (stderr) but still returns cleanly.
    let none = build().filter(Some("no-such-cell")).run();
    assert_eq!(none.cells.len(), 0);
    assert_eq!(none.filtered, 2);
}

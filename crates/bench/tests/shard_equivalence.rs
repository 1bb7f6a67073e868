//! The sharded-determinism invariant, at the library level: worker
//! count (`PHELPS_JOBS`) is pure execution parallelism and must never
//! change a single byte of a merged result. Both sharded engines —
//! whole-run checkpoint shards ([`phelps_bench::shard::run_sharded_with`])
//! and the SimPoint driver ([`phelps_bench::run_simpoints_with`]) — are
//! run serially and on a parallel pool, and their merged stats *and*
//! telemetry are compared for exact equality.
//!
//! Everything here uses explicit policies (scratch checkpoint dirs, an
//! explicit worker count, an explicit telemetry config) instead of
//! environment variables, so the tests can run concurrently in one
//! process. The end-to-end binary flavor of the same invariant — two
//! `simpoints --merged-out` runs under `PHELPS_JOBS=4` vs `=1`, diffed
//! byte-for-byte — lives in `scripts/ci.sh`.

use phelps::sim::{Mode, PhelpsFeatures, RunConfig, SimResult};
use phelps_bench::ckpt_support::CkptPolicy;
use phelps_bench::shard::{run_sharded_with, shard_count, shard_plan};
use phelps_bench::{run_simpoints_with, SimPointRun};
use phelps_telemetry as tlm;
use phelps_uarch::stats::SimStats;
use phelps_workloads::simpoints::SimPointConfig;
use phelps_workloads::suite;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh private checkpoint store per call; removed on drop.
struct Scratch(CkptPolicy);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "phelps-shard-eq-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(CkptPolicy { dir, warm: 0 })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0.dir);
    }
}

fn tiny_cfg(mode: Mode) -> RunConfig {
    RunConfig::quick(mode, 20_000, 5_000)
}

fn telemetry(label: &str) -> tlm::Config {
    tlm::Config {
        epoch_len: 5_000,
        label: label.to_string(),
    }
}

/// Merged results must match exactly: stats and telemetry field by
/// field, so their serializations (the CI contract) match byte for byte.
fn assert_identical(serial: &SimResult, parallel: &SimResult) {
    assert_eq!(serial.stats, parallel.stats, "merged stats diverged");
    let ser = serial.telemetry.as_deref().expect("serial telemetry");
    let par = parallel.telemetry.as_deref().expect("parallel telemetry");
    assert_eq!(ser, par, "merged telemetry diverged");
}

#[test]
fn sharded_run_is_independent_of_worker_count() {
    let scratch = Scratch::new("whole-run");
    let cfg = tiny_cfg(Mode::Phelps(PhelpsFeatures::full()));
    let tlm_cfg = telemetry("shard-eq/bfs");
    let run = |workers: usize| {
        run_sharded_with(
            &scratch.0,
            workers,
            4,
            "bfs",
            suite::bfs().cpu,
            &cfg,
            Some(&tlm_cfg),
        )
        .expect("sharded run")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_identical(&serial, &parallel);
    // The decomposition really happened: more instructions than one
    // shard's budget were retired in total.
    let plan = shard_plan(cfg.max_mt_insts, 4);
    assert_eq!(plan.len(), 4);
    assert!(serial.stats.mt_retired > plan[0].len);
    // The spliced epoch series still partitions the merged run: each
    // shard's epochs sum to its own stats, and both sides add.
    let report = serial.telemetry.as_deref().expect("serial telemetry");
    let mut sum = SimStats::default();
    for e in &report.epochs {
        sum.merge(&e.stats);
    }
    for ((name, got), want) in SimStats::NAMES
        .iter()
        .zip(sum.to_array())
        .zip(serial.stats.to_array())
    {
        assert_eq!(
            got, want,
            "merged epoch deltas of {name} must sum to the merged stats"
        );
    }
}

#[test]
fn simpoints_are_independent_of_worker_count() {
    let scratch = Scratch::new("simpoints");
    let cfg = tiny_cfg(Mode::Baseline);
    let spcfg = SimPointConfig {
        interval_len: 20_000,
        max_points: 3,
        kmeans_iters: 4,
    };
    let tlm_cfg = telemetry("shard-eq/astar");
    let run = |workers: usize| -> SimPointRun {
        run_simpoints_with(
            "astar",
            suite::astar().cpu,
            &cfg,
            200_000,
            &spcfg,
            &scratch.0,
            workers,
            Some(&tlm_cfg),
        )
    };
    let serial = run(1);
    let parallel = run(4);
    assert!(!serial.points.is_empty(), "no simpoint survived");
    assert_eq!(serial.points.len(), parallel.points.len());
    assert_eq!(serial.hmean_ipc.to_bits(), parallel.hmean_ipc.to_bits());
    for ((ps, rs), (pp, rp)) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(ps.start_inst, pp.start_inst);
        assert_eq!(rs.stats, rp.stats, "point at {} diverged", ps.start_inst);
    }
    assert_identical(
        serial.merged.as_ref().expect("serial merged"),
        parallel.merged.as_ref().expect("parallel merged"),
    );
}

#[test]
fn default_shard_count_is_one() {
    // The test harness never sets PHELPS_SHARDS; the default must keep
    // every existing caller on the unsharded path.
    if std::env::var("PHELPS_SHARDS").is_err() {
        assert_eq!(shard_count(), 1);
    }
}

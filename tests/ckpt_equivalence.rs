//! W=0 checkpoint-restore equivalence over real workloads.
//!
//! The `phelps-ckpt` guarantee (DESIGN.md §8): with a zero warm window, a
//! region run started from a checkpoint restore produces **bit-identical**
//! `SimStats` to one started by functionally fast-forwarding to the same
//! offset. This sweep checks it end-to-end — capture, on-disk store
//! round-trip, restore, cycle-level simulation — for three workloads in
//! all four pipeline modes.

use phelps_repro::phelps_ckpt::{capture_snapshots, region_key, resume, CheckpointStore};
use phelps_repro::prelude::*;

const SKIP: u64 = 50_000;

fn modes() -> [Mode; 4] {
    [
        Mode::Baseline,
        Mode::PerfectBp,
        Mode::PartitionOnly,
        Mode::Phelps(PhelpsFeatures::full()),
    ]
}

fn check_workload(name: &str, make: fn() -> Workload) {
    let dir = std::env::temp_dir().join(format!("phelps-ckpt-eq-{}-{name}", std::process::id()));
    let store = CheckpointStore::new(&dir);
    let key = region_key(name, &make().cpu, SKIP);
    let captured = capture_snapshots(&mut make().cpu, &[SKIP], 0)
        .expect("fast-forward to the capture point")
        .pop()
        .expect("one snapshot");
    store.save(&key, &captured);
    let snap = store.load(&key).expect("checkpoint survives the store");

    for mode in modes() {
        let cfg = RunConfig::quick(mode.clone(), 30_000, 15_000);

        let mut ff = make().cpu;
        ff.run(SKIP).expect("fast-forward");
        let cold = simulate(ff, &cfg);

        let restored = resume(make().cpu, &snap, 0).expect("restore");
        assert!(restored.warm.is_empty(), "W=0 yields no warm records");
        let mut p = Pipeline::from_config(restored.cpu, &cfg);
        p.warm_microarch(&restored.warm);
        let warmed = p.run();

        assert_eq!(
            cold.stats, warmed.stats,
            "{name}/{mode:?}: W=0 restored region must be bit-identical"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn astar_small_restores_bit_identically() {
    check_workload("astar_small", suite::astar_small);
}

#[test]
fn bfs_restores_bit_identically() {
    check_workload("bfs", suite::bfs);
}

#[test]
fn bc_restores_bit_identically() {
    check_workload("bc", suite::bc);
}

//! Checkpoint-sharded execution of a single run.
//!
//! A long run is split into `PHELPS_SHARDS` contiguous
//! retired-instruction regions. Each shard positions a fresh CPU at its
//! region start through the checkpoint store ([`crate::ckpt_support`]),
//! simulates its slice independently on the `PHELPS_JOBS` thread pool,
//! and the per-shard `(SimStats, Report)` pairs fold through the
//! associative merges (`SimStats::merge`, `Report::merge`,
//! `SimResult::merge`) into one stitched result.
//!
//! ## Determinism
//!
//! The shard *decomposition* (`PHELPS_SHARDS`) is part of the result's
//! identity: an `N`-shard run is a sampling approximation of the
//! monolithic run (each shard restarts the timing model cold at its
//! region boundary), so its cache fingerprint carries `|shards=N`. The
//! *worker count* (`PHELPS_JOBS`) is pure execution parallelism and
//! must never affect the bytes of the merged result: shards are
//! independent (own CPU clone, own pipeline and epoch recorder,
//! deterministic simulator) and always fold in shard-index order, so
//! `PHELPS_JOBS=1` and `PHELPS_JOBS=64` produce byte-identical merged
//! stats and telemetry. CI enforces this (see `scripts/ci.sh`).
//!
//! A shard's recorder lives in the pipeline that simulates the timed
//! region, so its report describes the slice it simulated and nothing
//! of how the CPU got there. Checkpoint work is accounted only in the
//! process-global `[ckpt]` totals ([`crate::ckpt_support::Totals`]).

use crate::ckpt_support::{self, CkptPolicy};
use crate::{exec, recording};
use phelps::sim::{Pipeline, RunConfig, SimResult};
use phelps_isa::{Cpu, EmuError};
use phelps_telemetry as tlm;

/// Shard count for splitting a single run: `PHELPS_SHARDS`, default 1
/// (unsharded). Values below 1 warn and fall back to 1.
pub fn shard_count() -> usize {
    match crate::env_u64("PHELPS_SHARDS", 1) {
        0 => {
            crate::warn_env_once(
                "PHELPS_SHARDS",
                format_args!("PHELPS_SHARDS must be >= 1; using 1"),
            );
            1
        }
        n => usize::try_from(n).unwrap_or(usize::MAX),
    }
}

/// One shard of a split run: skip `skip` retired instructions, then
/// simulate `len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Retired instructions to skip before timing starts.
    pub skip: u64,
    /// Retired-instruction budget of the timed region.
    pub len: u64,
}

/// Splits `total` retired instructions into at most `shards` contiguous
/// regions: every shard gets `total / shards`, and the first
/// `total % shards` shards get one extra, so the plan tiles the run
/// exactly. Never returns an empty plan (a zero-length run yields one
/// empty shard), and never returns more shards than instructions.
pub fn shard_plan(total: u64, shards: usize) -> Vec<ShardSpec> {
    let shards = (shards.max(1) as u64).min(total.max(1));
    let base = total / shards;
    let rem = total % shards;
    let mut plan = Vec::with_capacity(shards as usize);
    let mut skip = 0;
    for i in 0..shards {
        let len = base + u64::from(i < rem);
        plan.push(ShardSpec { skip, len });
        skip += len;
    }
    plan
}

/// Runs one shard: position at `skip` through the checkpoint store and
/// simulate under `cfg`, recording the timed region's epoch series under
/// `telemetry` when set. Used for both whole-run shards and SimPoint
/// regions.
///
/// # Errors
///
/// Propagates [`EmuError`] when the pre-region positioning faults.
pub fn run_shard(
    ckpt: &CkptPolicy,
    label: &str,
    cpu: Cpu,
    skip: u64,
    cfg: &RunConfig,
    telemetry: Option<&tlm::Config>,
) -> Result<SimResult, EmuError> {
    let (cpu, warm) = ckpt_support::region_cpu_with(ckpt, label, cpu, skip)?;
    let mut p = recording(Pipeline::from_config(cpu, cfg), telemetry.cloned());
    p.warm_microarch(&warm);
    Ok(p.run())
}

/// Simulates `cfg.max_mt_insts` instructions of `cpu` split across
/// `shards` checkpoint shards on `workers` threads, returning the merged
/// result (`None` when every shard failed; partial failures warn and
/// merge the survivors).
///
/// Missing region checkpoints are captured in one pre-pass, so shard
/// starts restore instead of each fast-forwarding from instruction 0.
/// With `shards <= 1` this is a plain simulation on the calling thread,
/// byte-identical to the unsharded path.
pub fn run_sharded_with(
    ckpt: &CkptPolicy,
    workers: usize,
    shards: usize,
    label: &str,
    cpu: Cpu,
    cfg: &RunConfig,
    telemetry: Option<&tlm::Config>,
) -> Option<SimResult> {
    let plan = shard_plan(cfg.max_mt_insts, shards);
    if plan.len() <= 1 {
        return Some(recording(Pipeline::from_config(cpu, cfg), telemetry.cloned()).run());
    }
    let starts: Vec<u64> = plan.iter().map(|s| s.skip).collect();
    if let Err(e) = ckpt_support::ensure_region_checkpoints_with(ckpt, label, cpu.clone(), &starts)
    {
        eprintln!("warning: shard pre-capture for {label} failed: {e}");
    }
    let shard_results = exec::run_indexed(plan.len(), workers, |i| {
        let spec = plan[i];
        let mut shard_cfg = cfg.clone();
        shard_cfg.max_mt_insts = spec.len;
        match run_shard(ckpt, label, cpu.clone(), spec.skip, &shard_cfg, telemetry) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!(
                    "warning: shard {i} of {label} (skip {}) failed: {e}",
                    spec.skip
                );
                None
            }
        }
    });
    fold_merge(label, shard_results)
}

/// Folds per-shard results through [`SimResult::merge`] in shard-index
/// order (the order half of the determinism guarantee). `None` entries
/// are failed shards; the survivors still merge, with a warning that the
/// stitched result is partial.
pub(crate) fn fold_merge(label: &str, results: Vec<Option<SimResult>>) -> Option<SimResult> {
    let failed = results.iter().filter(|r| r.is_none()).count();
    if failed > 0 {
        eprintln!(
            "warning: {label}: {failed} of {} shards failed; merged result covers the survivors",
            results.len()
        );
    }
    let mut merged: Option<SimResult> = None;
    for r in results.into_iter().flatten() {
        match merged.as_mut() {
            Some(m) => m.merge(&r),
            None => merged = Some(r),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_tiles_exactly() {
        let plan = shard_plan(10, 3);
        assert_eq!(
            plan,
            vec![
                ShardSpec { skip: 0, len: 4 },
                ShardSpec { skip: 4, len: 3 },
                ShardSpec { skip: 7, len: 3 },
            ]
        );
        let total: u64 = plan.iter().map(|s| s.len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn plan_never_empty_and_never_overshards() {
        assert_eq!(shard_plan(0, 4).len(), 1);
        assert_eq!(shard_plan(3, 8).len(), 3);
        assert_eq!(shard_plan(100, 0), shard_plan(100, 1));
        assert_eq!(shard_plan(100, 1), vec![ShardSpec { skip: 0, len: 100 }]);
    }

    #[test]
    fn plan_shards_are_contiguous() {
        for (total, shards) in [(1_000_000, 7), (17, 5), (64, 64)] {
            let plan = shard_plan(total, shards);
            let mut expect_skip = 0;
            for s in &plan {
                assert_eq!(s.skip, expect_skip);
                expect_skip += s.len;
            }
            assert_eq!(expect_skip, total);
        }
    }
}

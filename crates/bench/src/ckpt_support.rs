//! Checkpoint-backed region starts for the experiment harness.
//!
//! The SimPoint methodology fast-forwards every region run from
//! instruction 0 to `start_inst` before timing begins — the dominant
//! wall-clock cost of the figure matrix, and one the PR-2 result cache
//! cannot amortize when configurations change. This module routes region
//! starts through [`phelps_ckpt`]: the first run of a (workload,
//! `start_inst`) pair captures an architectural checkpoint under
//! `results/ckpt/`, and every later run — any mode, any configuration —
//! restores it in O(resident pages) instead of re-executing
//! O(`start_inst`) instructions.
//!
//! Checkpointing is always on. A save that fails only warns, and the run
//! goes on from the in-memory snapshot, so a read-only or full disk
//! costs speed, not results.
//!
//! ## Environment variables
//!
//! * `PHELPS_CKPT_DIR` — checkpoint directory (default `results/ckpt`);
//! * `PHELPS_CKPT_WARM` — functional-warming window W (default 0): the
//!   last W pre-region instructions are replayed through the cache
//!   hierarchy and branch predictor only. W=0 reproduces the cold
//!   fast-forward path bit-for-bit.
//!
//! ## Accounting
//!
//! Every save/restore/fast-forward is timed into a process-global
//! [`Totals`], printed as a one-line `[ckpt]` stderr summary by
//! [`print_summary`]. That line is the one checkpoint accounting:
//! telemetry reports describe only the timed region.

use phelps_ckpt::{self as ckpt, CheckpointStore, RegionKey, Snapshot};
use phelps_isa::{Cpu, EmuError, ExecRecord};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Resolved checkpointing policy. Normally built [`from_env`]; tests pass
/// explicit policies to avoid process-global env-var races.
///
/// [`from_env`]: CkptPolicy::from_env
#[derive(Clone, Debug)]
pub struct CkptPolicy {
    /// Checkpoint directory (created lazily on first save).
    pub dir: PathBuf,
    /// Functional-warming window W in instructions (0 = cold restore).
    pub warm: u64,
}

impl CkptPolicy {
    /// Reads `PHELPS_CKPT_DIR` / `PHELPS_CKPT_WARM`.
    pub fn from_env() -> CkptPolicy {
        CkptPolicy {
            dir: std::env::var("PHELPS_CKPT_DIR")
                .ok()
                .filter(|s| !s.is_empty())
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("results/ckpt")),
            warm: crate::env_u64("PHELPS_CKPT_WARM", 0),
        }
    }
}

/// Cumulative checkpoint accounting for this process, across every
/// experiment and worker thread.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    /// Region starts served by restoring a stored checkpoint.
    pub hits: u64,
    /// Region starts that had to fast-forward (no usable checkpoint).
    pub misses: u64,
    /// Checkpoint files written.
    pub saves: u64,
    /// Instructions *not* re-executed thanks to restores.
    pub skipped_insts: u64,
    /// Instructions executed by functional fast-forward.
    pub ff_insts: u64,
    /// Wall-clock nanoseconds spent fast-forwarding.
    pub ff_ns: u64,
    /// Wall-clock nanoseconds spent serializing checkpoints.
    pub save_ns: u64,
    /// Wall-clock nanoseconds spent restoring (including warm replay).
    pub restore_ns: u64,
}

static TOTALS: Mutex<Totals> = Mutex::new(Totals {
    hits: 0,
    misses: 0,
    saves: 0,
    skipped_insts: 0,
    ff_insts: 0,
    ff_ns: 0,
    save_ns: 0,
    restore_ns: 0,
});

fn with_totals(f: impl FnOnce(&mut Totals)) {
    f(&mut TOTALS.lock().unwrap_or_else(|e| e.into_inner()));
}

/// A copy of the process-global checkpoint accounting.
pub fn totals() -> Totals {
    *TOTALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Prints the one-line `[ckpt]` summary to stderr — silent when no
/// region start went through this module.
pub fn print_summary() {
    let t = totals();
    if t.hits + t.misses + t.saves == 0 {
        return;
    }
    eprintln!(
        "[ckpt] hits={} misses={} saves={} skipped_insts={} ff_insts={} \
         ff_ns={} save_ns={} restore_ns={}",
        t.hits, t.misses, t.saves, t.skipped_insts, t.ff_insts, t.ff_ns, t.save_ns, t.restore_ns
    );
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Positions `cpu` at retired-instruction offset `skip`, through the
/// checkpoint store when the policy allows, and returns it together with
/// the warm-replay records (the last `min(W, skip)` pre-region
/// instructions; empty when W=0 or checkpointing is off).
///
/// Misses fall back to a functional fast-forward that captures and saves
/// a checkpoint on the way, so the next run — under any mode — hits. A
/// stored checkpoint whose warm lead is shorter than the requested W is
/// recaptured rather than partially warmed, keeping runs with the same
/// settings deterministic.
///
/// # Errors
///
/// Propagates [`EmuError`] from the underlying fast-forward or replay
/// (bad region offset, workload shorter than `skip`).
pub fn region_cpu_with(
    policy: &CkptPolicy,
    label: &str,
    mut cpu: Cpu,
    skip: u64,
) -> Result<(Cpu, Vec<ExecRecord>), EmuError> {
    if skip == 0 {
        return Ok((cpu, Vec::new()));
    }
    let store = CheckpointStore::new(&policy.dir);
    let key = ckpt::region_key(label, &cpu, skip);
    if let Some(snap) = store.load(&key) {
        if snap.lead() >= policy.warm.min(skip) {
            let t = Instant::now();
            let restored = ckpt::resume(cpu, &snap, policy.warm)?;
            let ns = elapsed_ns(t);
            with_totals(|tot| {
                tot.hits += 1;
                tot.restore_ns += ns;
                tot.skipped_insts += snap.state.retired;
            });
            return Ok((restored.cpu, restored.warm));
        }
        eprintln!(
            "note: recapturing checkpoint for {label}@{skip}: stored warm lead {} < requested {}",
            snap.lead(),
            policy.warm.min(skip)
        );
    }

    // Miss: fast-forward (capturing W early), persist, then replay the
    // warm window so this run behaves exactly like a future hit.
    with_totals(|tot| tot.misses += 1);
    let t = Instant::now();
    let snap = capture_one(&mut cpu, skip, policy.warm)?;
    let mut ff_ns = elapsed_ns(t);
    let t = Instant::now();
    store.save(&key, &snap);
    let save_ns = elapsed_ns(t);
    let t = Instant::now();
    let restored = ckpt::resume(cpu, &snap, policy.warm)?;
    ff_ns += elapsed_ns(t);
    with_totals(|tot| {
        tot.saves += 1;
        tot.save_ns += save_ns;
        tot.ff_ns += ff_ns;
        tot.ff_insts += skip;
    });
    Ok((restored.cpu, restored.warm))
}

fn capture_one(cpu: &mut Cpu, skip: u64, warm: u64) -> Result<Snapshot, EmuError> {
    Ok(ckpt::capture_snapshots(cpu, &[skip], warm)?
        .pop()
        .expect("one start yields one snapshot"))
}

/// Captures every missing checkpoint among `starts` in one forward pass
/// over `cpu` (a fresh workload instance), so N region cells pay one
/// fast-forward instead of N. Present-and-usable checkpoints are left
/// alone; `start == 0` needs no checkpoint and is ignored.
///
/// # Errors
///
/// Propagates [`EmuError`] when the single-pass fast-forward faults; the
/// per-region path will rediscover (and re-warn about) the same fault.
pub fn ensure_region_checkpoints_with(
    policy: &CkptPolicy,
    label: &str,
    mut cpu: Cpu,
    starts: &[u64],
) -> Result<(), EmuError> {
    let mut wanted: Vec<u64> = starts.iter().copied().filter(|&s| s > 0).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let store = CheckpointStore::new(&policy.dir);
    let missing: Vec<(u64, RegionKey)> = wanted
        .into_iter()
        .map(|s| (s, ckpt::region_key(label, &cpu, s)))
        .filter(|(s, k)| {
            store
                .load(k)
                .is_none_or(|snap| snap.lead() < policy.warm.min(*s))
        })
        .collect();
    if missing.is_empty() {
        return Ok(());
    }
    let starts_only: Vec<u64> = missing.iter().map(|(s, _)| *s).collect();
    let t = Instant::now();
    let snaps = ckpt::capture_snapshots(&mut cpu, &starts_only, policy.warm)?;
    let ff_ns = elapsed_ns(t);
    let ff_insts = snaps.last().map_or(0, |s| s.state.retired);
    let t = Instant::now();
    for ((_, key), snap) in missing.iter().zip(&snaps) {
        store.save(key, snap);
    }
    let save_ns = elapsed_ns(t);
    let n = snaps.len() as u64;
    with_totals(|tot| {
        tot.saves += n;
        tot.save_ns += save_ns;
        tot.ff_ns += ff_ns;
        tot.ff_insts += ff_insts;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::{Asm, Reg};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn looping_cpu() -> Cpu {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0);
        a.li(Reg::A1, 0x8000);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, 1);
        a.sd(Reg::A0, Reg::A1, 0);
        a.ld(Reg::A2, Reg::A1, 0);
        a.j("loop");
        Cpu::new(a.assemble().unwrap())
    }

    fn policy(tag: &str, warm: u64) -> CkptPolicy {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "phelps-ckpt-support-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        CkptPolicy { dir, warm }
    }

    fn assert_same_arch(a: &Cpu, b: &Cpu) {
        assert_eq!(a.pc(), b.pc());
        assert_eq!(a.retired(), b.retired());
        for r in Reg::all() {
            assert_eq!(a.reg(r), b.reg(r), "register {r:?}");
        }
    }

    #[test]
    fn miss_then_hit_match_plain_fast_forward() {
        let p = policy("roundtrip", 0);
        let mut plain = looping_cpu();
        plain.run(500).unwrap();

        let (missed, warm0) = region_cpu_with(&p, "wl", looping_cpu(), 500).unwrap();
        assert_same_arch(&missed, &plain);
        assert!(warm0.is_empty(), "W=0 yields no warm records");

        let (hit, warm1) = region_cpu_with(&p, "wl", looping_cpu(), 500).unwrap();
        assert_same_arch(&hit, &plain);
        assert!(warm1.is_empty());
        let _ = std::fs::remove_dir_all(&p.dir);
    }

    #[test]
    fn warm_window_returns_trailing_records_on_hit() {
        let p = policy("warm", 64);
        let (_, warm_miss) = region_cpu_with(&p, "wl", looping_cpu(), 500).unwrap();
        assert_eq!(warm_miss.len(), 64);
        let (cpu, warm_hit) = region_cpu_with(&p, "wl", looping_cpu(), 500).unwrap();
        assert_eq!(warm_hit.len(), 64);
        assert_eq!(cpu.retired(), 500);
        // Identical replay both times: the warm trace is deterministic.
        for (a, b) in warm_miss.iter().zip(&warm_hit) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.mem_addr, b.mem_addr);
        }
        let _ = std::fs::remove_dir_all(&p.dir);
    }

    #[test]
    fn short_lead_checkpoint_is_recaptured_for_larger_window() {
        let cold = policy("grow", 0);
        let (_, w) = region_cpu_with(&cold, "wl", looping_cpu(), 400).unwrap();
        assert!(w.is_empty());
        let grown = CkptPolicy {
            warm: 32,
            ..cold.clone()
        };
        let (cpu, warm) = region_cpu_with(&grown, "wl", looping_cpu(), 400).unwrap();
        assert_eq!(warm.len(), 32, "recaptured with the larger lead");
        assert_eq!(cpu.retired(), 400);
        let _ = std::fs::remove_dir_all(&cold.dir);
    }

    #[test]
    fn ensure_pass_precaptures_every_start() {
        let p = policy("ensure", 0);
        ensure_region_checkpoints_with(&p, "wl", looping_cpu(), &[600, 0, 200, 200]).unwrap();
        let store = CheckpointStore::new(&p.dir);
        for s in [200, 600] {
            let key = ckpt::region_key("wl", &looping_cpu(), s);
            assert!(store.load(&key).is_some(), "start {s} captured");
        }
        // The per-region path now hits without growing the store.
        let files = || std::fs::read_dir(&p.dir).unwrap().count();
        let before = files();
        let (cpu, _) = region_cpu_with(&p, "wl", looping_cpu(), 600).unwrap();
        assert_eq!(cpu.retired(), 600);
        assert_eq!(files(), before);
        let _ = std::fs::remove_dir_all(&p.dir);
    }

    #[test]
    fn zero_skip_is_untouched() {
        let p = policy("zero", 16);
        let (cpu, warm) = region_cpu_with(&p, "wl", looping_cpu(), 0).unwrap();
        assert_eq!(cpu.retired(), 0);
        assert!(warm.is_empty());
        assert!(!p.dir.exists());
    }
}

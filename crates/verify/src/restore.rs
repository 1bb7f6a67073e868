//! Checkpoint restore-equivalence oracle.
//!
//! The guarantee under test (`phelps-ckpt`, DESIGN.md §9): a region run
//! started from a checkpoint restore is indistinguishable from one
//! started by functionally fast-forwarding to the same offset. The
//! oracle drives both paths on the same program:
//!
//! 1. *Reference*: clone the CPU and `run(skip)`.
//! 2. *Checkpoint*: capture a snapshot of a second clone, round-trip it
//!    through an on-disk [`CheckpointStore`] (exercising the serializer,
//!    CRC and content-hash validation), and [`resume`] with warm window W.
//!
//! The restored CPU must match the fast-forwarded one architecturally
//! (PC, registers, retired count, halt flag, full memory image), and a
//! pipeline region run from each must retire an identical record stream
//! and final state in all four modes. With W=0 the `SimStats` must also
//! be bit-identical — warming is the only sanctioned perturbation.

use crate::diff::{modes, Mismatch};
use phelps::sim::{Pipeline, RunConfig};
use phelps_ckpt::{capture_snapshots, region_key, resume, CheckpointStore};
use phelps_isa::{Cpu, ExecRecord, Reg};
use std::path::Path;

/// Retired-instruction budget for the oracle's region runs: enough for
/// the generated programs to reach halt, small enough to stay fast.
const REGION_BOUND: u64 = 50_000;

/// Checks restore equivalence for one prepared CPU at region offset
/// `skip` with warm window `warm`, staging the checkpoint in `dir`.
///
/// # Errors
///
/// Returns the first divergence between the fast-forwarded and the
/// checkpoint-restored path.
pub fn check_restore(
    label: &str,
    cpu: &Cpu,
    skip: u64,
    warm: u64,
    dir: &Path,
) -> Result<(), Mismatch> {
    let fail = |what: String| {
        Err(Mismatch {
            mode: "restore",
            what,
        })
    };

    // Reference path: plain functional fast-forward.
    let mut ff = cpu.clone();
    if let Err(e) = ff.run(skip) {
        return fail(format!("reference fast-forward faulted: {e}"));
    }

    // Checkpoint path: capture → save → load → resume, all through the
    // real on-disk store so serialization is part of the oracle.
    let key = region_key(label, cpu, skip);
    let store = CheckpointStore::new(dir);
    let snap = {
        let mut c = cpu.clone();
        match capture_snapshots(&mut c, &[skip], warm) {
            Ok(mut s) => s.pop().expect("one start yields one snapshot"),
            Err(e) => return fail(format!("capture faulted: {e}")),
        }
    };
    store.save(&key, &snap);
    let Some(loaded) = store.load(&key) else {
        return fail("checkpoint did not survive the store round-trip".to_string());
    };
    let restored = match resume(cpu.clone(), &loaded, warm) {
        Ok(r) => r,
        Err(e) => return fail(format!("resume faulted: {e}")),
    };

    // Architectural equality of the two starting points.
    let r = &restored.cpu;
    if r.pc() != ff.pc() || r.retired() != ff.retired() || r.is_halted() != ff.is_halted() {
        return fail(format!(
            "restored position diverges: pc {:#x}/{:#x}, retired {}/{}, halted {}/{}",
            r.pc(),
            ff.pc(),
            r.retired(),
            ff.retired(),
            r.is_halted(),
            ff.is_halted()
        ));
    }
    for reg in Reg::all() {
        if r.reg(reg) != ff.reg(reg) {
            return fail(format!(
                "restored register {reg} diverges: want {:#x}, got {:#x}",
                ff.reg(reg),
                r.reg(reg)
            ));
        }
    }
    if let Some((addr, got, want)) = r.mem.first_difference(&ff.mem) {
        return fail(format!(
            "restored memory diverges at {addr:#x}: want {want:#x}, got {got:#x}"
        ));
    }
    let expected_warm = warm.min(snap.lead());
    if !ff.is_halted() && restored.warm.len() as u64 != expected_warm {
        return fail(format!(
            "warm replay returned {} records, expected {expected_warm}",
            restored.warm.len()
        ));
    }

    // Timing equivalence: a region run from either start must retire the
    // same stream and land in the same final state, in every mode.
    for (name, mode) in modes() {
        let cfg = RunConfig::quick(mode, REGION_BOUND, 2_000);
        let observe = |cpu: Cpu, warm: &[ExecRecord]| {
            let mut p = Pipeline::from_config(cpu, &cfg);
            p.record_retires();
            p.warm_microarch(warm);
            p.run()
        };
        let a = observe(ff.clone(), &[]);
        let b = observe(restored.cpu.clone(), &restored.warm);
        compare_region(name, skip, warm, &a, &b)?;
    }
    Ok(())
}

fn compare_region(
    mode: &'static str,
    skip: u64,
    warm: u64,
    ff: &phelps::sim::SimResult,
    restored: &phelps::sim::SimResult,
) -> Result<(), Mismatch> {
    let err = |what: String| Err(Mismatch { mode, what });
    let want = ff.retire_log.as_ref().expect("retire log was requested");
    let got = restored
        .retire_log
        .as_ref()
        .expect("retire log was requested");
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w != g {
            return err(format!(
                "restored region record {i} (skip {skip}) diverges:\n  want: {w:?}\n  got:  {g:?}"
            ));
        }
    }
    if want.len() != got.len() {
        return err(format!(
            "restored region (skip {skip}) retired {} records, fast-forwarded retired {}",
            got.len(),
            want.len()
        ));
    }
    let wf = ff.final_state.as_ref().expect("final state was requested");
    let gf = restored
        .final_state
        .as_ref()
        .expect("final state was requested");
    for reg in Reg::all() {
        let (w, g) = (wf.mt_regs[reg.index()], gf.mt_regs[reg.index()]);
        if w != g {
            return err(format!(
                "final register {reg} diverges after restore: want {w:#x}, got {g:#x}"
            ));
        }
    }
    if let Some((addr, g, w)) = gf.mem.first_difference(&wf.mem) {
        return err(format!(
            "final memory diverges after restore at {addr:#x}: want {w:#x}, got {g:#x}"
        ));
    }
    if warm == 0 && ff.stats != restored.stats {
        return err(format!(
            "W=0 stats diverge (skip {skip}): cycles {} vs {}, l1d misses {} vs {}",
            ff.stats.cycles, restored.stats.cycles, ff.stats.l1d_misses, restored.stats.l1d_misses
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::Asm;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("phelps-restore-{}-{tag}", std::process::id()))
    }

    #[test]
    fn handwritten_loop_restores_equivalently() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 400);
        a.li(Reg::A1, 0x8000);
        a.label("l");
        a.sd(Reg::A0, Reg::A1, 0);
        a.ld(Reg::A2, Reg::A1, 0);
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::ZERO, "l");
        a.halt();
        let cpu = Cpu::new(a.assemble().unwrap());
        let dir = tmpdir("loop");
        for warm in [0, 64] {
            check_restore("loop", &cpu, 600, warm, &dir)
                .unwrap_or_else(|m| panic!("restore oracle failed: {m}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skip_past_halt_restores_equivalently() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 7);
        a.halt();
        let cpu = Cpu::new(a.assemble().unwrap());
        let dir = tmpdir("halted");
        check_restore("halted", &cpu, 1_000, 16, &dir)
            .unwrap_or_else(|m| panic!("restore oracle failed: {m}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

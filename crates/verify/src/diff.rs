//! Lock-step differential co-simulation oracle.
//!
//! The reference is the functional emulator ([`phelps_isa::Cpu`]) run to
//! halt. Each checked mode then runs the *same* prepared CPU through the
//! cycle-level pipeline with retire logging on, and the retired
//! main-thread record stream plus the final timing-architectural state
//! must match the reference exactly:
//!
//! * every retired [`ExecRecord`] (PC, next-PC, taken flag, destination
//!   value, memory address, store data) in retirement order;
//! * the final register file over all 32 registers (generated programs
//!   initialize registers via an emitted `li` prologue, so retire-time
//!   state is comparable without a written-set carve-out);
//! * the full final memory image (the pipeline's retire-time memory is
//!   seeded from guest memory and written only by retired stores, so
//!   semantic equality is exact, via [`Memory::first_difference`]).
//!
//! Any divergence means the replay/squash machinery dropped, duplicated
//! or reordered a record, or retire-time state application went wrong.

use phelps::sim::{Mode, PhelpsFeatures, Pipeline, RunConfig};
use phelps_isa::{Cpu, ExecRecord, Reg};
use std::fmt;

/// Dynamic-instruction bound for the reference run. Generated programs
/// are statically guaranteed to halt far below this; hitting it means the
/// generator itself is broken.
pub const EMU_BOUND: u64 = 2_000_000;

/// A divergence between the pipeline and the reference emulator.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The pipeline mode that diverged.
    pub mode: &'static str,
    /// Human-readable description of the first divergence.
    pub what: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.mode, self.what)
    }
}

/// The pipeline modes every program is checked under.
pub fn modes() -> [(&'static str, Mode); 4] {
    [
        ("baseline", Mode::Baseline),
        ("perfect-bp", Mode::PerfectBp),
        ("partition-only", Mode::PartitionOnly),
        ("phelps", Mode::Phelps(PhelpsFeatures::full())),
    ]
}

/// Runs the reference emulator to halt, returning the full record stream
/// (including the final `halt` record) and the halted CPU.
pub fn reference_trace(cpu: &Cpu) -> (Vec<ExecRecord>, Cpu) {
    let mut emu = cpu.clone();
    let mut recs = Vec::new();
    while !emu.is_halted() {
        assert!(
            (recs.len() as u64) < EMU_BOUND,
            "generated program exceeded {EMU_BOUND} instructions without halting"
        );
        recs.push(emu.step().expect("reference emulator fault"));
    }
    (recs, emu)
}

fn describe(rec: &ExecRecord) -> String {
    format!(
        "pc={:#x} {:?} next={:#x} taken={} rd={:#x} addr={:#x} data={:#x}",
        rec.pc, rec.inst, rec.next_pc, rec.taken, rec.rd_value, rec.mem_addr, rec.store_data
    )
}

fn compare_mode(
    mode: &'static str,
    cpu: &Cpu,
    cfg: &RunConfig,
    want: &[ExecRecord],
    emu: &Cpu,
) -> Result<(), Mismatch> {
    let err = |what: String| Err(Mismatch { mode, what });
    let mut p = Pipeline::from_config(cpu.clone(), cfg);
    p.record_retires();
    let r = p.run();
    let got = r.retire_log.expect("retire log was requested");
    for (i, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        if w != g {
            return err(format!(
                "retired record {i} diverges\n  want: {}\n  got:  {}",
                describe(w),
                describe(g)
            ));
        }
    }
    if want.len() != got.len() {
        return err(format!(
            "retired {} records, reference retired {} (first extra: {})",
            got.len(),
            want.len(),
            if got.len() > want.len() {
                describe(&got[want.len()])
            } else {
                "<pipeline stopped early>".to_string()
            }
        ));
    }
    let fin = r.final_state.expect("final state was requested");
    for reg in Reg::all() {
        let (w, g) = (emu.reg(reg), fin.mt_regs[reg.index()]);
        if w != g {
            return err(format!(
                "final register {reg} diverges: want {w:#x}, got {g:#x}"
            ));
        }
    }
    if let Some((addr, g, w)) = fin.mem.first_difference(&emu.mem) {
        return err(format!(
            "final memory diverges at {addr:#x}: want {w:#x}, got {g:#x}"
        ));
    }
    Ok(())
}

/// Checks one prepared CPU across every mode in [`modes`], returning the
/// first divergence found.
pub fn check_cpu(cpu: &Cpu) -> Result<(), Mismatch> {
    let (want, emu) = reference_trace(cpu);
    for (name, mode) in modes() {
        // Margin above the reference length: a duplication bug retires
        // extra records (caught by the length check) instead of tripping
        // the instruction cap exactly at the reference length. Short
        // epochs so the Phelps engine gets a chance to trigger on the
        // small generated programs.
        let cfg = RunConfig::quick(mode, want.len() as u64 + 8, 2_000);
        compare_mode(name, cpu, &cfg, &want, &emu)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::Asm;

    #[test]
    fn reference_trace_includes_the_halt_record() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 3);
        a.label("l");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::ZERO, "l");
        a.halt();
        let (recs, emu) = reference_trace(&Cpu::new(a.assemble().unwrap()));
        assert!(emu.is_halted());
        assert_eq!(recs.len(), 8); // li + 3*(addi, bne) + halt
        assert!(matches!(recs.last().unwrap().inst, phelps_isa::Inst::Halt));
    }

    #[test]
    fn a_handwritten_loop_passes_every_mode() {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 200);
        a.li(Reg::A1, 0);
        a.label("l");
        a.add(Reg::A1, Reg::A1, Reg::A0);
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::ZERO, "l");
        a.halt();
        check_cpu(&Cpu::new(a.assemble().unwrap())).expect("differential check passes");
    }
}

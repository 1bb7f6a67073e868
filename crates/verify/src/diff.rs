//! Lock-step differential co-simulation oracle.
//!
//! The reference is the functional emulator ([`phelps_isa::Cpu`]). Each
//! checked run takes the *same* prepared CPU through the cycle-level
//! pipeline with retire logging on, and the retired main-thread record
//! stream plus the final timing-architectural state must match the
//! emulator after the same number of instructions exactly:
//!
//! * every retired [`ExecRecord`] (PC, next-PC, taken flag, destination
//!   value, memory address, store data) in retirement order;
//! * every register a retired instruction wrote, and 0 in every other
//!   register ([`FinalState::mt_regs`] holds only retired writes);
//! * the full memory image (the pipeline's retire-time memory is seeded
//!   from guest memory and written only by retired stores, so semantic
//!   equality is exact, via [`Memory::first_difference`]).
//!
//! [`check_cpu`] runs a generated program to halt in every [`modes`]
//! entry and under Branch Runahead (BR-Speculative, through
//! [`runahead_pipeline`]). [`check_kernel_prefix`] runs the first
//! [`KERNEL_PREFIX`] instructions of a suite kernel under Phelps and
//! BR-Speculative, where helper threads really trigger and retire, and
//! fails a run that triggers nothing. [`check_corun_prefix`] does the
//! same for the two tenants of a co-run pair, each against its own solo
//! emulator prefix.
//!
//! Any divergence means the replay/squash machinery dropped, duplicated
//! or reordered a record, or retire-time state application went wrong.
//!
//! [`FinalState::mt_regs`]: phelps::sim::FinalState::mt_regs
//! [`Memory::first_difference`]: phelps_isa::Memory::first_difference

use phelps::sim::{
    run_corun_pair, Mode, PhelpsFeatures, Pipeline, PreExecEngine, RunConfig, SimResult,
};
use phelps_isa::{Cpu, ExecRecord, Reg};
use phelps_runahead::{runahead_pipeline, BrVariant};
use phelps_uarch::stats::SimStats;
use std::fmt;

/// Dynamic-instruction bound for the reference run. Generated programs
/// are statically guaranteed to halt far below this; hitting it means the
/// generator itself is broken.
pub const EMU_BOUND: u64 = 2_000_000;

/// Retired instructions [`check_kernel_prefix`] checks per run.
pub const KERNEL_PREFIX: u64 = 60_000;

/// Epoch length of the kernel prefix runs: short enough that both engines
/// train and trigger well within [`KERNEL_PREFIX`].
pub const KERNEL_EPOCH: u64 = 10_000;

/// Name of the Branch Runahead run in a [`Mismatch`].
pub const BR_SPEC: &str = "br-spec";

/// Names of the two co-run tenants in a [`Mismatch`].
pub const CORUN_TENANTS: [&str; 2] = ["corun-t0", "corun-t1"];

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

/// Steps the emulator until it halts or has run `limit` instructions,
/// returning the record stream and the CPU after it.
fn emulate(cpu: &Cpu, limit: u64) -> (Vec<ExecRecord>, Cpu) {
    let mut emu = cpu.clone();
    let mut recs = Vec::new();
    while !emu.is_halted() && (recs.len() as u64) < limit {
        recs.push(emu.step().expect("reference emulator fault"));
    }
    (recs, emu)
}

/// Runs the reference emulator to halt, returning the full record stream
/// (including the final `halt` record) and the halted CPU.
pub fn reference_trace(cpu: &Cpu) -> (Vec<ExecRecord>, Cpu) {
    let (recs, emu) = emulate(cpu, EMU_BOUND);
    assert!(
        emu.is_halted(),
        "generated program exceeded {EMU_BOUND} instructions without halting"
    );
    (recs, emu)
}

fn describe(rec: &ExecRecord) -> String {
    format!(
        "pc={:#x} {:?} next={:#x} taken={} rd={:#x} addr={:#x} data={:#x}",
        rec.pc, rec.inst, rec.next_pc, rec.taken, rec.rd_value, rec.mem_addr, rec.store_data
    )
}

/// Runs a pipeline with retire logging on.
fn run_logged<E: PreExecEngine>(mut p: Pipeline<E>) -> SimResult {
    p.record_retires();
    p.run()
}

/// Compares one logged run against the reference stream `want` and the
/// emulator state `emu` after it.
fn compare(
    mode: &'static str,
    r: &SimResult,
    want: &[ExecRecord],
    emu: &Cpu,
) -> Result<(), Mismatch> {
    let err = |what: String| Err(Mismatch { mode, what });
    let got = r.retire_log.as_ref().expect("retire log was requested");
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
    let fin = r.final_state.as_ref().expect("final state was requested");
    let mut written = [false; phelps_isa::NUM_REGS];
    for d in want.iter().filter_map(|rec| rec.inst.dst()) {
        written[d.index()] = true;
    }
    for reg in Reg::all() {
        let w = if written[reg.index()] {
            emu.reg(reg)
        } else {
            0
        };
        let g = fin.mt_regs[reg.index()];
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

/// Checks one prepared CPU, run to halt, across every mode in [`modes`]
/// and under BR-Speculative, returning the first divergence found.
pub fn check_cpu(cpu: &Cpu) -> Result<(), Mismatch> {
    let (want, emu) = reference_trace(cpu);
    // Margin above the reference length: a duplication bug retires
    // extra records (caught by the length check) instead of tripping
    // the instruction cap exactly at the reference length. Short epochs
    // so the engines get a chance to trigger on the small generated
    // programs.
    let cfg = |mode| RunConfig::quick(mode, want.len() as u64 + 8, 2_000);
    for (name, mode) in modes() {
        let r = run_logged(Pipeline::from_config(cpu.clone(), &cfg(mode)));
        compare(name, &r, &want, &emu)?;
    }
    let br = runahead_pipeline(cpu.clone(), &cfg(Mode::Baseline), BrVariant::Speculative);
    compare(BR_SPEC, &run_logged(br), &want, &emu)
}

/// Checks the first [`KERNEL_PREFIX`] retired instructions of a kernel
/// under Phelps (`full()`) and BR-Speculative against the emulator after
/// the same count. A run that never triggers pre-execution or retires no
/// helper-thread instruction is a failure too, so the check cannot turn
/// vacuous. Returns each run's name and statistics.
pub fn check_kernel_prefix(cpu: &Cpu) -> Result<[(&'static str, SimStats); 2], Mismatch> {
    let (want, emu) = emulate(cpu, KERNEL_PREFIX);
    let cfg = |mode| RunConfig::quick(mode, KERNEL_PREFIX, KERNEL_EPOCH);
    let phelps = cfg(Mode::Phelps(PhelpsFeatures::full()));
    let runs = [
        (
            "phelps",
            run_logged(Pipeline::from_config(cpu.clone(), &phelps)),
        ),
        (
            BR_SPEC,
            run_logged(runahead_pipeline(
                cpu.clone(),
                &cfg(Mode::Baseline),
                BrVariant::Speculative,
            )),
        ),
    ];
    for (mode, r) in &runs {
        compare(mode, r, &want, &emu)?;
        non_vacuous(mode, &r.stats)?;
    }
    Ok(runs.map(|(mode, r)| (mode, r.stats)))
}

/// Fails a pre-execution run that never triggered or retired no
/// helper-thread instruction.
fn non_vacuous(mode: &'static str, stats: &SimStats) -> Result<(), Mismatch> {
    if stats.triggers == 0 || stats.ht_retired == 0 {
        return Err(Mismatch {
            mode,
            what: format!(
                "vacuous run: {} triggers, {} helper-thread instructions retired",
                stats.triggers, stats.ht_retired
            ),
        });
    }
    Ok(())
}

/// Co-runs two kernels for [`KERNEL_PREFIX`] retired instructions each,
/// through the same driver as [`phelps::sim::simulate_corun_pair`], and
/// checks each tenant against its own solo emulator prefix: sharing the
/// uncore may change timing but never a retired record, a register or a
/// memory word. A Phelps tenant that triggers nothing fails, as in
/// [`check_kernel_prefix`]. Returns each tenant's statistics.
pub fn check_corun_prefix(
    cpu0: &Cpu,
    mode0: Mode,
    cpu1: &Cpu,
    mode1: Mode,
) -> Result<[SimStats; 2], Mismatch> {
    let cfg0 = RunConfig::quick(mode0, KERNEL_PREFIX, KERNEL_EPOCH);
    let cfg1 = RunConfig::quick(mode1, KERNEL_PREFIX, KERNEL_EPOCH);
    let logged = |cpu: &Cpu, cfg: &RunConfig| {
        let mut p = Pipeline::from_config(cpu.clone(), cfg);
        p.record_retires();
        p
    };
    let results = run_corun_pair(&cfg0.core, logged(cpu0, &cfg0), logged(cpu1, &cfg1));
    let tenants = [(cpu0, &cfg0), (cpu1, &cfg1)];
    for (i, ((cpu, cfg), r)) in tenants.into_iter().zip(&results).enumerate() {
        let name = CORUN_TENANTS[i];
        let (want, emu) = emulate(cpu, KERNEL_PREFIX);
        compare(name, r, &want, &emu)?;
        if matches!(cfg.mode, Mode::Phelps(_)) {
            non_vacuous(name, &r.stats)?;
        }
    }
    Ok(results.map(|r| r.stats))
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

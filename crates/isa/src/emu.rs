//! Functional emulator.
//!
//! [`Cpu`] executes a [`Program`] one instruction at a time, producing an
//! [`ExecRecord`] per step. The record carries everything a trace-driven
//! timing model needs: the instruction, its control-flow resolution, the
//! value written, and the memory address/data touched.

use crate::{Inst, Memory, Program, Reg, INST_BYTES, NUM_REGS};
use std::error::Error;
use std::fmt;

/// Error raised by [`Cpu::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmuError {
    /// The PC left the program's instruction range.
    PcOutOfRange {
        /// The offending PC.
        pc: u64,
    },
    /// `step` was called after the program halted.
    Halted,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc } => write!(f, "pc {pc:#x} outside program"),
            EmuError::Halted => f.write_str("program has halted"),
        }
    }
}

impl Error for EmuError {}

/// The result of executing one dynamic instruction.
///
/// This is the unit of the dynamic trace consumed by the timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecRecord {
    /// PC of the instruction.
    pub pc: u64,
    /// The (static) instruction.
    pub inst: Inst,
    /// PC of the next instruction on the correct path.
    pub next_pc: u64,
    /// For conditional branches: whether the branch was taken.
    pub taken: bool,
    /// Value written to the destination register (0 if none).
    pub rd_value: u64,
    /// Effective address for loads/stores (0 otherwise).
    pub mem_addr: u64,
    /// Data written by stores (0 otherwise).
    pub store_data: u64,
}

impl ExecRecord {
    /// Whether the instruction transfers control away from `pc + 4`.
    pub fn redirects(&self) -> bool {
        self.next_pc != self.pc.wrapping_add(INST_BYTES)
    }
}

/// A snapshot of everything architectural about a [`Cpu`], *excluding* the
/// (immutable) program text: PC, register file, sparse memory, retired
/// count, and the halted flag.
///
/// Restoring a state into a `Cpu` running the same program puts it in a
/// position indistinguishable from having executed the first
/// `retired` instructions — the substrate for checkpoint/restore.
#[derive(Clone, Debug)]
pub struct CpuState {
    /// PC at the snapshot point.
    pub pc: u64,
    /// Architectural register file.
    pub regs: [u64; NUM_REGS],
    /// Guest memory contents.
    pub mem: Memory,
    /// Whether the program had halted.
    pub halted: bool,
    /// Instructions retired when the snapshot was taken.
    pub retired: u64,
}

/// Functional CPU: architectural registers, memory, and a PC.
///
/// # Examples
///
/// ```
/// use phelps_isa::{Asm, Cpu, Reg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new(0);
/// a.li(Reg::A0, 6);
/// a.li(Reg::A1, 7);
/// a.mul(Reg::A0, Reg::A0, Reg::A1);
/// a.halt();
/// let prog = a.assemble()?;
///
/// let mut cpu = Cpu::new(prog);
/// cpu.run(100)?;
/// assert_eq!(cpu.reg(Reg::A0), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Cpu {
    program: Program,
    pc: u64,
    regs: [u64; NUM_REGS],
    /// Guest data memory. Public so harnesses can initialize data structures
    /// before running and inspect them after.
    pub mem: Memory,
    halted: bool,
    retired: u64,
}

impl Cpu {
    /// Creates a CPU at the program's base PC with zeroed registers and
    /// empty memory.
    pub fn new(program: Program) -> Cpu {
        let pc = program.base();
        Cpu {
            program,
            pc,
            regs: [0; NUM_REGS],
            mem: Memory::new(),
            halted: false,
            retired: 0,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes an architectural register (writes to `x0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Whether the program has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Captures the full architectural state (everything except the
    /// program text, which is immutable).
    pub fn capture_state(&self) -> CpuState {
        CpuState {
            pc: self.pc,
            regs: self.regs,
            mem: self.mem.clone(),
            halted: self.halted,
            retired: self.retired,
        }
    }

    /// Overwrites this CPU's architectural state with a snapshot.
    ///
    /// The caller is responsible for ensuring the snapshot was captured
    /// from a CPU running the same program; nothing here can check that.
    pub fn restore_state(&mut self, state: &CpuState) {
        self.pc = state.pc;
        self.regs = state.regs;
        self.mem = state.mem.clone();
        self.halted = state.halted;
        self.retired = state.retired;
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// [`EmuError::Halted`] if the program already halted, and
    /// [`EmuError::PcOutOfRange`] if the PC wandered outside the program
    /// (e.g. an indirect jump through a corrupted register).
    pub fn step(&mut self) -> Result<ExecRecord, EmuError> {
        if self.halted {
            return Err(EmuError::Halted);
        }
        let pc = self.pc;
        let inst = *self
            .program
            .fetch(pc)
            .ok_or(EmuError::PcOutOfRange { pc })?;

        let mut rec = ExecRecord {
            pc,
            inst,
            next_pc: pc.wrapping_add(INST_BYTES),
            taken: false,
            rd_value: 0,
            mem_addr: 0,
            store_data: 0,
        };

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                rec.rd_value = v;
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.reg(rs1), imm as i64 as u64);
                self.set_reg(rd, v);
                rec.rd_value = v;
            }
            Inst::Li { rd, imm } => {
                self.set_reg(rd, imm as u64);
                rec.rd_value = imm as u64;
            }
            Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                let v = self.mem.read(addr, width, signed);
                self.set_reg(rd, v);
                rec.mem_addr = addr;
                rec.rd_value = v;
            }
            Inst::Store {
                width,
                base,
                src,
                offset,
            } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                let data = self.reg(src);
                self.mem.write(addr, width, data);
                rec.mem_addr = addr;
                rec.store_data = data;
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                rec.taken = taken;
                if taken {
                    rec.next_pc = target;
                }
            }
            Inst::Jal { rd, target } => {
                let link = pc.wrapping_add(INST_BYTES);
                self.set_reg(rd, link);
                rec.rd_value = link;
                rec.next_pc = target;
            }
            Inst::Jalr { rd, base, offset } => {
                let target = self.reg(base).wrapping_add(offset as i64 as u64) & !1;
                let link = pc.wrapping_add(INST_BYTES);
                self.set_reg(rd, link);
                rec.rd_value = link;
                rec.next_pc = target;
            }
            Inst::Halt => {
                self.halted = true;
                rec.next_pc = pc;
            }
        }

        self.pc = rec.next_pc;
        self.retired += 1;
        Ok(rec)
    }

    /// Runs until `halt` or until `max_insts` instructions retire, returning
    /// the number of instructions retired by this call.
    ///
    /// # Errors
    ///
    /// Propagates [`EmuError::PcOutOfRange`]. Reaching `halt` is success.
    pub fn run(&mut self, max_insts: u64) -> Result<u64, EmuError> {
        let mut n = 0;
        while !self.halted && n < max_insts {
            self.step()?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Asm;

    fn run_prog(build: impl FnOnce(&mut Asm)) -> Cpu {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let mut cpu = Cpu::new(a.assemble().unwrap());
        cpu.run(1_000_000).unwrap();
        assert!(cpu.is_halted(), "program did not halt");
        cpu
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10
        let cpu = run_prog(|a| {
            a.li(Reg::A0, 0); // sum
            a.li(Reg::A1, 10); // i
            a.label("loop");
            a.add(Reg::A0, Reg::A0, Reg::A1);
            a.addi(Reg::A1, Reg::A1, -1);
            a.bne(Reg::A1, Reg::ZERO, "loop");
            a.halt();
        });
        assert_eq!(cpu.reg(Reg::A0), 55);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let cpu = run_prog(|a| {
            a.li(Reg::A0, 0x8000);
            a.li(Reg::A1, -2); // 0xfff...fe
            a.sw(Reg::A1, Reg::A0, 0);
            a.lw(Reg::A2, Reg::A0, 0); // sign-extended
            a.lwu(Reg::A3, Reg::A0, 0); // zero-extended
            a.halt();
        });
        assert_eq!(cpu.reg(Reg::A2), (-2i64) as u64);
        assert_eq!(cpu.reg(Reg::A3), 0xffff_fffe);
    }

    #[test]
    fn call_and_return() {
        let cpu = run_prog(|a| {
            a.li(Reg::A0, 5);
            a.call("double");
            a.call("double");
            a.halt();
            a.label("double");
            a.add(Reg::A0, Reg::A0, Reg::A0);
            a.ret();
        });
        assert_eq!(cpu.reg(Reg::A0), 20);
    }

    #[test]
    fn branch_records_taken_and_target() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 1);
        a.bne(Reg::A0, Reg::ZERO, "t");
        a.halt();
        a.label("t");
        a.halt();
        let mut cpu = Cpu::new(a.assemble().unwrap());
        cpu.step().unwrap();
        let rec = cpu.step().unwrap();
        assert!(rec.taken);
        assert!(rec.redirects());
        assert_eq!(rec.next_pc, 12);
    }

    #[test]
    fn not_taken_branch_falls_through() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0);
        a.bne(Reg::A0, Reg::ZERO, "t");
        a.halt();
        a.label("t");
        a.halt();
        let mut cpu = Cpu::new(a.assemble().unwrap());
        cpu.step().unwrap();
        let rec = cpu.step().unwrap();
        assert!(!rec.taken);
        assert!(!rec.redirects());
        assert_eq!(rec.next_pc, 8);
    }

    #[test]
    fn halt_stops_and_further_steps_error() {
        let mut a = Asm::new(0);
        a.halt();
        let mut cpu = Cpu::new(a.assemble().unwrap());
        let rec = cpu.step().unwrap();
        assert_eq!(rec.inst, Inst::Halt);
        assert!(cpu.is_halted());
        assert_eq!(cpu.step().unwrap_err(), EmuError::Halted);
    }

    #[test]
    fn pc_out_of_range_detected() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0x9999);
        a.jalr(Reg::ZERO, Reg::A0, 0);
        a.halt();
        let mut cpu = Cpu::new(a.assemble().unwrap());
        cpu.step().unwrap();
        cpu.step().unwrap();
        assert_eq!(
            cpu.step().unwrap_err(),
            EmuError::PcOutOfRange { pc: 0x9998 } // jalr clears bit 0
        );
    }

    #[test]
    fn x0_is_never_written() {
        let cpu = run_prog(|a| {
            a.li(Reg::ZERO, 42);
            a.addi(Reg::ZERO, Reg::ZERO, 1);
            a.halt();
        });
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }

    #[test]
    fn store_record_carries_addr_and_data() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0x4000);
        a.li(Reg::A1, 77);
        a.sd(Reg::A1, Reg::A0, 16);
        a.halt();
        let mut cpu = Cpu::new(a.assemble().unwrap());
        cpu.step().unwrap();
        cpu.step().unwrap();
        let rec = cpu.step().unwrap();
        assert_eq!(rec.mem_addr, 0x4010);
        assert_eq!(rec.store_data, 77);
    }

    #[test]
    fn capture_restore_resumes_identically() {
        // sum 1..=20, snapshot mid-loop, and check the restored CPU
        // retires the exact same record stream as the original.
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 0);
        a.li(Reg::A1, 20);
        a.li(Reg::A2, 0x8000);
        a.label("loop");
        a.add(Reg::A0, Reg::A0, Reg::A1);
        a.sd(Reg::A0, Reg::A2, 0);
        a.addi(Reg::A1, Reg::A1, -1);
        a.bne(Reg::A1, Reg::ZERO, "loop");
        a.halt();
        let prog = a.assemble().unwrap();

        let mut cpu = Cpu::new(prog.clone());
        cpu.run(37).unwrap();
        let snap = cpu.capture_state();
        assert_eq!(snap.retired, 37);

        let mut resumed = Cpu::new(prog);
        resumed.restore_state(&snap);
        assert_eq!(resumed.pc(), cpu.pc());
        loop {
            let a = cpu.step();
            let b = resumed.step();
            assert_eq!(a, b);
            if a.is_err() || cpu.is_halted() {
                break;
            }
        }
        assert_eq!(resumed.reg(Reg::A0), 210);
        assert_eq!(resumed.mem.first_difference(&cpu.mem), None);
        assert_eq!(resumed.retired(), cpu.retired());
    }

    #[test]
    fn run_respects_max_insts() {
        let mut a = Asm::new(0);
        a.label("spin");
        a.j("spin");
        let mut cpu = Cpu::new(a.assemble().unwrap());
        let n = cpu.run(100).unwrap();
        assert_eq!(n, 100);
        assert!(!cpu.is_halted());
    }
}

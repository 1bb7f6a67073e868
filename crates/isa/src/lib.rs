//! # phelps-isa
//!
//! Guest instruction set for the Phelps reproduction: a pragmatic RV64IM
//! subset with a label-based [assembler](Asm), [sparse memory](Memory), and
//! a [functional emulator](Cpu) that produces per-instruction
//! [`ExecRecord`]s for trace-driven timing simulation.
//!
//! The crate is freestanding — workloads are written directly against it —
//! and every downstream crate (the cycle-level core, the Phelps machinery,
//! the Branch Runahead baseline) consumes its types. Programs exist only
//! as [`Inst`] values built through [`Asm`]. Every instruction takes
//! [`INST_BYTES`] (4) bytes of address space, so PCs advance by 4 and
//! the L1I fetches by PC.
//!
//! ## Quick tour
//!
//! ```
//! use phelps_isa::{Asm, Cpu, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Assemble: a0 = popcount-ish loop counting down from 16.
//! let mut a = Asm::new(0x1000);
//! a.li(Reg::A0, 0);
//! a.li(Reg::A1, 16);
//! a.label("loop");
//! a.addi(Reg::A0, Reg::A0, 2);
//! a.addi(Reg::A1, Reg::A1, -1);
//! a.bne(Reg::A1, Reg::ZERO, "loop");
//! a.halt();
//! let prog = a.assemble()?;
//!
//! // Execute functionally.
//! let mut cpu = Cpu::new(prog);
//! while !cpu.is_halted() {
//!     let record = cpu.step()?; // one ExecRecord per dynamic instruction
//!     let _ = record.next_pc;
//! }
//! assert_eq!(cpu.reg(Reg::A0), 32);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
mod emu;
mod inst;
mod mem;
mod program;
mod reg;

pub use asm::{Asm, AsmError};
pub use emu::{Cpu, CpuState, EmuError, ExecRecord};
pub use inst::{AluOp, BranchCond, Inst, MemWidth, SrcRegs};
pub use mem::{Memory, PAGE_BYTES};
pub use program::{Program, INST_BYTES};
pub use reg::{Reg, NUM_REGS};

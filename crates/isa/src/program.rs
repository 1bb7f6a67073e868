//! Assembled guest programs.

use crate::Inst;
use std::collections::HashMap;
use std::fmt;

/// Size of every guest instruction in bytes: PCs advance by this much.
pub const INST_BYTES: u64 = 4;

/// An assembled guest program: a contiguous run of instructions at a base
/// PC, plus the label map produced by the assembler.
///
/// Produced by [`Asm::assemble`](crate::Asm::assemble).
#[derive(Clone, Debug)]
pub struct Program {
    base: u64,
    insts: Vec<Inst>,
    labels: HashMap<String, u64>,
}

impl Program {
    pub(crate) fn new(base: u64, insts: Vec<Inst>, labels: HashMap<String, u64>) -> Program {
        Program {
            base,
            insts,
            labels,
        }
    }

    /// The PC of the first instruction.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// One-past-the-end PC.
    pub fn end(&self) -> u64 {
        self.base + INST_BYTES * self.insts.len() as u64
    }

    /// Fetches the instruction at `pc`, or `None` if `pc` is outside the
    /// program or misaligned.
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        if pc < self.base || !(pc - self.base).is_multiple_of(INST_BYTES) {
            return None;
        }
        self.insts.get(((pc - self.base) / INST_BYTES) as usize)
    }

    /// The PC a label resolved to, if the label exists.
    pub fn label(&self, name: &str) -> Option<u64> {
        self.labels.get(name).copied()
    }

    /// Iterator over `(pc, inst)` pairs in program order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Inst)> {
        self.insts
            .iter()
            .enumerate()
            .map(move |(i, inst)| (self.base + INST_BYTES * i as u64, inst))
    }
}

impl fmt::Display for Program {
    /// A full disassembly listing, one instruction per line with its PC.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, inst) in self.iter() {
            writeln!(f, "{pc:#08x}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asm, Reg};

    fn tiny() -> Program {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 7);
        a.label("mid");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::ZERO, "mid");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn fetch_by_pc() {
        let p = tiny();
        assert_eq!(p.base(), 0x1000);
        assert_eq!(p.len(), 4);
        assert_eq!(p.end(), 0x1010);
        assert!(p.fetch(0x1000).is_some());
        assert!(p.fetch(0x100c).is_some());
        assert!(p.fetch(0x1010).is_none(), "end is exclusive");
        assert!(p.fetch(0x0ffc).is_none(), "below base");
        assert!(p.fetch(0x1002).is_none(), "misaligned");
    }

    #[test]
    fn labels_resolve() {
        let p = tiny();
        assert_eq!(p.label("mid"), Some(0x1004));
        assert_eq!(p.label("nope"), None);
    }

    #[test]
    fn iter_walks_in_order() {
        let p = tiny();
        let pcs: Vec<u64> = p.iter().map(|(pc, _)| pc).collect();
        assert_eq!(pcs, vec![0x1000, 0x1004, 0x1008, 0x100c]);
    }

    #[test]
    fn display_lists_every_instruction() {
        let p = tiny();
        let listing = p.to_string();
        assert_eq!(listing.lines().count(), 4);
        assert!(listing.contains("halt"));
    }
}

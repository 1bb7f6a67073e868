//! Guest instruction set.
//!
//! The guest ISA is a pragmatic RV64IM subset: integer ALU operations
//! (register and immediate forms), loads/stores of 1/2/4/8 bytes,
//! conditional branches, direct and indirect jumps, `lui`-style immediate
//! materialization, and a `halt` marker that ends a program.
//!
//! Branch and `jal` targets are stored as **absolute PCs** (the assembler
//! resolves labels), which keeps every consumer — emulator, timing model,
//! helper-thread construction — free of PC-relative arithmetic.

use crate::Reg;
use std::fmt;

/// Integer ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping). Not available in immediate form (use `addi` with a negative immediate).
    Sub,
    /// Logical left shift (by low 6 bits of rhs).
    Sll,
    /// Signed less-than, producing 0 or 1.
    Slt,
    /// Unsigned less-than, producing 0 or 1.
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Logical right shift (by low 6 bits of rhs).
    Srl,
    /// Arithmetic right shift (by low 6 bits of rhs).
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// 64-bit multiplication (low half, wrapping).
    Mul,
    /// Signed division (RISC-V semantics: x/0 = -1, overflow wraps).
    Div,
    /// Unsigned division (x/0 = all ones).
    Divu,
    /// Signed remainder (x%0 = x).
    Rem,
    /// Unsigned remainder (x%0 = x).
    Remu,
    /// 32-bit addition with sign extension (`addw`).
    Addw,
    /// 32-bit subtraction with sign extension (`subw`).
    Subw,
    /// 32-bit multiplication with sign extension (`mulw`).
    Mulw,
    /// 32-bit logical left shift with sign extension (`sllw`).
    Sllw,
}

impl AluOp {
    /// Every ALU operation, for exhaustive enumeration (instruction
    /// generators, coverage checks).
    pub const ALL: [AluOp; 19] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Sll,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Xor,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Or,
        AluOp::And,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Divu,
        AluOp::Rem,
        AluOp::Remu,
        AluOp::Addw,
        AluOp::Subw,
        AluOp::Mulw,
        AluOp::Sllw,
    ];

    /// Execution latency of the operation in cycles, used by the timing
    /// model ("simple ALU" vs. "complex ALU" lanes).
    pub fn latency(self) -> u32 {
        match self {
            AluOp::Mul | AluOp::Mulw => 3,
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => 12,
            _ => 1,
        }
    }

    /// Whether the operation must issue to a complex-ALU lane.
    pub fn is_complex(self) -> bool {
        matches!(
            self,
            AluOp::Mul | AluOp::Mulw | AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu
        )
    }

    /// Evaluates the operation on two 64-bit operands with RISC-V semantics.
    ///
    /// # Examples
    ///
    /// ```
    /// use phelps_isa::AluOp;
    /// assert_eq!(AluOp::Add.eval(2, 3), 5);
    /// assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1); // -1 < 0 signed
    /// assert_eq!(AluOp::Div.eval(7, 0), u64::MAX); // RISC-V x/0 == -1
    /// ```
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr((b & 0x3f) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 0x3f) as u32)) as u64,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            AluOp::Remu => a.checked_rem(b).unwrap_or(a),
            AluOp::Addw => (a as i32).wrapping_add(b as i32) as i64 as u64,
            AluOp::Subw => (a as i32).wrapping_sub(b as i32) as i64 as u64,
            AluOp::Mulw => (a as i32).wrapping_mul(b as i32) as i64 as u64,
            AluOp::Sllw => ((a as i32).wrapping_shl((b & 0x1f) as u32)) as i64 as u64,
        }
    }
}

/// Access width of a load or store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// Every access width, for exhaustive enumeration.
    pub const ALL: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];

    /// The access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// Condition of a conditional branch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
    /// Branch if unsigned less-than.
    Ltu,
    /// Branch if unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Every branch condition, for exhaustive enumeration.
    pub const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// Evaluates the condition on two 64-bit operands.
    ///
    /// # Examples
    ///
    /// ```
    /// use phelps_isa::BranchCond;
    /// assert!(BranchCond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
    /// assert!(!BranchCond::Ltu.eval(u64::MAX, 0));
    /// ```
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// A guest instruction.
///
/// Control-transfer targets are absolute PCs (resolved by the
/// [assembler](crate::Asm)).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    AluImm {
        /// Operation (subtract is expressed as `Add` of a negative immediate).
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i32,
    },
    /// Materialize a constant: `rd = imm` (covers `lui`/`li` idioms).
    Li {
        /// Destination.
        rd: Reg,
        /// Value.
        imm: i64,
    },
    /// Memory load: `rd = mem[rs1 + offset]`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Whether the loaded value is sign-extended.
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Memory store: `mem[base + offset] = src`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Base address register.
        base: Reg,
        /// Data register.
        src: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch to absolute `target` if `cond(rs1, rs2)`.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Absolute target PC.
        target: u64,
    },
    /// Unconditional direct jump; `rd` receives the return address.
    Jal {
        /// Link register (`Reg::ZERO` for a plain jump).
        rd: Reg,
        /// Absolute target PC.
        target: u64,
    },
    /// Indirect jump to `rs1 + offset`; `rd` receives the return address.
    Jalr {
        /// Link register (`Reg::ZERO` for a plain indirect jump).
        rd: Reg,
        /// Base register holding the target.
        base: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Terminates the program.
    Halt,
}

impl Inst {
    /// The destination register, if the instruction writes one.
    ///
    /// Writes to `x0` are reported as `None` since they are architecturally
    /// discarded.
    pub fn dst(&self) -> Option<Reg> {
        let rd = match *self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Li { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. } => rd,
            Inst::Store { .. } | Inst::Branch { .. } | Inst::Halt => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// Source registers, in operand order. Reads of `x0` are included (they
    /// are always ready).
    pub fn srcs(&self) -> SrcRegs {
        let mut s = SrcRegs::default();
        match *self {
            Inst::Alu { rs1, rs2, .. } => {
                s.push(rs1);
                s.push(rs2);
            }
            Inst::AluImm { rs1, .. } => s.push(rs1),
            Inst::Li { .. } => {}
            Inst::Load { base, .. } => s.push(base),
            Inst::Store { base, src, .. } => {
                s.push(base);
                s.push(src);
            }
            Inst::Branch { rs1, rs2, .. } => {
                s.push(rs1);
                s.push(rs2);
            }
            Inst::Jal { .. } => {}
            Inst::Jalr { base, .. } => s.push(base),
            Inst::Halt => {}
        }
        s
    }

    /// Whether this is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether this is any control transfer (branch, jal, jalr).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. }
        )
    }

    /// Whether this is a memory load.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// Whether this is a memory store.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }
}

/// Small inline vector of at most two source registers.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SrcRegs {
    regs: [Option<Reg>; 2],
    len: u8,
}

impl SrcRegs {
    fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = Some(r);
        self.len += 1;
    }

    /// Number of source registers (0..=2).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no source registers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over the source registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs.iter().take(self.len as usize).map(|r| r.unwrap())
    }
}

impl IntoIterator for SrcRegs {
    type Item = Reg;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Reg>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().flatten()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", alu_name(op))
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", alu_name(op))
            }
            Inst::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let u = if signed { "" } else { "u" };
                write!(f, "l{}{u} {rd}, {offset}({base})", width_name(width))
            }
            Inst::Store {
                width,
                base,
                src,
                offset,
            } => write!(f, "s{} {src}, {offset}({base})", width_name(width)),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let c = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{c} {rs1}, {rs2}, {target:#x}")
            }
            Inst::Jal { rd, target } => write!(f, "jal {rd}, {target:#x}"),
            Inst::Jalr { rd, base, offset } => write!(f, "jalr {rd}, {offset}({base})"),
            Inst::Halt => f.write_str("halt"),
        }
    }
}

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Sll => "sll",
        AluOp::Slt => "slt",
        AluOp::Sltu => "sltu",
        AluOp::Xor => "xor",
        AluOp::Srl => "srl",
        AluOp::Sra => "sra",
        AluOp::Or => "or",
        AluOp::And => "and",
        AluOp::Mul => "mul",
        AluOp::Div => "div",
        AluOp::Divu => "divu",
        AluOp::Rem => "rem",
        AluOp::Remu => "remu",
        AluOp::Addw => "addw",
        AluOp::Subw => "subw",
        AluOp::Mulw => "mulw",
        AluOp::Sllw => "sllw",
    }
}

fn width_name(w: MemWidth) -> &'static str {
    match w {
        MemWidth::B => "b",
        MemWidth::H => "h",
        MemWidth::W => "w",
        MemWidth::D => "d",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX); // wraps
        assert_eq!(AluOp::Slt.eval(1, 2), 1);
        assert_eq!(AluOp::Slt.eval(2, 1), 0);
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1);
        assert_eq!(AluOp::Sltu.eval(u64::MAX, 0), 0);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sra.eval((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(AluOp::Srl.eval(8, 1), 4);
    }

    #[test]
    fn alu_eval_division_by_zero_riscv_semantics() {
        assert_eq!(AluOp::Div.eval(7, 0), u64::MAX);
        assert_eq!(AluOp::Divu.eval(7, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(7, 0), 7);
        assert_eq!(AluOp::Remu.eval(7, 0), 7);
    }

    #[test]
    fn alu_eval_word_ops_sign_extend() {
        assert_eq!(
            AluOp::Addw.eval(0x7fff_ffff, 1),
            0xffff_ffff_8000_0000u64,
            "addw overflow sign-extends"
        );
        assert_eq!(AluOp::Subw.eval(0, 1), u64::MAX);
    }

    #[test]
    fn shift_amount_masks_to_six_bits() {
        assert_eq!(AluOp::Sll.eval(1, 64), 1); // 64 & 0x3f == 0
        assert_eq!(AluOp::Sll.eval(1, 65), 2);
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval(u64::MAX, 0));
        assert!(BranchCond::Ge.eval(0, u64::MAX));
        assert!(BranchCond::Ltu.eval(0, u64::MAX));
        assert!(BranchCond::Geu.eval(u64::MAX, 0));
    }

    #[test]
    fn dst_hides_x0_writes() {
        let i = Inst::Jal {
            rd: Reg::ZERO,
            target: 0x100,
        };
        assert_eq!(i.dst(), None);
        let i = Inst::Jal {
            rd: Reg::RA,
            target: 0x100,
        };
        assert_eq!(i.dst(), Some(Reg::RA));
    }

    #[test]
    fn srcs_enumerate_operands() {
        let i = Inst::Store {
            width: MemWidth::D,
            base: Reg::A0,
            src: Reg::A1,
            offset: 8,
        };
        let srcs: Vec<Reg> = i.srcs().into_iter().collect();
        assert_eq!(srcs, vec![Reg::A0, Reg::A1]);

        let i = Inst::Li {
            rd: Reg::A0,
            imm: 1,
        };
        assert!(i.srcs().is_empty());
    }

    #[test]
    fn classification_predicates() {
        let b = Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::ZERO,
            target: 0,
        };
        assert!(b.is_cond_branch());
        assert!(b.is_control());
        assert!(!b.is_load());
        let j = Inst::Jal {
            rd: Reg::ZERO,
            target: 0,
        };
        assert!(!j.is_cond_branch());
        assert!(j.is_control());
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::H.bytes(), 2);
        assert_eq!(MemWidth::W.bytes(), 4);
        assert_eq!(MemWidth::D.bytes(), 8);
    }

    #[test]
    fn display_formats_reasonably() {
        let i = Inst::Load {
            width: MemWidth::W,
            signed: true,
            rd: Reg::A0,
            base: Reg::SP,
            offset: -4,
        };
        assert_eq!(i.to_string(), "lw a0, -4(sp)");
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(i.to_string(), "add a0, a1, a2");
    }

    #[test]
    fn latency_classes() {
        assert_eq!(AluOp::Add.latency(), 1);
        assert!(AluOp::Mul.latency() > 1);
        assert!(AluOp::Div.latency() > AluOp::Mul.latency());
        assert!(AluOp::Div.is_complex());
        assert!(!AluOp::And.is_complex());
    }
}

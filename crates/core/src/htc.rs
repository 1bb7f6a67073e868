//! Helper Thread Cache (paper §V-E) and helper-thread instruction
//! representation.
//!
//! The HTC holds finalized helper threads for up to four loops. Each row is
//! tagged with the loop's start PC (the target of the outermost loop
//! branch) and holds up to 128 instructions; nested loops split the row
//! into an outer-thread half and an inner-thread half. Helper-thread fetch
//! is purely sequential and wraps at the loop branch.
//!
//! Delinquent branches appear converted to **predicate producers** with a
//! logical destination predicate register (`pred1`, `pred2`, ... — `pred0`
//! is reserved for "unguarded"); stores and predicate producers carry one
//! predicate source operand plus an enabling-direction bit.

use crate::delinq::LoopBounds;
use crate::predicate::PredSource;
use phelps_isa::{Inst, Reg};

/// Capacity of one HTC row in instructions.
pub const ROW_INSTS: usize = 128;
/// Number of HTC rows (loops).
pub const HTC_ROWS: usize = 4;

/// Role of a helper-thread instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HtKind {
    /// Ordinary backward-slice computation.
    Plain,
    /// A delinquent branch converted to a predicate producer writing
    /// logical predicate register `dest`.
    PredicateProducer {
        /// Destination logical predicate register (>= 1).
        dest: u8,
    },
    /// An influential store, retained for dynamic disambiguation and
    /// store-load forwarding (writes the helper thread's store cache).
    Store,
    /// The thread's loop (backward) branch: the only control flow.
    LoopBranch,
    /// The inner loop's header branch inside the outer-thread; a not-taken
    /// retired instance queues an inner-loop visit.
    HeaderBranch,
}

/// One helper-thread instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HtInst {
    /// Original main-thread PC (identity for queues and statistics).
    pub pc: u64,
    /// The underlying operation.
    pub inst: Inst,
    /// Role within the helper thread.
    pub kind: HtKind,
    /// Predicate source operand ([`PredSource::Always`] when unguarded).
    pub pred_src: PredSource,
}

/// Which of the paper's three helper-thread types a thread is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreadKind {
    /// Single helper thread for a non-nested loop.
    InnerOnly,
    /// Outer-thread of a nested pair.
    Outer,
    /// Inner-thread of a nested pair.
    Inner,
}

/// A finalized helper thread: instruction sequence plus metadata.
#[derive(Clone, Debug)]
pub struct HelperThread {
    /// Thread type.
    pub kind: ThreadKind,
    /// Instructions in program order; the loop branch is last.
    pub insts: Vec<HtInst>,
    /// Live-in logical registers copied from the main thread at trigger.
    pub live_ins_mt: Vec<Reg>,
    /// Live-in logical registers supplied by the outer-thread per visit
    /// (inner-thread only).
    pub live_ins_ot: Vec<Reg>,
    /// PCs of branches with prediction-queue rows (predicate producers,
    /// header branch, and the loop branch), in row order.
    pub queue_rows: Vec<u64>,
}

impl HelperThread {
    /// Index of the loop branch (always the last instruction).
    ///
    /// # Panics
    ///
    /// Panics if the thread is empty or doesn't end in a loop branch —
    /// construction guarantees both.
    pub fn loop_branch_idx(&self) -> usize {
        let last = self.insts.len() - 1;
        assert_eq!(self.insts[last].kind, HtKind::LoopBranch);
        last
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the thread has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of logical predicate registers used.
    pub fn pred_regs(&self) -> usize {
        self.insts
            .iter()
            .filter_map(|i| match i.kind {
                HtKind::PredicateProducer { dest } => Some(dest as usize),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// One HTC row: the helper thread(s) for one loop.
#[derive(Clone, Debug)]
pub struct HtcEntry {
    /// Trigger tag: the start PC of the outermost loop.
    pub start_pc: u64,
    /// Outermost loop bounds (the main thread terminates pre-execution on
    /// retiring a PC outside these).
    pub bounds: LoopBounds,
    /// Inner loop bounds for nested loops.
    pub inner_bounds: Option<LoopBounds>,
    /// The outer-thread, present only for nested loops.
    pub outer: Option<HelperThread>,
    /// The inner-thread (or inner-thread-only).
    pub inner: HelperThread,
    /// Bookkeeping for replacement: epoch of the last trigger.
    pub last_trigger_epoch: u64,
}

impl HtcEntry {
    /// Whether this entry targets a nested loop.
    pub fn is_nested(&self) -> bool {
        self.outer.is_some()
    }

    /// Validates the row against hardware capacity: 128 instructions total,
    /// 64 per half when nested.
    pub fn fits_hardware(&self) -> bool {
        match &self.outer {
            Some(outer) => outer.len() <= ROW_INSTS / 2 && self.inner.len() <= ROW_INSTS / 2,
            None => self.inner.len() <= ROW_INSTS,
        }
    }
}

/// The Helper Thread Cache: up to [`HTC_ROWS`] loops.
///
/// # Examples
///
/// ```
/// use phelps::htc::Htc;
///
/// let htc = Htc::new();
/// assert!(htc.lookup(0x1000).is_none());
/// assert!(!htc.is_full());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Htc {
    rows: Vec<HtcEntry>,
}

impl Htc {
    /// Creates an empty HTC.
    pub fn new() -> Htc {
        Htc::default()
    }

    /// Whether all rows are occupied.
    pub fn is_full(&self) -> bool {
        self.rows.len() >= HTC_ROWS
    }

    /// The entry whose loop starts at `pc`, if cached.
    pub fn lookup(&self, pc: u64) -> Option<&HtcEntry> {
        self.rows.iter().find(|r| r.start_pc == pc)
    }

    /// Mutable lookup (to stamp trigger epochs).
    pub fn lookup_mut(&mut self, pc: u64) -> Option<&mut HtcEntry> {
        self.rows.iter_mut().find(|r| r.start_pc == pc)
    }

    /// Whether a helper thread already exists for the loop with `bounds`.
    pub fn has_loop(&self, bounds: LoopBounds) -> bool {
        self.rows.iter().any(|r| r.bounds == bounds)
    }

    /// Installs `entry`, replacing an existing row for the same loop or —
    /// when full — the least-recently-triggered row.
    ///
    /// # Panics
    ///
    /// Panics if the entry exceeds hardware capacity; the constructor's
    /// eligibility checks must reject such loops first.
    pub fn install(&mut self, entry: HtcEntry) {
        assert!(entry.fits_hardware(), "HTC row capacity exceeded");
        if let Some(slot) = self.rows.iter_mut().find(|r| r.start_pc == entry.start_pc) {
            *slot = entry;
            return;
        }
        if self.rows.len() >= HTC_ROWS {
            let victim = (0..self.rows.len())
                .min_by_key(|&i| self.rows[i].last_trigger_epoch)
                .expect("nonempty");
            self.rows.remove(victim);
        }
        self.rows.push(entry);
    }

    /// Iterator over cached entries.
    pub fn iter(&self) -> impl Iterator<Item = &HtcEntry> {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::{AluOp, BranchCond};

    fn plain(pc: u64) -> HtInst {
        HtInst {
            pc,
            inst: Inst::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 1,
            },
            kind: HtKind::Plain,
            pred_src: PredSource::Always,
        }
    }

    fn loop_branch(pc: u64) -> HtInst {
        HtInst {
            pc,
            inst: Inst::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::A0,
                rs2: Reg::ZERO,
                target: 0x100,
            },
            kind: HtKind::LoopBranch,
            pred_src: PredSource::Always,
        }
    }

    fn thread(n_plain: usize, kind: ThreadKind) -> HelperThread {
        let mut insts: Vec<HtInst> = (0..n_plain).map(|i| plain(0x100 + 4 * i as u64)).collect();
        insts.push(loop_branch(0x100 + 4 * n_plain as u64));
        HelperThread {
            kind,
            insts,
            live_ins_mt: vec![Reg::A0],
            live_ins_ot: vec![],
            queue_rows: vec![],
        }
    }

    fn entry(start_pc: u64, n: usize) -> HtcEntry {
        HtcEntry {
            start_pc,
            bounds: LoopBounds {
                branch_pc: start_pc + 0x100,
                target_pc: start_pc,
            },
            inner_bounds: None,
            outer: None,
            inner: thread(n, ThreadKind::InnerOnly),
            last_trigger_epoch: 0,
        }
    }

    #[test]
    fn loop_branch_is_last() {
        let t = thread(5, ThreadKind::InnerOnly);
        assert_eq!(t.loop_branch_idx(), 5);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn install_and_lookup() {
        let mut htc = Htc::new();
        htc.install(entry(0x1000, 3));
        assert!(htc.lookup(0x1000).is_some());
        assert!(htc.lookup(0x2000).is_none());
        assert!(htc.has_loop(LoopBounds {
            branch_pc: 0x1100,
            target_pc: 0x1000
        }));
    }

    #[test]
    fn reinstall_replaces_same_loop() {
        let mut htc = Htc::new();
        htc.install(entry(0x1000, 3));
        htc.install(entry(0x1000, 7));
        assert_eq!(htc.iter().count(), 1);
        assert_eq!(htc.lookup(0x1000).unwrap().inner.len(), 8);
    }

    #[test]
    fn eviction_picks_least_recently_triggered() {
        let mut htc = Htc::new();
        for (i, pc) in [0x1000u64, 0x2000, 0x3000, 0x4000].iter().enumerate() {
            let mut e = entry(*pc, 2);
            e.last_trigger_epoch = i as u64 + 1;
            htc.install(e);
        }
        assert!(htc.is_full());
        htc.install(entry(0x5000, 2)); // evicts 0x1000 (epoch 1)
        assert!(htc.lookup(0x1000).is_none());
        assert!(htc.lookup(0x5000).is_some());
        assert_eq!(htc.iter().count(), HTC_ROWS);
    }

    #[test]
    fn hardware_capacity_checks() {
        let e = entry(0x1000, ROW_INSTS - 1); // 127 + loop branch = 128
        assert!(e.fits_hardware());
        let e = entry(0x1000, ROW_INSTS); // 129 total
        assert!(!e.fits_hardware());
    }

    #[test]
    fn nested_halves_each_limited_to_64() {
        let mut e = entry(0x1000, 60);
        e.outer = Some(thread(60, ThreadKind::Outer));
        e.inner = thread(60, ThreadKind::Inner);
        assert!(e.fits_hardware());
        e.outer = Some(thread(70, ThreadKind::Outer));
        assert!(!e.fits_hardware());
        assert!(e.is_nested());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn install_rejects_oversized_rows() {
        let mut htc = Htc::new();
        htc.install(entry(0x1000, ROW_INSTS + 10));
    }

    #[test]
    fn pred_regs_counts_max_destination() {
        let mut t = thread(2, ThreadKind::InnerOnly);
        t.insts[0].kind = HtKind::PredicateProducer { dest: 1 };
        t.insts[1].kind = HtKind::PredicateProducer { dest: 3 };
        assert_eq!(t.pred_regs(), 3);
    }
}

//! The detection front end both pre-execution engines share (paper §V-A,
//! §V-B).
//!
//! Every retired main-thread instruction trains the DBT, feeds the running
//! [`Constructor`] and counts toward the epoch. At the epoch boundary the
//! constructor finishes and the epoch's Loop Table is built; the engine
//! decides what the finished helper thread becomes and which Loop-Table
//! loop to build next. The trainer also shadows the main thread's retired
//! registers, from which a trigger copies a helper thread's live-ins.
//! [`PhelpsEngine`](crate::sim::PhelpsEngine) and the Branch Runahead
//! engine each hold one.

use crate::construct::{ConstructionTarget, Constructor, ConstructorConfig, Ineligibility};
use crate::delinq::{build_loop_table, Dbt, LoopBounds, LtEntry};
use crate::htc::HtcEntry;
use crate::predicate::PredSource;
use crate::sim::types::{SideInst, SideKind};
use phelps_isa::{ExecRecord, Inst, Reg, NUM_REGS};

/// Loop Table capacity (paper: 8 entries).
const LOOP_TABLE_ENTRIES: usize = 8;

/// What closing an epoch hands the engine.
#[derive(Debug)]
pub struct EpochEnd {
    /// The loop the constructor ran over during the epoch, with its
    /// finished helper thread or the reason the loop is ineligible;
    /// `None` when nothing was under construction.
    pub built: Option<(LoopBounds, Result<HtcEntry, Ineligibility>)>,
    /// The epoch's Loop Table, most delinquent loop first.
    pub loop_table: Vec<LtEntry>,
}

/// The shared detection front end: the DBT, the retirement-counted epoch,
/// the running constructor and the main-thread register shadow.
#[derive(Debug)]
pub struct Trainer {
    epoch_len: u64,
    delinq_threshold: u64,
    dbt: Dbt,
    epoch: u64,
    epoch_insts: u64,
    constructor: Option<Constructor>,
    mt_regs: [u64; NUM_REGS],
}

impl Trainer {
    /// A trainer with the paper's DBT (256 entries, 32-entry DBT-Max),
    /// closing an epoch every `epoch_len` retirements. A branch is
    /// delinquent at `delinq_threshold` mispredictions in one epoch.
    pub fn new(epoch_len: u64, delinq_threshold: u64) -> Trainer {
        Trainer {
            epoch_len,
            delinq_threshold,
            dbt: Dbt::new(256, 32),
            epoch: 0,
            epoch_insts: 0,
            constructor: None,
            mt_regs: [0; NUM_REGS],
        }
    }

    /// Seeds the main-thread register shadow (pre-loop setup state that no
    /// retired instruction will ever rewrite).
    pub fn seed_mt_regs(&mut self, regs: [u64; NUM_REGS]) {
        self.mt_regs = regs;
    }

    /// The delinquency threshold in mispredictions per epoch.
    pub fn delinq_threshold(&self) -> u64 {
        self.delinq_threshold
    }

    /// The DBT, holding the current epoch's counts.
    pub fn dbt(&self) -> &Dbt {
        &self.dbt
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The loop under construction this epoch, if any.
    pub fn constructing(&self) -> Option<LoopBounds> {
        self.constructor.as_ref().map(|c| c.target().bounds)
    }

    /// Trains on one retired main-thread instruction: the register
    /// shadow, the DBT, the constructor, then the epoch count.
    /// `default_wrong` is whether the default predictor mispredicted a
    /// conditional branch. Returns `true` when this retirement ends the
    /// epoch; the engine may still read this epoch's [`Trainer::dbt`]
    /// and must then call [`Trainer::close_epoch`].
    pub fn on_retire(&mut self, rec: &ExecRecord, default_wrong: bool) -> bool {
        if let Some(dst) = rec.inst.dst() {
            self.mt_regs[dst.index()] = rec.rd_value;
        }
        // Loop-bounds training must see the *previous* backward branch (a
        // backward branch's own retirement trains it against the enclosing
        // loop, not itself), so the entry update precedes the
        // backward-branch bookkeeping.
        if let Inst::Branch { target, .. } = rec.inst {
            self.dbt.on_cond_branch_retire(rec.pc, default_wrong);
            if target < rec.pc {
                self.dbt.on_backward_branch(rec.pc, target);
            }
        }
        if let Some(c) = self.constructor.as_mut() {
            c.on_retire(rec);
        }
        self.epoch_insts += 1;
        self.epoch_insts >= self.epoch_len
    }

    /// Closes the epoch: finishes the running construction, builds the
    /// Loop Table, clears the DBT's epoch counts and starts the next
    /// epoch with no construction running (see [`Trainer::construct`]).
    pub fn close_epoch(&mut self) -> EpochEnd {
        let epoch = self.epoch;
        let built = self
            .constructor
            .take()
            .map(|c| (c.target().bounds, c.finalize(epoch)));
        let loop_table = build_loop_table(&self.dbt, self.delinq_threshold, LOOP_TABLE_ENTRIES);
        self.dbt.reset_epoch();
        self.epoch += 1;
        self.epoch_insts = 0;
        EpochEnd { built, loop_table }
    }

    /// Builds a helper thread for `target` over the coming epoch.
    pub fn construct(&mut self, target: ConstructionTarget, cfg: ConstructorConfig) {
        self.constructor = Some(Constructor::with_config(target, cfg));
    }

    /// A side thread's live-in moves: one `Li rd, value` per register of
    /// `regs`, with the value from the main-thread register shadow. With
    /// `release`, the last move carries [`SideInst::mt_release`], so the
    /// main thread's fetch resumes when it retires; an empty set then
    /// gets one `Li x0, 0` to carry it.
    pub fn live_in_moves(&self, regs: &[Reg], release: bool) -> Vec<SideInst> {
        live_in_moves(regs.iter().map(|&r| (r, self.mt_regs[r.index()])), release)
    }
}

/// The one builder of live-in moves: [`Trainer::live_in_moves`] over
/// `(rd, value)` pairs, which need not come from the shadow (an
/// inner-thread visit carries its own values).
pub(crate) fn live_in_moves(
    values: impl IntoIterator<Item = (Reg, u64)>,
    release: bool,
) -> Vec<SideInst> {
    let mv = |rd: Reg, value: u64| SideInst {
        pc: 0,
        inst: Inst::Li {
            rd,
            imm: value as i64,
        },
        kind: SideKind::Plain,
        pred_src: PredSource::Always,
        mt_release: false,
        tag: 0,
    };
    let mut moves: Vec<SideInst> = values.into_iter().map(|(r, v)| mv(r, v)).collect();
    if release {
        if moves.is_empty() {
            moves.push(mv(Reg::ZERO, 0));
        }
        moves.last_mut().expect("nonempty").mt_release = true;
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::BranchCond;

    fn retired(pc: u64, inst: Inst, rd_value: u64) -> ExecRecord {
        ExecRecord {
            pc,
            inst,
            next_pc: pc + 4,
            taken: false,
            rd_value,
            mem_addr: 0,
            store_data: 0,
        }
    }

    fn li(pc: u64, rd: Reg, value: u64) -> ExecRecord {
        let imm = value as i64;
        retired(pc, Inst::Li { rd, imm }, value)
    }

    fn branch(pc: u64, target: u64) -> ExecRecord {
        let inst = Inst::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::A0,
            rs2: Reg::ZERO,
            target,
        };
        retired(pc, inst, 0)
    }

    #[test]
    fn an_epoch_ends_on_every_epoch_len_th_retirement_and_clears_the_dbt() {
        let mut t = Trainer::new(4, 1);
        // Retirement 1 closes a loop at 0x100..=0x110; every later one is
        // a branch inside it that the default predictor got wrong.
        assert!(!t.on_retire(&branch(0x110, 0x100), false));
        let mut ends = Vec::new();
        for n in 2..=13u64 {
            if !t.on_retire(&branch(0x108, 0x10c), true) {
                continue;
            }
            ends.push(n);
            assert!(
                t.dbt().entry(0x108).unwrap().misp > 0,
                "counts kept until closed"
            );
            let closed = t.close_epoch();
            assert_eq!(t.epoch(), ends.len() as u64);
            assert_eq!(closed.loop_table.len(), 1, "the branch is delinquent");
            assert_eq!(t.dbt().entry(0x108).unwrap().misp, 0);
            assert!(t.dbt().ranking().is_empty());
        }
        assert_eq!(ends, vec![4, 8, 12]);
        assert_eq!(t.epoch(), 3);
    }

    #[test]
    fn a_backward_branch_trains_against_the_enclosing_loop_not_itself() {
        let mut t = Trainer::new(100, 1);
        let outer = LoopBounds {
            branch_pc: 0x200,
            target_pc: 0x100,
        };
        t.on_retire(&branch(outer.branch_pc, outer.target_pc), false);
        // The inner loop's own branch mispredicts.
        t.on_retire(&branch(0x180, 0x140), true);
        assert_eq!(t.dbt().entry(0x180).unwrap().inner, Some(outer));
    }

    #[test]
    fn close_epoch_finishes_the_construction_and_starts_none() {
        let mut t = Trainer::new(10, 1);
        assert!(t.close_epoch().built.is_none());
        let bounds = LoopBounds {
            branch_pc: 0x110,
            target_pc: 0x100,
        };
        let target = ConstructionTarget {
            bounds,
            inner: None,
            delinquent: vec![0x108],
        };
        t.construct(target, ConstructorConfig::default());
        assert_eq!(t.constructing(), Some(bounds));
        let closed = t.close_epoch();
        let (built, result) = closed.built.expect("a construction ran");
        assert_eq!(built, bounds);
        assert_eq!(result.unwrap_err(), Ineligibility::NoLoopObserved);
        assert_eq!(t.constructing(), None);
    }

    #[test]
    fn live_in_moves_are_li_of_the_shadowed_registers() {
        let mut t = Trainer::new(100, 1);
        let mut regs = [0; NUM_REGS];
        regs[Reg::A0.index()] = 7;
        t.seed_mt_regs(regs);
        t.on_retire(&li(0x100, Reg::A1, u64::MAX), false);
        let moves = t.live_in_moves(&[Reg::A0, Reg::A1], false);
        let insts: Vec<Inst> = moves.iter().map(|m| m.inst).collect();
        assert_eq!(
            insts,
            vec![
                Inst::Li {
                    rd: Reg::A0,
                    imm: 7
                },
                Inst::Li {
                    rd: Reg::A1,
                    imm: -1
                },
            ]
        );
        assert!(moves.iter().all(|m| m.kind == SideKind::Plain
            && m.pred_src == PredSource::Always
            && !m.mt_release));
    }

    #[test]
    fn only_the_last_move_releases_and_only_when_asked() {
        let t = Trainer::new(100, 1);
        let regs = [Reg::A0, Reg::A1, Reg::A2];
        let released: Vec<bool> = t
            .live_in_moves(&regs, true)
            .iter()
            .map(|m| m.mt_release)
            .collect();
        assert_eq!(released, vec![false, false, true]);
        assert!(t.live_in_moves(&regs, false).iter().all(|m| !m.mt_release));
        assert!(t.live_in_moves(&[], false).is_empty());
    }

    #[test]
    fn an_empty_release_set_is_one_li_x0() {
        let moves = live_in_moves([], true);
        assert_eq!(moves.len(), 1);
        assert_eq!(
            moves[0].inst,
            Inst::Li {
                rd: Reg::ZERO,
                imm: 0
            }
        );
        assert!(moves[0].mt_release);
    }
}

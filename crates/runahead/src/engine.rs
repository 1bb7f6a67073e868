//! The Branch Runahead pre-execution engine (core-only version, paper §VI).
//!
//! Differences from Phelps, mirrored here:
//!
//! * **Pop-based per-branch outcome queues** instead of iteration-lockstep
//!   columns: the main thread pops the head entry when it fetches the
//!   branch; there is no notion of "ignored" outcomes, so extra or missing
//!   deposits misalign the queue until a rollback resynchronizes it.
//! * **Deposits at execute** (chains are dataflow; no program-order retire
//!   is required), enabled by the pipeline's loose-retire mode.
//! * **Guarded branches are not unconditionally pre-executed.** A child
//!   chain deposits only when its parent's direction (speculated by a
//!   bimodal predictor in BR-spec, or awaited in BR-non-spec) matches its
//!   trigger direction. Wrong speculation repairs the queue late and
//!   rollbacks discard unconsumed entries of the whole chain group
//!   (Fig. 10b).
//! * **Stores are excluded** (the paper's §VI methodology for BR).
//! * The frontend/PRF/LQ partition is held for the **full run**.

use crate::chains::ChainSet;
use phelps::classify::MispredictClass;
use phelps::construct::{ConstructionTarget, Constructor, ConstructorConfig};
use phelps::delinq::{build_loop_table, Dbt, LoopBounds};
use phelps::predicate::PredSource;
use phelps::sim::{
    EngineCkpt, EngineCmd, ExecInfo, PreExecEngine, QueueLookup, SideAction, SideInst, SideKind,
    HT_A,
};
use phelps_isa::{ExecRecord, Inst, Reg, NUM_REGS};
use phelps_uarch::bpred::{Bimodal, DirectionPredictor};
use phelps_uarch::config::ActiveThreads;
use std::collections::HashMap;

/// Maximum iterations the chain engine may run ahead of the main thread.
const MAX_LEAD: u64 = 32;

/// One branch's outcome queue, **slot-indexed by chain-engine
/// iteration**: the deposit for iteration `j` lives in slot `j`, so wrong
/// or missing speculative deposits cost accuracy or timeliness for that
/// instance only — they can never shift later instances (the alignment
/// role that parent-direction triggering plays in real Branch Runahead).
///
/// Unguarded (group-root) queues consume at their own cursor, advanced on
/// every fetch of the branch — including empty (untimely) slots. Guarded
/// (child) queues are consumed at their group root's last-consumed
/// instance, so a recovery that restores the root cursor replays the whole
/// group.
#[derive(Clone, Debug, Default)]
struct OutcomeQueue {
    /// Slot per iteration; `None` = not (yet) deposited.
    slots: Vec<Option<bool>>,
    /// Iteration index of `slots[0]`.
    base: u64,
    /// Consumption cursor (group roots only), in iteration units.
    cursor: u64,
}

impl OutcomeQueue {
    fn slot_mut(&mut self, iter: u64) -> Option<&mut Option<bool>> {
        let idx = iter.checked_sub(self.base)? as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        self.slots.get_mut(idx)
    }

    fn deposit(&mut self, iter: u64, taken: bool) {
        if let Some(s) = self.slot_mut(iter) {
            *s = Some(taken);
        }
    }

    /// Removes the deposit for `iter` (wrong speculative trigger repair).
    fn remove(&mut self, iter: u64) {
        if let Some(s) = self.slot_mut(iter) {
            *s = None;
        }
    }

    fn peek(&self, iter: u64) -> Option<bool> {
        let idx = iter.checked_sub(self.base)? as usize;
        self.slots.get(idx).copied().flatten()
    }

    /// Root consumption: read slot `cursor`, advance the cursor
    /// unconditionally (an empty slot is an untimely instance predicted by
    /// the default predictor; its late deposit simply dies in place).
    fn consume_root(&mut self) -> Option<bool> {
        let v = self.peek(self.cursor);
        self.cursor += 1;
        self.prune();
        v
    }

    fn prune(&mut self) {
        if self.cursor.saturating_sub(self.base) > 512 && self.slots.len() > 256 {
            let drop = ((self.cursor - self.base) as usize)
                .saturating_sub(256)
                .min(self.slots.len());
            self.slots.drain(0..drop);
            self.base += drop as u64;
        }
    }
}

/// Live state of a triggered chain region.
#[derive(Clone, Debug)]
struct ActiveChains {
    bounds: LoopBounds,
    chains: ChainSet,
    /// Per-branch outcome queues, in `chains.branch_pcs()` order.
    queues: Vec<(u64, OutcomeQueue)>,
    /// Sequencer: position within the per-iteration body.
    idx: usize,
    iteration: u64,
    /// Pending live-in moves.
    moves: Vec<SideInst>,
    stopped: bool,
    /// Iterations of the loop the main thread has retired since trigger.
    mt_iters: u64,
    /// Per-(iteration, branch) record of speculation and execution.
    iter_recs: HashMap<(u64, u64), IterRec>,
}

#[derive(Clone, Copy, Debug, Default)]
struct IterRec {
    /// Child: whether we speculatively deposited.
    deposited: bool,
    /// Parent: resolved outcome.
    resolved: Option<bool>,
    /// Child: executed outcome (for late deposits).
    outcome: Option<bool>,
}

/// Configuration of the Branch Runahead engine.
#[derive(Clone, Copy, Debug)]
pub struct BrConfig {
    /// Speculative triggering of child chains via a bimodal predictor
    /// (BR-spec); `false` serializes children behind parent resolution
    /// (BR-non-spec).
    pub speculative: bool,
    /// Epoch length in retired instructions (delinquency measurement).
    pub epoch_len: u64,
    /// Delinquency threshold in mispredictions per epoch.
    pub delinq_threshold: u64,
}

impl BrConfig {
    /// BR-spec at the given epoch scale.
    pub fn speculative(epoch_len: u64, delinq_threshold: u64) -> BrConfig {
        BrConfig {
            speculative: true,
            epoch_len,
            delinq_threshold,
        }
    }

    /// BR-non-spec at the given epoch scale.
    pub fn non_speculative(epoch_len: u64, delinq_threshold: u64) -> BrConfig {
        BrConfig {
            speculative: false,
            epoch_len,
            delinq_threshold,
        }
    }
}

/// The Branch Runahead engine. Plugs into [`phelps::sim::Pipeline::new`]
/// (see [`crate::simulate_runahead`]).
#[derive(Debug)]
pub struct BrEngine {
    cfg: BrConfig,
    dbt: Dbt,
    epoch_insts: u64,
    epoch: u64,
    constructor: Option<Constructor>,
    /// Built chain sets by loop start PC.
    cached: HashMap<u64, (LoopBounds, ChainSet)>,
    bimodal: Bimodal,
    mt_regs: [u64; NUM_REGS],
    active: Option<ActiveChains>,
}

impl BrEngine {
    /// Creates a BR engine.
    pub fn new(cfg: BrConfig) -> BrEngine {
        BrEngine {
            cfg,
            dbt: Dbt::new(256, 32),
            epoch_insts: 0,
            epoch: 0,
            constructor: None,
            cached: HashMap::new(),
            bimodal: Bimodal::new(8192),
            mt_regs: [0; NUM_REGS],
            active: None,
        }
    }

    /// Seeds the main-thread register shadow with pre-run state.
    pub fn seed_mt_regs(&mut self, regs: [u64; NUM_REGS]) {
        self.mt_regs = regs;
    }

    /// Number of loops with built chains.
    pub fn cached_regions(&self) -> usize {
        self.cached.len()
    }

    fn end_epoch(&mut self) {
        if let Some(c) = self.constructor.take() {
            let bounds = c.target().bounds;
            if let Ok(entry) = c.finalize(self.epoch) {
                let thread = entry.inner;
                let chains = ChainSet::from_helper_thread(&thread);
                if !chains.chains.is_empty() {
                    self.cached.insert(bounds.target_pc, (bounds, chains));
                }
            }
        }
        let lt = build_loop_table(&self.dbt, self.cfg.delinq_threshold, 8);
        for e in &lt {
            if self.cached.contains_key(&e.bounds.target_pc) {
                continue;
            }
            // BR is not loop-gated: permissive limits, flattened region
            // (no dual threads), stores dropped afterwards.
            self.constructor = Some(Constructor::with_config(
                ConstructionTarget {
                    bounds: e.bounds,
                    inner: None,
                    delinquent: e.branches.clone(),
                },
                ConstructorConfig {
                    max_ht_fraction: 1.0,
                    min_iters_per_visit: 0.0,
                    max_mt_live_ins: 16,
                    ..ConstructorConfig::default()
                },
            ));
            break;
        }
        self.dbt.reset_epoch();
        self.epoch += 1;
        self.epoch_insts = 0;
    }

    fn start_run(&mut self, start_pc: u64) {
        let (bounds, chains) = self.cached[&start_pc].clone();
        let queues = chains
            .branch_pcs()
            .iter()
            .map(|&pc| (pc, OutcomeQueue::default()))
            .collect();
        // Live-in moves from the MT shadow.
        let moves = build_moves(&chains_live_ins(&chains), &self.mt_regs);
        self.active = Some(ActiveChains {
            bounds,
            chains,
            queues,
            idx: 0,
            iteration: 0,
            moves,
            stopped: false,
            mt_iters: 0,
            iter_recs: HashMap::new(),
        });
    }

    /// Rolls back the chain group containing `pc` after a wrong consumed
    /// outcome: invalidate the group's slots at the offending instance so
    /// the replay after recovery falls back to the default predictor
    /// instead of re-consuming the same wrong value.
    fn rollback_group(&mut self, pc: u64) {
        let Some(run) = self.active.as_mut() else {
            return;
        };
        let Some(group) = run.chains.chain(pc).map(|c| c.group) else {
            return;
        };
        let root = group_root(&run.chains, pc);
        let instance = run
            .queues
            .iter()
            .find(|(p, _)| *p == root)
            .map(|(_, q)| q.cursor.saturating_sub(1));
        let members: Vec<u64> = run
            .chains
            .chains
            .iter()
            .filter(|c| c.group == group)
            .map(|c| c.branch_pc)
            .collect();
        if let Some(i) = instance {
            for (qpc, q) in run.queues.iter_mut() {
                if members.contains(qpc) {
                    q.remove(i);
                }
            }
        }
    }
}

/// The group-root branch PC of `pc`'s chain.
fn group_root(chains: &ChainSet, pc: u64) -> u64 {
    let mut root = pc;
    let mut hops = 0;
    while let Some(chain) = chains.chain(root) {
        match chain.parent {
            Some((p, _)) if hops < 64 => {
                root = p;
                hops += 1;
            }
            _ => break,
        }
    }
    root
}

fn chains_live_ins(chains: &ChainSet) -> Vec<Reg> {
    // Union of registers read before written in the body (upward-exposed),
    // conservative: any source register not produced earlier in the body.
    let mut written: Vec<Reg> = Vec::new();
    let mut live: Vec<Reg> = Vec::new();
    for i in &chains.body {
        for s in i.inst.srcs() {
            if !s.is_zero() && !written.contains(&s) && !live.contains(&s) {
                live.push(s);
            }
        }
        if let Some(d) = i.inst.dst() {
            if !written.contains(&d) {
                written.push(d);
            }
        }
    }
    // Loop-carried registers also need the first copy.
    for i in &chains.body {
        for s in i.inst.srcs() {
            if !s.is_zero() && !live.contains(&s) {
                live.push(s);
            }
        }
    }
    live
}

fn build_moves(regs: &[Reg], mt_regs: &[u64; NUM_REGS]) -> Vec<SideInst> {
    let mut moves: Vec<SideInst> = regs
        .iter()
        .map(|&r| SideInst {
            pc: 0,
            inst: Inst::Li {
                rd: r,
                imm: mt_regs[r.index()] as i64,
            },
            kind: SideKind::LiveInMove,
            pred_src: PredSource::Always,
            live_in_value: mt_regs[r.index()],
            mt_release: false,
            tag: 0,
        })
        .collect();
    if moves.is_empty() {
        moves.push(SideInst {
            pc: 0,
            inst: Inst::Li {
                rd: Reg::ZERO,
                imm: 0,
            },
            kind: SideKind::LiveInMove,
            pred_src: PredSource::Always,
            live_in_value: 0,
            mt_release: false,
            tag: 0,
        });
    }
    moves.last_mut().expect("nonempty").mt_release = true;
    moves
}

impl PreExecEngine for BrEngine {
    fn queue_lookup(&mut self, pc: u64) -> QueueLookup {
        let Some(run) = self.active.as_mut() else {
            return QueueLookup::NoRow;
        };
        let Some(chain) = run.chains.chain(pc).cloned() else {
            return QueueLookup::NoRow;
        };
        // Children align to their group root's last-consumed instance.
        let result = if chain.parent.is_none() {
            run.queues
                .iter_mut()
                .find(|(p, _)| *p == pc)
                .and_then(|(_, q)| q.consume_root())
        } else {
            let root = group_root(&run.chains, pc);
            let idx = run
                .queues
                .iter()
                .find(|(p, _)| *p == root)
                .map(|(_, q)| q.cursor.saturating_sub(1));
            match idx {
                Some(i) => run
                    .queues
                    .iter()
                    .find(|(p, _)| *p == pc)
                    .and_then(|(_, q)| q.peek(i)),
                None => None,
            }
        };
        match result {
            Some(v) => QueueLookup::Hit(v),
            None => QueueLookup::Untimely,
        }
    }

    fn on_mt_branch_fetched(&mut self, _pc: u64, _predicted_taken: bool) {}

    fn checkpoint(&self) -> EngineCkpt {
        match self.active.as_ref() {
            Some(run) => EngineCkpt {
                a: 0,
                b: 0,
                cursors: run.queues.iter().map(|(_, q)| q.cursor).collect(),
            },
            None => EngineCkpt::default(),
        }
    }

    fn restore(&mut self, ckpt: &EngineCkpt) {
        if let Some(run) = self.active.as_mut() {
            for (i, (_, q)) in run.queues.iter_mut().enumerate() {
                let target = ckpt.cursors.get(i).copied().unwrap_or(0);
                q.cursor = target.max(q.base);
            }
        }
    }

    fn on_mt_retire(&mut self, rec: &ExecRecord, default_wrong: bool, _cycle: u64) -> EngineCmd {
        if let Some(dst) = rec.inst.dst() {
            self.mt_regs[dst.index()] = rec.rd_value;
        }
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
        if self.epoch_insts >= self.cfg.epoch_len {
            self.end_epoch();
        }

        if let Some(run) = self.active.as_mut() {
            if rec.pc == run.bounds.branch_pc {
                run.mt_iters += 1;
            }
            if !run.bounds.contains(rec.pc) {
                return EngineCmd::Terminate;
            }
            // Hopelessly behind: restart with fresh state.
            if run.mt_iters > run.iteration + 4 * MAX_LEAD {
                return EngineCmd::Terminate;
            }
            return EngineCmd::None;
        }

        if self.cached.contains_key(&rec.pc) {
            self.start_run(rec.pc);
            return EngineCmd::Trigger(ActiveThreads::MainPlusIto);
        }
        EngineCmd::None
    }

    fn classify(
        &mut self,
        pc: u64,
        from_queue: bool,
        mispredicted: bool,
        default_wrong: bool,
    ) -> MispredictClass {
        if mispredicted && from_queue {
            // Wrong chain outcome consumed: roll the chain group back.
            self.rollback_group(pc);
            return MispredictClass::HtWrongOutcome;
        }
        if !mispredicted {
            return if from_queue && default_wrong {
                MispredictClass::Eliminated
            } else {
                MispredictClass::NotDelinquent
            };
        }
        if self
            .active
            .as_ref()
            .is_some_and(|run| run.chains.chain(pc).is_some())
        {
            return MispredictClass::HtUntimely;
        }
        MispredictClass::NotDelinquent
    }

    fn active_threads(&self) -> ActiveThreads {
        if self.active.is_some() {
            ActiveThreads::MainPlusIto
        } else {
            ActiveThreads::MainOnly
        }
    }

    fn side_fetch(&mut self, tid: usize, _cycle: u64) -> Option<SideInst> {
        if tid != HT_A {
            return None;
        }
        let speculative = self.cfg.speculative;
        // Bimodal speculation needs `&mut self.bimodal` alongside the run;
        // split the borrow.
        let run = self.active.as_mut()?;
        if run.stopped {
            return None;
        }
        if !run.moves.is_empty() {
            return Some(run.moves.remove(0));
        }
        // Lead gating.
        if run.idx == 0 && run.iteration.saturating_sub(run.mt_iters) >= MAX_LEAD {
            return None;
        }
        let ht = run.chains.body[run.idx];
        let iter = run.iteration;
        let side = SideInst {
            pc: ht.pc,
            inst: ht.inst,
            kind: ht.kind.into(),
            pred_src: if speculative {
                // BR-spec: children issue in parallel; triggering is
                // speculative and repaired at parent resolution.
                PredSource::Always
            } else {
                ht.pred_src
            },
            live_in_value: 0,
            mt_release: false,
            tag: iter,
        };
        // Record the speculative trigger decision for guarded chains.
        if speculative {
            if let Some(chain) = run.chains.chain(ht.pc) {
                if let Some((parent_pc, dir)) = chain.parent {
                    let parent_rec = run.iter_recs.get(&(iter, parent_pc)).copied();
                    let triggered = match parent_rec.and_then(|r| r.resolved) {
                        Some(actual) => actual == dir, // parent already resolved: exact
                        None => self.bimodal.predict(parent_pc) == dir,
                    };
                    let rec = run.iter_recs.entry((iter, ht.pc)).or_default();
                    rec.deposited = triggered;
                }
            }
        }
        if run.idx + 1 >= run.chains.body.len() {
            run.idx = 0;
            run.iteration += 1;
            // Prune old per-iteration records.
            if run.iteration % 64 == 0 {
                let min = run.iteration.saturating_sub(2 * MAX_LEAD);
                run.iter_recs.retain(|(i, _), _| *i >= min);
            }
        } else {
            run.idx += 1;
        }
        Some(side)
    }

    fn side_executed(&mut self, _tid: usize, inst: &SideInst, info: &ExecInfo, _cycle: u64) {
        let speculative = self.cfg.speculative;
        let Some(run) = self.active.as_mut() else {
            return;
        };
        let iter = inst.tag;
        match inst.kind {
            SideKind::PredProducer { .. } | SideKind::HeaderBranch => {
                let pc = inst.pc;
                let chain = run.chains.chain(pc).cloned();
                let Some(chain) = chain else { return };
                if speculative {
                    // Record resolution; train the trigger predictor.
                    {
                        let rec = run.iter_recs.entry((iter, pc)).or_default();
                        rec.resolved = Some(info.taken);
                        rec.outcome = Some(info.taken);
                    }
                    self.bimodal.update(pc, info.taken, info.taken);

                    // Deposit this chain's outcome if it was (or should
                    // have been) triggered.
                    let should_deposit = match chain.parent {
                        None => true,
                        Some((parent_pc, dir)) => {
                            let parent = run.iter_recs.get(&(iter, parent_pc)).copied();
                            match parent.and_then(|r| r.resolved) {
                                Some(actual) => actual == dir,
                                None => run
                                    .iter_recs
                                    .get(&(iter, pc))
                                    .map(|r| r.deposited)
                                    .unwrap_or(false),
                            }
                        }
                    };
                    if should_deposit {
                        if let Some((_, q)) = run.queues.iter_mut().find(|(p, _)| *p == pc) {
                            q.deposit(iter, info.taken);
                        }
                    }

                    // Parent resolution repairs children speculated the
                    // wrong way: remove wrong deposits, add missed ones.
                    let children: Vec<(u64, bool)> = run
                        .chains
                        .chains
                        .iter()
                        .filter_map(|c| {
                            c.parent
                                .filter(|(p, _)| *p == pc)
                                .map(|(_, d)| (c.branch_pc, d))
                        })
                        .collect();
                    for (child_pc, dir) in children {
                        let should = info.taken == dir;
                        let child_rec = run.iter_recs.get(&(iter, child_pc)).copied();
                        if let Some(cr) = child_rec {
                            if cr.deposited && !should {
                                if let Some((_, q)) =
                                    run.queues.iter_mut().find(|(p, _)| *p == child_pc)
                                {
                                    q.remove(iter);
                                }
                                if let Some(r) = run.iter_recs.get_mut(&(iter, child_pc)) {
                                    r.deposited = false;
                                }
                            } else if !cr.deposited && should {
                                if let Some(outcome) = cr.outcome {
                                    if let Some((_, q)) =
                                        run.queues.iter_mut().find(|(p, _)| *p == child_pc)
                                    {
                                        q.deposit(iter, outcome);
                                    }
                                    if let Some(r) = run.iter_recs.get_mut(&(iter, child_pc)) {
                                        r.deposited = true;
                                    }
                                }
                            }
                        }
                    }
                } else {
                    // Non-spec: deposit when predication enabled (the
                    // parent's direction matched), which the pipeline has
                    // already evaluated.
                    let guarded = chain.parent.is_some();
                    if !guarded || info.enabled {
                        if let Some((_, q)) = run.queues.iter_mut().find(|(p, _)| *p == pc) {
                            q.deposit(iter, info.taken);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn side_branch_resolved(&mut self, _tid: usize, inst: &SideInst, taken: bool) -> SideAction {
        if inst.kind == SideKind::LoopBranch && !taken {
            if let Some(run) = self.active.as_mut() {
                run.stopped = true;
            }
            return SideAction::Terminate;
        }
        SideAction::Continue
    }

    fn side_retired(&mut self, _tid: usize, _inst: &SideInst, _info: &ExecInfo, _cycle: u64) {}

    fn on_terminated(&mut self) {
        self.active = None;
    }

    fn loose_retire(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_queue_deposit_and_root_consume() {
        let mut q = OutcomeQueue::default();
        q.deposit(0, true);
        q.deposit(1, false);
        assert_eq!(q.consume_root(), Some(true));
        assert_eq!(q.consume_root(), Some(false));
        assert_eq!(q.consume_root(), None, "empty slot is untimely");
    }

    #[test]
    fn empty_consume_does_not_shift_later_instances() {
        let mut q = OutcomeQueue::default();
        // Instance 0 deposited late (after consumption), instance 1 on time.
        assert_eq!(q.consume_root(), None);
        q.deposit(0, true); // late: dies in place
        q.deposit(1, false);
        assert_eq!(q.consume_root(), Some(false), "instance 1 unshifted");
    }

    #[test]
    fn rollback_replays_via_cursor() {
        let mut q = OutcomeQueue::default();
        for i in 0..4 {
            q.deposit(i, i % 2 == 0);
        }
        let ckpt = q.cursor;
        assert_eq!(q.consume_root(), Some(true));
        assert_eq!(q.consume_root(), Some(false));
        q.cursor = ckpt;
        assert_eq!(q.consume_root(), Some(true), "replay after rollback");
    }

    #[test]
    fn remove_repairs_wrong_speculation() {
        let mut q = OutcomeQueue::default();
        q.deposit(0, true);
        q.deposit(1, false); // wrongly speculated deposit for iteration 1
        q.remove(1);
        assert_eq!(q.consume_root(), Some(true));
        assert_eq!(q.consume_root(), None);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = OutcomeQueue::default();
        q.deposit(0, true);
        assert_eq!(q.peek(0), Some(true));
        assert_eq!(q.peek(0), Some(true));
        assert_eq!(q.peek(5), None);
        assert_eq!(q.cursor, 0);
    }

    #[test]
    fn engine_starts_idle() {
        let mut e = BrEngine::new(BrConfig::speculative(10_000, 5));
        assert_eq!(e.cached_regions(), 0);
        assert_eq!(e.queue_lookup(0x40), QueueLookup::NoRow);
        assert_eq!(e.active_threads(), ActiveThreads::MainOnly);
        assert!(e.loose_retire());
    }

    #[test]
    fn classification_paths() {
        let mut e = BrEngine::new(BrConfig::speculative(10_000, 5));
        assert_eq!(
            e.classify(0x40, true, true, true),
            MispredictClass::HtWrongOutcome
        );
        assert_eq!(
            e.classify(0x40, true, false, true),
            MispredictClass::Eliminated
        );
        assert_eq!(
            e.classify(0x40, false, true, true),
            MispredictClass::NotDelinquent
        );
    }
}

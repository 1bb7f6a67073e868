//! The Phelps pre-execution engine: epochs, delinquency tracking, helper
//! thread construction, triggering, and helper-thread sequencing.
//!
//! This implements [`PreExecEngine`] for the pipeline. Per epoch (paper
//! §V-A): epoch N gathers delinquency in the DBT; at the epoch boundary the
//! Loop Table is built and the most delinquent un-cached loop is chosen;
//! epoch N+1 runs the [`Constructor`](crate::construct::Constructor) over
//! the retire stream; the finalized helper thread installs into the HTC
//! and can trigger from epoch N+2 on. The [`Trainer`] runs that detection
//! front end; this engine decides what it builds and what a finished
//! helper thread becomes.

use crate::classify::MispredictClass;
use crate::construct::{ConstructionTarget, ConstructorConfig, Ineligibility};
use crate::delinq::LoopBounds;
use crate::htc::{HelperThread, HtKind, Htc, HtcEntry};
use crate::predicate::PredSource;
use crate::predq::PredictionQueues;
use crate::sim::trainer::{live_in_moves, Trainer};
use crate::sim::types::{
    EngineCkpt, EngineCmd, ExecInfo, PhelpsFeatures, PreExecEngine, QueueLookup, SideAction,
    SideInst, SideKind, HT_A, HT_B,
};
use crate::visitq::{Visit, VisitQueue, DEFAULT_VISITS};
use phelps_isa::{ExecRecord, Inst, Reg, NUM_REGS};
use phelps_uarch::config::ActiveThreads;
use std::collections::{HashMap, HashSet};

/// Sequencer state of one helper thread.
#[derive(Clone, Debug)]
enum SeqState {
    /// Not running (inner-thread waiting for a visit).
    Idle,
    /// Injecting live-in moves (remaining queue); `run_after` selects
    /// whether the thread starts executing the loop body afterwards or
    /// idles for a visit (inner-thread trigger moves).
    Moves(Vec<SideInst>, bool),
    /// Fetching the HTC row sequentially at instruction `idx`.
    Run { idx: usize },
    /// Loop exited / terminated.
    Stopped,
}

#[derive(Clone, Debug)]
struct SideSequencer {
    thread: HelperThread,
    state: SeqState,
    /// Iterations fetched so far (the tag of in-flight instructions).
    iteration: u64,
}

impl SideSequencer {
    fn new(thread: HelperThread) -> SideSequencer {
        SideSequencer {
            thread,
            state: SeqState::Idle,
            iteration: 0,
        }
    }
}

/// Live pre-execution state for a triggered loop.
#[derive(Clone, Debug)]
struct ActiveRun {
    entry: HtcEntry,
    qa: PredictionQueues,
    qb: Option<PredictionQueues>,
    visitq: VisitQueue,
    seq_a: SideSequencer,
    seq_b: Option<SideSequencer>,
}

/// The Phelps engine.
#[derive(Debug)]
pub struct PhelpsEngine {
    features: PhelpsFeatures,
    constructor_cfg: ConstructorConfig,
    /// Prediction-queue capacity in iterations (columns).
    queue_columns: usize,
    trainer: Trainer,
    htc: Htc,
    /// Branch PCs that ever cleared the delinquency threshold.
    delinquent_set: HashSet<u64>,
    /// Branch PCs measured over a full epoch without clearing it.
    measured_not_delinquent: HashSet<u64>,
    /// Loops that failed eligibility, with the reason.
    ineligible: HashMap<LoopBounds, Ineligibility>,
    /// Loop-Table loops seen but not yet chosen for construction.
    detected_not_chosen: HashSet<LoopBounds>,
    /// Shadow register files of the side threads (visit live-in capture).
    side_regs: [[u64; NUM_REGS]; 2],
    active: Option<ActiveRun>,
}

impl PhelpsEngine {
    /// Seeds the main-thread architectural-register shadow (pre-loop setup
    /// state that no retired instruction will ever rewrite).
    pub fn seed_mt_regs(&mut self, regs: [u64; NUM_REGS]) {
        self.trainer.seed_mt_regs(regs);
    }

    /// Overrides the prediction-queue capacity (columns; paper: 32).
    /// [`Pipeline::from_config`](crate::sim::Pipeline::from_config)
    /// applies `RunConfig::queue_columns` through this.
    pub fn set_queue_columns(&mut self, columns: usize) {
        self.queue_columns = columns.max(1);
    }

    /// Creates an engine with the paper's table sizes.
    pub fn new(
        epoch_len: u64,
        delinq_threshold: u64,
        constructor_cfg: ConstructorConfig,
        features: PhelpsFeatures,
    ) -> PhelpsEngine {
        PhelpsEngine {
            features,
            constructor_cfg,
            queue_columns: 32,
            trainer: Trainer::new(epoch_len, delinq_threshold),
            htc: Htc::new(),
            delinquent_set: HashSet::new(),
            measured_not_delinquent: HashSet::new(),
            ineligible: HashMap::new(),
            detected_not_chosen: HashSet::new(),
            side_regs: [[0; NUM_REGS]; 2],
            active: None,
        }
    }

    /// Number of helper threads installed in the HTC.
    pub fn cached_loops(&self) -> usize {
        self.htc.iter().count()
    }

    /// Whether a pre-execution run is live.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    // ------------------------------------------------------------------
    // Feature ablations (Fig. 11 / Fig. 12b)
    // ------------------------------------------------------------------

    fn apply_features(&self, mut entry: HtcEntry) -> HtcEntry {
        let f = self.features;
        let strip = |t: &mut HelperThread| {
            if !f.preexec_guarded_branches {
                // Drop guarded predicate producers; re-guard their
                // consumers on the dropped producer's own guard.
                let dropped: HashMap<u8, PredSource> = t
                    .insts
                    .iter()
                    .filter_map(|i| match i.kind {
                        HtKind::PredicateProducer { dest } if i.pred_src != PredSource::Always => {
                            Some((dest, i.pred_src))
                        }
                        _ => None,
                    })
                    .collect();
                let dropped_pcs: HashSet<u64> = t
                    .insts
                    .iter()
                    .filter(|i| {
                        matches!(i.kind, HtKind::PredicateProducer { dest }
                            if dropped.contains_key(&dest))
                    })
                    .map(|i| i.pc)
                    .collect();
                t.insts.retain(|i| !dropped_pcs.contains(&i.pc));
                t.queue_rows.retain(|pc| !dropped_pcs.contains(pc));
                for i in &mut t.insts {
                    // Chase re-guarding through (possibly chained) drops.
                    let mut guard = i.pred_src;
                    while let PredSource::Guarded { reg, .. } = guard {
                        match dropped.get(&reg) {
                            Some(&parent) => guard = parent,
                            None => break,
                        }
                    }
                    i.pred_src = guard;
                }
            }
            if !f.include_stores {
                t.insts.retain(|i| i.kind != HtKind::Store);
            }
        };
        strip(&mut entry.inner);
        if let Some(outer) = entry.outer.as_mut() {
            strip(outer);
        }
        entry
    }

    // ------------------------------------------------------------------
    // Epoch machinery
    // ------------------------------------------------------------------

    fn end_epoch(&mut self) {
        // Mark branches measured a full epoch without clearing the bar.
        let threshold = self.trainer.delinq_threshold();
        for (pc, misp) in self.trainer.dbt().ranking() {
            if misp >= threshold {
                self.delinquent_set.insert(pc);
                self.measured_not_delinquent.remove(&pc);
            } else if !self.delinquent_set.contains(&pc) {
                self.measured_not_delinquent.insert(pc);
            }
        }

        let end = self.trainer.close_epoch();
        if let Some((bounds, built)) = end.built {
            match built {
                Ok(entry) => {
                    let entry = self.apply_features(entry);
                    self.htc.install(entry);
                }
                Err(reason) => {
                    self.ineligible.insert(bounds, reason);
                }
            }
            self.detected_not_chosen.remove(&bounds);
        }

        let mut chosen = false;
        for e in &end.loop_table {
            let known = self.htc.has_loop(e.bounds) || self.ineligible.contains_key(&e.bounds);
            if known {
                continue;
            }
            if !chosen {
                self.trainer.construct(
                    ConstructionTarget {
                        bounds: e.bounds,
                        inner: e.inner,
                        delinquent: e.branches.clone(),
                    },
                    self.constructor_cfg.clone(),
                );
                self.detected_not_chosen.remove(&e.bounds);
                chosen = true;
            } else {
                self.detected_not_chosen.insert(e.bounds);
            }
        }
    }

    // ------------------------------------------------------------------
    // Trigger / side-thread setup
    // ------------------------------------------------------------------

    fn start_run(&mut self, entry: HtcEntry) -> ActiveThreads {
        let nested = entry.is_nested();
        // HT_A runs the outer-thread of a nested loop, else the
        // inner-thread-only, and starts with its live-in moves at once.
        let mut seq_a =
            SideSequencer::new(entry.outer.clone().unwrap_or_else(|| entry.inner.clone()));
        let moves = self.trainer.live_in_moves(&seq_a.thread.live_ins_mt, true);
        seq_a.state = SeqState::Moves(moves, true);
        let seq_b = nested.then(|| {
            let mut s = SideSequencer::new(entry.inner.clone());
            // IT copies its MT live-ins at trigger, then idles for a visit.
            let moves = self.trainer.live_in_moves(&s.thread.live_ins_mt, false);
            s.state = SeqState::Moves(moves, false);
            s
        });

        self.side_regs = [[0; NUM_REGS]; 2];
        let queues = |t: &HelperThread| PredictionQueues::new(&t.queue_rows, self.queue_columns);
        let qb_thread = seq_b.as_ref().map(|s| &s.thread);
        self.active = Some(ActiveRun {
            qa: queues(&seq_a.thread),
            qb: qb_thread.filter(|t| !t.queue_rows.is_empty()).map(queues),
            visitq: VisitQueue::new(DEFAULT_VISITS),
            seq_a,
            seq_b,
            entry,
        });
        if nested {
            ActiveThreads::MainPlusOtIt
        } else {
            ActiveThreads::MainPlusIto
        }
    }
}

impl PreExecEngine for PhelpsEngine {
    fn queue_lookup(&mut self, pc: u64) -> QueueLookup {
        let Some(run) = self.active.as_ref() else {
            return QueueLookup::NoRow;
        };
        if let Some(qb) = &run.qb {
            if qb.has_row(pc) {
                return match qb.consume(pc) {
                    Some(p) => QueueLookup::Hit(p),
                    None => QueueLookup::Untimely,
                };
            }
        }
        if run.qa.has_row(pc) {
            return match run.qa.consume(pc) {
                Some(p) => QueueLookup::Hit(p),
                None => QueueLookup::Untimely,
            };
        }
        QueueLookup::NoRow
    }

    fn on_mt_branch_fetched(&mut self, pc: u64, _predicted_taken: bool) {
        let Some(run) = self.active.as_mut() else {
            return;
        };
        if pc == run.entry.bounds.branch_pc {
            run.qa.advance_spec_head();
        }
        if let (Some(inner), Some(qb)) = (run.entry.inner_bounds, run.qb.as_mut()) {
            if pc == inner.branch_pc {
                qb.advance_spec_head();
            }
        }
    }

    fn checkpoint(&self) -> EngineCkpt {
        match self.active.as_ref() {
            Some(run) => EngineCkpt {
                a: run.qa.spec_head(),
                b: run.qb.as_ref().map_or(0, PredictionQueues::spec_head),
                cursors: Vec::new(),
            },
            None => EngineCkpt::default(),
        }
    }

    fn restore(&mut self, ckpt: &EngineCkpt) {
        if let Some(run) = self.active.as_mut() {
            run.qa.rollback_spec_head(ckpt.a);
            if let Some(qb) = run.qb.as_mut() {
                qb.rollback_spec_head(ckpt.b);
            }
        }
    }

    fn on_mt_retire(&mut self, rec: &ExecRecord, default_wrong: bool, _cycle: u64) -> EngineCmd {
        let epoch_ends = self.trainer.on_retire(rec, default_wrong);
        // A branch is delinquent as soon as it clears the bar, read from
        // this epoch's counts before an epoch end resets them.
        if default_wrong && matches!(rec.inst, Inst::Branch { .. }) {
            let misp = self.trainer.dbt().entry(rec.pc).map(|e| e.misp);
            if misp.is_some_and(|m| m >= self.trainer.delinq_threshold()) {
                self.delinquent_set.insert(rec.pc);
                self.measured_not_delinquent.remove(&rec.pc);
            }
        }
        if epoch_ends {
            self.end_epoch();
        }

        // Active-run bookkeeping.
        if let Some(run) = self.active.as_mut() {
            // Column free on MT loop-branch retire.
            if rec.pc == run.entry.bounds.branch_pc && run.qa.spec_head() > run.qa.head() {
                run.qa.advance_head();
            }
            if let (Some(inner), Some(qb)) = (run.entry.inner_bounds, run.qb.as_mut()) {
                if rec.pc == inner.branch_pc && qb.spec_head() > qb.head() {
                    qb.advance_head();
                }
            }
            // Termination: MT left the loop.
            if !run.entry.bounds.contains(rec.pc) {
                return EngineCmd::Terminate;
            }
            // Resync: the helper thread fell hopelessly behind the main
            // thread's consumption (e.g. after warm-up transients); kill
            // the run so the next loop-top retirement re-triggers it with
            // fresh live-ins.
            if run.qa.spec_head().saturating_sub(run.qa.tail())
                > 4 * crate::predq::DEFAULT_COLUMNS as u64
            {
                return EngineCmd::Terminate;
            }
            return EngineCmd::None;
        }

        // Trigger check: MT retired the loop's start PC.
        if let Some(slot) = self.htc.lookup_mut(rec.pc) {
            slot.last_trigger_epoch = self.trainer.epoch();
            let entry = slot.clone();
            return EngineCmd::Trigger(self.start_run(entry));
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
        if !mispredicted {
            // Only meaningful as "eliminated": queue was right where the
            // default predictor would have been wrong.
            return if from_queue && default_wrong {
                MispredictClass::Eliminated
            } else {
                // Recorded by the pipeline only for Eliminated; any other
                // value is ignored for correct predictions.
                MispredictClass::NotDelinquent
            };
        }
        if from_queue {
            return MispredictClass::HtWrongOutcome;
        }
        if let Some(run) = self.active.as_ref() {
            let has_row = run.qa.has_row(pc) || run.qb.as_ref().is_some_and(|q| q.has_row(pc));
            if has_row {
                return MispredictClass::HtUntimely;
            }
        }
        if self.delinquent_set.contains(&pc) {
            let Some(entry) = self.trainer.dbt().entry(pc) else {
                return MispredictClass::GatheringDelinquency; // evicted
            };
            let Some(inner) = entry.inner else {
                return MispredictClass::NotInLoop;
            };
            let outermost = entry.outer.unwrap_or(inner);
            if self.trainer.constructing() == Some(outermost) {
                return MispredictClass::HtBeingConstructed;
            }
            if let Some(reason) = self.ineligible.get(&outermost) {
                return match reason {
                    Ineligibility::NotIteratingEnough { .. } => MispredictClass::NotIteratingEnough,
                    Ineligibility::TooBig { .. }
                    | Ineligibility::HtcbOverflow
                    | Ineligibility::TooManyLiveIns { .. }
                    | Ineligibility::TooManyQueueRows { .. }
                    | Ineligibility::AlternateProducers
                    | Ineligibility::OuterDependsOnInner => MispredictClass::HtTooBig,
                    Ineligibility::NoLoopObserved => MispredictClass::NotInLoop,
                };
            }
            if self.detected_not_chosen.contains(&outermost) {
                return MispredictClass::HtNotConstructed;
            }
            if self.htc.has_loop(outermost) {
                // HT exists but isn't supplying this instance (warm-up,
                // between triggers).
                return MispredictClass::HtUntimely;
            }
            return MispredictClass::GatheringDelinquency;
        }
        if self.measured_not_delinquent.contains(&pc) {
            MispredictClass::NotDelinquent
        } else {
            MispredictClass::GatheringDelinquency
        }
    }

    fn active_threads(&self) -> ActiveThreads {
        match self.active.as_ref() {
            Some(run) if run.entry.is_nested() => ActiveThreads::MainPlusOtIt,
            Some(_) => ActiveThreads::MainPlusIto,
            None => ActiveThreads::MainOnly,
        }
    }

    fn side_fetch(&mut self, tid: usize, _cycle: u64) -> Option<SideInst> {
        let run = self.active.as_mut()?;
        let nested = run.entry.is_nested();
        let (seqr, q) = match tid {
            HT_A => (&mut run.seq_a, &run.qa),
            HT_B => (run.seq_b.as_mut()?, run.qb.as_ref()?),
            _ => return None,
        };
        loop {
            match &mut seqr.state {
                SeqState::Stopped => return None,
                SeqState::Moves(moves, run_after) => {
                    if moves.is_empty() {
                        seqr.state = if *run_after {
                            SeqState::Run { idx: 0 }
                        } else {
                            SeqState::Idle
                        };
                        continue;
                    }
                    return Some(moves.remove(0));
                }
                SeqState::Idle => {
                    if tid != HT_B {
                        seqr.state = SeqState::Run { idx: 0 };
                        continue;
                    }
                    // Inner-thread: wait for a visit.
                    match run.visitq.dequeue() {
                        Some(v) => {
                            seqr.state = SeqState::Moves(live_in_moves(v.live_ins, false), true);
                            continue;
                        }
                        None => return None,
                    }
                }
                SeqState::Run { idx } => {
                    // New-iteration gating: prediction queue must have room
                    // for the iterations in flight. (The main thread may
                    // have consumed far past us — saturate.)
                    if *idx == 0
                        && seqr.iteration.saturating_sub(q.head()) >= self.queue_columns as u64
                    {
                        return None;
                    }
                    // Outer-thread gating on visit-queue headroom.
                    if tid == HT_A && nested && *idx == 0 {
                        let in_flight = seqr.iteration.saturating_sub(run.qa.tail());
                        if run.visitq.len() as u64 + in_flight >= DEFAULT_VISITS as u64 {
                            return None;
                        }
                    }
                    let ht = &seqr.thread.insts[*idx];
                    let side = SideInst {
                        pc: ht.pc,
                        inst: ht.inst,
                        kind: ht.kind.into(),
                        pred_src: ht.pred_src,
                        mt_release: false,
                        tag: seqr.iteration,
                    };
                    if *idx + 1 >= seqr.thread.insts.len() {
                        // Wrapped past the loop branch: next iteration
                        // (loop branch assumed taken).
                        seqr.iteration += 1;
                        seqr.state = SeqState::Run { idx: 0 };
                    } else {
                        *idx += 1;
                    }
                    return Some(side);
                }
            }
        }
    }

    fn side_executed(&mut self, _tid: usize, _inst: &SideInst, _info: &ExecInfo, _cycle: u64) {
        // Phelps deposits at retire; nothing to do at execute.
    }

    fn side_branch_resolved(&mut self, tid: usize, inst: &SideInst, taken: bool) -> SideAction {
        let Some(run) = self.active.as_mut() else {
            return SideAction::Continue;
        };
        match inst.kind {
            SideKind::LoopBranch => {
                if taken {
                    return SideAction::Continue;
                }
                if tid == HT_A {
                    // ITO/OT loop exhausted: pre-execution over.
                    run.seq_a.state = SeqState::Stopped;
                    return SideAction::Terminate;
                }
                // Inner-thread visit completed: squash the speculative
                // next iterations and move to the next visit.
                if let Some(seq_b) = run.seq_b.as_mut() {
                    seq_b.iteration = inst.tag + 1;
                    seq_b.state = SeqState::Idle;
                }
                SideAction::SquashYounger
            }
            _ => SideAction::Continue,
        }
    }

    fn side_retired(&mut self, tid: usize, inst: &SideInst, info: &ExecInfo, _cycle: u64) {
        // Shadow the side thread's committed registers.
        if let Some(dst) = inst.inst.dst() {
            self.side_regs[tid - 1][dst.index()] = info.value;
        }
        let Some(run) = self.active.as_mut() else {
            return;
        };
        let q = match tid {
            HT_A => &mut run.qa,
            _ => match run.qb.as_mut() {
                Some(q) => q,
                None => return,
            },
        };
        match inst.kind {
            SideKind::PredProducer { .. } => {
                q.deposit(inst.pc, info.taken);
            }
            SideKind::HeaderBranch => {
                q.deposit(inst.pc, info.taken);
                if !info.taken {
                    // Inner loop will be visited: queue it with the
                    // outer-thread's current values for IT's OT live-ins.
                    let live_ins: Vec<(Reg, u64)> = run
                        .entry
                        .inner
                        .live_ins_ot
                        .iter()
                        .map(|&r| (r, self.side_regs[HT_A - 1][r.index()]))
                        .collect();
                    run.visitq.enqueue(Visit { live_ins });
                }
            }
            SideKind::LoopBranch => {
                q.deposit(inst.pc, info.taken);
                q.advance_tail();
            }
            _ => {}
        }
    }

    fn on_terminated(&mut self) {
        self.active = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PhelpsEngine {
        PhelpsEngine::new(
            10_000,
            5,
            ConstructorConfig::default(),
            PhelpsFeatures::full(),
        )
    }

    #[test]
    fn starts_inactive_and_empty() {
        let e = engine();
        assert!(!e.is_active());
        assert_eq!(e.cached_loops(), 0);
        assert_eq!(e.active_threads(), ActiveThreads::MainOnly);
    }

    #[test]
    fn queue_lookup_without_run_is_norow() {
        let mut e = engine();
        assert_eq!(e.queue_lookup(0x1234), QueueLookup::NoRow);
    }

    #[test]
    fn classify_progression() {
        let mut e = engine();
        // Unknown branch while still measuring.
        assert_eq!(
            e.classify(0x40, false, true, true),
            MispredictClass::GatheringDelinquency
        );
        // Correct queue prediction where the default was wrong: eliminated.
        assert_eq!(
            e.classify(0x40, true, false, true),
            MispredictClass::Eliminated
        );
        // Wrong queue prediction.
        assert_eq!(
            e.classify(0x40, true, true, true),
            MispredictClass::HtWrongOutcome
        );
    }

    #[test]
    fn checkpoint_roundtrip_without_run() {
        let mut e = engine();
        let c = e.checkpoint();
        e.restore(&c); // no-op, must not panic
        assert_eq!(c, EngineCkpt::default());
    }
}

//! The Phelps pre-execution engine: epochs, delinquency tracking, helper
//! thread construction, triggering, and helper-thread sequencing.
//!
//! This implements [`PreExecEngine`] for the pipeline. Per epoch (paper
//! §V-A): epoch N gathers delinquency in the DBT; at the epoch boundary the
//! Loop Table is built and the most delinquent un-cached loop is chosen;
//! epoch N+1 runs the [`Constructor`] over the retire stream; the finalized
//! helper thread installs into the HTC and can trigger from epoch N+2 on.

use crate::classify::MispredictClass;
use crate::construct::{ConstructionTarget, Constructor, ConstructorConfig, Ineligibility};
use crate::delinq::{build_loop_table, Dbt, LoopBounds};
use crate::htc::{HelperThread, HtKind, Htc, HtcEntry};
use crate::predicate::PredSource;
use crate::predq::PredictionQueues;
use crate::sim::types::{
    EngineCkpt, EngineCmd, ExecInfo, PhelpsFeatures, PreExecEngine, QueueLookup, SideAction,
    SideInst, SideKind, HT_A, HT_B,
};
use crate::visitq::{Visit, VisitQueue, DEFAULT_VISITS};
use phelps_isa::{AluOp, ExecRecord, Inst, Reg, NUM_REGS};
use phelps_telemetry as tlm;
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
    epoch_len: u64,
    delinq_threshold: u64,
    constructor_cfg: ConstructorConfig,
    /// Prediction-queue capacity in iterations (columns).
    queue_columns: usize,
    dbt: Dbt,
    epoch: u64,
    epoch_insts: u64,
    htc: Htc,
    constructor: Option<Constructor>,
    /// Branch PCs that ever cleared the delinquency threshold.
    delinquent_set: HashSet<u64>,
    /// Branch PCs measured over a full epoch without clearing it.
    measured_not_delinquent: HashSet<u64>,
    /// Loops that failed eligibility, with the reason.
    ineligible: HashMap<LoopBounds, Ineligibility>,
    /// Loop-Table loops seen but not yet chosen for construction.
    detected_not_chosen: HashSet<LoopBounds>,
    /// Shadow of the MT's retired register file (live-in capture).
    mt_regs: [u64; NUM_REGS],
    /// Shadow register files of the side threads (visit live-in capture).
    side_regs: [[u64; NUM_REGS]; 2],
    active: Option<ActiveRun>,
}

impl PhelpsEngine {
    /// Seeds the main-thread architectural-register shadow (pre-loop setup
    /// state that no retired instruction will ever rewrite).
    pub fn seed_mt_regs(&mut self, regs: [u64; NUM_REGS]) {
        self.mt_regs = regs;
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
            epoch_len,
            delinq_threshold,
            constructor_cfg,
            queue_columns: 32,
            dbt: Dbt::new(256, 32),
            epoch: 0,
            epoch_insts: 0,
            htc: Htc::new(),
            constructor: None,
            delinquent_set: HashSet::new(),
            measured_not_delinquent: HashSet::new(),
            ineligible: HashMap::new(),
            detected_not_chosen: HashSet::new(),
            mt_regs: [0; NUM_REGS],
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

    fn end_epoch(&mut self, cycle: u64) {
        // Finalize any in-flight construction.
        if let Some(c) = self.constructor.take() {
            let bounds = c.target().bounds;
            match c.finalize(self.epoch) {
                Ok(entry) => {
                    let entry = self.apply_features(entry);
                    tlm::event(
                        tlm::EventKind::HtcInstall,
                        cycle,
                        bounds.target_pc,
                        self.epoch,
                    );
                    self.htc.install(entry);
                    self.detected_not_chosen.remove(&bounds);
                }
                Err(reason) => {
                    self.ineligible.insert(bounds, reason);
                    self.detected_not_chosen.remove(&bounds);
                }
            }
        }

        // Mark branches measured a full epoch without clearing the bar.
        for (pc, misp) in self.dbt.ranking() {
            if misp >= self.delinq_threshold {
                self.delinquent_set.insert(pc);
                self.measured_not_delinquent.remove(&pc);
            } else if !self.delinquent_set.contains(&pc) {
                self.measured_not_delinquent.insert(pc);
            }
        }

        // Build the Loop Table and choose the next construction target.
        let lt = build_loop_table(&self.dbt, self.delinq_threshold, 8);
        let mut chosen = false;
        for e in &lt {
            let known = self.htc.has_loop(e.bounds) || self.ineligible.contains_key(&e.bounds);
            if known {
                continue;
            }
            if !chosen {
                self.constructor = Some(Constructor::with_config(
                    ConstructionTarget {
                        bounds: e.bounds,
                        inner: e.inner,
                        delinquent: e.branches.clone(),
                    },
                    self.constructor_cfg.clone(),
                ));
                self.detected_not_chosen.remove(&e.bounds);
                chosen = true;
            } else {
                self.detected_not_chosen.insert(e.bounds);
            }
        }

        self.dbt.reset_epoch();
        self.epoch += 1;
        self.epoch_insts = 0;
    }

    // ------------------------------------------------------------------
    // Trigger / side-thread setup
    // ------------------------------------------------------------------

    fn start_run(&mut self, entry: HtcEntry) -> ActiveThreads {
        let nested = entry.is_nested();
        let qa_rows: Vec<u64> = if nested {
            entry.outer.as_ref().expect("nested").queue_rows.clone()
        } else {
            entry.inner.queue_rows.clone()
        };
        let qb_rows: Vec<u64> = if nested {
            entry.inner.queue_rows.clone()
        } else {
            Vec::new()
        };

        let mut seq_a = SideSequencer::new(if nested {
            entry.outer.clone().expect("nested")
        } else {
            entry.inner.clone()
        });
        // HT_A starts with its live-in moves immediately.
        seq_a.state = SeqState::Moves(
            self.live_in_moves(&seq_a.thread.live_ins_mt.clone(), true),
            true,
        );

        let seq_b = nested.then(|| {
            let mut s = SideSequencer::new(entry.inner.clone());
            // IT copies its MT live-ins at trigger, then idles for a visit.
            let moves = self.live_in_moves(&s.thread.live_ins_mt.clone(), false);
            s.state = if moves.is_empty() {
                SeqState::Idle
            } else {
                SeqState::Moves(moves, false)
            };
            s
        });

        self.side_regs = [[0; NUM_REGS]; 2];
        let columns = self.queue_columns;
        self.active = Some(ActiveRun {
            qa: PredictionQueues::new(&qa_rows, columns),
            qb: (!qb_rows.is_empty()).then(|| PredictionQueues::new(&qb_rows, columns)),
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

    /// Builds annotated live-in move instructions from the MT register
    /// shadow. `release` marks the last move so MT fetch resumes on its
    /// retirement; a dummy move is emitted when the set is empty.
    fn live_in_moves(&self, regs: &[Reg], release: bool) -> Vec<SideInst> {
        let mut moves: Vec<SideInst> = regs
            .iter()
            .map(|&r| SideInst {
                pc: 0,
                inst: Inst::Li {
                    rd: r,
                    imm: self.mt_regs[r.index()] as i64,
                },
                kind: SideKind::LiveInMove,
                pred_src: PredSource::Always,
                live_in_value: self.mt_regs[r.index()],
                mt_release: false,
                tag: 0,
            })
            .collect();
        if release {
            if moves.is_empty() {
                moves.push(SideInst {
                    pc: 0,
                    inst: Inst::AluImm {
                        op: AluOp::Add,
                        rd: Reg::ZERO,
                        rs1: Reg::ZERO,
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
        }
        moves
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

    fn on_mt_retire(&mut self, rec: &ExecRecord, default_wrong: bool, cycle: u64) -> EngineCmd {
        // Shadow architectural state.
        if let Some(dst) = rec.inst.dst() {
            self.mt_regs[dst.index()] = rec.rd_value;
        }

        // Delinquency training. Loop-bounds training must see the *previous*
        // backward branch (a backward branch's own retirement trains it
        // against the enclosing loop, not itself), so the entry update
        // precedes the backward-branch bookkeeping.
        if let Inst::Branch { target, .. } = rec.inst {
            self.dbt.on_cond_branch_retire(rec.pc, default_wrong);
            if target < rec.pc {
                self.dbt.on_backward_branch(rec.pc, target);
            }
            if default_wrong {
                if let Some(e) = self.dbt.entry(rec.pc) {
                    if e.misp >= self.delinq_threshold {
                        self.delinquent_set.insert(rec.pc);
                        self.measured_not_delinquent.remove(&rec.pc);
                    }
                }
            }
        }

        // Construction.
        if let Some(c) = self.constructor.as_mut() {
            c.on_retire(rec);
        }

        // Epoch boundary.
        self.epoch_insts += 1;
        if self.epoch_insts >= self.epoch_len {
            self.end_epoch(cycle);
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
        if self.htc.lookup(rec.pc).is_some() {
            let mut entry = self.htc.lookup(rec.pc).expect("just found").clone();
            entry.last_trigger_epoch = self.epoch;
            if let Some(slot) = self.htc.lookup_mut(rec.pc) {
                slot.last_trigger_epoch = self.epoch;
            }
            let threads = self.start_run(entry);
            return EngineCmd::Trigger(threads);
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
            let Some(entry) = self.dbt.entry(pc) else {
                return MispredictClass::GatheringDelinquency; // evicted
            };
            let Some(inner) = entry.inner else {
                return MispredictClass::NotInLoop;
            };
            let outermost = entry.outer.unwrap_or(inner);
            if let Some(c) = self.constructor.as_ref() {
                if c.target().bounds == outermost {
                    return MispredictClass::HtBeingConstructed;
                }
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
                            let mvs: Vec<SideInst> = v
                                .live_ins
                                .iter()
                                .map(|&(r, val)| SideInst {
                                    pc: 0,
                                    inst: Inst::Li {
                                        rd: r,
                                        imm: val as i64,
                                    },
                                    kind: SideKind::LiveInMove,
                                    pred_src: PredSource::Always,
                                    live_in_value: val,
                                    mt_release: false,
                                    tag: seqr.iteration,
                                })
                                .collect();
                            if mvs.is_empty() {
                                seqr.state = SeqState::Run { idx: 0 };
                            } else {
                                seqr.state = SeqState::Moves(mvs, true);
                            }
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
                        live_in_value: 0,
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
                    tlm::gauge(tlm::Gauge::VisitQueueDepth, run.visitq.len() as u64);
                }
            }
            SideKind::LoopBranch => {
                q.deposit(inst.pc, info.taken);
                q.advance_tail();
                tlm::gauge(
                    tlm::Gauge::PredQueueDepth,
                    q.tail().saturating_sub(q.head()),
                );
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

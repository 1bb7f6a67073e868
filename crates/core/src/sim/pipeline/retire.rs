//! Retire stage: in-order main-thread retirement (architectural commit,
//! predictor training, engine control commands), side-thread retirement
//! (strict or loose order, predicated store-cache commit), and resource
//! reclamation.

use super::slab::RemovedInst;
use super::{DynInst, Pipeline, PredFrom, SimContext};
use crate::classify::MispredictClass;
use crate::sim::types::{EngineCmd, ExecInfo, PreExecEngine, SideKind, HT_A, HT_B, MT};
use phelps_isa::Inst;
use phelps_telemetry as tlm;
use phelps_uarch::bpred::DirectionPredictor;
use phelps_uarch::mem::MemRequest;

use super::Stage;

impl<E: PreExecEngine> Pipeline<E> {
    pub(super) fn retire(&mut self) {
        self.retire_mt();
        if self.ctx.preexec_active {
            for tid in [HT_A, HT_B] {
                if self.ctx.threads[tid].active {
                    self.retire_side(tid);
                }
            }
        }
        // Prune: nothing needed; insts removed at retire/squash.
    }

    fn retire_mt(&mut self) {
        let width = self.ctx.threads[MT].width;
        for _ in 0..width {
            let Some(&seq) = self.ctx.threads[MT].rob.front() else {
                return;
            };
            match self.ctx.insts.stage(seq) {
                None => {
                    self.ctx.threads[MT].rob.pop_front();
                    continue;
                }
                Some(Stage::Done) => {}
                Some(_) => return,
            }
            let r = self.ctx.insts.remove(seq).expect("present");
            self.ctx.threads[MT].rob.pop_front();
            self.ctx.threads[MT].forget_tracked(seq, &r.meta);
            self.ctx.release_resources(MT, &r);
            self.finish_mt_retire(r.di);
            if self.ctx.finished {
                return;
            }
        }
    }

    fn finish_mt_retire(&mut self, di: DynInst) {
        let rec = di.rec;
        #[cfg(feature = "debug-invariants")]
        {
            assert!(
                di.seq > self.ctx.last_mt_retired_seq,
                "MT retirement out of order: seq {} after {}",
                di.seq,
                self.ctx.last_mt_retired_seq
            );
            self.ctx.last_mt_retired_seq = di.seq;
        }
        if let Some(log) = self.ctx.retire_log.as_mut() {
            log.push(rec);
        }
        self.ctx.stats.mt_retired += 1;
        tlm::retired(|| self.ctx.snapshot());

        // Timing-architectural state.
        if let Some(dst) = rec.inst.dst() {
            self.ctx.threads[MT].regs[dst.index()] = rec.rd_value;
        }
        if let Inst::Store { width, .. } = rec.inst {
            self.ctx
                .timing_mem
                .write(rec.mem_addr, width, rec.store_data);
            self.ctx
                .hierarchy
                .request(MemRequest::store(MT, rec.pc, rec.mem_addr, self.ctx.cycle));
        }

        // Branch predictor training and statistics.
        let mut default_wrong = false;
        if di.is_cond_branch() {
            self.ctx.stats.mt_cond_branches += 1;
            let predicted = di.predicted.unwrap_or(rec.taken);
            self.ctx.bpred.update(rec.pc, rec.taken, predicted);
            default_wrong = di.default_pred.unwrap_or(rec.taken) != rec.taken;
            if di.mispredicted {
                self.ctx.stats.mt_mispredicts += 1;
                tlm::event(tlm::EventKind::Mispredict, self.ctx.cycle, rec.pc, 0);
                if di.pred_from == PredFrom::Queue {
                    self.ctx.stats.mispredicts_from_queue += 1;
                }
            }
            let class = match self.engine.as_mut() {
                Some(engine) => Some(engine.classify(
                    rec.pc,
                    di.pred_from == PredFrom::Queue,
                    di.mispredicted,
                    default_wrong,
                )),
                None if di.mispredicted => Some(MispredictClass::NotDelinquent),
                None => None,
            };
            // "ht wrong outcome" is counted as `mispredicts_from_queue`.
            #[cfg(feature = "debug-invariants")]
            assert_eq!(
                class == Some(MispredictClass::HtWrongOutcome),
                di.mispredicted && di.pred_from == PredFrom::Queue,
                "pc {:#x}: class {class:?} (mispredicted {}, from {:?})",
                rec.pc,
                di.mispredicted,
                di.pred_from
            );
            match class {
                Some(c) if di.mispredicted || c == MispredictClass::Eliminated => {
                    c.record(&mut self.ctx.stats);
                }
                _ => {}
            }
        }

        // Engine training / control. The DBT measures the *default
        // predictor's* delinquency regardless of the consumed source.
        let mut cmd = EngineCmd::None;
        if let Some(engine) = self.engine.as_mut() {
            cmd = engine.on_mt_retire(&rec, default_wrong, self.ctx.cycle);
        }
        match cmd {
            EngineCmd::None => {}
            EngineCmd::Trigger(active) => self.trigger_preexec(active, rec.pc),
            EngineCmd::Terminate => self.terminate_preexec(rec.pc),
        }

        if matches!(rec.inst, Inst::Halt) || self.ctx.stats.mt_retired >= self.ctx.max_mt_insts {
            self.ctx.finished = true;
        }
    }

    fn retire_side(&mut self, tid: usize) {
        let loose = self.engine.as_ref().is_some_and(|e| e.loose_retire());
        let width = self.ctx.threads[tid].width.max(1);
        let mut n = 0;
        loop {
            if n >= width {
                return;
            }
            let Some(&seq) = self.ctx.threads[tid].rob.front() else {
                return;
            };
            match self.ctx.insts.stage(seq) {
                None => {
                    self.ctx.threads[tid].rob.pop_front();
                    continue;
                }
                Some(Stage::Done) => {}
                Some(_) => {
                    if loose {
                        // Loose mode: skip stalled head, retire any Done insts
                        // behind it (chains have no program-order semantics).
                        self.retire_side_loose(tid, width.saturating_sub(n) as usize);
                    }
                    return;
                }
            }
            let r = self.ctx.insts.remove(seq).expect("present");
            self.ctx.threads[tid].rob.pop_front();
            self.ctx.threads[tid].forget_tracked(seq, &r.meta);
            self.ctx.release_resources(tid, &r);
            self.finish_side_retire(tid, r.di);
            n += 1;
        }
    }

    fn retire_side_loose(&mut self, tid: usize, budget: usize) {
        let mut scratch = std::mem::take(&mut self.ctx.loose_scratch);
        scratch.clear();
        scratch.extend(
            self.ctx.threads[tid]
                .rob
                .iter()
                .copied()
                .filter(|&s| matches!(self.ctx.insts.stage(s), Some(Stage::Done)))
                .take(budget),
        );
        for &s in &scratch {
            let r = self.ctx.insts.remove(s).expect("present");
            self.ctx.threads[tid].forget_tracked(s, &r.meta);
            self.ctx.release_resources(tid, &r);
            self.finish_side_retire(tid, r.di);
        }
        if !scratch.is_empty() {
            // One retain pass over the (small, partition-capped) side ROB
            // instead of a retain per retired seq; scratch is at most the
            // retire width, so `contains` stays trivially cheap.
            self.ctx.threads[tid].rob.retain(|s| !scratch.contains(s));
        }
        self.ctx.loose_scratch = scratch;
    }

    fn finish_side_retire(&mut self, tid: usize, di: DynInst) {
        self.ctx.stats.ht_retired += 1;
        let Some(side) = di.side else { return };

        // Commit value state.
        if let Some(dst) = di.inst.dst() {
            self.ctx.threads[tid].regs[dst.index()] = di.result;
        }
        // Commit predicate values for late consumers.
        if let SideKind::PredProducer { dest } = side.kind {
            self.ctx.threads[tid].pred_vals[dest as usize] = (di.enabled, di.taken);
        }
        // Stores commit to the private cache only when predicated-true.
        if di.inst.is_store() && di.enabled {
            // Merge into the containing doubleword.
            if let Inst::Store { width, .. } = di.inst {
                let dw_addr = di.mem_addr & !7;
                let base = self
                    .ctx
                    .store_cache
                    .read(dw_addr)
                    .unwrap_or_else(|| self.ctx.timing_mem.read_u64(dw_addr));
                let merged = super::lsq::merge(base, di.mem_addr, width, di.result);
                self.ctx.store_cache.write(dw_addr, merged);
            }
        }
        if side.mt_release && self.ctx.mt_release_pending {
            self.ctx.mt_release_pending = false;
            self.ctx.threads[MT].waiting_mt_release = false;
        }
        let info = ExecInfo {
            value: di.result,
            taken: di.taken,
            addr: di.mem_addr,
            enabled: di.enabled,
        };
        if let Some(engine) = self.engine.as_mut() {
            engine.side_retired(tid, &side, &info, self.ctx.cycle);
        }
    }
}

impl SimContext {
    pub(super) fn release_resources(&mut self, tid: usize, r: &RemovedInst) {
        let seq = r.di.seq;
        let t = &mut self.threads[tid];
        // LQ/SQ/PRF shares are allocated at dispatch, so a squashed
        // instruction still in the frontend pipe holds none. Releasing it
        // anyway would under-count live usage (the saturating_sub floors
        // at zero) and let later dispatch oversubscribe the partition.
        if !matches!(r.stage, Stage::Frontend) {
            if r.meta.is_load() {
                t.lq_used = t.lq_used.saturating_sub(1);
            }
            if r.meta.is_store() {
                t.sq_used = t.sq_used.saturating_sub(1);
            }
            if r.meta.has_dst() {
                t.prf_used = t.prf_used.saturating_sub(1);
            }
        }
        // Repair rename entries that point at this seq. Only the slots this
        // instruction wrote at dispatch can name it, so the repair is O(1).
        if let Some(dst) = r.di.inst.dst() {
            if t.rmt[dst.index()] == Some(seq) {
                t.rmt[dst.index()] = None;
            }
        }
        if let Some(SideKind::PredProducer { dest }) = r.di.side.as_ref().map(|s| s.kind) {
            if t.pred_rmt[dest as usize] == Some(seq) {
                t.pred_rmt[dest as usize] = None;
            }
        }
        #[cfg(feature = "debug-invariants")]
        {
            assert!(
                !t.rmt.contains(&Some(seq)),
                "tid {tid}: rename map still names released seq {seq}"
            );
            assert!(
                !t.pred_rmt.contains(&Some(seq)),
                "tid {tid}: predicate rename map still names released seq {seq}"
            );
        }
    }
}

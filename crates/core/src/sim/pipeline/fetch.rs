//! Fetch stage: main-thread trace fetch (with branch prediction and
//! prediction-queue consumption) and engine-driven side-thread fetch.

use super::{exec_latency, lane_of, DynInst, InstMeta, Pipeline, PredFrom, SimContext, Stage};
use crate::sim::types::{PreExecEngine, QueueLookup, HT_A, HT_B, MT};
use phelps_isa::{ExecRecord, Inst};
use phelps_uarch::bpred::DirectionPredictor;
use phelps_uarch::mem::{AccessLevel, MemRequest};

impl<E: PreExecEngine> Pipeline<E> {
    pub(super) fn fetch(&mut self) {
        self.fetch_mt();
        if self.ctx.preexec_active {
            for tid in [HT_A, HT_B] {
                if self.ctx.threads[tid].active {
                    self.fetch_side(tid);
                }
            }
        }
    }

    fn fetch_mt(&mut self) {
        let now = self.ctx.cycle;
        {
            let t = &self.ctx.threads[MT];
            if !t.active
                || t.fetch_stall_until > now
                || t.ifetch_stall_until > now
                || t.blocking_branch.is_some()
                || t.waiting_mt_release
            {
                if t.blocking_branch.is_some() {
                    self.ctx.stats.mt_fetch_stall_mispredict += 1;
                } else if t.ifetch_stall_until > now {
                    self.ctx.stats.mt_fetch_stall_ifetch += 1;
                }
                if t.waiting_mt_release {
                    self.ctx.stats.mt_fetch_stall_trigger += 1;
                }
                return;
            }
        }
        let width = self.ctx.threads[MT].width;
        // One L1I lookup per cache block entered by this fetch group; an
        // L1I hit's latency is part of the frontend pipe depth, so only
        // misses cost extra (they stall fetch until the line returns).
        let iblock_bytes = self.ctx.cfg.l1i.block_bytes.max(1);
        let mut cur_iblock: Option<u64> = None;
        // Frontend pipe occupancy backpressure: bounded by ROB partition.
        for _ in 0..width {
            if self.ctx.threads[MT].rob.len() as u32 >= self.ctx.threads[MT].rob_cap {
                break;
            }
            let Some(rec) = self.ctx.trace.next() else {
                if self.ctx.threads[MT].rob.is_empty() {
                    self.ctx.finished = true;
                }
                return;
            };
            let iblock = rec.pc / iblock_bytes;
            if cur_iblock != Some(iblock) {
                let r = self
                    .ctx
                    .hierarchy
                    .request(MemRequest::ifetch(MT, rec.pc, now));
                if r.level != AccessLevel::L1 {
                    // I-miss (or merge onto an in-flight code fill): put the
                    // record back and stall fetch until the line returns.
                    self.ctx.trace.push_replay_front(std::iter::once(rec));
                    self.ctx.threads[MT].ifetch_stall_until = r.done_cycle;
                    return;
                }
                cur_iblock = Some(iblock);
            }
            let seq = self.ctx.alloc_seq();
            let mut di = DynInst {
                seq,
                tid: MT,
                pc: rec.pc,
                inst: rec.inst,
                rec,
                predicted: None,
                default_pred: None,
                pred_from: PredFrom::None,
                mispredicted: false,
                bp_ckpt: None,
                engine_ckpt: None,
                side: None,
                result: rec.rd_value,
                taken: rec.taken,
                mem_addr: rec.mem_addr,
                enabled: true,
                mem_done: 0,
            };

            let mut stop_after = rec.inst.is_control() && rec.next_pc != rec.pc + 4;
            if di.is_cond_branch() {
                let (pred, from, default_pred) = self.predict_branch(rec.pc, rec.taken);
                di.predicted = Some(pred);
                di.default_pred = Some(default_pred);
                di.pred_from = from;
                di.bp_ckpt = Some(self.ctx.bpred.checkpoint());
                self.ctx.bpred.speculate(rec.pc, pred);
                if let Some(engine) = self.engine.as_mut() {
                    engine.on_mt_branch_fetched(rec.pc, pred);
                    di.engine_ckpt = Some(engine.checkpoint());
                }
                if pred != rec.taken {
                    di.mispredicted = true;
                    self.ctx.threads[MT].blocking_branch = Some(seq);
                    stop_after = true;
                } else {
                    stop_after = pred; // taken branches end the fetch group
                }
            }

            self.ctx.push_fetched(MT, di);
            if stop_after {
                break;
            }
            if matches!(rec.inst, Inst::Halt) {
                break;
            }
        }
    }

    /// Returns (consumed prediction, source, default-predictor prediction).
    fn predict_branch(&mut self, pc: u64, actual: bool) -> (bool, PredFrom, bool) {
        if self.ctx.mode_oracle {
            return (actual, PredFrom::Oracle, actual);
        }
        let default_pred = self.ctx.bpred.predict(pc);
        if self.ctx.preexec_active {
            if let Some(engine) = self.engine.as_mut() {
                match engine.queue_lookup(pc) {
                    QueueLookup::Hit(p) => {
                        self.ctx.stats.preds_from_queue += 1;
                        return (p, PredFrom::Queue, default_pred);
                    }
                    QueueLookup::Untimely => {
                        self.ctx.stats.queue_untimely += 1;
                        return (default_pred, PredFrom::Default, default_pred);
                    }
                    QueueLookup::NoRow => {}
                }
            }
        }
        (default_pred, PredFrom::Default, default_pred)
    }

    /// Side threads fetch from the helper-thread code (HTC) buffer, a
    /// dedicated structure the engine installs at trigger time — not from
    /// the L1I, so they neither miss in it nor consume its port.
    fn fetch_side(&mut self, tid: usize) {
        let width = self.ctx.threads[tid].width;
        for _ in 0..width {
            if self.ctx.threads[tid].rob.len() as u32 >= self.ctx.threads[tid].rob_cap {
                break;
            }
            let Some(engine) = self.engine.as_mut() else {
                return;
            };
            let Some(side) = engine.side_fetch(tid, self.ctx.cycle) else {
                return;
            };
            let seq = self.ctx.alloc_seq();
            let di = DynInst {
                seq,
                tid,
                pc: side.pc,
                inst: side.inst,
                rec: ExecRecord {
                    pc: side.pc,
                    inst: side.inst,
                    next_pc: side.pc + 4,
                    taken: false,
                    rd_value: 0,
                    mem_addr: 0,
                    store_data: 0,
                },
                predicted: None,
                default_pred: None,
                pred_from: PredFrom::None,
                mispredicted: false,
                bp_ckpt: None,
                engine_ckpt: None,
                side: Some(side),
                result: 0,
                taken: false,
                mem_addr: 0,
                enabled: true,
                mem_done: 0,
            };
            self.ctx.push_fetched(tid, di);
        }
    }
}

impl SimContext {
    pub(super) fn push_fetched(&mut self, tid: usize, mut di: DynInst) {
        // `mem_done` carries the frontend-pipe exit cycle until dispatch.
        di.mem_done = self.cycle + self.cfg.frontend_stages() as u64;
        let seq = di.seq;
        let meta = InstMeta::new(lane_of(&di.inst), tid, exec_latency(&di.inst), &di.inst);
        self.threads[tid].rob.push_back(seq);
        self.threads[tid].track_fetched(seq, &meta);
        self.threads[tid].frontend += 1;
        self.insts.insert(di, Stage::Frontend, meta);
        #[cfg(feature = "debug-invariants")]
        assert!(
            self.threads[tid].rob.len() as u32 <= self.threads[tid].rob_cap,
            "tid {tid}: fetch overfilled the ROB partition ({} > {})",
            self.threads[tid].rob.len(),
            self.threads[tid].rob_cap
        );
    }
}

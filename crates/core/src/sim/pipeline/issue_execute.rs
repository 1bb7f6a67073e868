//! Issue/execute stage: oldest-first select from the shared issue queue
//! under per-lane budgets, trace-fed main-thread execution (with branch
//! resolution), and real-value side-thread execution (predicate
//! evaluation, store-cache-backed loads, engine steering).
//!
//! Readiness is event-maintained, not re-checked per cycle: every
//! instruction carries a ready-dep count in the slab's meta column. An
//! instruction that starts executing schedules its completion, and
//! [`SimContext::complete_execution`] decrements the counts of only the
//! consumers registered with each producer that turns `Done`. A consumer
//! whose count reaches zero joins its lane's ready queue (see
//! [`super::slab`]). Select pops those queues and never visits an entry
//! that still waits.

use super::{Pipeline, SimContext, NO_DEP};
use crate::sim::types::{ExecInfo, PreExecEngine, SideAction, SideKind, MT, NUM_THREADS};
use phelps_isa::{Inst, Reg};
use phelps_uarch::bpred::DirectionPredictor;
use phelps_uarch::mem::MemRequest;
use std::cmp::Reverse;

impl SimContext {
    pub(super) fn dep_value(&self, tid: usize, reg: Reg, dep: u64) -> u64 {
        if reg.is_zero() {
            return 0;
        }
        if dep != NO_DEP {
            if let Some(di) = self.insts.get(dep) {
                return di.result;
            }
        }
        self.threads[tid].regs[reg.index()]
    }

    /// Retires the completion events due this cycle: each instruction
    /// turns `Done` and wakes its registered consumers. In a loose run a
    /// side-thread instruction also joins its thread's Done queue.
    pub(super) fn complete_execution(&mut self) {
        while let Some(producer) = self.insts.pop_completed(self.cycle) {
            self.insts.wake_consumers(producer);
            if self.loose_retire {
                let tid = self.insts.meta(producer).expect("just completed").tid as usize;
                if tid != MT {
                    self.threads[tid].done.push(Reverse(producer));
                }
            }
        }
    }
}

impl<E: PreExecEngine> Pipeline<E> {
    pub(super) fn issue(&mut self) {
        let mut budget = [
            self.ctx.cfg.lanes_alu,
            self.ctx.cfg.lanes_mem,
            self.ctx.cfg.lanes_complex,
        ];
        // Oldest-first select: each pop is the oldest ready entry among
        // the lanes with budget left. `execute` may change the queues
        // mid-walk: a squash or terminate leaves entries that the pops
        // drop.
        let mut held = std::mem::take(&mut self.ctx.issue_scratch);
        while let Some(seq) = self.ctx.insts.pop_ready(&budget) {
            let m = self.ctx.insts.meta(seq).expect("popped entry is in flight");
            let lane = m.lane.index();
            if m.is_load()
                && m.tid as usize == MT
                && self
                    .ctx
                    .insts
                    .get(seq)
                    .is_some_and(|di| self.ctx.violating_loads.contains(&di.pc))
                && !self.ctx.older_stores_resolved(MT, seq)
            {
                // MT store-set-style predictor: loads that violated before
                // wait for older stores' addresses, spending no budget.
                // Side-thread loads issue freely: a side ordering race
                // merely reads slightly stale data (the helper thread is
                // speculative anyway), and never squashes — a side squash
                // would desynchronize the engine's iteration sequencing.
                held.push(seq);
                continue;
            }
            budget[lane] -= 1;
            self.execute(seq);
        }
        for seq in held.drain(..) {
            self.ctx.insts.requeue(seq);
        }
        self.ctx.issue_scratch = held;
        self.ctx.thread_priority = (self.ctx.thread_priority + 1) % NUM_THREADS;
    }

    fn execute(&mut self, seq: u64) {
        let tid = self.ctx.insts.meta(seq).expect("issuing").tid as usize;
        if tid == MT {
            self.execute_mt(seq);
        } else {
            self.execute_side(seq);
        }
    }

    fn execute_mt(&mut self, seq: u64) {
        let now = self.ctx.cycle;
        let latency = self.ctx.insts.meta(seq).expect("issuing").latency;
        let (inst, pc, addr) = {
            let di = self.ctx.insts.get(seq).expect("issuing");
            (di.inst, di.pc, di.rec.mem_addr)
        };
        let done = if inst.is_load() {
            // Store-to-load forwarding within the thread.
            if let Some(_fwd) = self.ctx.forwarding_store(MT, seq, addr) {
                #[cfg(feature = "debug-invariants")]
                assert!(
                    _fwd < seq,
                    "LSQ age order: load {seq} forwarded from younger store {_fwd}"
                );
                now + 2
            } else {
                let r = self
                    .ctx
                    .hierarchy
                    .request(MemRequest::load(MT, pc, addr, now));
                r.done_cycle
            }
        } else {
            now + latency as u64
        };
        self.ctx.insts.start_exec(seq, done);
        if inst.is_store() {
            self.check_load_violation(MT, seq, addr);
        }
        if inst.is_cond_branch() {
            // Resolution happens at completion; model it here with the
            // completion time (the branch redirects fetch at `done`).
            self.resolve_mt_branch(seq, done);
        }
    }

    fn resolve_mt_branch(&mut self, seq: u64, done: u64) {
        let di = self.ctx.insts.get(seq).expect("issuing");
        if !di.mispredicted {
            return;
        }
        // Repair speculative predictor history: rewind past the wrong
        // speculation, then insert the actual outcome. The checkpoints
        // are read in place; only the recovery path touches them.
        if let Some(ckpt) = &di.bp_ckpt {
            self.ctx.bpred.recover(ckpt);
            self.ctx.bpred.speculate(di.pc, di.rec.taken);
        }
        if let (Some(engine), Some(ckpt)) = (self.engine.as_mut(), di.engine_ckpt.as_ref()) {
            engine.restore(ckpt);
        }
        // Fetch resumes after resolution; the refill delay is inherent in
        // the frontend-pipe depth of newly fetched instructions.
        if self.ctx.threads[MT].blocking_branch == Some(seq) {
            self.ctx.threads[MT].blocking_branch = None;
            self.ctx.threads[MT].fetch_stall_until = done + 1;
        }
    }

    fn execute_side(&mut self, seq: u64) {
        let now = self.ctx.cycle;
        let meta = *self.ctx.insts.meta(seq).expect("issuing");
        let (inst, tid, side) = {
            let di = self.ctx.insts.get(seq).expect("issuing");
            (di.inst, di.tid, di.side.expect("side inst"))
        };

        // Evaluate the predicate source against the bound producers
        // (pred-RMT binding happened at dispatch). An OR-guard (§V-K)
        // enables when either of its two sources does.
        let enabled = {
            let regs = side.pred_src.regs();
            if regs[0].is_none() {
                true // PredSource::Always
            } else {
                let eval_one = |slot: usize| -> Option<bool> {
                    let (reg, direction) = regs[slot]?;
                    let dep = meta.pred_deps[slot];
                    let prod = (dep != NO_DEP).then(|| self.ctx.insts.get(dep)).flatten();
                    Some(match prod {
                        Some(prod) => prod.enabled && prod.taken == direction,
                        None => {
                            // Producer already retired: read the committed
                            // predicate file (in-order retire guarantees it
                            // holds the same iteration's value).
                            let (en, taken) = self.ctx.threads[tid].pred_vals[reg as usize];
                            en && taken == direction
                        }
                    })
                };
                eval_one(0).unwrap_or(false) || eval_one(1).unwrap_or(false)
            }
        };

        // Gather source values through the dep slots — no allocation on
        // the wakeup path (the slots are a fixed-size meta column).
        let srcs = inst.srcs();
        let mut vals = [0u64; 2];
        for (i, r) in srcs.iter().enumerate() {
            vals[i] = self.ctx.dep_value(tid, r, meta.deps[i]);
        }

        let mut result: u64 = 0;
        let mut taken = false;
        let mut mem_addr: u64 = 0;
        let mut done = now + meta.latency as u64;

        match inst {
            Inst::Alu { op, .. } => result = op.eval(vals[0], vals[1]),
            Inst::AluImm { op, imm, .. } => result = op.eval(vals[0], imm as i64 as u64),
            Inst::Li { imm, .. } => result = imm as u64,
            Inst::Load {
                width,
                signed,
                offset,
                ..
            } => {
                mem_addr = vals[0].wrapping_add(offset as i64 as u64);
                // Value: in-flight forwarding > store cache > memory image.
                let fwd = self.ctx.forwarding_store(tid, seq, mem_addr);
                #[cfg(feature = "debug-invariants")]
                if let Some(fseq) = fwd {
                    assert!(
                        fseq < seq,
                        "LSQ age order: side load {seq} forwarded from younger store {fseq}"
                    );
                }
                if let Some(fseq) = fwd {
                    let f = self.ctx.insts.get(fseq).expect("forwarding store");
                    // Forward only enabled stores; a disabled store is a
                    // no-op, so fall through to older state.
                    if f.enabled {
                        result = super::lsq::extract(f.result, mem_addr, width, signed);
                        done = now + 2;
                    } else {
                        result = self.ctx.timing_mem.read(mem_addr, width, signed);
                        done = now + self.ctx.cfg.l1d.latency as u64;
                    }
                } else if let Some(dw) = self.ctx.store_cache.read(mem_addr) {
                    result = super::lsq::extract(dw, mem_addr, width, signed);
                    done = now + self.ctx.cfg.l1d.latency as u64;
                } else {
                    result = self.ctx.timing_mem.read(mem_addr, width, signed);
                    let r = self
                        .ctx
                        .hierarchy
                        .request(MemRequest::load(tid, side.pc, mem_addr, now));
                    done = r.done_cycle;
                }
            }
            Inst::Store { offset, .. } => {
                mem_addr = vals[0].wrapping_add(offset as i64 as u64);
                result = vals[1]; // data
            }
            Inst::Branch { cond, .. } => {
                taken = cond.eval(vals[0], vals[1]);
            }
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Halt => {}
        }

        if inst.is_store() {
            self.check_load_violation(tid, seq, mem_addr);
        }

        {
            let di = self.ctx.insts.get_mut(seq).expect("present");
            di.result = result;
            di.taken = taken;
            di.mem_addr = mem_addr;
            di.enabled = enabled;
        }
        self.ctx.insts.start_exec(seq, done);

        let info = ExecInfo {
            value: result,
            taken,
            addr: mem_addr,
            enabled,
        };
        let mut action = SideAction::Continue;
        if let Some(engine) = self.engine.as_mut() {
            engine.side_executed(tid, &side, &info, now);
            if matches!(side.kind, SideKind::LoopBranch | SideKind::HeaderBranch) {
                action = engine.side_branch_resolved(tid, &side, taken);
            }
        }
        match action {
            SideAction::Continue => {}
            SideAction::SquashYounger => self.ctx.squash_side_from(tid, seq + 1),
            SideAction::Terminate => self.terminate_preexec(),
        }
    }
}

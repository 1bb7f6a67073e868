//! Rename/dispatch stage: drains the frontend pipe in program order,
//! renames sources against the per-thread RMTs, allocates LQ/SQ/PRF
//! shares, and moves each instruction into the shared issue queue, whose
//! occupancy the slab counts. Entering the IQ registers the instruction
//! with the in-flight producers it waits on, or queues it for issue when
//! it waits on none (see [`super::slab`]).
//!
//! Dispatch never consults the pre-execution engine, so the whole stage
//! lives on [`SimContext`].

use super::{SimContext, NO_DEP};
use crate::sim::types::{SideKind, NUM_THREADS};

impl SimContext {
    pub(super) fn dispatch(&mut self) {
        for off in 0..NUM_THREADS {
            let tid = (self.thread_priority + off) % NUM_THREADS;
            if !self.threads[tid].active {
                continue;
            }
            let width = self.threads[tid].width;
            let mut dispatched = 0;
            while dispatched < width && self.threads[tid].frontend > 0 {
                let idx = self.threads[tid].rob.len() - self.threads[tid].frontend;
                let seq = self.threads[tid].rob[idx];
                let Some(di) = self.insts.get(seq) else {
                    break;
                };
                if di.mem_done > self.cycle {
                    break; // still in the frontend pipe
                }
                // Resource checks.
                if self.insts.iq_len() >= self.cfg.iq as usize {
                    break;
                }
                let t = &self.threads[tid];
                let meta = *self.insts.meta(seq).expect("live frontend inst");
                if meta.is_load() && t.lq_used >= t.lq_cap {
                    break;
                }
                if meta.is_store() && t.sq_used >= t.sq_cap {
                    break;
                }
                if meta.has_dst() && t.prf_used >= t.prf_cap {
                    break;
                }
                // Rename: bind each source operand to its in-flight
                // producer (NO_DEP when the value is architectural).
                let srcs = di.inst.srcs();
                let dst = di.inst.dst();
                let pred_src = di.side.as_ref().map(|s| s.pred_src);
                let pred_dest = match di.side.as_ref().map(|s| s.kind) {
                    Some(SideKind::PredProducer { dest }) => Some(dest),
                    _ => None,
                };
                let mut deps = [NO_DEP; 2];
                for (slot, r) in deps.iter_mut().zip(srcs.iter()) {
                    if !r.is_zero() {
                        if let Some(p) = self.threads[tid].rmt[r.index()] {
                            *slot = p;
                        }
                    }
                }
                let mut pred_deps = [NO_DEP; 2];
                if let Some(src) = pred_src {
                    for (slot, r) in pred_deps.iter_mut().zip(src.regs()) {
                        if let Some((reg, _)) = r {
                            if let Some(p) = self.threads[tid].pred_rmt[reg as usize] {
                                *slot = p;
                            }
                        }
                    }
                }
                {
                    let t = &mut self.threads[tid];
                    if meta.is_load() {
                        t.lq_used += 1;
                    }
                    if meta.is_store() {
                        t.sq_used += 1;
                    }
                    if meta.has_dst() {
                        t.prf_used += 1;
                    }
                    #[cfg(feature = "debug-invariants")]
                    assert!(
                        t.lq_used <= t.lq_cap && t.sq_used <= t.sq_cap && t.prf_used <= t.prf_cap,
                        "tid {tid}: dispatch oversubscribed a partition \
                         (lq {}/{}, sq {}/{}, prf {}/{})",
                        t.lq_used,
                        t.lq_cap,
                        t.sq_used,
                        t.sq_cap,
                        t.prf_used,
                        t.prf_cap
                    );
                    if let Some(dst) = dst {
                        t.rmt[dst.index()] = Some(seq);
                    }
                    if let Some(dest) = pred_dest {
                        t.pred_rmt[dest as usize] = Some(seq);
                    }
                }
                // Enter the IQ: seed the ready-dep count and register with
                // the unfinished producers, which wake this consumer.
                self.insts.bind_deps(seq, deps, pred_deps);
                self.insts.get_mut(seq).expect("present").mem_done = 0;
                self.threads[tid].frontend -= 1;
                dispatched += 1;
            }
        }
    }
}

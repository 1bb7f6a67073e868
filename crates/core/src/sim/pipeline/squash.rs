//! Squash machinery (main-thread replay squash, side-thread partial
//! squash) and the pre-execution trigger/terminate transitions that
//! repartition the core.

use super::{Pipeline, SimContext, Stage};
use crate::sim::types::{PreExecEngine, HT_A, HT_B, MT};
use phelps_isa::{ExecRecord, NUM_REGS};
use phelps_uarch::bpred::DirectionPredictor;
use phelps_uarch::config::ActiveThreads;

impl<E: PreExecEngine> Pipeline<E> {
    /// Squashes MT instructions with seq >= `from`, replaying their records.
    pub(super) fn squash_mt_from(&mut self, from: u64) {
        // The ROB is seq-sorted, so the squash set is a suffix.
        let cut = self.ctx.threads[MT].rob.partition_point(|&s| s < from);
        if cut == self.ctx.threads[MT].rob.len() {
            return;
        }
        // Roll back engine consumption to the youngest surviving branch's
        // checkpoint (or to head).
        if let Some(engine) = self.engine.as_mut() {
            let ckpt = self.ctx.threads[MT]
                .rob
                .range(..cut)
                .rev()
                .find_map(|&s| self.ctx.insts.get(s).and_then(|d| d.engine_ckpt.clone()))
                .unwrap_or_default();
            engine.restore(&ckpt);
        }
        // Also rewind predictor history to the oldest squashed branch's
        // checkpoint.
        if let Some(ckpt) = self.ctx.threads[MT]
            .rob
            .range(cut..)
            .find_map(|&s| self.ctx.insts.get(s).and_then(|d| d.bp_ckpt.clone()))
        {
            self.ctx.bpred.recover(&ckpt);
        }
        let n_squashed = self.ctx.threads[MT].rob.len() - cut;
        let mut recs: Vec<ExecRecord> = Vec::with_capacity(n_squashed);
        for i in cut..self.ctx.threads[MT].rob.len() {
            let s = self.ctx.threads[MT].rob[i];
            let r = self.ctx.insts.remove(s).expect("MT ROB seqs are live");
            self.ctx.release_resources(MT, &r);
            recs.push(r.di.rec);
        }
        self.ctx.threads[MT].rob.truncate(cut);
        self.ctx.threads[MT].truncate_tracked_from(from);
        self.ctx.threads[MT].frontend = 0;
        self.ctx.trace.push_replay_front(recs.into_iter());
        self.ctx.threads[MT].blocking_branch = None;
        self.ctx.threads[MT].fetch_stall_until = self.ctx.cycle + 1;
        #[cfg(feature = "debug-invariants")]
        {
            assert!(
                !self.ctx.insts.iter().any(|(s, d)| d.tid == MT && s >= from),
                "MT squash from {from} left a younger MT instruction in flight"
            );
            assert!(
                self.ctx.threads[MT].rmt.iter().flatten().all(|&s| s < from),
                "MT squash from {from} left a stale rename entry"
            );
        }
    }

    // ------------------------------------------------------------------
    // Trigger / terminate
    // ------------------------------------------------------------------

    pub(super) fn trigger_preexec(&mut self, active: ActiveThreads) {
        if self.ctx.preexec_active {
            return;
        }
        self.ctx.stats.triggers += 1;
        self.ctx.preexec_active = true;
        // Squash MT in-flight (paper §V-F step 1) and repartition.
        let from = self.ctx.threads[MT].rob.front().copied();
        if let Some(f) = from {
            self.squash_mt_from(f);
        }
        self.ctx.apply_partition(active);
        self.ctx.threads[MT].waiting_mt_release = true;
        self.ctx.mt_release_pending = true;
        // Reconfiguration squash penalty.
        self.ctx.threads[MT].fetch_stall_until =
            self.ctx.cycle + self.ctx.cfg.redirect_penalty() as u64;
        for tid in [HT_A, HT_B] {
            self.ctx.threads[tid].rmt = [None; NUM_REGS];
            self.ctx.threads[tid].pred_rmt = [None; 17];
            self.ctx.threads[tid].regs = [0; NUM_REGS];
        }
    }

    pub(super) fn terminate_preexec(&mut self) {
        if !self.ctx.preexec_active {
            return;
        }
        self.ctx.stats.terminations += 1;
        self.ctx.preexec_active = false;
        for tid in [HT_A, HT_B] {
            while let Some(&s) = self.ctx.threads[tid].rob.front() {
                self.ctx.threads[tid].rob.pop_front();
                if let Some(r) = self.ctx.insts.remove(s) {
                    self.ctx.release_resources(tid, &r);
                }
            }
            let t = &mut self.ctx.threads[tid];
            t.tombstones = 0;
            t.done.clear();
            t.loads.clear();
            t.stores.clear();
            t.frontend = 0;
        }
        self.ctx.store_cache.clear();
        self.ctx.apply_partition(if self.ctx.partition_only {
            ActiveThreads::MainPartitioned
        } else {
            ActiveThreads::MainOnly
        });
        self.ctx.threads[MT].waiting_mt_release = false;
        self.ctx.mt_release_pending = false;
        // Reconfiguration squash penalty.
        self.ctx.threads[MT].fetch_stall_until =
            self.ctx.cycle + self.ctx.cfg.redirect_penalty() as u64;
        if let Some(engine) = self.engine.as_mut() {
            engine.on_terminated();
        }
        // Prediction-source state is gone; MT continues with the default
        // predictor.
        #[cfg(feature = "debug-invariants")]
        for tid in [HT_A, HT_B] {
            let t = &self.ctx.threads[tid];
            assert!(
                t.rob.is_empty() && t.lq_used == 0 && t.sq_used == 0 && t.prf_used == 0,
                "terminate left side thread {tid} holding resources"
            );
            // Removing every side instruction must have repaired both
            // rename maps; a surviving entry would alias the *next*
            // trigger's producers onto this epoch's squashed ones.
            assert!(
                t.rmt.iter().all(Option::is_none) && t.pred_rmt.iter().all(Option::is_none),
                "terminate left side thread {tid} with stale rename/predicate-rename entries"
            );
        }
    }
}

impl SimContext {
    /// Squashes side-thread instructions with seq >= `from`. Only ever
    /// requested by the engine itself (inner-thread visit boundaries), so
    /// the engine has already adjusted its sequencer — no notification.
    pub(super) fn squash_side_from(&mut self, tid: usize, from: u64) {
        let cut = self.threads[tid].rob.partition_point(|&s| s < from);
        for i in cut..self.threads[tid].rob.len() {
            let s = self.threads[tid].rob[i];
            match self.insts.remove(s) {
                Some(r) => self.release_resources(tid, &r),
                None => self.threads[tid].tombstones -= 1,
            }
        }
        self.threads[tid].rob.truncate(cut);
        self.threads[tid].truncate_tracked_from(from);
        let remaining_frontend = self.threads[tid]
            .rob
            .iter()
            .filter(|&&s| matches!(self.insts.stage(s), Some(Stage::Frontend)))
            .count();
        self.threads[tid].frontend = remaining_frontend;
    }
}

//! TAGE-SC-L composite predictor.
//!
//! Combines [`Tage`], a [`LoopPredictor`], and a lightweight statistical
//! corrector. Arbitration follows the family's spirit:
//!
//! 1. a confident loop-predictor entry overrides everything;
//! 2. otherwise the statistical corrector may flip a low-confidence TAGE
//!    prediction when its own history-indexed counters vote strongly the
//!    other way;
//! 3. otherwise TAGE provides the prediction.

use super::{Counter, DirectionPredictor, HistoryCheckpoint, LoopPredictor, Tage, TageConfig};

/// Number of statistical-corrector tables.
const SC_TABLES: usize = 3;
/// History lengths of the corrector tables.
const SC_HIST: [u32; SC_TABLES] = [0, 8, 24];
/// log2 entries per corrector table.
const SC_BITS: u32 = 11;

/// The 64KB-class default predictor of the simulated core.
///
/// # Examples
///
/// ```
/// use phelps_uarch::bpred::{DirectionPredictor, TageScL};
///
/// let mut p = TageScL::large();
/// for _ in 0..200 {
///     let pred = p.predict(0x1000);
///     p.speculate(0x1000, true);
///     p.update(0x1000, true, pred);
/// }
/// assert!(p.predict(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct TageScL {
    tage: Tage,
    loop_pred: LoopPredictor,
    sc: Vec<Vec<Counter<5>>>,
    /// Retired history mirror for SC indexing (kept alongside TAGE's).
    sc_ret_hist: u64,
    sc_spec_hist: u64,
    use_sc: Counter<5>,
}

impl TageScL {
    /// Full-size configuration (the paper's 64KB-class predictor).
    pub fn large() -> TageScL {
        TageScL::with_config(TageConfig::large(), 256)
    }

    /// Small configuration for fast tests.
    pub fn small() -> TageScL {
        TageScL::with_config(TageConfig::small(), 64)
    }

    /// Builds a composite from an explicit TAGE geometry and loop-table size.
    pub fn with_config(cfg: TageConfig, loop_entries: usize) -> TageScL {
        TageScL {
            tage: Tage::new(cfg),
            loop_pred: LoopPredictor::new(loop_entries),
            sc: vec![vec![Counter::weakly_not_taken(); 1 << SC_BITS]; SC_TABLES],
            sc_ret_hist: 0,
            sc_spec_hist: 0,
            use_sc: Counter::weakly_taken(),
        }
    }

    fn sc_index(pc: u64, hist: u64, table: usize) -> usize {
        let hl = SC_HIST[table];
        let h = if hl == 0 {
            0
        } else {
            hist & ((1u64 << hl) - 1)
        };
        let mixed = (pc >> 2) ^ h ^ (h >> 7) ^ ((table as u64) << 5);
        (mixed & ((1 << SC_BITS) - 1)) as usize
    }

    fn sc_sum(&self, pc: u64, hist: u64) -> i32 {
        (0..SC_TABLES)
            .map(|t| self.sc[t][TageScL::sc_index(pc, hist, t)].value() as i32)
            .sum()
    }
}

impl DirectionPredictor for TageScL {
    fn predict(&mut self, pc: u64) -> bool {
        if let Some(p) = self.loop_pred.predict(pc) {
            return p;
        }
        let tage_pred = self.tage.predict(pc);
        if self.use_sc.taken() && !self.tage.confident(pc) {
            let sum = self.sc_sum(pc, self.sc_spec_hist);
            // Only flip on a strong corrector vote.
            if sum.abs() >= 8 {
                return sum >= 0;
            }
        }
        tage_pred
    }

    fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        self.loop_pred.update(pc, taken);
        // Judge the SC on whether flipping would have helped, using the
        // retired history (matches the fetch-time index; see Tage docs).
        let sum = self.sc_sum(pc, self.sc_ret_hist);
        let sc_dir = sum >= 0;
        let tage_dir = self.tage.predict_with_retired(pc);
        if sc_dir != tage_dir && sum.abs() >= 8 {
            self.use_sc.update(sc_dir == taken);
        }
        for t in 0..SC_TABLES {
            let idx = TageScL::sc_index(pc, self.sc_ret_hist, t);
            self.sc[t][idx].update(taken);
        }
        self.sc_ret_hist = (self.sc_ret_hist << 1) | taken as u64;
        self.tage.update(pc, taken, predicted);
    }

    fn speculate(&mut self, pc: u64, taken: bool) {
        self.sc_spec_hist = (self.sc_spec_hist << 1) | taken as u64;
        self.loop_pred.speculate(pc, taken);
        self.tage.speculate(pc, taken);
    }

    fn checkpoint(&self) -> HistoryCheckpoint {
        self.tage.checkpoint()
    }

    fn recover(&mut self, ckpt: &HistoryCheckpoint) {
        self.tage.recover(ckpt);
        // The SC's short spec history and the loop predictor's speculative
        // counts are approximate after recovery; re-sync them from the
        // retired state (bounded staleness, self-corrects).
        self.sc_spec_hist = self.sc_ret_hist;
        self.loop_pred.resync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut TageScL, pc: u64, outcomes: impl Iterator<Item = bool>) -> (usize, usize) {
        let mut correct = 0;
        let mut total = 0;
        for actual in outcomes {
            let pred = p.predict(pc);
            p.speculate(pc, actual);
            total += 1;
            if pred == actual {
                correct += 1;
            }
            p.update(pc, actual, pred);
        }
        (correct, total)
    }

    #[test]
    fn biased_branch_near_perfect() {
        let mut p = TageScL::small();
        let (c, t) = drive(&mut p, 0x40, (0..1000).map(|_| true));
        assert!(c as f64 / t as f64 > 0.97, "{c}/{t}");
    }

    #[test]
    fn stable_loop_trip_count_predicted_by_loop_component() {
        let mut p = TageScL::small();
        // 23-iteration loop: beyond the small TAGE histories, the loop
        // predictor carries it.
        let outcomes = (0..40).flat_map(|_| (0..23).map(|i| i < 22));
        let (c, t) = drive(&mut p, 0x80, outcomes);
        assert!(c as f64 / t as f64 > 0.95, "{c}/{t}");
    }

    #[test]
    fn random_branch_stays_delinquent() {
        let mut p = TageScL::small();
        let mut x = 7u64;
        let outcomes = (0..6000).map(move |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 40) & 1 == 1
        });
        let (c, t) = drive(&mut p, 0xc0, outcomes);
        let acc = c as f64 / t as f64;
        assert!(acc < 0.65, "random branch near chance: {acc}");
    }

    #[test]
    fn recover_is_safe_and_deterministic() {
        let mut p = TageScL::small();
        for i in 0..200 {
            let o = i % 3 == 0;
            let pred = p.predict(0x10);
            p.speculate(0x10, o);
            p.update(0x10, o, pred);
        }
        let ckpt = p.checkpoint();
        p.speculate(0x10, true);
        p.speculate(0x10, true);
        p.recover(&ckpt);
        // No panic and predictions still functional.
        let _ = p.predict(0x10);
    }
}

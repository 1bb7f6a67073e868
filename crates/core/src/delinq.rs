//! Delinquency tracking: DBT, DBT-Max, and the Loop Table (paper §V-B, Fig. 6).
//!
//! The **Delinquent Branch Table (DBT)** records, per mispredicting
//! conditional branch PC, a misprediction count and the bounds of the
//! tightest (inner) and next-tightest (outer) loops observed to enclose it.
//! Loop bounds are trained from the most recently retired backward
//! conditional branch.
//!
//! **DBT-Max** incrementally ranks the most delinquent branches so the
//! epoch-end pass doesn't scan the whole DBT.
//!
//! The **Loop Table (LT)** is populated at the end of each epoch: every
//! DBT-Max branch clearing the delinquency threshold (0.5 MPKI of the
//! epoch) contributes its count and itself to its *outermost* loop's entry,
//! recording nested inner-loop bounds when present.

use std::collections::HashMap;

/// PC bounds of a loop, identified by its backward branch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LoopBounds {
    /// PC of the loop's backward branch.
    pub branch_pc: u64,
    /// Branch target (the top of the loop).
    pub target_pc: u64,
}

impl LoopBounds {
    /// Whether `pc` lies inside the loop body (inclusive of the branch).
    pub fn contains(&self, pc: u64) -> bool {
        self.target_pc <= pc && pc <= self.branch_pc
    }

    /// Loop extent in bytes — smaller is tighter.
    pub fn tightness(&self) -> u64 {
        self.branch_pc - self.target_pc
    }
}

/// One DBT entry.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbtEntry {
    /// Mispredictions this epoch.
    pub misp: u64,
    /// Tightest enclosing loop seen.
    pub inner: Option<LoopBounds>,
    /// Next-tightest enclosing loop seen.
    pub outer: Option<LoopBounds>,
}

/// The Delinquent Branch Table plus DBT-Max ranking.
///
/// # Examples
///
/// ```
/// use phelps::delinq::Dbt;
///
/// let mut dbt = Dbt::new(256, 32);
/// // A backward branch at 0x11bfc targeting 0x11b80 closes the inner loop.
/// dbt.on_backward_branch(0x11bfc, 0x11b80);
/// dbt.on_cond_branch_retire(0x11b98, true);
/// assert_eq!(dbt.entry(0x11b98).unwrap().misp, 1);
/// assert_eq!(dbt.entry(0x11b98).unwrap().inner.unwrap().branch_pc, 0x11bfc);
/// ```
#[derive(Clone, Debug)]
pub struct Dbt {
    entries: HashMap<u64, DbtEntry>,
    capacity: usize,
    max: Vec<(u64, u64)>, // (pc, misp), the DBT-Max ranking
    max_capacity: usize,
    last_backward: Option<LoopBounds>,
    /// Evictions this epoch (the gcc effect: too many static branches).
    pub evictions: u64,
}

impl Dbt {
    /// Creates a DBT with `capacity` entries and a `max_capacity`-entry
    /// DBT-Max (the paper uses 256 and 32).
    pub fn new(capacity: usize, max_capacity: usize) -> Dbt {
        Dbt {
            entries: HashMap::new(),
            capacity,
            max: Vec::new(),
            max_capacity,
            last_backward: None,
            evictions: 0,
        }
    }

    /// The entry for `pc`, if resident.
    pub fn entry(&self, pc: u64) -> Option<&DbtEntry> {
        self.entries.get(&pc)
    }

    /// Current DBT-Max ranking, most delinquent first.
    pub fn ranking(&self) -> Vec<(u64, u64)> {
        let mut v = self.max.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The retirement unit observed a backward conditional branch (a loop
    /// branch): remember it for loop-bounds training.
    pub fn on_backward_branch(&mut self, branch_pc: u64, target_pc: u64) {
        debug_assert!(target_pc < branch_pc, "backward branch");
        self.last_backward = Some(LoopBounds {
            branch_pc,
            target_pc,
        });
    }

    /// A conditional branch retired. `mispredicted` is whether the default
    /// predictor was wrong, whatever the main thread consumed at fetch
    /// (the engines pass [`PreExecEngine::on_mt_retire`]'s `default_wrong`).
    ///
    /// [`PreExecEngine::on_mt_retire`]: crate::sim::PreExecEngine::on_mt_retire
    pub fn on_cond_branch_retire(&mut self, pc: u64, mispredicted: bool) {
        if mispredicted {
            if !self.entries.contains_key(&pc) && self.entries.len() >= self.capacity {
                // Fully-associative table is full: evict the coldest entry,
                // the lowest PC among equals, so the victim never depends
                // on the map's iteration order.
                let coldest = self.entries.iter().min_by_key(|&(&pc, e)| (e.misp, pc));
                if let Some((&victim, _)) = coldest {
                    self.entries.remove(&victim);
                    self.max.retain(|(p, _)| *p != victim);
                    self.evictions += 1;
                }
            }
            let e = self.entries.entry(pc).or_default();
            e.misp += 1;
            let misp = e.misp;
            self.update_max(pc, misp);
        }
        // Loop-bounds training applies to resident entries regardless of
        // this instance's prediction outcome.
        if let Some(bw) = self.last_backward {
            if bw.contains(pc) {
                if let Some(e) = self.entries.get_mut(&pc) {
                    Dbt::train_loops(e, bw);
                }
            }
        }
    }

    /// Keeps the two tightest enclosing loops, sorted inner (tightest)
    /// then outer.
    fn train_loops(e: &mut DbtEntry, bw: LoopBounds) {
        match (e.inner, e.outer) {
            (None, _) => e.inner = Some(bw),
            (Some(inner), _) if inner == bw => {}
            (Some(inner), None) => {
                if bw.tightness() < inner.tightness() {
                    e.outer = Some(inner);
                    e.inner = Some(bw);
                } else {
                    e.outer = Some(bw);
                }
            }
            (Some(inner), Some(outer)) => {
                if outer == bw {
                    return;
                }
                if bw.tightness() < inner.tightness() {
                    e.outer = Some(inner);
                    e.inner = Some(bw);
                } else if bw.tightness() < outer.tightness() {
                    e.outer = Some(bw);
                }
            }
        }
    }

    fn update_max(&mut self, pc: u64, misp: u64) {
        if let Some(slot) = self.max.iter_mut().find(|(p, _)| *p == pc) {
            slot.1 = misp;
            return;
        }
        if self.max.len() < self.max_capacity {
            self.max.push((pc, misp));
            return;
        }
        if let Some(min_idx) = (0..self.max.len()).min_by_key(|&i| self.max[i].1) {
            if self.max[min_idx].1 < misp {
                self.max[min_idx] = (pc, misp);
            }
        }
    }

    /// Clears counters for the next epoch (loop bounds persist with the
    /// entries they trained, matching the paper's counter-only reset).
    pub fn reset_epoch(&mut self) {
        for e in self.entries.values_mut() {
            e.misp = 0;
        }
        self.max.clear();
        self.evictions = 0;
    }
}

/// One Loop Table entry: an outermost loop and its delinquent branches.
#[derive(Clone, Debug)]
pub struct LtEntry {
    /// The outermost loop.
    pub bounds: LoopBounds,
    /// Nested inner loop, when any contributing branch reported one.
    pub inner: Option<LoopBounds>,
    /// PCs of the delinquent branches inside.
    pub branches: Vec<u64>,
    /// Aggregate misprediction count.
    pub misp: u64,
}

/// Builds the Loop Table from the epoch's DBT (paper's end-of-epoch pass).
///
/// `threshold` is the per-branch delinquency cut (0.5 MPKI of the epoch);
/// `capacity` bounds the number of LT entries (the paper uses 8).
pub fn build_loop_table(dbt: &Dbt, threshold: u64, capacity: usize) -> Vec<LtEntry> {
    let mut table: Vec<LtEntry> = Vec::new();
    for (pc, misp) in dbt.ranking() {
        if misp < threshold {
            continue;
        }
        let Some(e) = dbt.entry(pc) else { continue };
        let Some(inner) = e.inner else { continue };
        // Outermost loop: outer when present, else the inner loop itself.
        let (outermost, nested_inner) = match e.outer {
            Some(outer) => (outer, Some(inner)),
            None => (inner, None),
        };
        if let Some(slot) = table.iter_mut().find(|s| s.bounds == outermost) {
            slot.misp += misp;
            if !slot.branches.contains(&pc) {
                slot.branches.push(pc);
            }
            if slot.inner.is_none() {
                slot.inner = nested_inner;
            }
        } else if table.len() < capacity {
            table.push(LtEntry {
                bounds: outermost,
                inner: nested_inner,
                branches: vec![pc],
                misp,
            });
        }
    }
    table.sort_by_key(|e| std::cmp::Reverse(e.misp));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const INNER: LoopBounds = LoopBounds {
        branch_pc: 0x11bfc,
        target_pc: 0x11b80,
    };
    const OUTER: LoopBounds = LoopBounds {
        branch_pc: 0x11c0c,
        target_pc: 0x11b60,
    };

    /// Drives the DBT with branches in a nested loop, mimicking Fig. 6.
    fn drive_fig6(dbt: &mut Dbt, iters: usize) {
        for _ in 0..iters {
            // Inner loop: branch 0x11b98 and 0x11be0 mispredict inside it.
            dbt.on_backward_branch(INNER.branch_pc, INNER.target_pc);
            dbt.on_cond_branch_retire(0x11b98, true);
            dbt.on_cond_branch_retire(0x11be0, true);
            dbt.on_cond_branch_retire(0x11be0, true);
            // Outer loop closes.
            dbt.on_backward_branch(OUTER.branch_pc, OUTER.target_pc);
            dbt.on_cond_branch_retire(0x11b98, false);
            dbt.on_cond_branch_retire(0x11be0, false);
        }
    }

    #[test]
    fn fig6_dbt_contents() {
        let mut dbt = Dbt::new(256, 32);
        drive_fig6(&mut dbt, 100);
        let e = dbt.entry(0x11b98).unwrap();
        assert_eq!(e.misp, 100);
        assert_eq!(e.inner, Some(INNER));
        assert_eq!(e.outer, Some(OUTER));
        let e = dbt.entry(0x11be0).unwrap();
        assert_eq!(e.misp, 200);
        assert_eq!(e.inner, Some(INNER));
        assert_eq!(e.outer, Some(OUTER));
    }

    #[test]
    fn fig6_ranking_order() {
        let mut dbt = Dbt::new(256, 32);
        drive_fig6(&mut dbt, 50);
        let rank = dbt.ranking();
        assert_eq!(rank[0].0, 0x11be0, "most delinquent first");
        assert_eq!(rank[1].0, 0x11b98);
    }

    #[test]
    fn fig6_loop_table_consolidates() {
        let mut dbt = Dbt::new(256, 32);
        drive_fig6(&mut dbt, 100);
        let lt = build_loop_table(&dbt, 50, 8);
        assert_eq!(lt.len(), 1, "one outermost loop");
        let e = &lt[0];
        assert_eq!(e.bounds, OUTER);
        assert_eq!(e.inner, Some(INNER));
        assert_eq!(e.misp, 300);
        assert!(e.branches.contains(&0x11b98) && e.branches.contains(&0x11be0));
    }

    #[test]
    fn threshold_filters_cold_branches() {
        let mut dbt = Dbt::new(256, 32);
        drive_fig6(&mut dbt, 10); // 0x11b98: 10 misp, 0x11be0: 20 misp
        let lt = build_loop_table(&dbt, 15, 8);
        assert_eq!(lt.len(), 1);
        assert_eq!(lt[0].branches, vec![0x11be0]);
    }

    #[test]
    fn non_nested_loop_has_no_inner() {
        let mut dbt = Dbt::new(256, 32);
        let only = LoopBounds {
            branch_pc: 0x200,
            target_pc: 0x100,
        };
        for _ in 0..30 {
            dbt.on_backward_branch(only.branch_pc, only.target_pc);
            dbt.on_cond_branch_retire(0x180, true);
        }
        let lt = build_loop_table(&dbt, 10, 8);
        assert_eq!(lt[0].bounds, only);
        assert_eq!(lt[0].inner, None);
    }

    #[test]
    fn branch_outside_loop_gets_no_bounds() {
        let mut dbt = Dbt::new(256, 32);
        dbt.on_backward_branch(0x200, 0x100);
        // 0x900 is outside the backward branch's bounds.
        for _ in 0..20 {
            dbt.on_cond_branch_retire(0x900, true);
        }
        let e = dbt.entry(0x900).unwrap();
        assert_eq!(e.inner, None);
        // And it contributes nothing to the LT (paper's "del. but not in
        // loop" bin).
        let lt = build_loop_table(&dbt, 10, 8);
        assert!(lt.is_empty());
    }

    #[test]
    fn capacity_evicts_coldest() {
        let mut dbt = Dbt::new(4, 4);
        for i in 0..4u64 {
            for _ in 0..(i + 2) {
                dbt.on_cond_branch_retire(i * 4, true);
            }
        }
        // Insert a fifth branch: evicts the coldest (pc 0).
        dbt.on_cond_branch_retire(0x100, true);
        assert!(dbt.entry(0).is_none());
        assert!(dbt.entry(0x100).is_some());
        assert_eq!(dbt.evictions, 1);
    }

    #[test]
    fn eviction_ties_go_to_the_lowest_pc() {
        let mut dbt = Dbt::new(64, 4);
        // Insert in a scrambled order so neither insertion order nor the
        // map's layout lines up with PC order.
        for i in 0..64u64 {
            dbt.on_cond_branch_retire(0x1000 + 4 * ((i * 37) % 64), true);
        }
        dbt.on_cond_branch_retire(0x9000, true);
        assert!(dbt.entry(0x1000).is_none(), "lowest of 64 one-count PCs");
        assert!(dbt.entry(0x1004).is_some() && dbt.entry(0x9000).is_some());
        // After an epoch reset every count is 0: the tie again goes to the
        // lowest resident PC.
        dbt.reset_epoch();
        dbt.on_cond_branch_retire(0xa000, true);
        assert!(dbt.entry(0x1004).is_none());
        assert!(dbt.entry(0x1008).is_some() && dbt.entry(0xa000).is_some());
        assert_eq!(dbt.evictions, 1, "the reset cleared the first");
    }

    #[test]
    fn reset_epoch_clears_counters_and_ranking() {
        let mut dbt = Dbt::new(256, 32);
        drive_fig6(&mut dbt, 10);
        dbt.reset_epoch();
        assert_eq!(dbt.entry(0x11b98).unwrap().misp, 0);
        assert!(dbt.ranking().is_empty());
        // Loop bounds persist.
        assert_eq!(dbt.entry(0x11b98).unwrap().inner, Some(INNER));
    }

    #[test]
    fn loops_sorted_inner_then_outer_regardless_of_observation_order() {
        let mut dbt = Dbt::new(256, 32);
        // Observe the OUTER loop first, then the tighter INNER loop.
        dbt.on_backward_branch(OUTER.branch_pc, OUTER.target_pc);
        dbt.on_cond_branch_retire(0x11b98, true);
        dbt.on_backward_branch(INNER.branch_pc, INNER.target_pc);
        dbt.on_cond_branch_retire(0x11b98, true);
        let e = dbt.entry(0x11b98).unwrap();
        assert_eq!(e.inner, Some(INNER));
        assert_eq!(e.outer, Some(OUTER));
    }

    #[test]
    fn third_looser_loop_is_ignored() {
        let mut dbt = Dbt::new(256, 32);
        let huge = LoopBounds {
            branch_pc: 0x11f00,
            target_pc: 0x11000,
        };
        dbt.on_backward_branch(INNER.branch_pc, INNER.target_pc);
        dbt.on_cond_branch_retire(0x11b98, true);
        dbt.on_backward_branch(OUTER.branch_pc, OUTER.target_pc);
        dbt.on_cond_branch_retire(0x11b98, true);
        dbt.on_backward_branch(huge.branch_pc, huge.target_pc);
        dbt.on_cond_branch_retire(0x11b98, true);
        let e = dbt.entry(0x11b98).unwrap();
        assert_eq!(e.inner, Some(INNER), "two tightest kept");
        assert_eq!(e.outer, Some(OUTER));
    }

    #[test]
    fn lt_capacity_bounded() {
        let mut dbt = Dbt::new(256, 32);
        for l in 0..12u64 {
            let bounds = LoopBounds {
                branch_pc: 0x1000 * (l + 1) + 0x100,
                target_pc: 0x1000 * (l + 1),
            };
            for _ in 0..20 {
                dbt.on_backward_branch(bounds.branch_pc, bounds.target_pc);
                dbt.on_cond_branch_retire(bounds.target_pc + 8, true);
            }
        }
        let lt = build_loop_table(&dbt, 5, 8);
        assert!(lt.len() <= 8);
    }
}

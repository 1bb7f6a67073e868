//! Set-associative cache model with MSHRs.
//!
//! [`Cache`] models tags only (data values live in the simulator's memory
//! images): LRU replacement, fill/evict bookkeeping, and a bounded set of
//! miss-status holding registers that merge concurrent misses to the same
//! block and bound memory-level parallelism.

use crate::config::CacheConfig;
use crate::mem::AccessLevel;

/// Result of probing one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// Block present; access completes at this level's latency.
    Hit {
        /// Whether the block was brought in by a prefetch and this is the
        /// first demand touch.
        first_prefetch_hit: bool,
    },
    /// Block absent; the access must go to the next level.
    Miss,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU stamp: larger is more recent.
    lru: u64,
    /// Filled by prefetch and not yet demand-touched.
    prefetched: bool,
}

impl Line {
    fn invalid() -> Line {
        Line {
            tag: 0,
            valid: false,
            lru: 0,
            prefetched: false,
        }
    }
}

/// An outstanding miss tracked by an MSHR.
#[derive(Clone, Copy, Debug)]
struct Mshr {
    block: u64,
    /// Cycle at which the fill completes and the MSHR frees.
    done_cycle: u64,
    /// Deepest level the in-flight fill travels to; merged accesses report
    /// this level rather than guessing.
    level: AccessLevel,
}

/// One cache level.
///
/// # Examples
///
/// ```
/// use phelps_uarch::config::CacheConfig;
/// use phelps_uarch::mem::{Cache, Probe};
///
/// let cfg = CacheConfig { size_bytes: 1024, ways: 2, block_bytes: 64, latency: 3, mshrs: 4, ports: 0 };
/// let mut c = Cache::new(cfg);
/// assert_eq!(c.probe(0x40), Probe::Miss);
/// c.fill(0x40, false);
/// assert!(matches!(c.probe(0x40), Probe::Hit { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    mshrs: Vec<Mshr>,
    stamp: u64,
    /// Demand (load) accesses observed.
    pub accesses: u64,
    /// Demand (load) misses observed.
    pub misses: u64,
    /// Retired-store accesses observed (write-buffer refill traffic);
    /// separate from `accesses` so load-MPKI is not inflated by stores.
    pub store_accesses: u64,
    /// Retired-store misses observed; separate from `misses`.
    pub store_misses: u64,
    /// Demand hits on prefetched blocks (first touch).
    pub prefetch_hits: u64,
    /// Fills performed.
    pub fills: u64,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry implies zero sets or a non-power-of-two set
    /// count.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets: vec![vec![Line::invalid(); cfg.ways as usize]; sets as usize],
            mshrs: Vec::new(),
            stamp: 0,
            accesses: 0,
            misses: 0,
            store_accesses: 0,
            store_misses: 0,
            prefetch_hits: 0,
            fills: 0,
            cfg,
        }
    }

    /// This level's hit latency.
    pub fn latency(&self) -> u32 {
        self.cfg.latency
    }

    /// The configured block size.
    pub fn block_bytes(&self) -> u64 {
        self.cfg.block_bytes
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr / self.cfg.block_bytes
    }

    fn set_of(&self, block: u64) -> usize {
        (block & (self.sets.len() as u64 - 1)) as usize
    }

    /// Probes for a demand (load) access; counts statistics and updates
    /// recency on a hit. Does **not** fill — the hierarchy calls
    /// [`Cache::fill`] when the miss returns.
    pub fn probe(&mut self, addr: u64) -> Probe {
        self.probe_kind(addr, false)
    }

    /// Probes for a retired store. Identical tag-array behavior (recency
    /// update, prefetched-flag clearing) to [`Cache::probe`], but counts
    /// into `store_accesses`/`store_misses` so store refill traffic does
    /// not inflate the demand counters that feed load-MPKI.
    pub fn probe_store(&mut self, addr: u64) -> Probe {
        self.probe_kind(addr, true)
    }

    fn probe_kind(&mut self, addr: u64, store: bool) -> Probe {
        if store {
            self.store_accesses += 1;
        } else {
            self.accesses += 1;
        }
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.stamp += 1;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == block {
                line.lru = self.stamp;
                let first = line.prefetched;
                if first {
                    self.prefetch_hits += 1;
                    line.prefetched = false;
                }
                return Probe::Hit {
                    first_prefetch_hit: first,
                };
            }
        }
        if store {
            self.store_misses += 1;
        } else {
            self.misses += 1;
        }
        Probe::Miss
    }

    /// Functional-warming touch: behaves like a demand probe for the tag
    /// array (recency refresh on hit) but perturbs **no** statistics and
    /// leaves the `prefetched` flag alone, so a warmed cache starts a
    /// measured region with realistic contents and zeroed counters.
    /// Returns whether the block was present.
    pub fn warm_touch(&mut self, addr: u64) -> bool {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.stamp += 1;
        for line in &mut self.sets[set] {
            if line.valid && line.tag == block {
                line.lru = self.stamp;
                return true;
            }
        }
        false
    }

    /// Functional-warming fill: inserts the block (evicting LRU) exactly
    /// like [`Cache::fill`] but without counting into `fills`.
    pub fn warm_insert(&mut self, addr: u64) {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.stamp += 1;
        if let Some(line) = self.sets[set]
            .iter_mut()
            .find(|l| l.valid && l.tag == block)
        {
            line.lru = self.stamp;
            return;
        }
        let victim = self.sets[set]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways >= 1");
        *victim = Line {
            tag: block,
            valid: true,
            lru: self.stamp,
            prefetched: false,
        };
    }

    /// Probes without counting or recency update (used by prefetchers to
    /// filter redundant prefetches).
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.sets[set].iter().any(|l| l.valid && l.tag == block)
    }

    /// Fills the block containing `addr`, evicting LRU if needed.
    /// `prefetched` marks prefetch fills for usefulness accounting.
    pub fn fill(&mut self, addr: u64, prefetched: bool) {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        self.stamp += 1;
        self.fills += 1;
        // Already present (e.g. merged fill): refresh.
        if let Some(line) = self.sets[set]
            .iter_mut()
            .find(|l| l.valid && l.tag == block)
        {
            line.lru = self.stamp;
            return;
        }
        let victim = self.sets[set]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways >= 1");
        *victim = Line {
            tag: block,
            valid: true,
            lru: self.stamp,
            prefetched,
        };
    }

    /// Tries to allocate (or merge into) an MSHR for a miss on `addr` whose
    /// fill completes at `done_cycle` from `level`. Returns `false` when
    /// all MSHRs are busy — the access must retry later, modeling bounded
    /// MLP.
    pub fn mshr_allocate(
        &mut self,
        addr: u64,
        now: u64,
        done_cycle: u64,
        level: AccessLevel,
    ) -> bool {
        self.mshrs.retain(|m| m.done_cycle > now);
        let block = self.block_of(addr);
        if self.mshrs.iter().any(|m| m.block == block) {
            return true; // merged
        }
        if self.mshrs.len() >= self.cfg.mshrs as usize {
            return false;
        }
        self.mshrs.push(Mshr {
            block,
            done_cycle,
            level,
        });
        #[cfg(feature = "debug-invariants")]
        assert!(
            self.mshrs.len() <= self.cfg.mshrs as usize,
            "MSHR invariant: {} in flight exceeds configured {}",
            self.mshrs.len(),
            self.cfg.mshrs
        );
        true
    }

    /// If a miss to `addr`'s block is already outstanding, the cycle its
    /// fill completes and the level it is being served from (for merging
    /// loads onto an in-flight miss).
    pub fn mshr_pending(&mut self, addr: u64, now: u64) -> Option<(u64, AccessLevel)> {
        self.mshrs.retain(|m| m.done_cycle > now);
        let block = self.block_of(addr);
        self.mshrs
            .iter()
            .find(|m| m.block == block)
            .map(|m| (m.done_cycle, m.level))
    }

    /// Number of MSHRs currently in use.
    pub fn mshrs_in_use(&mut self, now: u64) -> usize {
        self.mshrs.retain(|m| m.done_cycle > now);
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            block_bytes: 64,
            latency: 3,
            mshrs: 2,
            ports: 0,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.probe(0x100), Probe::Miss);
        c.fill(0x100, false);
        assert!(matches!(c.probe(0x100), Probe::Hit { .. }));
        assert_eq!(c.accesses, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn same_block_different_offset_hits() {
        let mut c = small();
        c.fill(0x100, false);
        assert!(matches!(c.probe(0x13f), Probe::Hit { .. }));
        assert_eq!(c.probe(0x140), Probe::Miss, "next block misses");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(); // 4 sets, 2 ways
                             // Three blocks mapping to the same set (stride = sets * block = 256).
        c.fill(0x000, false);
        c.fill(0x100, false);
        let _ = c.probe(0x000); // make 0x000 most recent
        c.fill(0x200, false); // evicts 0x100
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn a_hit_never_evicts() {
        let mut c = small();
        c.fill(0x000, false);
        c.fill(0x100, false);
        for _ in 0..10 {
            let _ = c.probe(0x000);
            let _ = c.probe(0x100);
        }
        assert!(c.contains(0x000) && c.contains(0x100));
    }

    #[test]
    fn prefetch_hit_counted_once() {
        let mut c = small();
        c.fill(0x300, true);
        assert_eq!(
            c.probe(0x300),
            Probe::Hit {
                first_prefetch_hit: true
            }
        );
        assert_eq!(
            c.probe(0x300),
            Probe::Hit {
                first_prefetch_hit: false
            }
        );
        assert_eq!(c.prefetch_hits, 1);
    }

    #[test]
    fn mshrs_bound_outstanding_misses() {
        let mut c = small(); // 2 MSHRs
        assert!(c.mshr_allocate(0x000, 0, 100, AccessLevel::L2));
        assert!(c.mshr_allocate(0x040, 0, 100, AccessLevel::L2));
        assert!(
            !c.mshr_allocate(0x080, 0, 100, AccessLevel::L2),
            "third miss blocked"
        );
        // Same-block miss merges without a new MSHR.
        assert!(c.mshr_allocate(0x001, 0, 100, AccessLevel::L2));
        // After fills complete, MSHRs free.
        assert!(c.mshr_allocate(0x080, 101, 200, AccessLevel::L2));
    }

    #[test]
    fn mshr_pending_reports_fill_time_and_level() {
        let mut c = small();
        assert!(c.mshr_allocate(0x40, 0, 77, AccessLevel::Dram));
        assert_eq!(c.mshr_pending(0x40, 1), Some((77, AccessLevel::Dram)));
        assert_eq!(c.mshr_pending(0x40, 78), None);
        assert_eq!(c.mshr_pending(0x80, 1), None);
    }

    #[test]
    fn store_probe_counts_separately_but_behaves_identically() {
        let mut c = small();
        assert_eq!(c.probe_store(0x100), Probe::Miss);
        c.fill(0x100, false);
        assert!(matches!(c.probe_store(0x100), Probe::Hit { .. }));
        assert_eq!((c.accesses, c.misses), (0, 0), "demand counters untouched");
        assert_eq!((c.store_accesses, c.store_misses), (2, 1));
        // A store touch still refreshes recency: 0x100 survives the next
        // same-set fill pair while the untouched block is evicted.
        c.fill(0x200, false);
        let _ = c.probe_store(0x100);
        c.fill(0x300, false); // evicts LRU = 0x200
        assert!(c.contains(0x100) && !c.contains(0x200));
    }

    #[test]
    fn warm_ops_leave_all_counters_at_zero() {
        let mut c = small();
        assert!(!c.warm_touch(0x100));
        c.warm_insert(0x100);
        assert!(c.warm_touch(0x100));
        assert!(c.contains(0x100));
        assert_eq!(
            (
                c.accesses,
                c.misses,
                c.store_accesses,
                c.store_misses,
                c.prefetch_hits,
                c.fills
            ),
            (0, 0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn warm_touch_refreshes_recency_like_a_demand_probe() {
        let mut c = small();
        c.fill(0x000, false);
        c.fill(0x100, false);
        assert!(c.warm_touch(0x000)); // 0x000 most recent
        c.warm_insert(0x200); // evicts LRU = 0x100
        assert!(c.contains(0x000) && !c.contains(0x100) && c.contains(0x200));
    }

    #[test]
    fn warm_touch_preserves_prefetched_flag() {
        // A warm touch must not consume the first-demand-touch credit.
        let mut c = small();
        c.fill(0x300, true);
        assert!(c.warm_touch(0x300));
        assert_eq!(c.prefetch_hits, 0);
        assert_eq!(
            c.probe(0x300),
            Probe::Hit {
                first_prefetch_hit: true
            }
        );
    }

    #[test]
    fn refill_of_present_block_does_not_duplicate() {
        let mut c = small();
        c.fill(0x100, false);
        c.fill(0x100, false);
        // Still exactly one copy: filling two more same-set blocks evicts
        // at most two distinct blocks.
        c.fill(0x200, false);
        c.fill(0x300, false);
        let present = [0x100u64, 0x200, 0x300]
            .iter()
            .filter(|&&a| c.contains(a))
            .count();
        assert_eq!(present, 2, "2-way set holds exactly two blocks");
    }
}

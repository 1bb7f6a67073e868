//! Property tests on the microarchitectural structures: cache containment
//! invariants, predictor history recovery, and partition arithmetic.

use phelps_uarch::bpred::{DirectionPredictor, TageScL};
use phelps_uarch::config::{CacheConfig, PartitionPlan};
use phelps_uarch::mem::{Cache, Probe};
use proptest::prelude::*;

fn small_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 2048,
        ways: 2,
        block_bytes: 64,
        latency: 3,
        mshrs: 4,
        ports: 0,
    })
}

proptest! {
    /// Cache contents are always a subset of the fill history, and a hit
    /// never evicts another resident block.
    #[test]
    fn cache_contents_subset_of_fills(addrs in prop::collection::vec(0u64..(1 << 16), 1..300)) {
        let mut c = small_cache();
        let mut filled = std::collections::HashSet::new();
        for a in &addrs {
            match c.probe(*a) {
                Probe::Hit { .. } => {
                    prop_assert!(filled.contains(&(a / 64)), "hit only on filled block");
                }
                Probe::Miss => {
                    c.fill(*a, false);
                    filled.insert(a / 64);
                }
            }
        }
        // Every resident block was filled at some point.
        for a in &addrs {
            if c.contains(*a) {
                prop_assert!(filled.contains(&(a / 64)));
            }
        }
    }

    /// Repeated accesses to a working set within one way-set worth of
    /// blocks always hit after the first touch (LRU never evicts the
    /// active set).
    #[test]
    fn small_working_set_never_thrashes(rounds in 2usize..12) {
        let mut c = small_cache(); // 16 sets x 2 ways
        // Two blocks in the same set (stride = sets * block).
        let a = 0u64;
        let b = 16 * 64;
        let _ = c.probe(a);
        c.fill(a, false);
        let _ = c.probe(b);
        c.fill(b, false);
        for _ in 0..rounds {
            let hit_a = matches!(c.probe(a), Probe::Hit { .. });
            let hit_b = matches!(c.probe(b), Probe::Hit { .. });
            prop_assert!(hit_a, "block a resident");
            prop_assert!(hit_b, "block b resident");
        }
    }

    /// Predictor speculative history: checkpoint/recover restores the
    /// exact prediction for any speculation suffix.
    #[test]
    fn predictor_recovery_is_exact(
        prefix in prop::collection::vec(any::<bool>(), 0..100),
        suffix in prop::collection::vec(any::<bool>(), 1..50),
    ) {
        let mut p = TageScL::small();
        for (i, t) in prefix.iter().enumerate() {
            p.speculate(0x40 + 4 * (i as u64 % 7), *t);
        }
        let ckpt = p.checkpoint();
        let before = p.predict(0x1234);
        for (i, t) in suffix.iter().enumerate() {
            p.speculate(0x80 + 4 * (i as u64 % 5), *t);
        }
        p.recover(&ckpt);
        prop_assert_eq!(p.predict(0x1234), before);
    }

    /// Partition shares sum to at most the full resource and never give a
    /// zero allocation for a non-zero share.
    #[test]
    fn partition_shares_are_sound(resource in 8u32..4096) {
        for plan in [PartitionPlan::MT_ITO, PartitionPlan::MT_OT_IT, PartitionPlan::MT_ONLY] {
            let total = plan.mt(resource) + plan.ot(resource) + plan.it(resource);
            prop_assert!(total <= resource + 2, "rounding never oversubscribes by much");
            if plan.ot_eighths > 0 {
                prop_assert!(plan.ot(resource) >= 1);
            }
        }
    }
}

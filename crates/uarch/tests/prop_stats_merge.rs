//! Merge-law property tests for [`SimStats::merge`].
//!
//! Checkpoint-sharded simulation folds per-shard stats through `merge`
//! in shard order and relies on the result being independent of how the
//! folds associate (worker count must never change the merged bytes).
//! That requires the merge to be associative and commutative with
//! `SimStats::default()` as identity — pinned here over the full `u64`
//! range, including values near `u64::MAX` so the saturating-sum path is
//! exercised.

use phelps_uarch::stats::SimStats;
use proptest::prelude::*;

/// Counter values spanning the interesting range: ordinary magnitudes
/// plus values close enough to `u64::MAX` that two or three of them
/// saturate when summed.
fn counter_value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000_000, (u64::MAX - 1_000)..=u64::MAX, any::<u64>(),]
}

fn stats() -> impl Strategy<Value = SimStats> {
    prop::collection::vec(counter_value(), SimStats::LEN..SimStats::LEN + 1).prop_map(|v| {
        let mut a = [0u64; SimStats::LEN];
        a.copy_from_slice(&v);
        SimStats::from_array(a)
    })
}

fn merged(a: &SimStats, b: &SimStats) -> SimStats {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    #[test]
    fn merge_is_per_field_saturating_sum(a in stats(), b in stats()) {
        let m = merged(&a, &b).to_array();
        let (fa, fb) = (a.to_array(), b.to_array());
        for i in 0..SimStats::LEN {
            prop_assert_eq!(m[i], fa[i].saturating_add(fb[i]), "field {}", i);
        }
    }

    #[test]
    fn array_conversion_roundtrips(a in stats()) {
        prop_assert_eq!(SimStats::from_array(a.to_array()), a);
    }

    #[test]
    fn default_is_identity(a in stats()) {
        prop_assert_eq!(merged(&a, &SimStats::default()), a.clone());
        prop_assert_eq!(merged(&SimStats::default(), &a), a);
    }

    #[test]
    fn merge_commutes(a in stats(), b in stats()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_associates(a in stats(), b in stats(), c in stats()) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }
}

//! A fixed host-speed probe.
//!
//! The benchmark shares its host with other machines' work, which slows
//! it by up to 2× for seconds to minutes at a time: in one noisy period,
//! the `monitor` workload's MIPS at one seed varied by 29% (IQR ÷
//! median) across five runs.
//! Each timed round is therefore bracketed by [`probe_ms`], a fixed
//! workload of standard-library collections (B-tree and hash-map inserts
//! and lookups, a sort, string formatting) that shares none of the
//! simulator's code, so no change to the simulator moves it. Host times
//! are scaled to the speed at which the probe takes [`REFERENCE_MS`]:
//! across those five runs the scaled MIPS varied by 7.5%.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The probe's time on a quiet host (a 2-vCPU cloud VM), in ms.
pub const REFERENCE_MS: f64 = 6.2;

/// Runs the probe once; returns its host time in milliseconds.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234_5678_9abc_def1u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut tree = BTreeMap::new();
    // A fixed hasher, so every run does the same work.
    let mut map: HashMap<u64, u64, BuildHasherDefault<std::hash::DefaultHasher>> =
        HashMap::default();
    for _ in 0..20_000 {
        let k = next() % 1_000_000;
        tree.insert(k, k);
        map.insert(k, k ^ 1);
    }
    let mut v: Vec<u64> = (0..60_000).map(|_| next()).collect();
    v.sort_unstable();
    let mut acc = v[v.len() / 2];
    for _ in 0..20_000 {
        let k = next() % 1_000_000;
        acc = acc
            .wrapping_add(tree.get(&k).copied().unwrap_or(0))
            .wrapping_add(map.get(&k).copied().unwrap_or(1));
    }
    let s: String = (0..2_000).map(|i| format!("{i:x},")).collect();
    std::hint::black_box((acc, s.len()));
    t.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference host the host ran over a span
/// whose ends the probe read `before` and `after` ms: divide a host
/// time measured in that span by it to get reference-host time.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REFERENCE_MS
}

//! Fixed-width feature vectors for the proxy model.
//!
//! A feature vector describes one sweep cell as *anchor telemetry* plus
//! *configuration knobs*:
//!
//! * Slots `0..TELEMETRY_SLOTS` summarize the behaviour of the cell's
//!   **anchor** — the baseline run of the same workload/region — from
//!   its finished run's [`SimStats`] ([`anchor_slots_from_stats`]).
//! * Slots `TELEMETRY_SLOTS..FEATURE_DIM` are parsed out of the cell's
//!   cache key — the `Debug` rendering of its full `RunConfig` (plus the
//!   Branch Runahead variant suffix when present). The key is the same
//!   string that fingerprints the result cache, so features can be
//!   derived for any cached or about-to-run cell without touching the
//!   simulator ([`config_slots`]).
//!
//! Every extractor is total: degenerate inputs (zero cycles, zero
//! retired, missing knobs) produce `0.0`, never `NaN`/`inf`, which the
//! model layer relies on.

use phelps_uarch::stats::SimStats;

/// Anchor-telemetry slots: the first six names of [`FEATURE_NAMES`].
pub const TELEMETRY_SLOTS: usize = 6;

/// Configuration-knob slots parsed from the cache key.
pub const CONFIG_SLOTS: usize = 13;

/// Total feature-vector width.
pub const FEATURE_DIM: usize = TELEMETRY_SLOTS + CONFIG_SLOTS;

/// Feature names, index-aligned with the vectors this module produces.
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "anchor_ipc",
    "anchor_mpki",
    "anchor_triggers_pki",
    "anchor_pred_hits_pki",
    "anchor_mem_pki",
    "anchor_ifetch_stall_frac",
    "mode_baseline",
    "mode_perfect_bp",
    "mode_partition_only",
    "mode_phelps",
    "phelps_stores",
    "phelps_guarded",
    "br",
    "br_spec",
    "br_wide",
    "log2_region",
    "core_width",
    "queue_columns",
    "store_cache_sets",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_kilo(num: u64, retired: u64) -> f64 {
    if retired == 0 {
        0.0
    } else {
        1000.0 * num as f64 / retired as f64
    }
}

/// Anchor slots from a finished run's whole-run counters: IPC, MPKI,
/// triggers and timely queue hits per kilo-instruction, L3 misses per
/// kilo-instruction, and the fraction of cycles fetch stalled on L1-I
/// misses.
pub fn anchor_slots_from_stats(s: &SimStats) -> [f64; TELEMETRY_SLOTS] {
    [
        s.ipc(),
        s.mpki(),
        per_kilo(s.triggers, s.mt_retired),
        per_kilo(s.preds_from_queue, s.mt_retired),
        per_kilo(s.l3_misses, s.mt_retired),
        ratio(s.mt_fetch_stall_ifetch, s.cycles),
    ]
}

/// First integer following `tag` in `key`, if any.
fn field_u64(key: &str, tag: &str) -> Option<u64> {
    let rest = &key[key.find(tag)? + tag.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn flag(on: bool) -> f64 {
    if on {
        1.0
    } else {
        0.0
    }
}

/// Configuration slots parsed from a cell's cache key (the `Debug`
/// rendering of its `RunConfig`, with optional `|NonSpeculative` /
/// `|Speculative` / `|TwelveWide` Branch Runahead suffix and optional
/// `|shards=N` suffix). Unknown or missing knobs parse as `0.0`; the
/// parse never fails.
pub fn config_slots(key: &str) -> [f64; CONFIG_SLOTS] {
    let br = key.contains("|NonSpeculative")
        || key.contains("|Speculative")
        || key.contains("|TwelveWide");
    let region = field_u64(key, "max_mt_insts: ").unwrap_or(0);
    [
        // Branch Runahead cells run the runahead engine on a baseline
        // core, so the `mode:` field alone would alias them with the
        // true baseline; `br` disambiguates.
        flag(key.contains("mode: Baseline") && !br),
        flag(key.contains("mode: PerfectBp")),
        flag(key.contains("mode: PartitionOnly")),
        flag(key.contains("mode: Phelps(")),
        flag(key.contains("include_stores: true")),
        flag(key.contains("preexec_guarded_branches: true")),
        flag(br),
        flag(key.contains("|Speculative") || key.contains("|TwelveWide")),
        flag(key.contains("|TwelveWide")),
        if region == 0 {
            0.0
        } else {
            (region as f64).log2()
        },
        field_u64(key, "width: ").unwrap_or(0) as f64,
        field_u64(key, "queue_columns: ").unwrap_or(0) as f64,
        field_u64(key, "store_cache_sets: ").unwrap_or(0) as f64,
    ]
}

/// Full feature vector: anchor telemetry slots followed by the cell's
/// own configuration slots.
pub fn feature_vector(anchor: &[f64; TELEMETRY_SLOTS], key: &str) -> [f64; FEATURE_DIM] {
    let mut out = [0.0; FEATURE_DIM];
    out[..TELEMETRY_SLOTS].copy_from_slice(anchor);
    out[TELEMETRY_SLOTS..].copy_from_slice(&config_slots(key));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_slots_guard_zero_denominators() {
        let s = SimStats::default();
        assert_eq!(anchor_slots_from_stats(&s), [0.0; TELEMETRY_SLOTS]);
    }

    #[test]
    fn stats_slots_compute_rates() {
        let s = SimStats {
            cycles: 1_000,
            mt_retired: 2_000,
            mt_mispredicts: 40,
            triggers: 10,
            preds_from_queue: 30,
            l3_misses: 8,
            mt_fetch_stall_ifetch: 100,
            ..SimStats::default()
        };
        let f = anchor_slots_from_stats(&s);
        assert!((f[0] - 2.0).abs() < 1e-12);
        assert!((f[1] - 20.0).abs() < 1e-12);
        assert!((f[2] - 5.0).abs() < 1e-12);
        assert!((f[3] - 15.0).abs() < 1e-12);
        assert!((f[4] - 4.0).abs() < 1e-12);
        assert!((f[5] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn config_slots_parse_modes_and_knobs() {
        let key = "RunConfig { core: CoreConfig { width: 8, ... }, mode: Phelps(PhelpsFeatures \
                   { include_stores: true, preexec_guarded_branches: false }), max_mt_insts: \
                   1048576, epoch_len: 10000, queue_columns: 32, store_cache_sets: 16 }";
        let f = config_slots(key);
        assert_eq!(&f[..4], &[0.0, 0.0, 0.0, 1.0], "mode one-hot");
        assert_eq!(f[4], 1.0, "stores");
        assert_eq!(f[5], 0.0, "guarded");
        assert_eq!(&f[6..9], &[0.0, 0.0, 0.0], "not BR");
        assert!((f[9] - 20.0).abs() < 1e-12, "log2 region");
        assert_eq!(f[10], 8.0);
        assert_eq!(f[11], 32.0);
        assert_eq!(f[12], 16.0);
    }

    #[test]
    fn config_slots_distinguish_br_from_baseline() {
        let base = "RunConfig { width: 8, mode: Baseline, max_mt_insts: 2000000 }";
        let br = "RunConfig { width: 8, mode: Baseline, max_mt_insts: 2000000 }|Speculative";
        let fb = config_slots(base);
        let fr = config_slots(br);
        assert_eq!(fb[0], 1.0);
        assert_eq!(fb[6], 0.0);
        assert_eq!(fr[0], 0.0, "BR cells are not the baseline");
        assert_eq!(fr[6], 1.0);
        assert_eq!(fr[7], 1.0);
        assert_eq!(fr[8], 0.0);
        assert_eq!(config_slots("k|TwelveWide")[8], 1.0);
    }

    #[test]
    fn config_slots_are_total_on_garbage() {
        for key in ["", "max_mt_insts: ", "width: x", "mode: "] {
            for v in config_slots(key) {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn feature_vector_concatenates() {
        let anchor = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let f = feature_vector(&anchor, "mode: Baseline");
        assert_eq!(&f[..TELEMETRY_SLOTS], &anchor);
        assert_eq!(f[TELEMETRY_SLOTS], 1.0);
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
    }
}

//! Learned fast-path IPC/MPKI proxy for sweep triage.
//!
//! Cycle-accurate fidelity is too expensive to spend on every design
//! point of a sweep (NeuroScalar, TAO). This crate trains a small,
//! dependency-free regression ensemble on the result cache the bench
//! runner already maintains, and predicts a cell's whole-run IPC and
//! MPKI from (a) the measured telemetry of its *anchor* — the baseline
//! run of the same workload and region — and (b) the cell's
//! configuration knobs parsed from its cache key. An uncertainty
//! estimate from k-fold sub-models decides which cells are safe to
//! predict and which must still be simulated.
//!
//! The pipeline:
//!
//! 1. [`dataset`] scans `results/cache/`, groups cells into anchor
//!    groups, and emits labelled examples;
//! 2. [`features`] turns anchor telemetry + a cache key into a
//!    fixed-width vector;
//! 3. [`model`] fits the seeded, deterministic ridge + boosted-stump
//!    ensemble and serializes it as versioned JSON with exact
//!    bit-pattern floats under `results/proxy/`.
//!
//! The only consumer is the `phelps-proxy` CLI (`train` / `eval` /
//! `predict`). No runner, figure binary or daemon path uses the model:
//! every result they report is a simulation or a cache hit of one.

pub mod dataset;
pub mod features;
pub mod model;

pub use dataset::{build_examples, scan, BuildSummary, CachedCell, Example};
pub use features::{
    anchor_slots_from_stats, config_slots, feature_vector, CONFIG_SLOTS, FEATURE_DIM,
    FEATURE_NAMES, TELEMETRY_SLOTS,
};
pub use model::{Prediction, ProxyModel, MIN_EXAMPLES, MODEL_SCHEMA};

use phelps_uarch::stats::SimStats;

/// Trains a model from a slice of examples (thin wrapper aligning the
/// dataset and model layers).
pub fn train_from_examples(
    examples: &[Example],
    seed: u64,
    folds: usize,
) -> Result<ProxyModel, String> {
    let xs: Vec<[f64; FEATURE_DIM]> = examples.iter().map(|e| e.features).collect();
    let ipc: Vec<f64> = examples.iter().map(|e| e.ipc).collect();
    let mpki: Vec<f64> = examples.iter().map(|e| e.mpki).collect();
    ProxyModel::train(&xs, &ipc, &mpki, seed, folds)
}

/// Synthesizes whole-run counters for a *predicted* cell from its
/// anchor's measured counters plus the predicted IPC/MPKI.
///
/// Only the counters that feed the figure tables' derived rates are
/// populated: retirement totals carry over from the anchor (the region
/// length is identical by construction), cycles and mispredicts are
/// derived from the predictions, and everything else stays zero — a
/// predicted cell deliberately does not fabricate cache or
/// helper-thread counters it has no estimate for.
pub fn synthesize_stats(anchor: &SimStats, ipc: f64, mpki: f64) -> SimStats {
    let retired = anchor.mt_retired;
    let ipc = ipc.max(1e-6);
    SimStats {
        mt_retired: retired,
        mt_cond_branches: anchor.mt_cond_branches,
        cycles: (retired as f64 / ipc).round().max(1.0) as u64,
        mt_mispredicts: (mpki.max(0.0) * retired as f64 / 1000.0).round() as u64,
        ..SimStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_stats_reproduce_predicted_rates() {
        let anchor = SimStats {
            cycles: 1_000_000,
            mt_retired: 2_000_000,
            mt_cond_branches: 400_000,
            ..SimStats::default()
        };
        let s = synthesize_stats(&anchor, 1.6, 12.5);
        assert!((s.ipc() - 1.6).abs() < 1e-3);
        assert!((s.mpki() - 12.5).abs() < 1e-3);
        assert_eq!(s.mt_retired, 2_000_000);
        assert_eq!(s.mt_cond_branches, 400_000);
        assert_eq!(s.l3_misses, 0, "no fabricated memory counters");
    }

    #[test]
    fn synthesized_stats_survive_degenerate_predictions() {
        let s = synthesize_stats(&SimStats::default(), 0.0, -3.0);
        assert_eq!(s.mt_mispredicts, 0);
        assert!(s.ipc().is_finite());
    }
}

//! Simulation statistics.
//!
//! [`SimStats`] is a passive counter bundle filled in by the timing model
//! and read by the experiment harness. It is defined in `phelps-telemetry`
//! (the telemetry epoch series samples it) and re-exported here. Derived
//! quantities (IPC, MPKI, speedups) are computed on demand so the raw
//! counters stay authoritative.

pub use phelps_telemetry::SimStats;

/// Where a conditional-branch prediction consumed by the fetch unit came
/// from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredSource {
    /// The core's default (TAGE-SC-L-class) predictor.
    DefaultPredictor,
    /// A Phelps prediction queue (or a Branch Runahead outcome queue).
    PreExecQueue,
    /// Oracle prediction (perfect-BP configuration).
    Oracle,
}

/// Speedup of `test` over `baseline` by IPC.
pub fn speedup(baseline: &SimStats, test: &SimStats) -> f64 {
    if baseline.ipc() == 0.0 {
        0.0
    } else {
        test.ipc() / baseline.ipc()
    }
}

/// Weighted harmonic mean of IPCs, the paper's SimPoint aggregation.
///
/// `points` are `(weight, ipc)` pairs; weights need not sum to one.
///
/// # Examples
///
/// ```
/// use phelps_uarch::stats::weighted_harmonic_mean_ipc;
/// let ipc = weighted_harmonic_mean_ipc(&[(1.0, 2.0), (1.0, 4.0)]);
/// assert!((ipc - 8.0 / 3.0).abs() < 1e-12);
/// ```
pub fn weighted_harmonic_mean_ipc(points: &[(f64, f64)]) -> f64 {
    let mut total_w = 0.0_f64;
    let mut denom = 0.0_f64;
    for &(w, ipc) in points {
        // Non-finite or negative inputs would silently poison the whole
        // mean (NaN propagates through sums); drop the point with a
        // warning instead so figure output stays numeric.
        if !w.is_finite() || !ipc.is_finite() || w < 0.0 || ipc < 0.0 {
            eprintln!(
                "warning: weighted_harmonic_mean_ipc: ignoring degenerate \
                 point (weight {w}, ipc {ipc})"
            );
            continue;
        }
        total_w += w;
        if ipc > 0.0 {
            denom += w / ipc;
        }
    }
    if total_w == 0.0 {
        if !points.is_empty() {
            eprintln!("warning: weighted_harmonic_mean_ipc: zero total weight; reporting 0.0");
        }
        return 0.0;
    }
    if denom == 0.0 {
        0.0
    } else {
        total_w / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_ratio() {
        let base = SimStats {
            cycles: 1000,
            mt_retired: 1000,
            ..SimStats::default()
        };
        let fast = SimStats {
            cycles: 500,
            mt_retired: 1000,
            ..SimStats::default()
        };
        assert!((speedup(&base, &fast) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_dominated_by_slow_points() {
        let m = weighted_harmonic_mean_ipc(&[(0.9, 1.0), (0.1, 100.0)]);
        assert!(m < 2.0, "harmonic mean stays near the dominant slow point");
    }

    #[test]
    fn harmonic_mean_single_point_is_identity() {
        assert!((weighted_harmonic_mean_ipc(&[(0.37, 3.2)]) - 3.2).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_empty_is_zero() {
        assert_eq!(weighted_harmonic_mean_ipc(&[]), 0.0);
    }

    #[test]
    fn speedup_of_identical_stats_is_one() {
        let s = SimStats {
            cycles: 777,
            mt_retired: 1234,
            ..SimStats::default()
        };
        assert!((speedup(&s, &s.clone()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_against_stalled_baseline_is_zero() {
        // Zero-IPC baseline (no retired instructions): the ratio is
        // undefined; the guard reports 0 rather than inf/NaN.
        let base = SimStats {
            cycles: 1000,
            ..SimStats::default()
        };
        let fast = SimStats {
            cycles: 500,
            mt_retired: 1000,
            ..SimStats::default()
        };
        assert_eq!(speedup(&base, &fast), 0.0);
    }

    #[test]
    fn harmonic_mean_zero_weights_is_zero() {
        assert_eq!(weighted_harmonic_mean_ipc(&[(0.0, 2.0), (0.0, 4.0)]), 0.0);
    }

    #[test]
    fn harmonic_mean_skips_zero_ipc_points() {
        // A zero-IPC point cannot contribute 1/0; it is excluded from the
        // denominator rather than poisoning the mean.
        let m = weighted_harmonic_mean_ipc(&[(0.5, 0.0), (0.5, 2.0)]);
        assert!(m.is_finite());
        assert!(m > 0.0);
    }

    #[test]
    fn harmonic_mean_ignores_non_finite_points() {
        let m = weighted_harmonic_mean_ipc(&[(f64::NAN, 2.0), (1.0, f64::INFINITY), (1.0, 2.0)]);
        assert!((m - 2.0).abs() < 1e-12, "finite point survives: {m}");
        assert_eq!(weighted_harmonic_mean_ipc(&[(f64::NAN, 1.0)]), 0.0);
        assert_eq!(weighted_harmonic_mean_ipc(&[(1.0, f64::NAN)]), 0.0);
    }
}

//! The simulator's one counter table.
//!
//! [`SimStats`] is a passive counter bundle filled in by the timing model
//! and read by everything downstream: the figures, the result cache, the
//! shard merge, and the telemetry epoch series (each [`EpochSample`]
//! holds the bundle's change over one epoch). Derived quantities (IPC,
//! MPKI, accuracy) are methods computed on demand, so the raw counters
//! stay authoritative.
//!
//! The table lives in this crate so the registry can sample it without
//! depending on the simulator; `phelps_uarch` re-exports it as
//! `phelps_uarch::SimStats` and `phelps_uarch::stats::SimStats`.
//!
//! [`EpochSample`]: crate::EpochSample

use crate::json::{JsonValue, JsonWriter};

/// Declares [`SimStats`] from one list of `u64` counter fields and
/// derives from that same list everything that walks the fields: the
/// name table [`SimStats::NAMES`] and the exhaustive array conversions
/// [`SimStats::to_array`] / [`SimStats::from_array`]. A new counter is
/// one line in the struct below; `merge`, the JSON codec, the epoch
/// series and the merge-law proptests pick it up through the table.
macro_rules! sim_stats {
    (
        $(#[$meta:meta])*
        pub struct SimStats {
            $($(#[$field_meta:meta])* pub $field:ident: u64,)*
        }
    ) => {
        $(#[$meta])*
        pub struct SimStats {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        impl SimStats {
            /// Counter names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Number of counters.
            pub const LEN: usize = SimStats::NAMES.len();

            /// Every counter, in declaration order.
            pub fn to_array(&self) -> [u64; SimStats::LEN] {
                [$(self.$field),*]
            }

            /// The bundle whose counters are `values`, in declaration
            /// order: the inverse of [`SimStats::to_array`].
            pub fn from_array(values: [u64; SimStats::LEN]) -> SimStats {
                let [$($field),*] = values;
                SimStats { $($field),* }
            }
        }
    };
}

sim_stats! {
    /// Aggregate counters for one simulation run.
    #[derive(Clone, Default, PartialEq, Eq, Debug)]
    pub struct SimStats {
        /// Total simulated cycles.
        pub cycles: u64,
        /// Instructions retired by the main thread.
        pub mt_retired: u64,
        /// Instructions retired by helper threads / pre-execution engines.
        pub ht_retired: u64,
        /// Conditional branches retired by the main thread.
        pub mt_cond_branches: u64,
        /// Main-thread conditional-branch mispredictions (fetch-time prediction
        /// wrong, regardless of source).
        pub mt_mispredicts: u64,
        /// Mispredictions whose consumed prediction came from a pre-execution
        /// queue.
        pub mispredicts_from_queue: u64,
        /// Conditional-branch predictions consumed from a pre-execution queue.
        pub preds_from_queue: u64,
        /// Conditional-branch predictions from the default predictor while a
        /// queue was expected but empty/untimely.
        pub queue_untimely: u64,
        /// Pipeline squashes due to load-store ordering violations.
        pub load_violations: u64,
        /// Helper-thread trigger events (pre-execution started).
        pub triggers: u64,
        /// Helper-thread termination events.
        pub terminations: u64,
        /// L1I instruction-fetch accesses (one per fetched cache block).
        pub l1i_accesses: u64,
        /// L1I instruction-fetch misses.
        pub l1i_misses: u64,
        /// L1D accesses / misses (demand loads only).
        pub l1d_accesses: u64,
        /// L1D demand-load misses.
        pub l1d_misses: u64,
        /// L1D retired-store accesses (write-buffer refill traffic), counted
        /// apart from demand loads so they never inflate load-MPKI.
        pub l1d_store_accesses: u64,
        /// L1D retired-store misses.
        pub l1d_store_misses: u64,
        /// L2 demand misses.
        pub l2_misses: u64,
        /// L3 demand misses.
        pub l3_misses: u64,
        /// Prefetches issued (all levels).
        pub prefetches_issued: u64,
        /// Demand hits on prefetched blocks.
        pub prefetch_hits: u64,
        /// Cycles the main thread's fetch stalled behind an unresolved
        /// misprediction.
        pub mt_fetch_stall_mispredict: u64,
        /// Cycles the main thread's fetch stalled on live-in move injection.
        pub mt_fetch_stall_trigger: u64,
        /// Cycles the main thread's fetch stalled on an in-flight L1I miss.
        pub mt_fetch_stall_ifetch: u64,
        /// Cycles of admission delay imposed by the L1I port.
        pub l1i_port_stalls: u64,
        /// Cycles of admission delay imposed by the L1D port.
        pub l1d_port_stalls: u64,
        /// Cycles of admission delay imposed by the L2 port.
        pub l2_port_stalls: u64,
        /// Cycles of admission delay imposed by the L3 port.
        pub l3_port_stalls: u64,
        /// Cycles of admission delay imposed by the DRAM queue.
        pub dram_queue_stalls: u64,
        /// Fig. 14 "eliminated": correct queue-supplied predictions that
        /// the default predictor would have got wrong (predictions, not
        /// mispredictions). The `misp_*` bins below and
        /// `mispredicts_from_queue` ("ht wrong outcome") split
        /// `mt_mispredicts`: each misprediction lands in exactly one.
        pub misp_eliminated: u64,
        /// Mispredictions of a branch still being measured for delinquency.
        pub misp_gathering_delinquency: u64,
        /// Mispredictions of a delinquent branch whose helper thread is
        /// being constructed.
        pub misp_ht_being_constructed: u64,
        /// Mispredictions of a delinquent branch whose loop was not chosen
        /// for construction.
        pub misp_ht_not_constructed: u64,
        /// Mispredictions of a delinquent branch whose helper thread is
        /// too big (or otherwise ineligible by size).
        pub misp_ht_too_big: u64,
        /// Mispredictions of a delinquent branch outside any detected loop.
        pub misp_not_in_loop: u64,
        /// Mispredictions of a delinquent branch whose loop iterates too
        /// little per visit.
        pub misp_not_iterating_enough: u64,
        /// Mispredictions of a branch measured as not delinquent.
        pub misp_not_delinquent: u64,
        /// Mispredictions of a branch whose queue row the helper thread
        /// had not filled in time.
        pub misp_ht_untimely: u64,
    }
}

impl SimStats {
    /// Creates a zeroed counter bundle.
    pub fn new() -> SimStats {
        SimStats::default()
    }

    /// Folds another run's counters into this one.
    ///
    /// Every field of [`SimStats`] is a pure event count, so the merge is
    /// a per-field saturating sum — associative and commutative, with
    /// `SimStats::default()` as the identity (the merge-law property
    /// tests in `phelps-uarch`'s `tests/prop_stats_merge.rs` pin all
    /// three). Derived quantities (IPC, MPKI, accuracy, overhead ratios)
    /// are *methods* computed from the raw counters at read time, never
    /// stored, so merging can never average a ratio; the audit note
    /// below keeps it that way.
    ///
    /// This is the aggregation primitive behind checkpoint-sharded
    /// simulation: per-shard stats fold into one bundle whose derived
    /// ratios are then exactly the whole-run ratios.
    ///
    /// **Field audit:** the field table admits only `u64` fields, and by
    /// convention each must be a monotonic event/cycle count. Ratios,
    /// averages, and last-writer-wins scalars (e.g. "final queue depth")
    /// are not mergeable and belong in derived methods or the telemetry
    /// gauges (which store sum + sample-count precisely so *their* merge
    /// stays associative). Monotonicity is also what makes an epoch's
    /// change, [`SimStats::since`], well defined.
    pub fn merge(&mut self, other: &SimStats) {
        let mut sum = self.to_array();
        for (a, b) in sum.iter_mut().zip(other.to_array()) {
            *a = a.saturating_add(b);
        }
        *self = SimStats::from_array(sum);
    }

    /// The counts accrued from `earlier` to `self`, field by field.
    /// `earlier` must be an earlier snapshot of the same run: every
    /// counter is monotonic, so no field of `self` is smaller (a debug
    /// build panics on a field that went backwards).
    pub fn since(&self, earlier: &SimStats) -> SimStats {
        let mut delta = self.to_array();
        for (a, b) in delta.iter_mut().zip(earlier.to_array()) {
            *a -= b;
        }
        SimStats::from_array(delta)
    }

    /// Writes the counters as one JSON object keyed by [`SimStats::NAMES`],
    /// in declaration order. The result cache and the telemetry exports
    /// share this encoding.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (name, v) in SimStats::NAMES.iter().zip(self.to_array()) {
            w.key(name);
            w.uint(v);
        }
        w.end_object();
    }

    /// Reads an object written by [`SimStats::write_json`]. `None` when
    /// any counter is missing or is not a non-negative integer; extra
    /// keys are ignored.
    pub fn from_json(v: &JsonValue) -> Option<SimStats> {
        let mut values = [0; SimStats::LEN];
        for (slot, name) in values.iter_mut().zip(SimStats::NAMES) {
            *slot = v.get(name)?.as_u64()?;
        }
        Some(SimStats::from_array(values))
    }

    /// Main-thread instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mt_retired as f64 / self.cycles as f64
        }
    }

    /// Main-thread mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.mt_retired == 0 {
            0.0
        } else {
            1000.0 * self.mt_mispredicts as f64 / self.mt_retired as f64
        }
    }

    /// Branch-prediction accuracy over retired conditional branches.
    pub fn branch_accuracy(&self) -> f64 {
        if self.mt_cond_branches == 0 {
            1.0
        } else {
            1.0 - self.mt_mispredicts as f64 / self.mt_cond_branches as f64
        }
    }

    /// Helper-thread instruction overhead, normalized to main-thread
    /// instructions (Fig. 13b is expressed per 100M retired).
    pub fn ht_overhead_ratio(&self) -> f64 {
        if self.mt_retired == 0 {
            0.0
        } else {
            self.ht_retired as f64 / self.mt_retired as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn ipc_and_mpki() {
        let s = SimStats {
            cycles: 1000,
            mt_retired: 2500,
            mt_cond_branches: 500,
            mt_mispredicts: 25,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mpki() - 10.0).abs() < 1e-12);
        assert!((s.branch_accuracy() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::new();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(s.branch_accuracy(), 1.0);
        assert_eq!(s.ht_overhead_ratio(), 0.0);
    }

    #[test]
    fn ipc_with_retired_but_no_cycles_is_zero() {
        // Degenerate bundle (filled mid-run before cycles were set).
        let s = SimStats {
            mt_retired: 10,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn mpki_with_mispredicts_but_no_retired_is_zero() {
        let s = SimStats {
            mt_mispredicts: 5,
            ..SimStats::default()
        };
        assert_eq!(s.mpki(), 0.0);
    }

    #[test]
    fn branch_accuracy_fully_wrong_is_zero() {
        let s = SimStats {
            mt_cond_branches: 8,
            mt_mispredicts: 8,
            ..SimStats::default()
        };
        assert!(s.branch_accuracy().abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_preserves_derived_ratios() {
        let a = SimStats {
            cycles: 1000,
            mt_retired: 2000,
            mt_cond_branches: 100,
            mt_mispredicts: 10,
            ..SimStats::default()
        };
        let b = SimStats {
            cycles: 3000,
            mt_retired: 3000,
            mt_cond_branches: 300,
            mt_mispredicts: 30,
            ..SimStats::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.cycles, 4000);
        assert_eq!(m.mt_retired, 5000);
        // The merged IPC is the whole-run IPC (total insts / total
        // cycles), not the average of the two per-shard IPCs.
        assert!((m.ipc() - 5000.0 / 4000.0).abs() < 1e-12);
        assert!((m.mpki() - 1000.0 * 40.0 / 5000.0).abs() < 1e-12);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let a = SimStats {
            cycles: 123,
            mt_retired: 456,
            l3_misses: 7,
            ..SimStats::default()
        };
        let mut left = SimStats::default();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge(&SimStats::default());
        assert_eq!(right, a);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = SimStats {
            cycles: u64::MAX - 1,
            ..SimStats::default()
        };
        a.merge(&SimStats {
            cycles: 5,
            ..SimStats::default()
        });
        assert_eq!(a.cycles, u64::MAX);
    }

    #[test]
    fn since_inverts_merge() {
        let a = SimStats {
            cycles: 100,
            mt_retired: 40,
            l3_misses: 3,
            ..SimStats::default()
        };
        let mut later = a.clone();
        later.merge(&SimStats {
            cycles: 50,
            dram_queue_stalls: 9,
            ..SimStats::default()
        });
        let d = later.since(&a);
        assert_eq!((d.cycles, d.mt_retired, d.dram_queue_stalls), (50, 0, 9));
        assert_eq!(a.since(&a), SimStats::default());
    }

    #[test]
    fn json_round_trips_every_counter() {
        let values: [u64; SimStats::LEN] = std::array::from_fn(|i| i as u64 * 1_001);
        let s = SimStats::from_array(values);
        let mut w = JsonWriter::new();
        s.write_json(&mut w);
        let text = w.finish();
        assert!(text.starts_with("{\"cycles\":0,\"mt_retired\":1001,"));
        assert_eq!(SimStats::from_json(&parse(&text).unwrap()), Some(s));
        // A missing or non-integer counter is no bundle at all.
        let short = text.replacen("\"cycles\":0,", "", 1);
        assert_eq!(SimStats::from_json(&parse(&short).unwrap()), None);
        let negative = text.replacen("\"cycles\":0", "\"cycles\":-1", 1);
        assert_eq!(SimStats::from_json(&parse(&negative).unwrap()), None);
    }

    #[test]
    fn ht_overhead_matches_fig13b_units() {
        let s = SimStats {
            mt_retired: 100_000_000,
            ht_retired: 34_700_000,
            ..SimStats::default()
        };
        assert!((s.ht_overhead_ratio() - 0.347).abs() < 1e-12);
    }
}

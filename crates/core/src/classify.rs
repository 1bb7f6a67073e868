//! Misprediction characterization (paper Fig. 14).
//!
//! Every retired main-thread misprediction is attributed to exactly one
//! bin: either it was *eliminated* (the consumed prediction came from a
//! helper-thread queue and was correct — this bin counts predictions, not
//! mispredictions), or the reason it was **not** eliminated is recorded.
//! Each bin is a [`SimStats`] counter ([`MispredictClass::count`]), so
//! the classification merges, caches and splits into epochs with the
//! rest of the counters.

use phelps_uarch::stats::SimStats;

/// Why a main-thread branch misprediction was not eliminated by Phelps
/// (or that it was eliminated).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MispredictClass {
    /// Prediction came from a queue and was correct (a would-be
    /// misprediction eliminated; counted separately from real
    /// mispredictions).
    Eliminated,
    /// Still in the first training stage: measuring delinquency.
    GatheringDelinquency,
    /// Delinquent; helper thread being constructed this epoch.
    HtBeingConstructed,
    /// Delinquent loop detected but not chosen for construction yet
    /// (another loop was picked this epoch).
    HtNotConstructed,
    /// Delinquent, but the constructed helper thread exceeded the 75%
    /// size bound (ineligible).
    HtTooBig,
    /// Delinquent, but not inside any detected loop (e.g. inside a
    /// non-inlined callee).
    NotInLoop,
    /// Delinquent, but the loop doesn't iterate enough per visit to
    /// amortize start/stop overheads (ineligible).
    NotIteratingEnough,
    /// The branch never cleared the delinquency threshold.
    NotDelinquent,
    /// A queue-supplied prediction that was wrong (helper-thread outcome
    /// incorrect or misaligned).
    HtWrongOutcome,
    /// A queue row existed but the helper thread hadn't deposited the
    /// iteration yet (untimely); the default predictor mispredicted.
    HtUntimely,
}

impl MispredictClass {
    /// Label used by the Fig. 14 regeneration harness.
    pub fn label(self) -> &'static str {
        match self {
            MispredictClass::Eliminated => "eliminated misp.",
            MispredictClass::GatheringDelinquency => "gathering delinquency",
            MispredictClass::HtBeingConstructed => "del. but ht being const.",
            MispredictClass::HtNotConstructed => "del. but ht not const.",
            MispredictClass::HtTooBig => "del. but ht too big",
            MispredictClass::NotInLoop => "del. but not in loop",
            MispredictClass::NotIteratingEnough => "del. but ot/ito not iterating enough",
            MispredictClass::NotDelinquent => "not delinquent",
            MispredictClass::HtWrongOutcome => "ht wrong outcome",
            MispredictClass::HtUntimely => "ht untimely",
        }
    }

    /// All classes, in the order the figure stacks them.
    pub fn all() -> [MispredictClass; 10] {
        [
            MispredictClass::Eliminated,
            MispredictClass::GatheringDelinquency,
            MispredictClass::HtBeingConstructed,
            MispredictClass::HtNotConstructed,
            MispredictClass::HtTooBig,
            MispredictClass::NotInLoop,
            MispredictClass::NotIteratingEnough,
            MispredictClass::NotDelinquent,
            MispredictClass::HtWrongOutcome,
            MispredictClass::HtUntimely,
        ]
    }

    /// This class's count in `stats`. `HtWrongOutcome` is
    /// `mispredicts_from_queue`: both engines give that class exactly
    /// when a queue-supplied prediction mispredicts.
    pub fn count(self, stats: &SimStats) -> u64 {
        match self {
            MispredictClass::Eliminated => stats.misp_eliminated,
            MispredictClass::GatheringDelinquency => stats.misp_gathering_delinquency,
            MispredictClass::HtBeingConstructed => stats.misp_ht_being_constructed,
            MispredictClass::HtNotConstructed => stats.misp_ht_not_constructed,
            MispredictClass::HtTooBig => stats.misp_ht_too_big,
            MispredictClass::NotInLoop => stats.misp_not_in_loop,
            MispredictClass::NotIteratingEnough => stats.misp_not_iterating_enough,
            MispredictClass::NotDelinquent => stats.misp_not_delinquent,
            MispredictClass::HtWrongOutcome => stats.mispredicts_from_queue,
            MispredictClass::HtUntimely => stats.misp_ht_untimely,
        }
    }

    /// This class's count per thousand main-thread instructions.
    pub fn mpki(self, stats: &SimStats) -> f64 {
        if stats.mt_retired == 0 {
            0.0
        } else {
            1000.0 * self.count(stats) as f64 / stats.mt_retired as f64
        }
    }

    /// Counts one event of this class at retire. `HtWrongOutcome` is
    /// already counted as `mispredicts_from_queue`, from the prediction's
    /// source.
    pub(crate) fn record(self, stats: &mut SimStats) {
        let field = match self {
            MispredictClass::Eliminated => &mut stats.misp_eliminated,
            MispredictClass::GatheringDelinquency => &mut stats.misp_gathering_delinquency,
            MispredictClass::HtBeingConstructed => &mut stats.misp_ht_being_constructed,
            MispredictClass::HtNotConstructed => &mut stats.misp_ht_not_constructed,
            MispredictClass::HtTooBig => &mut stats.misp_ht_too_big,
            MispredictClass::NotInLoop => &mut stats.misp_not_in_loop,
            MispredictClass::NotIteratingEnough => &mut stats.misp_not_iterating_enough,
            MispredictClass::NotDelinquent => &mut stats.misp_not_delinquent,
            MispredictClass::HtWrongOutcome => return,
            MispredictClass::HtUntimely => &mut stats.misp_ht_untimely,
        };
        *field += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = SimStats {
            mt_retired: 1000,
            ..SimStats::default()
        };
        MispredictClass::Eliminated.record(&mut s);
        MispredictClass::Eliminated.record(&mut s);
        MispredictClass::NotDelinquent.record(&mut s);
        assert_eq!(MispredictClass::Eliminated.count(&s), 2);
        assert_eq!(MispredictClass::NotDelinquent.count(&s), 1);
        assert_eq!(MispredictClass::HtTooBig.count(&s), 0);
        assert!((MispredictClass::NotDelinquent.mpki(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn each_class_has_its_own_counter() {
        for class in MispredictClass::all() {
            let mut s = SimStats::default();
            class.record(&mut s);
            let want = u64::from(class != MispredictClass::HtWrongOutcome);
            assert_eq!(s.to_array().iter().sum::<u64>(), want, "{class:?}");
            for other in MispredictClass::all() {
                let n = if other == class { want } else { 0 };
                assert_eq!(other.count(&s), n, "{class:?} read as {other:?}");
            }
        }
        let s = SimStats {
            mispredicts_from_queue: 5,
            ..SimStats::default()
        };
        assert_eq!(MispredictClass::HtWrongOutcome.count(&s), 5);
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(MispredictClass::HtTooBig.label(), "del. but ht too big");
        assert_eq!(
            MispredictClass::NotIteratingEnough.label(),
            "del. but ot/ito not iterating enough"
        );
    }

    #[test]
    fn all_classes_distinct() {
        let all = MispredictClass::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn zero_retired_mpki_guard() {
        let s = SimStats {
            misp_eliminated: 3,
            ..SimStats::default()
        };
        assert_eq!(MispredictClass::Eliminated.mpki(&s), 0.0);
    }
}

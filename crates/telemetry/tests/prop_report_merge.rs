//! Merge-law property tests for [`Report::merge`].
//!
//! Sharded simulation folds per-shard telemetry reports in shard order;
//! the worker count must never change the merged bytes, which requires
//! **associativity** and **`Report::default()` as identity** — full
//! structural equality, over arbitrary well-formed reports. The epoch
//! series is an order-defined splice (that is the point of folding in
//! shard order), so commutativity is not claimed; the splice law pins
//! what it does instead.
//!
//! Generated reports respect the recording invariants the merge is
//! specified against: epochs in series order with nondecreasing end
//! cycles, none past `final_cycle` — exactly what a
//! [`phelps_telemetry::Registry`] produces.

use phelps_telemetry::{EpochSample, Report, SimStats};
use proptest::prelude::*;

/// Raw material for one report, shaped by [`build_report`]. Series
/// cycles stay modest (the cycle splice re-bases by summed
/// `final_cycle`s, and a run whose clock is near `u64::MAX` is not a
/// state the recorder can produce).
type Raw = (
    (usize, u64),  // label pick, epoch_len
    Vec<Vec<u64>>, // epochs: counter deltas
    u64,           // final-cycle slack
);

fn raw() -> impl Strategy<Value = Raw> {
    (
        (0usize..3, 0u64..1_000),
        prop::collection::vec(
            prop::collection::vec(0u64..50_000, SimStats::LEN..SimStats::LEN + 1),
            0..4,
        ),
        0u64..100_000,
    )
}

fn build_report(r: Raw) -> Report {
    let ((label_sel, epoch_len), epochs, slack) = r;
    let mut report = Report {
        label: ["", "shard", "run/a"][label_sel].to_string(),
        epoch_len,
        ..Report::default()
    };
    // Epochs close in series order: indices are positions and end
    // cycles never decrease.
    let mut end_cycle = 0u64;
    for (j, deltas) in epochs.into_iter().enumerate() {
        let stats = SimStats::from_array(deltas.try_into().expect("one value per counter"));
        end_cycle += stats.cycles;
        report.epochs.push(EpochSample {
            epoch: j as u64,
            end_cycle,
            stats,
        });
    }
    // `final_cycle` covers the last epoch close plus slack.
    report.final_cycle = end_cycle + slack;
    report
}

fn rep() -> impl Strategy<Value = Report> {
    raw().prop_map(build_report)
}

fn merged(a: &Report, b: &Report) -> Report {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    #[test]
    fn default_is_identity(a in rep()) {
        prop_assert_eq!(merged(&a, &Report::default()), a.clone());
        prop_assert_eq!(merged(&Report::default(), &a), a);
    }

    #[test]
    fn merge_associates(a in rep(), b in rep(), c in rep()) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn epoch_splice_renumbers_and_rebases(a in rep(), b in rep()) {
        let m = merged(&a, &b);
        prop_assert_eq!(m.epochs.len(), a.epochs.len() + b.epochs.len());
        prop_assert_eq!(&m.epochs[..a.epochs.len()], &a.epochs[..]);
        // Spliced indices are the positions in the combined series.
        for (j, e) in m.epochs.iter().enumerate().skip(a.epochs.len()) {
            prop_assert_eq!(e.epoch, j as u64);
            let orig = &b.epochs[j - a.epochs.len()];
            prop_assert_eq!(e.end_cycle, a.final_cycle.saturating_add(orig.end_cycle));
            prop_assert_eq!(&e.stats, &orig.stats);
        }
        prop_assert_eq!(m.final_cycle, a.final_cycle.saturating_add(b.final_cycle));
        prop_assert_eq!(m.epoch_len, a.epoch_len.max(b.epoch_len));
    }
}

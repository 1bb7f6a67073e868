//! Merge-law property tests for [`Report::merge`].
//!
//! Sharded simulation folds per-shard telemetry reports in shard order;
//! the worker count must never change the merged bytes, which requires:
//!
//! * **associativity** and **`Report::default()` as identity** — full
//!   structural equality, over arbitrary well-formed reports;
//! * **commutativity of every unordered aggregate** — gauges,
//!   histograms, `final_cycle`, `events_dropped`, `verbose`,
//!   `epoch_len`, and the epoch/event *multisets*. The epoch and event
//!   sequences themselves are order-defined splices (that is the point
//!   of folding in shard order), so full commutativity is not claimed.
//!
//! Generated reports respect the recording invariants the merge is
//! specified against: events sorted by cycle and bounded by
//! `final_cycle`, epochs in series order with nondecreasing end cycles —
//! exactly what a [`phelps_telemetry::Registry`] produces.

use phelps_telemetry::{
    EpochSample, EventKind, EventRecord, Gauge, GaugeSummary, Hist, HistSummary, Report, SimStats,
};
use proptest::prelude::*;

/// Scalar aggregate magnitudes, including near-`u64::MAX` values so the
/// saturating paths participate in the law checks.
fn big() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000_000, (u64::MAX - 1_000)..=u64::MAX, any::<u64>(),]
}

/// Raw material for one report, shaped by [`build_report`]. Series
/// cycles stay modest (the cycle splice re-bases by summed
/// `final_cycle`s, and a run whose clock is near `u64::MAX` is not a
/// state the recorder can produce).
type Raw = (
    (usize, u64, bool, u64),     // label pick, epoch_len, verbose, events_dropped
    Vec<(u64, u64, u64)>,        // gauges: sum (as u64), max, samples
    Vec<(Vec<u64>, u64, u64)>,   // hists: buckets, count, sum (as u64)
    Vec<(Vec<u64>, (u32, u32))>, // epochs: counter deltas, gauge averages
    (Vec<(u8, u64, u64, u64)>, u64), // events (kind, cycle-delta, pc, info), final-cycle slack
);

fn raw() -> impl Strategy<Value = Raw> {
    (
        (0usize..3, 0u64..1_000, any::<bool>(), big()),
        prop::collection::vec((big(), big(), big()), Gauge::COUNT..Gauge::COUNT + 1),
        prop::collection::vec(
            (prop::collection::vec(big(), 0..6), big(), big()),
            Hist::COUNT..Hist::COUNT + 1,
        ),
        prop::collection::vec(
            (
                prop::collection::vec(0u64..50_000, SimStats::LEN..SimStats::LEN + 1),
                (0u32..4_096, 0u32..4_096),
            ),
            0..4,
        ),
        (
            prop::collection::vec((0u8..5, 0u64..10_000, big(), big()), 0..6),
            0u64..100_000,
        ),
    )
}

fn kind(sel: u8) -> EventKind {
    match sel % 5 {
        0 => EventKind::Trigger,
        1 => EventKind::Terminate,
        2 => EventKind::HtcInstall,
        3 => EventKind::Mispredict,
        _ => EventKind::DramMiss,
    }
}

fn build_report(r: Raw) -> Report {
    let ((label_sel, epoch_len, verbose, events_dropped), gauges, hists, epochs, events) = r;
    let mut report = Report {
        label: ["", "shard", "run/a"][label_sel].to_string(),
        epoch_len,
        verbose,
        events_dropped,
        ..Report::default()
    };
    for (slot, (sum, max, samples)) in report.gauges.iter_mut().zip(gauges) {
        *slot = GaugeSummary {
            sum: u128::from(sum),
            max,
            samples,
        };
    }
    for (slot, (buckets, count, sum)) in report.hists.iter_mut().zip(hists) {
        *slot = HistSummary {
            buckets,
            count,
            sum: u128::from(sum),
        };
    }
    // Epochs close in series order: indices are positions and end
    // cycles never decrease.
    let mut end_cycle = 0u64;
    for (j, (deltas, (rob, pq))) in epochs.into_iter().enumerate() {
        let stats = SimStats::from_array(deltas.try_into().expect("one value per counter"));
        end_cycle += stats.cycles;
        report.epochs.push(EpochSample {
            epoch: j as u64,
            end_cycle,
            stats,
            avg_rob: f64::from(rob) / 64.0,
            avg_pred_queue: f64::from(pq) / 64.0,
        });
    }
    // Events are recorded in cycle order and never past the run's final
    // cycle: cumulative deltas keep them sorted, and `final_cycle`
    // covers the last of everything plus slack.
    let (raw_events, slack) = events;
    let mut cycle = 0u64;
    for (sel, delta, pc, info) in raw_events {
        cycle += delta;
        report.events.push(EventRecord {
            kind: kind(sel),
            cycle,
            pc,
            info,
        });
    }
    report.final_cycle = cycle.max(end_cycle) + slack;
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

/// Multiset key of one epoch's payload — everything except the
/// position-defined `epoch` index and spliced `end_cycle`.
fn epoch_key(e: &EpochSample) -> ([u64; SimStats::LEN], [u64; 2]) {
    (
        e.stats.to_array(),
        [e.avg_rob.to_bits(), e.avg_pred_queue.to_bits()],
    )
}

/// Multiset key of one event — everything except the spliced cycle.
fn event_key(e: &EventRecord) -> (&'static str, u64, u64) {
    (e.kind.name(), e.pc, e.info)
}

fn sorted_keys<T: Ord>(keys: impl Iterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = keys.collect();
    v.sort();
    v
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
    fn unordered_aggregates_commute(a in rep(), b in rep()) {
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        prop_assert_eq!(ab.gauges, ba.gauges);
        prop_assert_eq!(&ab.hists, &ba.hists);
        prop_assert_eq!(ab.final_cycle, ba.final_cycle);
        prop_assert_eq!(ab.events_dropped, ba.events_dropped);
        prop_assert_eq!(ab.verbose, ba.verbose);
        prop_assert_eq!(ab.epoch_len, ba.epoch_len);
        prop_assert_eq!(
            sorted_keys(ab.epochs.iter().map(epoch_key)),
            sorted_keys(ba.epochs.iter().map(epoch_key)),
            "epoch payload multiset must not depend on merge order"
        );
        prop_assert_eq!(
            sorted_keys(ab.events.iter().map(event_key)),
            sorted_keys(ba.events.iter().map(event_key)),
            "event multiset must not depend on merge order"
        );
    }

    #[test]
    fn epoch_splice_renumbers_and_rebases(a in rep(), b in rep()) {
        let m = merged(&a, &b);
        prop_assert_eq!(m.epochs.len(), a.epochs.len() + b.epochs.len());
        // Spliced indices are the positions in the combined series.
        for (j, e) in m.epochs.iter().enumerate().skip(a.epochs.len()) {
            prop_assert_eq!(e.epoch, j as u64);
            let orig = &b.epochs[j - a.epochs.len()];
            prop_assert_eq!(e.end_cycle, a.final_cycle.saturating_add(orig.end_cycle));
            prop_assert_eq!(&e.stats, &orig.stats);
        }
        // Events stay sorted by cycle, and none is lost.
        prop_assert!(m.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        prop_assert_eq!(m.events.len(), a.events.len() + b.events.len());
        prop_assert_eq!(m.final_cycle, a.final_cycle.saturating_add(b.final_cycle));
    }
}

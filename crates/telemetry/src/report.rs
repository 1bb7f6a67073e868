//! Finalized telemetry reports and their JSON/CSV serializations.

use crate::json::JsonWriter;
use crate::{Counter, EventKind, Gauge, Hist, MergeKind};

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// What happened.
    pub kind: EventKind,
    /// Cycle it happened at.
    pub cycle: u64,
    /// Program counter involved (0 when not applicable).
    pub pc: u64,
    /// Kind-specific payload (cause code, latency, epoch index, ...).
    pub info: u64,
}

/// Per-epoch time-series sample; epochs close every
/// [`crate::Config::epoch_len`] retired main-thread instructions.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSample {
    /// Epoch index, from 0.
    pub epoch: u64,
    /// Cycle at which the epoch closed.
    pub end_cycle: u64,
    /// Cycles spanned by the epoch.
    pub cycles: u64,
    /// Main-thread instructions retired in the epoch.
    pub retired: u64,
    /// Instructions per cycle over the epoch.
    pub ipc: f64,
    /// Conditional mispredicts in the epoch.
    pub mispredicts: u64,
    /// Mispredicts per kilo-instruction over the epoch.
    pub mpki: f64,
    /// Pre-execution triggers in the epoch.
    pub triggers: u64,
    /// Timely prediction-queue hits in the epoch.
    pub pred_hits: u64,
    /// DRAM accesses in the epoch.
    pub dram_accesses: u64,
    /// Fetch cycles stalled on an in-flight L1-I miss in the epoch.
    pub ifetch_stalls: u64,
    /// Mean ROB occupancy over the epoch's cycles.
    pub avg_rob: f64,
    /// Mean prediction-queue depth over the epoch's cycles.
    pub avg_pred_queue: f64,
}

/// Summary of one gauge over the whole run.
///
/// The summary stores the raw sample *sum*, not the mean: a stored mean
/// is a derived ratio, and averaging two shards' means is neither exact
/// nor associative. The mean is computed at read time by [`avg`].
///
/// [`avg`]: GaugeSummary::avg
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct GaugeSummary {
    /// Sum of all samples.
    pub sum: u128,
    /// Largest sample.
    pub max: u64,
    /// Number of samples.
    pub samples: u64,
}

impl GaugeSummary {
    /// Mean of all samples (0.0 when none were recorded).
    pub fn avg(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Summary of one log2 histogram.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct HistSummary {
    /// Bucket `i` counts values whose bit length is `i` (bucket 0 is the
    /// value 0).
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u128,
}

/// An immutable, finished telemetry report for one simulated run (or,
/// after [`Report::merge`], for a sequence of shard runs stitched into
/// one logical run).
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Run label from the installed config.
    pub label: String,
    /// Epoch length (retired instructions) the series was sampled at.
    pub epoch_len: u64,
    /// Whether verbose event kinds were recorded.
    pub verbose: bool,
    /// Last cycle observed via `tick`.
    pub final_cycle: u64,
    /// Counter totals, indexed by [`Counter`] discriminant.
    pub counters: [u64; Counter::COUNT],
    /// Gauge summaries, indexed by [`Gauge`] discriminant.
    pub gauges: [GaugeSummary; Gauge::COUNT],
    /// Histogram summaries, indexed by [`Hist`] discriminant.
    pub hists: [HistSummary; Hist::COUNT],
    /// Per-epoch series, oldest first.
    pub epochs: Vec<EpochSample>,
    /// Recorded events, oldest first.
    pub events: Vec<EventRecord>,
    /// Events discarded after the ring filled.
    pub events_dropped: u64,
}

impl Default for Report {
    /// The empty report: zero everywhere, no label. This is the identity
    /// of [`Report::merge`].
    fn default() -> Report {
        Report {
            label: String::new(),
            epoch_len: 0,
            verbose: false,
            final_cycle: 0,
            counters: [0; Counter::COUNT],
            gauges: [GaugeSummary::default(); Gauge::COUNT],
            hists: std::array::from_fn(|_| HistSummary::default()),
            epochs: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
        }
    }
}

/// Number of per-epoch feature columns produced by
/// [`Report::epoch_feature_rows`].
pub const EPOCH_FEATURES: usize = 6;

/// Column names of [`Report::epoch_feature_rows`], in order. The first
/// six telemetry slots of the learned proxy's feature vector
/// (`crates/proxy`) use the
/// same definitions, so a prefix of the epoch series and a whole-run
/// stats bundle feed the same model.
pub const EPOCH_FEATURE_NAMES: [&str; EPOCH_FEATURES] = [
    "ipc",
    "mpki",
    "triggers_pki",
    "pred_hits_pki",
    "mem_pki",
    "ifetch_stall_frac",
];

impl Report {
    /// Total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The epoch series as fixed-width numeric feature rows (one row per
    /// epoch, columns per [`EPOCH_FEATURE_NAMES`]): IPC, MPKI, triggers
    /// and timely queue hits per kilo-instruction, memory (DRAM)
    /// accesses per kilo-instruction, and the fraction of the epoch's
    /// cycles fetch spent stalled on L1-I misses.
    ///
    /// Rates are recomputed from the epoch's raw counts (never taken
    /// from the stored `ipc`/`mpki` fields), and every division is
    /// guarded: an epoch with zero retired instructions or zero cycles
    /// contributes 0.0 in the affected columns instead of NaN/inf, so a
    /// feature extractor can consume any report — including partial or
    /// degenerate runs — without dividing by zero.
    pub fn epoch_feature_rows(&self) -> Vec<[f64; EPOCH_FEATURES]> {
        self.epochs
            .iter()
            .map(|e| {
                let per_kilo = |n: u64| {
                    if e.retired == 0 {
                        0.0
                    } else {
                        1000.0 * n as f64 / e.retired as f64
                    }
                };
                let ipc = if e.cycles == 0 {
                    0.0
                } else {
                    e.retired as f64 / e.cycles as f64
                };
                let stall_frac = if e.cycles == 0 {
                    0.0
                } else {
                    e.ifetch_stalls as f64 / e.cycles as f64
                };
                [
                    ipc,
                    per_kilo(e.mispredicts),
                    per_kilo(e.triggers),
                    per_kilo(e.pred_hits),
                    per_kilo(e.dram_accesses),
                    stall_frac,
                ]
            })
            .collect()
    }

    /// Folds a later shard's report into this one, stitching two runs
    /// whose cycle clocks both start at zero into one logical run.
    ///
    /// Per-aggregate semantics:
    ///
    /// * **counters** combine by [`Counter::merge_kind`] — a saturating
    ///   sum for every current kind; a future high-water-mark counter
    ///   would declare [`MergeKind::Max`];
    /// * **gauges** — `sum` and `samples` add, `max` takes the larger,
    ///   so the read-time [`GaugeSummary::avg`] is the exact sample mean
    ///   over both runs;
    /// * **log2 histograms** add bucketwise (plus their count/sum
    ///   totals);
    /// * the **epoch series** splices: `other`'s epochs are appended
    ///   with indices renumbered to their position in the combined
    ///   series and `end_cycle` re-based by this report's
    ///   `final_cycle`, recovering one continuous timeline;
    /// * **events** interleave by re-based cycle (stable: on equal
    ///   cycles this report's events come first). *Capacity policy:*
    ///   the ring bound applies per run while recording; the merge
    ///   keeps every surviving event from both sides — a merged report
    ///   holds up to `shards × ring_capacity` events — and
    ///   `events_dropped` sums;
    /// * `final_cycle` adds, `verbose` ORs, `epoch_len` takes the max,
    ///   and an empty label adopts `other`'s.
    ///
    /// The merge is associative with `Report::default()` as identity,
    /// and commutative for every unordered aggregate (counters, gauges,
    /// histograms, `final_cycle`, `events_dropped`). The epoch and
    /// event series are order-defined splices, so shards must fold in
    /// shard order for byte-identical series. These laws are pinned by
    /// `tests/prop_report_merge.rs`.
    pub fn merge(&mut self, other: &Report) {
        if self.label.is_empty() {
            self.label = other.label.clone();
        }
        self.epoch_len = self.epoch_len.max(other.epoch_len);
        self.verbose |= other.verbose;
        for c in Counter::ALL {
            let i = c as usize;
            self.counters[i] = match c.merge_kind() {
                MergeKind::Sum => self.counters[i].saturating_add(other.counters[i]),
                MergeKind::Max => self.counters[i].max(other.counters[i]),
            };
        }
        for i in 0..Gauge::COUNT {
            let b = &other.gauges[i];
            let a = &mut self.gauges[i];
            a.sum = a.sum.saturating_add(b.sum);
            a.samples = a.samples.saturating_add(b.samples);
            a.max = a.max.max(b.max);
        }
        for i in 0..Hist::COUNT {
            let b = &other.hists[i];
            let a = &mut self.hists[i];
            if a.buckets.len() < b.buckets.len() {
                a.buckets.resize(b.buckets.len(), 0);
            }
            for (x, &y) in a.buckets.iter_mut().zip(&b.buckets) {
                *x = x.saturating_add(y);
            }
            a.count = a.count.saturating_add(b.count);
            a.sum = a.sum.saturating_add(b.sum);
        }
        let cycle_base = self.final_cycle;
        let epoch_base = self.epochs.len() as u64;
        self.epochs
            .extend(other.epochs.iter().enumerate().map(|(j, e)| EpochSample {
                epoch: epoch_base + j as u64,
                end_cycle: cycle_base.saturating_add(e.end_cycle),
                ..e.clone()
            }));
        let mut merged = Vec::with_capacity(self.events.len() + other.events.len());
        let mut ours = std::mem::take(&mut self.events).into_iter().peekable();
        let mut theirs = other
            .events
            .iter()
            .map(|ev| EventRecord {
                cycle: cycle_base.saturating_add(ev.cycle),
                ..*ev
            })
            .peekable();
        loop {
            match (ours.peek(), theirs.peek()) {
                (Some(a), Some(b)) => {
                    if a.cycle <= b.cycle {
                        merged.push(ours.next().unwrap());
                    } else {
                        merged.push(theirs.next().unwrap());
                    }
                }
                (Some(_), None) => merged.push(ours.next().unwrap()),
                (None, Some(_)) => merged.push(theirs.next().unwrap()),
                (None, None) => break,
            }
        }
        self.events = merged;
        self.events_dropped = self.events_dropped.saturating_add(other.events_dropped);
        self.final_cycle = cycle_base.saturating_add(other.final_cycle);
    }

    /// Number of recorded events of `kind`.
    pub fn event_count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Serializes the whole report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("label");
        w.string(&self.label);
        w.key("epoch_len");
        w.uint(self.epoch_len);
        w.key("verbose");
        w.bool(self.verbose);
        w.key("final_cycle");
        w.uint(self.final_cycle);

        w.key("counters");
        w.begin_object();
        for c in Counter::ALL {
            w.key(c.name());
            w.uint(self.counter(c));
        }
        w.end_object();

        w.key("gauges");
        w.begin_object();
        for g in Gauge::ALL {
            let s = &self.gauges[g as usize];
            w.key(g.name());
            w.begin_object();
            // "avg" is computed here from the stored sum/samples; the
            // summary itself never stores a ratio (see [`GaugeSummary`]).
            w.key("avg");
            w.float(s.avg());
            w.key("max");
            w.uint(s.max);
            w.key("samples");
            w.uint(s.samples);
            w.end_object();
        }
        w.end_object();

        w.key("hists");
        w.begin_object();
        for h in Hist::ALL {
            let s = &self.hists[h as usize];
            w.key(h.name());
            w.begin_object();
            w.key("count");
            w.uint(s.count);
            w.key("mean");
            w.float(if s.count == 0 {
                0.0
            } else {
                s.sum as f64 / s.count as f64
            });
            w.key("buckets");
            w.begin_array();
            // Trailing zero buckets are elided to keep files small; the
            // reader treats missing buckets as zero.
            let last = s.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
            for &b in &s.buckets[..last] {
                w.uint(b);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();

        w.key("epochs");
        w.begin_array();
        for e in &self.epochs {
            w.begin_object();
            w.key("epoch");
            w.uint(e.epoch);
            w.key("end_cycle");
            w.uint(e.end_cycle);
            w.key("cycles");
            w.uint(e.cycles);
            w.key("retired");
            w.uint(e.retired);
            w.key("ipc");
            w.float(e.ipc);
            w.key("mispredicts");
            w.uint(e.mispredicts);
            w.key("mpki");
            w.float(e.mpki);
            w.key("triggers");
            w.uint(e.triggers);
            w.key("pred_hits");
            w.uint(e.pred_hits);
            w.key("dram_accesses");
            w.uint(e.dram_accesses);
            w.key("ifetch_stalls");
            w.uint(e.ifetch_stalls);
            w.key("avg_rob");
            w.float(e.avg_rob);
            w.key("avg_pred_queue");
            w.float(e.avg_pred_queue);
            w.end_object();
        }
        w.end_array();

        w.key("events");
        w.begin_array();
        for e in &self.events {
            w.begin_object();
            w.key("kind");
            w.string(e.kind.name());
            w.key("cycle");
            w.uint(e.cycle);
            w.key("pc");
            w.uint(e.pc);
            w.key("info");
            w.uint(e.info);
            w.end_object();
        }
        w.end_array();
        w.key("events_dropped");
        w.uint(self.events_dropped);
        w.end_object();
        w.finish()
    }

    /// Serializes the per-epoch series as CSV with a header row.
    pub fn epochs_csv(&self) -> String {
        let mut out = String::from(
            "epoch,end_cycle,cycles,retired,ipc,mispredicts,mpki,\
             triggers,pred_hits,dram_accesses,ifetch_stalls,avg_rob,avg_pred_queue\n",
        );
        for e in &self.epochs {
            out.push_str(&format!(
                "{},{},{},{},{:.6},{},{:.6},{},{},{},{},{:.3},{:.3}\n",
                e.epoch,
                e.end_cycle,
                e.cycles,
                e.retired,
                e.ipc,
                e.mispredicts,
                e.mpki,
                e.triggers,
                e.pred_hits,
                e.dram_accesses,
                e.ifetch_stalls,
                e.avg_rob,
                e.avg_pred_queue,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_json, Config, JsonValue, Registry};

    fn sample_report() -> Report {
        let mut reg = Registry::new(Config {
            epoch_len: 4,
            label: "unit \"quoted\" label".to_string(),
            ..Config::default()
        });
        let reg_ref = &mut reg;
        // Drive the registry directly (not via thread-local) so this
        // test is independent of install/harvest state.
        for cycle in 0..10u64 {
            reg_ref.tick(cycle);
            reg_ref.gauge(Gauge::RobOccupancy, cycle);
            reg_ref.add(Counter::MtRetired, 1);
        }
        reg_ref.hist(Hist::MissLatency, 200);
        reg_ref.event(EventKind::Trigger, 3, 0x4000_0000, 0);
        reg.into_report()
    }

    #[test]
    fn json_round_trips_through_parser() {
        let rep = sample_report();
        let text = rep.to_json();
        let v = parse_json(&text).expect("report JSON must parse");
        let obj = match v {
            JsonValue::Object(o) => o,
            other => panic!("expected object, got {other:?}"),
        };
        let get = |k: &str| {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {k}"))
        };
        assert_eq!(
            get("label"),
            &JsonValue::String("unit \"quoted\" label".into())
        );
        assert_eq!(get("epoch_len"), &JsonValue::Number(4.0));
        match get("counters") {
            JsonValue::Object(counters) => {
                assert!(counters
                    .iter()
                    .any(|(k, v)| k == "mt_retired" && *v == JsonValue::Number(10.0)));
                assert_eq!(counters.len(), Counter::COUNT);
            }
            other => panic!("counters not an object: {other:?}"),
        }
        match get("epochs") {
            // 2 full epochs of 4 plus a flushed partial of 2.
            JsonValue::Array(epochs) => assert_eq!(epochs.len(), 3),
            other => panic!("epochs not an array: {other:?}"),
        }
        match get("events") {
            JsonValue::Array(events) => {
                // Trigger + 3 epoch-end events.
                assert_eq!(events.len(), 4);
            }
            other => panic!("events not an array: {other:?}"),
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_epoch() {
        let rep = sample_report();
        let csv = rep.epochs_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + rep.epochs.len());
        assert!(lines[0].starts_with("epoch,end_cycle,"));
        assert!(lines[1].starts_with("0,"));
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }

    #[test]
    fn event_count_filters_by_kind() {
        let rep = sample_report();
        assert_eq!(rep.event_count(EventKind::Trigger), 1);
        assert_eq!(rep.event_count(EventKind::EpochEnd), 3);
        assert_eq!(rep.event_count(EventKind::Mispredict), 0);
    }

    #[test]
    fn epoch_feature_rows_empty_series() {
        let rep = Report::default();
        assert!(rep.epoch_feature_rows().is_empty());
    }

    #[test]
    fn epoch_feature_rows_single_epoch() {
        let mut rep = Report::default();
        rep.epochs.push(EpochSample {
            epoch: 0,
            end_cycle: 500,
            cycles: 500,
            retired: 1000,
            ipc: 0.0, // stored fields are deliberately ignored
            mispredicts: 20,
            mpki: 0.0,
            triggers: 4,
            pred_hits: 10,
            dram_accesses: 6,
            ifetch_stalls: 50,
            avg_rob: 0.0,
            avg_pred_queue: 0.0,
        });
        let rows = rep.epoch_feature_rows();
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        assert!((r[0] - 2.0).abs() < 1e-12, "ipc = retired/cycles");
        assert!((r[1] - 20.0).abs() < 1e-12, "mpki");
        assert!((r[2] - 4.0).abs() < 1e-12, "triggers_pki");
        assert!((r[3] - 10.0).abs() < 1e-12, "pred_hits_pki");
        assert!((r[4] - 6.0).abs() < 1e-12, "mem_pki");
        assert!((r[5] - 0.1).abs() < 1e-12, "ifetch_stall_frac");
    }

    #[test]
    fn epoch_feature_rows_zero_cycle_and_zero_retired_epochs_are_finite() {
        let mut rep = Report::default();
        let degenerate = EpochSample {
            epoch: 0,
            end_cycle: 0,
            cycles: 0,
            retired: 0,
            ipc: f64::NAN,
            mispredicts: 7,
            mpki: f64::INFINITY,
            triggers: 1,
            pred_hits: 1,
            dram_accesses: 1,
            ifetch_stalls: 1,
            avg_rob: 0.0,
            avg_pred_queue: 0.0,
        };
        rep.epochs.push(degenerate.clone());
        rep.epochs.push(EpochSample {
            epoch: 1,
            cycles: 100,
            retired: 0, // zero retired but nonzero cycles
            ..degenerate
        });
        for row in rep.epoch_feature_rows() {
            for (i, v) in row.iter().enumerate() {
                assert!(v.is_finite(), "column {i} not finite: {v}");
            }
        }
        let rows = rep.epoch_feature_rows();
        assert_eq!(rows[0], [0.0; EPOCH_FEATURES]);
        // Second epoch: rates over retired are 0, stall fraction is real.
        assert!((rows[1][5] - 0.01).abs() < 1e-12);
    }
}

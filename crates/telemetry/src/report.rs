//! Finalized telemetry reports and their JSON/CSV serializations.

use crate::json::{JsonValue, JsonWriter};
use crate::{EventKind, Gauge, Hist, SimStats};

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
/// [`crate::Config::epoch_len`] retired main-thread instructions, and a
/// run's samples sum field by field to its [`SimStats`].
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSample {
    /// Epoch index, from 0.
    pub epoch: u64,
    /// Cycle at which the epoch closed.
    pub end_cycle: u64,
    /// What every counter added over the epoch (`stats.cycles` is the
    /// epoch's span, `stats.mt_retired` its retired instructions).
    pub stats: SimStats,
    /// Mean ROB occupancy over the epoch's cycles.
    pub avg_rob: f64,
    /// Mean prediction-queue depth over the epoch's cycles.
    pub avg_pred_queue: f64,
}

impl EpochSample {
    /// Instructions per cycle over the epoch.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Mispredicts per kilo-instruction over the epoch.
    pub fn mpki(&self) -> f64 {
        self.stats.mpki()
    }

    /// Writes the sample's fields into the JSON object `w` has open:
    /// `epoch`, `end_cycle`, `stats` (the [`SimStats::write_json`]
    /// object) and the two gauge averages. The trace export and the serve
    /// `epoch` frame share this encoding.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.key("epoch");
        w.uint(self.epoch);
        w.key("end_cycle");
        w.uint(self.end_cycle);
        w.key("stats");
        self.stats.write_json(w);
        w.key("avg_rob");
        w.float(self.avg_rob);
        w.key("avg_pred_queue");
        w.float(self.avg_pred_queue);
    }

    /// Reads the fields [`EpochSample::write_fields`] wrote from an
    /// object; `None` when any is missing or mistyped.
    pub fn from_json(v: &JsonValue) -> Option<EpochSample> {
        Some(EpochSample {
            epoch: v.get("epoch")?.as_u64()?,
            end_cycle: v.get("end_cycle")?.as_u64()?,
            stats: SimStats::from_json(v.get("stats")?)?,
            avg_rob: v.get("avg_rob")?.as_f64()?,
            avg_pred_queue: v.get("avg_pred_queue")?.as_f64()?,
        })
    }
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
    /// The run's final cycle count.
    pub final_cycle: u64,
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
            gauges: [GaugeSummary::default(); Gauge::COUNT],
            hists: std::array::from_fn(|_| HistSummary::default()),
            epochs: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
        }
    }
}

impl Report {
    /// Folds a later shard's report into this one, stitching two runs
    /// whose cycle clocks both start at zero into one logical run.
    ///
    /// Per-aggregate semantics:
    ///
    /// * **gauges** — `sum` and `samples` add, `max` takes the larger,
    ///   so the read-time [`GaugeSummary::avg`] is the exact sample mean
    ///   over both runs;
    /// * **log2 histograms** add bucketwise (plus their count/sum
    ///   totals);
    /// * the **epoch series** splices: `other`'s epochs are appended
    ///   with indices renumbered to their position in the combined
    ///   series and `end_cycle` re-based by this report's
    ///   `final_cycle`, recovering one continuous timeline (each sample's
    ///   `stats` delta is unchanged, so the merged series still sums to
    ///   the merged [`SimStats`]);
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
    /// and commutative for every unordered aggregate (gauges, histograms,
    /// `final_cycle`, `events_dropped`). The epoch and
    /// event series are order-defined splices, so shards must fold in
    /// shard order for byte-identical series. These laws are pinned by
    /// `tests/prop_report_merge.rs`.
    pub fn merge(&mut self, other: &Report) {
        if self.label.is_empty() {
            self.label = other.label.clone();
        }
        self.epoch_len = self.epoch_len.max(other.epoch_len);
        self.verbose |= other.verbose;
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
            e.write_fields(&mut w);
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

    /// Serializes the per-epoch series as CSV with a header row:
    /// `epoch`, `end_cycle`, one column per [`SimStats::NAMES`] counter
    /// (the epoch's delta), then the two gauge averages.
    pub fn epochs_csv(&self) -> String {
        let mut out = format!(
            "epoch,end_cycle,{},avg_rob,avg_pred_queue\n",
            SimStats::NAMES.join(",")
        );
        for e in &self.epochs {
            out.push_str(&format!("{},{}", e.epoch, e.end_cycle));
            for v in e.stats.to_array() {
                out.push_str(&format!(",{v}"));
            }
            out.push_str(&format!(",{:.3},{:.3}\n", e.avg_rob, e.avg_pred_queue));
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
        // Drive the registry directly (not via thread-local) so this
        // test is independent of install/harvest state.
        let mut s = SimStats::default();
        for cycle in 1..=10u64 {
            s.cycles = cycle;
            s.mt_retired += 1;
            reg.gauge(Gauge::RobOccupancy, cycle);
            reg.retired(|| s.clone());
        }
        reg.hist(Hist::MissLatency, 200);
        reg.event(EventKind::Trigger, 3, 0x4000_0000, 0);
        reg.into_report(&s)
    }

    #[test]
    fn json_round_trips_through_parser() {
        let rep = sample_report();
        let text = rep.to_json();
        let v = parse_json(&text).expect("report JSON must parse");
        assert_eq!(
            v.get("label"),
            Some(&JsonValue::String("unit \"quoted\" label".into()))
        );
        assert_eq!(v.get("epoch_len"), Some(&JsonValue::Number(4.0)));
        assert_eq!(v.get("final_cycle"), Some(&JsonValue::Number(10.0)));
        assert!(
            v.get("counters").is_none(),
            "the totals are the run's SimStats"
        );
        // 2 full epochs of 4 plus a flushed partial of 2, each read back
        // through the sample codec.
        let epochs = v.get("epochs").and_then(JsonValue::as_array).unwrap();
        let back: Vec<EpochSample> = epochs
            .iter()
            .map(|e| EpochSample::from_json(e).expect("epoch decodes"))
            .collect();
        assert_eq!(back.len(), 3);
        assert_eq!(back[2].stats.mt_retired, 2);
        for (b, e) in back.iter().zip(&rep.epochs) {
            assert_eq!(
                (b.epoch, b.end_cycle, &b.stats),
                (e.epoch, e.end_cycle, &e.stats)
            );
        }
        // Trigger + 3 epoch-end events.
        let events = v.get("events").and_then(JsonValue::as_array).unwrap();
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn csv_has_header_and_one_row_per_epoch() {
        let rep = sample_report();
        let csv = rep.epochs_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + rep.epochs.len());
        assert!(lines[0].starts_with("epoch,end_cycle,cycles,mt_retired,"));
        assert!(lines[1].starts_with("0,4,4,4,"));
        let cols = lines[0].split(',').count();
        assert_eq!(cols, SimStats::LEN + 4);
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
}

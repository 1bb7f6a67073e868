//! Finalized telemetry reports and their JSON/CSV serializations.

use crate::json::{JsonValue, JsonWriter};
use crate::SimStats;

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
    /// `epoch`, `end_cycle` and `stats` (the [`SimStats::write_json`]
    /// object), as [`Report::write_json`] writes each epoch.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.key("epoch");
        w.uint(self.epoch);
        w.key("end_cycle");
        w.uint(self.end_cycle);
        w.key("stats");
        self.stats.write_json(w);
    }

    /// Reads the fields [`EpochSample::write_fields`] wrote from an
    /// object; `None` when any is missing or mistyped.
    pub fn from_json(v: &JsonValue) -> Option<EpochSample> {
        Some(EpochSample {
            epoch: v.get("epoch")?.as_u64()?,
            end_cycle: v.get("end_cycle")?.as_u64()?,
            stats: SimStats::from_json(v.get("stats")?)?,
        })
    }
}

/// An immutable, finished telemetry report for one simulated run (or,
/// after [`Report::merge`], for a sequence of shard runs stitched into
/// one logical run). `Report::default()` is the empty report and the
/// identity of [`Report::merge`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Run label from the recording [`crate::Config`].
    pub label: String,
    /// Epoch length (retired instructions) the series was sampled at.
    pub epoch_len: u64,
    /// The run's final cycle count.
    pub final_cycle: u64,
    /// Per-epoch series, oldest first.
    pub epochs: Vec<EpochSample>,
}

impl Report {
    /// Folds a later shard's report into this one, stitching two runs
    /// whose cycle clocks both start at zero into one logical run.
    ///
    /// The epoch series splices: `other`'s epochs are appended with
    /// indices renumbered to their position in the combined series and
    /// `end_cycle` re-based by this report's `final_cycle`, recovering
    /// one continuous timeline. Each sample's `stats` delta is
    /// unchanged, so the merged series still sums to the merged
    /// [`SimStats`]. `final_cycle` adds, `epoch_len` takes the max, and
    /// an empty label adopts `other`'s.
    ///
    /// The merge is associative with `Report::default()` as identity.
    /// The splice is order-defined, so shards must fold in shard order
    /// for byte-identical series. These laws are pinned by
    /// `tests/prop_report_merge.rs`.
    pub fn merge(&mut self, other: &Report) {
        if self.label.is_empty() {
            self.label = other.label.clone();
        }
        self.epoch_len = self.epoch_len.max(other.epoch_len);
        let cycle_base = self.final_cycle;
        let epoch_base = self.epochs.len() as u64;
        self.epochs
            .extend(other.epochs.iter().enumerate().map(|(j, e)| EpochSample {
                epoch: epoch_base + j as u64,
                end_cycle: cycle_base.saturating_add(e.end_cycle),
                stats: e.stats.clone(),
            }));
        self.final_cycle = cycle_base.saturating_add(other.final_cycle);
    }

    /// Writes the whole report into `w` as one JSON object:
    /// `{label, epoch_len, final_cycle, epochs}`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("label");
        w.string(&self.label);
        w.key("epoch_len");
        w.uint(self.epoch_len);
        w.key("final_cycle");
        w.uint(self.final_cycle);
        w.key("epochs");
        w.begin_array();
        for e in &self.epochs {
            w.begin_object();
            e.write_fields(w);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    /// Serializes the per-epoch series as CSV with a header row:
    /// `epoch`, `end_cycle`, then one column per [`SimStats::NAMES`]
    /// counter (the epoch's delta).
    pub fn epochs_csv(&self) -> String {
        let mut out = format!("epoch,end_cycle,{}\n", SimStats::NAMES.join(","));
        for e in &self.epochs {
            out.push_str(&format!("{},{}", e.epoch, e.end_cycle));
            for v in e.stats.to_array() {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
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
        });
        let mut s = SimStats::default();
        for cycle in 1..=10u64 {
            s.cycles = cycle;
            s.mt_retired += 1;
            reg.retired(|| s.clone());
        }
        reg.into_report(&s)
    }

    #[test]
    fn json_round_trips_through_parser() {
        let rep = sample_report();
        let mut w = JsonWriter::new();
        rep.write_json(&mut w);
        let text = w.finish();
        let v = parse_json(&text).expect("report JSON must parse");
        assert_eq!(
            v.get("label"),
            Some(&JsonValue::String("unit \"quoted\" label".into()))
        );
        assert_eq!(v.get("epoch_len"), Some(&JsonValue::Number(4.0)));
        assert_eq!(v.get("final_cycle"), Some(&JsonValue::Number(10.0)));
        let JsonValue::Object(fields) = &v else {
            panic!("report is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["label", "epoch_len", "final_cycle", "epochs"]);
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
        assert_eq!(cols, SimStats::LEN + 2);
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }
}

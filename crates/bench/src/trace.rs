//! The `PHELPS_TRACE` telemetry files.
//!
//! The [`runner`] harvests one [`Report`] per simulated cell on whatever
//! worker thread ran it. After the pool drains it walks the cells in
//! declaration order and [`TraceSink::push`]es each report, so the
//! trace lists runs in submission order for any worker count. Each push
//! rewrites the JSON and CSV files, so partial output survives a crash
//! mid-experiment.
//!
//! [`runner`]: crate::runner
//! [`Report`]: phelps_telemetry::Report

use phelps_telemetry as tlm;
use std::sync::{Mutex, OnceLock};

/// The `PHELPS_TRACE` output path, when tracing is enabled.
pub fn path() -> Option<String> {
    std::env::var("PHELPS_TRACE").ok().filter(|p| !p.is_empty())
}

/// The process-wide sink for the `PHELPS_TRACE` path, created on first
/// use; `None` when tracing is off.
pub fn global() -> Option<&'static TraceSink> {
    static SINK: OnceLock<Option<TraceSink>> = OnceLock::new();
    SINK.get_or_init(|| path().map(TraceSink::new)).as_ref()
}

/// An append-only telemetry trace writing one JSON document
/// (`{"runs": [...]}`) plus a sibling per-epoch CSV.
#[derive(Debug)]
pub struct TraceSink {
    path: String,
    /// Reports pushed so far, in push order.
    runs: Mutex<Vec<tlm::Report>>,
}

impl TraceSink {
    /// A sink writing to `path` (and the sibling `.csv`).
    pub fn new(path: impl Into<String>) -> TraceSink {
        TraceSink {
            path: path.into(),
            runs: Mutex::new(Vec::new()),
        }
    }

    /// Appends `report` and rewrites both files.
    pub fn push(&self, report: tlm::Report) {
        let mut runs = self.runs.lock().unwrap_or_else(|e| e.into_inner());
        runs.push(report);
        self.rewrite(&runs);
    }

    /// Rewrites the JSON and CSV files from `runs`. Called with the lock
    /// held, so writes never interleave.
    fn rewrite(&self, runs: &[tlm::Report]) {
        let mut json = String::from("{\"runs\":[");
        for (i, r) in runs.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&r.to_json());
        }
        json.push_str("]}");
        if let Err(e) = std::fs::write(&self.path, json) {
            eprintln!("warning: cannot write {}: {e}", self.path);
        }

        // Sibling CSV: every run's epoch series, with a leading label
        // column.
        let csv_path = match self.path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.csv"),
            None => format!("{}.csv", self.path),
        };
        let mut csv = String::new();
        for (i, r) in runs.iter().enumerate() {
            let body = r.epochs_csv();
            let mut lines = body.lines();
            if let Some(header) = lines.next() {
                if i == 0 {
                    csv.push_str(&format!("label,{header}\n"));
                }
                for line in lines {
                    csv.push_str(&format!("{},{line}\n", r.label));
                }
            }
        }
        if let Err(e) = std::fs::write(&csv_path, csv) {
            eprintln!("warning: cannot write {csv_path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_telemetry::Config;

    /// Builds a tiny report through the thread-local registry (each test
    /// runs on its own thread, so installs never collide).
    fn report(label: &str) -> tlm::Report {
        tlm::install(Config {
            epoch_len: 2,
            label: label.to_string(),
        });
        let mut stats = tlm::SimStats::default();
        for cycle in 1..=4u64 {
            stats.cycles = cycle;
            stats.mt_retired += 1;
            tlm::retired(|| stats.clone());
        }
        *tlm::harvest(&stats).expect("registry installed above")
    }

    fn scratch(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("phelps-trace-{}-{tag}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn pushes_are_written_in_order_under_one_csv_header() {
        let path = scratch("order");
        let csv_path = path.replace(".json", ".csv");
        let sink = TraceSink::new(&path);
        for label in ["first", "second", "third"] {
            sink.push(report(label));
        }
        let v = tlm::parse_json(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
        let labels: Vec<&str> = v
            .get("runs")
            .and_then(tlm::JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(tlm::JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["first", "second", "third"], "runs in push order");
        // One header, then each run's two epochs under its label.
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("label,epoch,end_cycle,cycles,"), "{csv}");
        let row_labels: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(
            row_labels,
            ["first", "first", "second", "second", "third", "third"]
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&csv_path);
    }
}

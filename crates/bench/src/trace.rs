//! Submission-ordered `PHELPS_TRACE` telemetry merge.
//!
//! Both front doors — the batch experiment [`runner`] and the
//! `phelps-serve` daemon — harvest one [`Report`] per simulated cell on
//! whatever worker thread ran it, and both owe the user a trace file
//! whose runs appear in *submission* order regardless of worker count
//! or completion order. This module is the single implementation of
//! that merge: callers reserve a sequence ticket when a cell starts
//! executing and later [`TraceSink::submit`] (or [`TraceSink::skip`])
//! it; the sink buffers out-of-order completions and rewrites the JSON
//! and CSV files each time the contiguous prefix grows, so partial
//! output survives a crash mid-experiment.
//!
//! [`runner`]: crate::runner
//! [`Report`]: phelps_telemetry::Report

use phelps_telemetry as tlm;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// The `PHELPS_TRACE` output path, when tracing is enabled.
pub fn path() -> Option<String> {
    std::env::var("PHELPS_TRACE").ok().filter(|p| !p.is_empty())
}

/// The process-wide sink for the `PHELPS_TRACE` path, created on first
/// use; `None` when tracing is off. All front doors share it, so their
/// reports interleave by ticket order instead of clobbering each other.
pub fn global() -> Option<&'static TraceSink> {
    static SINK: OnceLock<Option<TraceSink>> = OnceLock::new();
    SINK.get_or_init(|| path().map(TraceSink::new)).as_ref()
}

/// An ordered, crash-tolerant telemetry merge writing one JSON document
/// (`{"runs": [...]}`) plus a sibling per-epoch CSV.
#[derive(Debug)]
pub struct TraceSink {
    path: String,
    tickets: AtomicU64,
    state: Mutex<SinkState>,
}

#[derive(Debug, Default)]
struct SinkState {
    /// Next ticket expected in the contiguous flushed prefix.
    next: u64,
    /// Out-of-order completions (`None` = skipped ticket).
    pending: BTreeMap<u64, Option<tlm::Report>>,
    /// Flushed reports, in ticket order.
    runs: Vec<tlm::Report>,
}

impl TraceSink {
    /// A sink writing to `path` (and the sibling `.csv`).
    pub fn new(path: impl Into<String>) -> TraceSink {
        TraceSink {
            path: path.into(),
            tickets: AtomicU64::new(0),
            state: Mutex::new(SinkState::default()),
        }
    }

    /// Reserves the next sequence ticket. Call at the moment a cell
    /// *starts* executing (under the queue lock, for pools that pop
    /// concurrently) so ticket order equals submission order.
    pub fn reserve(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::Relaxed)
    }

    /// Delivers the report for ticket `seq`, flushing every newly
    /// contiguous report to disk.
    pub fn submit(&self, seq: u64, report: tlm::Report) {
        self.deliver(seq, Some(report));
    }

    /// Marks ticket `seq` as producing no report (cache hit after
    /// reservation, failed thunk), so later tickets can still flush.
    pub fn skip(&self, seq: u64) {
        self.deliver(seq, None);
    }

    /// Runs flushed so far, in ticket order (tests).
    pub fn flushed(&self) -> Vec<String> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.runs.iter().map(|r| r.label.clone()).collect()
    }

    fn deliver(&self, seq: u64, report: Option<tlm::Report>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.pending.insert(seq, report);
        let mut grew = false;
        while let Some(entry) = {
            let next = state.next;
            state.pending.remove(&next)
        } {
            state.next += 1;
            if let Some(rep) = entry {
                state.runs.push(rep);
                grew = true;
            }
        }
        if grew {
            self.rewrite(&state.runs);
        }
    }

    /// Rewrites the JSON and CSV files from the flushed prefix. Called
    /// with the state lock held, so writes never interleave.
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
            ..Config::default()
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
    fn out_of_order_submission_flushes_in_ticket_order() {
        let path = scratch("order");
        let sink = TraceSink::new(&path);
        let (t0, t1, t2) = (sink.reserve(), sink.reserve(), sink.reserve());
        sink.submit(t2, report("third"));
        assert_eq!(sink.flushed(), Vec::<String>::new(), "t2 buffers");
        sink.submit(t0, report("first"));
        assert_eq!(sink.flushed(), vec!["first"], "t0 flushes, t2 held");
        sink.submit(t1, report("second"));
        assert_eq!(sink.flushed(), vec!["first", "second", "third"]);
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.find("first").unwrap();
        let second = text.find("second").unwrap();
        let third = text.find("third").unwrap();
        assert!(first < second && second < third, "file in ticket order");
        let csv = std::fs::read_to_string(path.replace(".json", ".csv")).unwrap();
        assert!(csv.starts_with("label,epoch,"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.replace(".json", ".csv"));
    }

    #[test]
    fn skipped_tickets_do_not_block_the_prefix() {
        let path = scratch("skip");
        let sink = TraceSink::new(&path);
        let (t0, t1) = (sink.reserve(), sink.reserve());
        sink.submit(t1, report("kept"));
        assert_eq!(sink.flushed(), Vec::<String>::new());
        sink.skip(t0); // cache hit: no report, but the gap must close
        assert_eq!(sink.flushed(), vec!["kept"]);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.replace(".json", ".csv"));
    }
}

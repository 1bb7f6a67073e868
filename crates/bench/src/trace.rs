//! The `PHELPS_TRACE` telemetry files.
//!
//! Each traced cell's pipeline records its own [`Report`]. After the
//! [`runner`]'s pool drains, it hands the reports to [`write`] in
//! declaration order, so the trace lists runs in submission order for
//! any worker count, and both files are written once.
//!
//! [`runner`]: crate::runner

use phelps_telemetry::{JsonWriter, Report};

/// The `PHELPS_TRACE` output path, when tracing is enabled.
pub fn path() -> Option<String> {
    std::env::var("PHELPS_TRACE").ok().filter(|p| !p.is_empty())
}

/// Writes `runs` to `path` as one JSON document (`{"runs": [...]}`)
/// and their epoch series to the sibling CSV (`.json` replaced by, or
/// else suffixed with, `.csv`): one header, then every run's rows with a
/// leading label column. Write errors warn and continue.
pub fn write(path: &str, runs: &[&Report]) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("runs");
    w.begin_array();
    for r in runs {
        r.write_json(&mut w);
    }
    w.end_array();
    w.end_object();
    if let Err(e) = std::fs::write(path, w.finish()) {
        eprintln!("warning: cannot write {path}: {e}");
    }

    let csv_path = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.csv"),
        None => format!("{path}.csv"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_telemetry::{parse_json, Config, JsonValue, Registry, SimStats};

    /// A tiny report: four retirements in epochs of two.
    fn report(label: &str) -> Report {
        let mut reg = Registry::new(Config {
            epoch_len: 2,
            label: label.to_string(),
        });
        let mut stats = SimStats::default();
        for cycle in 1..=4u64 {
            stats.cycles = cycle;
            stats.mt_retired += 1;
            reg.retired(|| stats.clone());
        }
        reg.into_report(&stats)
    }

    fn scratch(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("phelps-trace-{}-{tag}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn runs_are_written_in_order_under_one_csv_header() {
        let path = scratch("order");
        let csv_path = path.replace(".json", ".csv");
        let runs: Vec<Report> = ["first", "second", "third"].map(report).into();
        write(&path, &runs.iter().collect::<Vec<_>>());
        let v = parse_json(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
        let labels: Vec<&str> = v
            .get("runs")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["first", "second", "third"], "runs in order");
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

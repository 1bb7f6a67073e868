//! Results: the versioned result file, the contract line, and the
//! printed summary.

use crate::metrics::MetricDef;
use crate::stats::Summary;
use phelps_telemetry::{parse_json, JsonValue, JsonWriter};
use std::path::Path;

/// Schema tag of the result file.
pub const SCHEMA: &str = "phelps-benchmark-result/1";

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: Summary,
}

/// One cell's row: simulated work and host speed.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRow {
    pub cell: String,
    pub insts: u64,
    pub cycles: u64,
    pub mips: Summary,
}

/// Everything one run or trace of one workload measured.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    /// `run` (end-to-end metrics) or `trace` (per-layer metrics).
    pub mode: String,
    pub seed: u64,
    pub git_rev: String,
    pub seconds: u64,
    pub rounds: u64,
    pub ops: u64,
    pub failed: u64,
    /// FNV-1a over every cell's `SimStats`: unchanged by a change that
    /// only makes the simulator faster.
    pub stats_digest: String,
    pub metrics: Vec<Metric>,
    pub cells: Vec<CellRow>,
}

impl WorkloadReport {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Adds a metric under its table unit.
    pub fn push(&mut self, def: &MetricDef, value: Summary) {
        self.metrics.push(Metric {
            name: def.name.to_string(),
            unit: def.unit.to_string(),
            value,
        });
    }

    /// The last line the benchmark prints: whether every operation was
    /// correct, and the median of each metric in `defs`, with all its
    /// digits.
    pub fn contract_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .metric(d.name)
                    .unwrap_or_else(|| panic!("{} was measured", d.name))
                    .value
                    .median;
                assert!(v.is_finite(), "{} is finite", d.name);
                format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, d.name, d.unit)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failed == 0,
            self.ops,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the human-readable summary.
    pub fn print(&self) {
        println!(
            "== {} ({}) seed={} rounds={} ops={} failed={} sim.stats_digest={}",
            self.workload,
            self.mode,
            self.seed,
            self.rounds,
            self.ops,
            self.failed,
            self.stats_digest
        );
        for m in &self.metrics {
            let s = &m.value;
            println!(
                "  {:<52} {:>14.4} {:<8} q1 {:.4}  q3 {:.4}  n={}",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
        }
        for c in &self.cells {
            println!(
                "  cell {:<16} {:>8.4} MIPS  q1 {:.4}  q3 {:.4}  n={}  insts={} cycles={}",
                c.cell, c.mips.median, c.mips.q1, c.mips.q3, c.mips.n, c.insts, c.cycles
            );
        }
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (k, v) in [
            ("workload", &self.workload),
            ("mode", &self.mode),
            ("git_rev", &self.git_rev),
            ("stats_digest", &self.stats_digest),
        ] {
            w.key(k);
            w.string(v);
        }
        for (k, v) in [
            ("seed", self.seed),
            ("seconds", self.seconds),
            ("rounds", self.rounds),
            ("ops", self.ops),
            ("failed", self.failed),
        ] {
            w.key(k);
            w.uint(v);
        }
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(&m.name);
            w.begin_object();
            w.key("unit");
            w.string(&m.unit);
            write_summary(w, &m.value);
            w.end_object();
        }
        w.end_object();
        w.key("cells");
        w.begin_array();
        for c in &self.cells {
            w.begin_object();
            w.key("cell");
            w.string(&c.cell);
            w.key("insts");
            w.uint(c.insts);
            w.key("cycles");
            w.uint(c.cycles);
            w.key("mips");
            w.begin_object();
            write_summary(w, &c.mips);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    fn parse(v: &JsonValue) -> Result<WorkloadReport, String> {
        let metrics = match v.get("metrics") {
            Some(JsonValue::Object(pairs)) => pairs
                .iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        name: name.clone(),
                        unit: string(m, "unit")?,
                        value: parse_summary(m)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing metrics object".into()),
        };
        let cells = v
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or("missing cells array")?
            .iter()
            .map(|c| {
                Ok(CellRow {
                    cell: string(c, "cell")?,
                    insts: uint(c, "insts")?,
                    cycles: uint(c, "cycles")?,
                    mips: parse_summary(c.get("mips").ok_or("missing cell mips")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(WorkloadReport {
            workload: string(v, "workload")?,
            mode: string(v, "mode")?,
            seed: uint(v, "seed")?,
            git_rev: string(v, "git_rev")?,
            seconds: uint(v, "seconds")?,
            rounds: uint(v, "rounds")?,
            ops: uint(v, "ops")?,
            failed: uint(v, "failed")?,
            stats_digest: string(v, "stats_digest")?,
            metrics,
            cells,
        })
    }
}

fn write_summary(w: &mut JsonWriter, s: &Summary) {
    for (k, v) in [("median", s.median), ("q1", s.q1), ("q3", s.q3)] {
        w.key(k);
        w.float(v);
    }
    w.key("n");
    w.uint(s.n as u64);
}

fn parse_summary(v: &JsonValue) -> Result<Summary, String> {
    let f = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing number {k}"))
    };
    Ok(Summary {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
        n: uint(v, "n")? as usize,
    })
}

fn string(v: &JsonValue, k: &str) -> Result<String, String> {
    v.get(k)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string {k}"))
}

fn uint(v: &JsonValue, k: &str) -> Result<u64, String> {
    v.get(k)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer {k}"))
}

/// Serializes `reports` as one result document.
pub fn to_json(reports: &[WorkloadReport]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string(SCHEMA);
    w.key("workloads");
    w.begin_array();
    for r in reports {
        r.write(&mut w);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Parses a result document.
pub fn from_json(text: &str) -> Result<Vec<WorkloadReport>, String> {
    let v = parse_json(text)?;
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema {other:?}, expected {SCHEMA:?}")),
    }
    v.get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("missing workloads array")?
        .iter()
        .map(WorkloadReport::parse)
        .collect()
}

/// Writes `reports` to `path`, then reads the file back and checks that
/// it parses to the same workloads.
pub fn write_file(path: &Path, reports: &[WorkloadReport]) -> Result<(), String> {
    let text = to_json(reports);
    std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let back = read_file(path)?;
    let names = |rs: &[WorkloadReport]| rs.iter().map(|r| r.workload.clone()).collect::<Vec<_>>();
    if names(&back) != names(reports) {
        return Err(format!("{} did not read back", path.display()));
    }
    Ok(())
}

pub fn read_file(path: &Path) -> Result<Vec<WorkloadReport>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadReport {
        WorkloadReport {
            workload: "baseline".into(),
            mode: "run".into(),
            seed: 2473,
            git_rev: "abc".into(),
            seconds: 20,
            rounds: 9,
            ops: 40,
            failed: 0,
            stats_digest: "00ff".into(),
            metrics: vec![Metric {
                name: "mips".into(),
                unit: "MIPS".into(),
                value: Summary {
                    median: 1.5,
                    q1: 1.25,
                    q3: 1.75,
                    n: 9,
                },
            }],
            cells: vec![CellRow {
                cell: "bfs-baseline".into(),
                insts: 500_000,
                cycles: 800_000,
                mips: Summary::exact(2.0),
            }],
        }
    }

    #[test]
    fn result_document_round_trips() {
        let r = sample();
        let back = from_json(&to_json(std::slice::from_ref(&r))).unwrap();
        assert_eq!(back, vec![r]);
        assert!(from_json(r#"{"schema": "other/1", "workloads": []}"#).is_err());
    }

    #[test]
    fn contract_line_is_json_with_full_digits() {
        let mut r = sample();
        r.metrics[0].value.median = 1.234_567_891_234;
        let line = r.contract_line(&[crate::metrics::END_TO_END[0]]);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(40));
        let mips = v.get("metrics").and_then(|m| m.get("mips")).unwrap();
        assert_eq!(
            mips.get("value").and_then(JsonValue::as_f64),
            Some(1.234_567_891_234)
        );
        assert_eq!(mips.get("unit").and_then(JsonValue::as_str), Some("MIPS"));
    }
}

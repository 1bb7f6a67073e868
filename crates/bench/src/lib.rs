//! # phelps-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation. Each `src/bin/figNN.rs` binary reruns the corresponding
//! experiment and prints the same rows/series the paper reports; this
//! library holds the shared runners and formatting.
//!
//! Region and epoch lengths are scaled for tractable runtimes (see
//! DESIGN.md §1) and overridable via environment variables:
//!
//! * `PHELPS_REGION` — retired main-thread instructions per run
//!   (default 2,000,000; the paper uses 100M SimPoints);
//! * `PHELPS_EPOCH` — epoch length (default 150,000; the paper uses 4M).
//!
//! ## Parallel execution and caching
//!
//! The [`runner`] module executes a figure's whole (workload ×
//! configuration) matrix on a work queue of `PHELPS_JOBS` threads,
//! serving unchanged cells from the on-disk cache (`results/cache/`,
//! bypassed with `PHELPS_NO_CACHE=1`) and filtering cells with
//! `--only=<substr>` / `PHELPS_ONLY`. All nine figure binaries go
//! through it.
//!
//! ## Telemetry
//!
//! Setting `PHELPS_TRACE=<path>` makes the [`runner`] ask each simulated
//! cell's pipeline to record its epoch series
//! (`phelps::sim::Pipeline::record_epochs`) and, once every cell is done,
//! write the reports to `<path>` as one JSON document
//! (`{"runs": [...]}`), plus the per-epoch series of every run as a
//! sibling CSV, in cell submission order regardless of the worker count.
//! Each run's series is its `SimStats`, one delta per epoch of
//! `PHELPS_EPOCH` retired instructions; see DESIGN.md's telemetry
//! section for the schema. Tracing forces every cell to simulate
//! (telemetry is never served from the cache).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ckpt_support;
mod exec;
pub mod runner;
pub mod shard;
mod trace;

use phelps::sim::{Mode, PhelpsFeatures, Pipeline, PreExecEngine, RunConfig, SimResult};
use phelps_isa::Cpu;
use phelps_runahead::BrVariant;
use phelps_telemetry as tlm;

/// `p`, set to record its epoch series when `telemetry` asks for one.
fn recording<E: PreExecEngine>(mut p: Pipeline<E>, telemetry: Option<tlm::Config>) -> Pipeline<E> {
    if let Some(t) = telemetry {
        p.record_epochs(t);
    }
    p
}

/// Emits `warning: <msg>` once per process per environment-variable
/// name, so a bad value in a variable consulted many times per run (e.g.
/// `PHELPS_SHARDS` per cell) does not spam the log.
fn warn_env_once(name: &'static str, msg: std::fmt::Arguments<'_>) {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    if WARNED.lock().map(|mut s| s.insert(name)).unwrap_or(false) {
        eprintln!("warning: {msg}");
    }
}

/// Parses `name` as u64, warning (once per process) when the variable is
/// set but unparsable instead of silently using the default.
fn env_u64(name: &'static str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse() {
            Ok(n) => n,
            Err(_) => {
                warn_env_once(
                    name,
                    format_args!("ignoring unparsable {name}={v:?}; using default {default}"),
                );
                default
            }
        },
        Err(_) => default,
    }
}

/// Retired-instruction budget for one run.
pub(crate) fn region_len() -> u64 {
    env_u64("PHELPS_REGION", 2_000_000)
}

/// Epoch length used by the delinquency/construction machinery.
pub fn epoch_len() -> u64 {
    env_u64("PHELPS_EPOCH", 150_000)
}

/// The runner's result-cache directory: `PHELPS_CACHE_DIR`, defaulting
/// to `results/cache`; `None` when `PHELPS_NO_CACHE` is set to anything
/// but `0`.
pub(crate) fn cache_dir_from_env() -> Option<std::path::PathBuf> {
    if std::env::var("PHELPS_NO_CACHE").is_ok_and(|v| v != "0") {
        return None;
    }
    Some(
        std::env::var("PHELPS_CACHE_DIR")
            .ok()
            .filter(|s| !s.is_empty())
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("results/cache")),
    )
}

/// Worker-thread count: `PHELPS_JOBS`, defaulting to the machine's
/// available parallelism. One knob bounds both the runner's cell pool
/// and the shard pool ([`shard`], [`run_simpoints_with`]); it is pure
/// execution parallelism and never changes any result byte.
pub fn resolved_jobs() -> usize {
    let default = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match std::env::var("PHELPS_JOBS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            Ok(_) => {
                warn_env_once(
                    "PHELPS_JOBS",
                    format_args!("PHELPS_JOBS must be >= 1; using 1"),
                );
                1
            }
            Err(_) => {
                let d = default();
                warn_env_once(
                    "PHELPS_JOBS",
                    format_args!("ignoring unparsable PHELPS_JOBS={v:?}; using default {d}"),
                );
                d
            }
        },
        Err(_) => default(),
    }
}

/// The scaled run configuration shared by all experiments.
pub fn exp_config(mode: Mode) -> RunConfig {
    RunConfig::quick(mode, region_len(), epoch_len())
}

/// The outcome of a full SimPoint evaluation (see [`run_simpoints_with`]).
#[derive(Debug)]
pub struct SimPointRun {
    /// Weighted-harmonic-mean IPC over the surviving points — the
    /// paper's per-benchmark aggregate.
    pub hmean_ipc: f64,
    /// Per-point results, in point order.
    pub points: Vec<(phelps_workloads::simpoints::SimPoint, SimResult)>,
    /// Every per-point result folded through `SimResult::merge` in point
    /// order: summed `SimStats`, spliced telemetry series. `None` when no
    /// point survived.
    pub merged: Option<SimResult>,
}

/// Full SimPoint evaluation of one workload instance: profiles it,
/// selects representative regions, simulates each region under `cfg` as
/// a shard on `workers` threads, and aggregates — the weighted harmonic
/// mean of per-point IPCs plus the merged counter/telemetry bundle.
///
/// Missing region checkpoints are captured in one pre-pass under `ckpt`,
/// so the per-point shards restore instead of fast-forwarding. The
/// prototype `cpu` is constructed once by the caller and cloned per use
/// (profile pass, pre-capture pass, one clone per shard). A region whose
/// pre-region skip faults is skipped with a warning. `telemetry`, when
/// set, asks each point's pipeline to record its epoch series, so each
/// report covers only the timed region.
///
/// The output is deterministic in `workers`: shards are independent and
/// fold in point order, so any worker count yields byte-identical
/// per-point and merged results (CI-enforced; see `scripts/ci.sh`).
#[allow(clippy::too_many_arguments)]
pub fn run_simpoints_with(
    label: &str,
    cpu: Cpu,
    cfg: &RunConfig,
    profile_insts: u64,
    spcfg: &phelps_workloads::simpoints::SimPointConfig,
    ckpt: &ckpt_support::CkptPolicy,
    workers: usize,
    telemetry: Option<&tlm::Config>,
) -> SimPointRun {
    let points = phelps_workloads::simpoints::select_simpoints(cpu.clone(), profile_insts, spcfg);
    let starts: Vec<u64> = points.iter().map(|p| p.start_inst).collect();
    if let Err(e) = ckpt_support::ensure_region_checkpoints_with(ckpt, label, cpu.clone(), &starts)
    {
        eprintln!("warning: checkpoint pre-capture for {label} failed: {e}");
    }
    let shard_results = exec::run_indexed(points.len(), workers, |i| {
        let p = &points[i];
        match shard::run_shard(ckpt, label, cpu.clone(), p.start_inst, cfg, telemetry) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!(
                    "warning: skipping simpoint at inst {} (weight {:.3}): \
                     fast-forward failed: {e}",
                    p.start_inst, p.weight
                );
                None
            }
        }
    });
    let results: Vec<(phelps_workloads::simpoints::SimPoint, SimResult)> = points
        .into_iter()
        .zip(shard_results)
        .filter_map(|(p, r)| r.map(|r| (p, r)))
        .collect();
    let hmean_ipc = phelps_uarch::stats::weighted_harmonic_mean_ipc(
        &results
            .iter()
            .map(|(p, r)| (p.weight, r.stats.ipc()))
            .collect::<Vec<_>>(),
    );
    let merged = shard::fold_merge(
        label,
        results.iter().map(|(_, r)| Some(r.clone())).collect(),
    );
    SimPointRun {
        hmean_ipc,
        points: results,
        merged,
    }
}

/// The five standard comparison modes of Fig. 12a.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Config12a {
    /// Baseline superscalar.
    Baseline,
    /// Perfect branch prediction.
    PerfBp,
    /// Full-featured Phelps.
    Phelps,
    /// Branch Runahead with speculative triggering.
    Br,
    /// Branch Runahead on the 12-wide core.
    Br12w,
}

impl Config12a {
    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Config12a::Baseline => "baseline",
            Config12a::PerfBp => "perfBP",
            Config12a::Phelps => "Phelps",
            Config12a::Br => "BR",
            Config12a::Br12w => "BR-12w",
        }
    }

    /// Declares this configuration as one runner cell for `workload`.
    pub fn add_cell(
        self,
        exp: &mut runner::Experiment,
        workload: &str,
        make: impl FnOnce() -> Cpu + Send + 'static,
    ) {
        match self {
            Config12a::Baseline => exp.sim_cell(workload, self.label(), Mode::Baseline, make),
            Config12a::PerfBp => exp.sim_cell(workload, self.label(), Mode::PerfectBp, make),
            Config12a::Phelps => exp.sim_cell(
                workload,
                self.label(),
                Mode::Phelps(PhelpsFeatures::full()),
                make,
            ),
            Config12a::Br => exp.br_cell(workload, self.label(), BrVariant::Speculative, make),
            Config12a::Br12w => exp.br_cell(workload, self.label(), BrVariant::TwelveWide, make),
        }
    }
}

/// Prints an aligned text table: a header row then data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a speedup multiplier as a percentage over baseline.
pub fn pct(speedup: f64) -> String {
    format!("{:+.1}%", (speedup - 1.0) * 100.0)
}

/// Serializes a results table as CSV (RFC-4180-style quoting for cells
/// containing commas, quotes or newlines), for downstream plotting.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Writes a results table as CSV next to the text output (under
/// `results/`), creating the directory if needed. Errors are reported but
/// not fatal — the printed table is the primary artifact.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, to_csv(headers, rows)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scaling_defaults() {
        // (Do not set the env vars here; parallel tests share the process.)
        assert!(region_len() >= 10_000);
        assert!(epoch_len() >= 1_000);
        assert!(region_len() > epoch_len());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(1.47), "+47.0%");
        assert_eq!(pct(0.9), "-10.0%");
    }

    #[test]
    fn csv_escapes_properly() {
        let csv = to_csv(
            &["name", "value"],
            &[
                vec!["plain".into(), "1".into()],
                vec!["with,comma".into(), "with \"quote\"".into()],
            ],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with,comma\",\"with \"\"quote\"\"\"");
    }

    #[test]
    fn csv_roundtrips_simple_tables() {
        let rows = vec![vec!["a".to_string(), "2.5".to_string()]];
        let csv = to_csv(&["bench", "ipc"], &rows);
        assert_eq!(csv, "bench,ipc\na,2.5\n");
    }

    #[test]
    fn config12a_labels_unique() {
        let labels = [
            Config12a::Baseline.label(),
            Config12a::PerfBp.label(),
            Config12a::Phelps.label(),
            Config12a::Br.label(),
            Config12a::Br12w.label(),
        ];
        let mut d = labels.to_vec();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), labels.len());
    }
}

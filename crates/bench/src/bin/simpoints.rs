//! SimPoint methodology demo (paper §VI): profile a benchmark, select up
//! to five representative regions, simulate each region as a shard on the
//! `PHELPS_JOBS` thread pool, and aggregate with the weighted harmonic
//! mean of IPCs — the paper's per-benchmark reporting method.
//!
//! The whole evaluation runs through [`phelps_bench::run_simpoints_with`]:
//! profiling and checkpoint pre-capture happen sequentially up front, the
//! per-region timing simulations fan out as shards, and the per-point
//! results fold through the associative merges into one stitched
//! `SimResult` per (workload, mode).
//!
//! Output is deterministic in `PHELPS_JOBS` — stdout and the
//! `--merged-out` JSON are byte-identical for any worker count. CI
//! enforces this (see `scripts/ci.sh`).

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::{
    ckpt_support, epoch_len, exp_config, print_table, resolved_jobs, run_simpoints_with,
    SimPointRun,
};
use phelps_telemetry::{self as tlm, JsonWriter};
use phelps_workloads::simpoints::SimPointConfig;
use phelps_workloads::suite;

fn make_workload(workload: &str) -> phelps_isa::Cpu {
    match workload {
        "astar" => suite::astar().cpu,
        _ => suite::bfs().cpu,
    }
}

/// One evaluated (workload, mode) pair, kept for the `--merged-out` dump.
struct EvalRun {
    workload: &'static str,
    mode_label: &'static str,
    run: SimPointRun,
}

/// Serializes every merged run as one JSON document: per-run
/// weighted-hmean IPC, the merged `SimStats` (the cache's `"stats"`
/// object), and the merged telemetry report. Byte-identical across
/// worker counts by construction — the sharded-equals-sequential CI
/// check diffs two of these files.
fn merged_json(runs: &[EvalRun]) -> String {
    let mut j = String::from("{\"schema\":\"phelps-simpoints-merged/3\",\"runs\":[");
    let mut first = true;
    for er in runs {
        let Some(merged) = er.run.merged.as_ref() else {
            continue;
        };
        if !first {
            j.push(',');
        }
        first = false;
        let mut stats = JsonWriter::new();
        merged.stats.write_json(&mut stats);
        j.push_str(&format!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"points\":{},\"hmean_ipc\":{:.6},\"stats\":{}",
            er.workload,
            er.mode_label,
            er.run.points.len(),
            er.run.hmean_ipc,
            stats.finish()
        ));
        if let Some(report) = merged.telemetry.as_deref() {
            j.push_str(&format!(",\"telemetry\":{}", report.to_json()));
        }
        j.push('}');
    }
    j.push_str("]}");
    j
}

fn main() {
    let mut merged_out: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(path) = arg.strip_prefix("--merged-out=") {
            merged_out = Some(path.to_string());
        } else {
            eprintln!("usage: simpoints [--merged-out=PATH]");
            std::process::exit(2);
        }
    }

    let spcfg = SimPointConfig {
        interval_len: 200_000,
        max_points: 5,
        kmeans_iters: 12,
    };
    let profile = 4_000_000;
    let ckpt = ckpt_support::CkptPolicy::from_env();
    let workers = resolved_jobs();

    let modes: [(&'static str, Mode); 2] = [
        ("baseline", Mode::Baseline),
        ("phelps", Mode::Phelps(PhelpsFeatures::full())),
    ];
    let mut runs: Vec<EvalRun> = Vec::new();
    for name in ["astar", "bfs"] {
        for (mode_label, mode) in &modes {
            // A per-(workload, mode) telemetry label so the merged
            // reports in --merged-out are distinguishable; installed per
            // shard by the engine, after checkpoint positioning.
            let telemetry = merged_out.as_ref().map(|_| tlm::Config {
                epoch_len: epoch_len(),
                label: format!("simpoints/{name}/{mode_label}"),
                ..tlm::Config::default()
            });
            let run = run_simpoints_with(
                name,
                make_workload(name),
                &exp_config(mode.clone()),
                profile,
                &spcfg,
                &ckpt,
                workers,
                telemetry.as_ref(),
            );
            runs.push(EvalRun {
                workload: name,
                mode_label,
                run,
            });
        }
    }

    for pair in runs.chunks(2) {
        let [base, ph] = pair else { continue };
        let name = base.workload;
        let rows: Vec<Vec<String>> = base
            .run
            .points
            .iter()
            .map(|(p, r)| {
                vec![
                    format!("{}", p.phase),
                    format!("{}", p.start_inst),
                    format!("{:.3}", p.weight),
                    format!("{:.3}", r.stats.ipc()),
                ]
            })
            .collect();
        if rows.is_empty() && ph.run.points.is_empty() {
            continue;
        }
        print_table(
            &format!("{name}: SimPoints (baseline)"),
            &["phase", "start", "weight", "IPC"],
            &rows,
        );
        println!(
            "{name}: weighted-hmean IPC baseline {:.3}, Phelps {:.3} ({:+.1}%)",
            base.run.hmean_ipc,
            ph.run.hmean_ipc,
            (ph.run.hmean_ipc / base.run.hmean_ipc - 1.0) * 100.0
        );
    }

    if let Some(path) = merged_out {
        let json = merged_json(&runs);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[simpoints] merged results -> {path}");
    }
    ckpt_support::print_summary();
}

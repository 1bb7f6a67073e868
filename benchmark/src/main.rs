//! phelps-benchmark: the repository benchmark.
//!
//! ```text
//! phelps-benchmark run   [--workload=NAME] [--seed=N] [--seconds=S] [--out=PATH]
//! phelps-benchmark trace [--workload=NAME] [--seed=N] [--seconds=S] [--out=PATH]
//! phelps-benchmark compare PARENT.json CHANGE.json
//! phelps-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! ```
//!
//! `run` and `trace` measure each workload (all four by default) in a
//! child process of its own, one after another; the last form is that
//! child. Its last line of output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end (`--trace 0`) or per-layer
//! (`--trace 1`) metrics listed in `BENCHMARK.json`. See README.md.

mod cells;
mod compare;
mod host;
mod inputs;
mod layers;
mod measure;
mod metrics;
mod report;
mod stats;
mod timed;

use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  phelps-benchmark run   [--workload=NAME] [--seed=N] [--seconds=S] [--out=PATH]
  phelps-benchmark trace [--workload=NAME] [--seed=N] [--seconds=S] [--out=PATH]
  phelps-benchmark compare PARENT.json CHANGE.json
  phelps-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..], false),
        Some("trace") => suite(&args[1..], true),
        Some("compare") => compare::main(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        _ => worker(&args),
    };
    std::process::exit(code);
}

#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not a number: {s:?}"))
}

/// Accepts `--key value` and `--key=value`.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = inline
            .or_else(|| it.next().cloned())
            .ok_or_else(|| format!("{key} needs a value"))?;
        match key {
            "--workload" => f.workload = Some(value),
            "--seed" => f.seed = parse_u64(&value)?,
            "--seconds" => f.seconds = parse_u64(&value)?,
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => f.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(f)
}

/// A scratch directory inside the benchmark package, private to this
/// process and removed when it drops.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Removes every `PHELPS_*` variable, so no setting of the caller's
/// changes what is simulated, then points `PHELPS_CKPT_DIR` at an empty
/// directory.
fn sanitize_env(ckpt_dir: &Path) {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PHELPS_"))
        .collect();
    for k in names {
        std::env::remove_var(k);
    }
    std::env::set_var("PHELPS_CKPT_DIR", ckpt_dir);
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Measures one workload in this process.
fn worker(args: &[String]) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let Some(name) = flags.workload.as_deref() else {
        eprintln!("error: --workload is required\n{USAGE}");
        return 2;
    };
    let Some(workload) = cells::workload(name) else {
        let names: Vec<&str> = cells::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: unknown workload {name:?}; one of {names:?}");
        return 2;
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: cannot create the scratch directory: {e}");
            return 1;
        }
    };
    sanitize_env(&work.0.join("ckpt"));
    println!("workload {}: {}", workload.name, workload.why);
    let req = measure::Request {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        work: &work.0,
    };
    let mut report = if flags.trace {
        measure::trace(&req)
    } else {
        measure::run(&req)
    };
    report.print();
    if let Some(out) = &flags.out {
        report.git_rev = git_rev();
        if let Err(e) = report::write_file(out, std::slice::from_ref(&report)) {
            eprintln!("error: {e}");
            return 1;
        }
    }
    let defs = if flags.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", report.contract_line(defs));
    i32::from(report.failed > 0)
}

/// `run` / `trace`: every selected workload in a child process of its
/// own, one after another, so each has its own peak-memory reading.
fn suite(args: &[String], trace: bool) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let workloads: Vec<&str> = match flags.workload.as_deref() {
        Some(n) if cells::workload(n).is_some() => vec![n],
        Some(n) => {
            eprintln!("error: unknown workload {n:?}");
            return 2;
        }
        None => cells::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let (work, exe) = match (WorkDir::create(), std::env::current_exe()) {
        (Ok(w), Ok(e)) => (w, e),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let mut reports = Vec::new();
    for name in workloads {
        let out = work.0.join(format!("{name}.json"));
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }, "--out"])
            .arg(&out)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: workload {name} exited with {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("error: cannot start workload {name}: {e}");
                code = 1;
            }
        }
        match report::read_file(&out) {
            Ok(mut r) => reports.append(&mut r),
            Err(e) => {
                eprintln!("error: {e}");
                code = 1;
            }
        }
    }
    println!("\n== summary ({}) ==", if trace { "trace" } else { "run" });
    for r in &reports {
        for m in &r.metrics {
            println!(
                "{:<9} {:<52} {:>14.4} {:<8} q1 {:.4}  q3 {:.4}  n={}",
                r.workload, m.name, m.value.median, m.unit, m.value.q1, m.value.q3, m.value.n
            );
        }
        println!(
            "{:<9} {:<52} {:>14}",
            r.workload, "sim.stats_digest", r.stats_digest
        );
    }
    if let Some(path) = &flags.out {
        match report::write_file(path, &reports) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                code = 1;
            }
        }
    }
    code
}

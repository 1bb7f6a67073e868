//! Measuring one workload: `run` (end-to-end metrics, tracing off) and
//! `trace` (per-layer metrics, in a separate run).
//!
//! Both first build the inputs, then run one untimed warm-up round whose
//! `SimStats` are each cell's reference, then timed rounds. A round runs
//! every cell of the workload once, in table order: host slowdowns on a
//! small shared machine come in bursts, so interleaving cells and taking
//! medians over rounds is steadier than repeating one cell back to back.
//! `run` also scales every host time to the reference host speed
//! measured by [`host::probe_ms`] around it.

use crate::cells::{self, Engine, Kind, Prepared, Sample, WorkloadSpec, REGION, SHARDS};
use crate::host;
use crate::inputs::{emulate, Input};
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER, RESULT_ONLY};
use crate::report::{fnv1a, CellRow, WorkloadReport, FNV_OFFSET};
use crate::stats::{median, summarize, Summary};
use crate::timed::Probe;
use phelps_bench::ckpt_support::{ensure_region_checkpoints_with, CkptPolicy};
use phelps_bench::shard::shard_plan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Builds of the inputs whose median is `setup_s`.
const SETUP_REPS: usize = 7;
/// Fewest timed rounds of a `run`, and fewest traced/untraced round
/// pairs of a `trace`, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// What one measurement is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Request<'a> {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: u64,
    /// Scratch directory, empty and private to this process.
    pub work: &'a Path,
}

/// Operation accounting: one cell sample or one check is one operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
        ok
    }

    /// Runs `f` as one operation, which fails if it panics.
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        let r = guarded(f);
        self.check(r.is_some(), || format!("{what} panicked"));
        r
    }
}

/// Runs `f`, turning a panic into `None` (the panic message has already
/// gone to stderr).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Retired-instruction offsets at which the shards start.
pub fn shard_starts() -> Vec<u64> {
    shard_plan(REGION, SHARDS).iter().map(|s| s.skip).collect()
}

/// Builds every input of the workload `reps` times from the seed (for
/// `sharded`, also capturing its region checkpoints into an empty
/// directory) and returns the last build with each build's seconds at
/// the reference host speed.
fn setup(req: &Request, reps: usize) -> (Prepared, Vec<f64>) {
    let sharded = req.workload.cells.iter().any(|c| c.kind == Kind::Sharded);
    let seeds: Vec<(Input, u64)> = req
        .workload
        .inputs()
        .into_iter()
        .map(|i| (i, i.runnable_seed(req.seed)))
        .collect();
    let mut secs = Vec::with_capacity(reps);
    let mut cpus = Prepared::new();
    let mut before = host::probe_ms();
    for r in 0..reps {
        let dir = req.work.join(format!("setup-{r}"));
        let t = Instant::now();
        cpus = seeds.iter().map(|&(i, s)| (i, i.build(s))).collect();
        if sharded {
            let policy = CkptPolicy {
                dir: dir.clone(),
                ..CkptPolicy::from_env()
            };
            let bfs = cpus[&Input::Bfs].clone();
            ensure_region_checkpoints_with(&policy, Input::Bfs.label(), bfs, &shard_starts())
                .expect("bfs runs past every shard start");
        }
        let elapsed = t.elapsed().as_secs_f64();
        let after = host::probe_ms();
        secs.push(elapsed / host::slowdown(before, after));
        before = after;
        let _ = std::fs::remove_dir_all(&dir);
    }
    (cpus, secs)
}

/// Checks every core of every cell against the functional emulator:
/// the pipeline retires exactly the emulator's instructions and
/// conditional branches.
fn oracle_checks(
    w: &WorkloadSpec,
    refs: &[Option<Sample>],
    counts: &std::collections::BTreeMap<Input, (u64, u64)>,
    ops: &mut Ops,
) {
    for (c, r) in w.cells.iter().zip(refs) {
        let Some(r) = r else { continue };
        for (input, s) in r.cores(c.kind) {
            let want = counts[&input];
            let got = (s.mt_retired, s.mt_cond_branches);
            ops.check(got == want, || {
                format!(
                    "{} {}: retired (insts, branches) {got:?}, emulator {want:?}",
                    c.name,
                    input.label()
                )
            });
        }
    }
}

/// Per-cell samples, one vector per cell in table order.
struct Samples {
    cells: Vec<Vec<Sample>>,
    /// The warm-up (or first successful) sample of each cell.
    refs: Vec<Option<Sample>>,
}

impl Samples {
    fn new(n: usize) -> Samples {
        Samples {
            cells: vec![Vec::new(); n],
            refs: vec![None; n],
        }
    }

    /// Runs one round; every cell sample is an operation that fails on a
    /// panic or on stats differing from the cell's reference. Returns the
    /// round's samples, `None` for a failed cell.
    fn round(
        &mut self,
        req: &Request,
        cpus: &Prepared,
        ckpt: &CkptPolicy,
        probes: Option<&[Probe]>,
        ops: &mut Ops,
    ) -> Vec<Option<Sample>> {
        let w = req.workload;
        let mut out = Vec::with_capacity(w.cells.len());
        for (i, c) in w.cells.iter().enumerate() {
            let probe = probes.map(|p| &p[i]);
            let s = guarded(|| cells::run(c.kind, cpus, ckpt, probe));
            let ok = match (&s, &self.refs[i]) {
                (None, _) => false,
                (Some(s), Some(r)) => s.stats == r.stats,
                (Some(s), None) => {
                    self.refs[i] = Some(s.clone());
                    true
                }
            };
            let traced = if probe.is_some() { " (traced)" } else { "" };
            let s = if ops.check(ok, || {
                format!("{}{traced}: panicked or stats differ", c.name)
            }) {
                s
            } else {
                None
            };
            out.push(s);
        }
        out
    }

    /// Keeps a timed round's samples for the per-cell statistics.
    fn record(&mut self, round: &[Option<Sample>]) {
        for (cell, s) in self.cells.iter_mut().zip(round) {
            cell.extend(s.clone());
        }
    }

    /// FNV-1a over every cell's reference stats, in table order.
    fn digest(&self, w: &WorkloadSpec) -> String {
        let mut h = FNV_OFFSET;
        for (c, r) in w.cells.iter().zip(&self.refs) {
            h = fnv1a(c.name.as_bytes(), h);
            for s in r.iter().flat_map(|r| &r.stats) {
                h = fnv1a(format!("{s:?}").as_bytes(), h);
            }
        }
        format!("{h:016x}")
    }

    /// Per-cell rows: reference work, median host MIPS over samples.
    fn rows(&self, w: &WorkloadSpec) -> Vec<CellRow> {
        w.cells
            .iter()
            .zip(&self.cells)
            .zip(&self.refs)
            .filter_map(|((c, samples), r)| {
                let r = r.as_ref()?;
                let mips: Vec<f64> = samples.iter().map(mips_of).collect();
                Some(CellRow {
                    cell: c.name.to_string(),
                    insts: r.insts(),
                    cycles: r.cycles(),
                    mips: if mips.is_empty() {
                        Summary::exact(0.0)
                    } else {
                        summarize(&mips)
                    },
                })
            })
            .collect()
    }
}

fn mips_of(s: &Sample) -> f64 {
    s.insts() as f64 / 1e6 / s.secs
}

/// Σ instructions / Σ seconds over the round's cells selected by `pick`;
/// `None` unless every selected cell succeeded.
fn round_mips(
    w: &WorkloadSpec,
    round: &[Option<Sample>],
    pick: impl Fn(&cells::CellSpec) -> bool,
) -> Option<f64> {
    let (mut insts, mut secs, mut any) = (0u64, 0f64, false);
    for (c, s) in w.cells.iter().zip(round) {
        if pick(c) {
            let s = s.as_ref()?;
            insts += s.insts();
            secs += s.secs;
            any = true;
        }
    }
    any.then(|| insts as f64 / 1e6 / secs)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn base_report(
    req: &Request,
    mode: &str,
    rounds: usize,
    samples: &Samples,
    ops: &Ops,
) -> WorkloadReport {
    WorkloadReport {
        workload: req.workload.name.to_string(),
        mode: mode.to_string(),
        seed: req.seed,
        git_rev: String::new(),
        seconds: req.seconds,
        rounds: rounds as u64,
        ops: ops.attempted,
        failed: ops.failed,
        stats_digest: samples.digest(req.workload),
        metrics: Vec::new(),
        cells: samples.rows(req.workload),
    }
}

/// The end-to-end measurement.
pub fn run(req: &Request) -> WorkloadReport {
    let w = req.workload;
    let mut ops = Ops::default();
    let (cpus, setup_secs) = setup(req, SETUP_REPS);
    let counts = cpus.iter().map(|(i, c)| (*i, emulate(c))).collect();
    let ckpt = CkptPolicy::from_env();

    let mut samples = Samples::new(w.cells.len());
    samples.round(req, &cpus, &ckpt, None, &mut ops);
    oracle_checks(w, &samples.refs, &counts, &mut ops);

    let (mut mips, mut mips_raw, mut corun, mut probe) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let budget = Duration::from_secs(req.seconds);
    let mut rounds = 0;
    let mut before = host::probe_ms();
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        let mut r = samples.round(req, &cpus, &ckpt, None, &mut ops);
        let after = host::probe_ms();
        probe.push((before + after) / 2.0);
        mips_raw.extend(round_mips(w, &r, |c| c.mips));
        let slowdown = host::slowdown(before, after);
        for s in r.iter_mut().flatten() {
            s.secs /= slowdown;
        }
        mips.extend(round_mips(w, &r, |c| c.mips));
        corun.extend(round_mips(w, &r, |c| c.kind == Kind::Corun));
        samples.record(&r);
        before = after;
        rounds += 1;
    }

    let shard_err = w
        .cells
        .iter()
        .any(|c| c.kind == Kind::Sharded)
        .then(|| sharded_checks(&cpus, &ckpt, &samples, w, &mut ops))
        .flatten();

    let mut report = base_report(req, "run", rounds, &samples, &ops);
    let [mips_def, setup_def, rss_def] = &END_TO_END;
    let [raw_def, probe_def, corun_def, shard_err_def, fail_def] = &RESULT_ONLY;
    report.push(mips_def, summarize_or_zero(&mips));
    report.push(setup_def, summarize(&setup_secs));
    report.push(rss_def, Summary::exact(peak_rss_mib()));
    report.push(raw_def, summarize_or_zero(&mips_raw));
    report.push(probe_def, summarize(&probe));
    if !corun.is_empty() {
        report.push(corun_def, summarize(&corun));
    }
    if let Some(e) = shard_err {
        report.push(shard_err_def, Summary::exact(e));
    }
    report.push(
        fail_def,
        Summary::exact(100.0 * ops.failed as f64 / ops.attempted as f64),
    );
    report
}

fn summarize_or_zero(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        Summary::exact(0.0)
    } else {
        summarize(xs)
    }
}

/// The sharded workload's untimed checks: the merged stats of 1 worker
/// equal those of 2, and the 4-shard cycle error of bfs under Phelps
/// against its monolithic run (returned, in percent).
fn sharded_checks(
    cpus: &Prepared,
    ckpt: &CkptPolicy,
    samples: &Samples,
    w: &WorkloadSpec,
    ops: &mut Ops,
) -> Option<f64> {
    let i = w.cells.iter().position(|c| c.kind == Kind::Sharded)?;
    let bfs = || cpus[&Input::Bfs].clone();
    let one = guarded(|| cells::sharded(ckpt, 1, bfs(), &cells::config(Engine::Baseline)).stats);
    let two = samples.refs[i].as_ref().map(|s| &s.stats[0]);
    ops.check(one.is_some() && one.as_ref() == two, || {
        "sharded: merged stats differ between 1 and 2 workers".into()
    });
    let cfg = cells::config(Engine::Phelps);
    ops.run("sharded: Phelps accuracy pass", || {
        let mono = phelps::sim::simulate(bfs(), &cfg).stats.cycles as f64;
        let shards = cells::sharded(ckpt, cells::SHARD_WORKERS, bfs(), &cfg)
            .stats
            .cycles as f64;
        100.0 * (shards - mono).abs() / mono
    })
}

/// The per-layer measurement.
pub fn trace(req: &Request) -> WorkloadReport {
    let w = req.workload;
    let mut ops = Ops::default();
    let (cpus, _) = setup(req, 1);
    let span_ns = crate::timed::calibrate_span_ns();
    let replays: std::collections::BTreeMap<Input, layers::Replay> =
        cpus.iter().map(|(i, c)| (*i, layers::replay(c))).collect();
    let counts = replays
        .iter()
        .map(|(i, r)| (*i, (r.insts, r.cond_branches)))
        .collect();
    let ckpt = CkptPolicy::from_env();

    let mut samples = Samples::new(w.cells.len());
    samples.round(req, &cpus, &ckpt, None, &mut ops);
    oracle_checks(w, &samples.refs, &counts, &mut ops);

    let mut engines = layers::EngineTotals::default();
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let budget = Duration::from_secs(req.seconds);
    let wall = |r: &[Option<Sample>]| r.iter().flatten().map(|s| s.secs).sum::<f64>();
    let mut pairs = 0;
    // The overhead compares rounds run at different moments, so each
    // round's wall is scaled to the reference host speed.
    let mut before = host::probe_ms();
    while pairs < MIN_ROUNDS || start.elapsed() < budget {
        let probes: Vec<Probe> = w.cells.iter().map(|_| Probe::default()).collect();
        let traced = samples.round(req, &cpus, &ckpt, Some(&probes), &mut ops);
        let mid = host::probe_ms();
        traced_walls.push(wall(&traced) / host::slowdown(before, mid));
        engines.add(w, &traced, &probes, span_ns);
        let plain = samples.round(req, &cpus, &ckpt, None, &mut ops);
        let after = host::probe_ms();
        plain_walls.push(wall(&plain) / host::slowdown(mid, after));
        samples.record(&plain);
        before = after;
        pairs += 1;
    }

    let walls: Vec<f64> = samples
        .cells
        .iter()
        .map(|s| summarize_or_zero(&s.iter().map(|s| s.secs).collect::<Vec<_>>()).median)
        .collect();
    let mut values = layers::Values::default();
    engines.report(&mut values);
    layers::replay_shares(w, &samples.refs, &walls, &replays, &mut values);
    layers::uncore(w, &samples.refs, &mut values);
    values.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_walls) / median(&plain_walls) - 1.0),
    );

    let (lead, input, engine) = w.lead();
    let cpu = &cpus[&input];
    if let Some(v) = ops.run("ckpt layer", || layers::ckpt(input, cpu, req.work)) {
        v.into_iter().for_each(|(k, x)| values.set(k, x));
    }
    if let Some(r) = &samples.refs[lead] {
        let mono = (walls[lead], r.stats[0].cycles);
        let shard = ops.run("bench.shard layer", || {
            layers::shard(input, engine, cpu, mono, req.work)
        });
        if let Some(s) = shard {
            for same in s.workers_agree {
                ops.check(same, || {
                    "bench.shard: merged stats differ between 1 and 2 workers".into()
                });
            }
            s.values.into_iter().for_each(|(k, x)| values.set(k, x));
        }
    }

    let mut report = base_report(req, "trace", pairs, &samples, &ops);
    for def in &PER_LAYER {
        report.push(def, Summary::exact(values.get(def.name)));
    }
    report
}

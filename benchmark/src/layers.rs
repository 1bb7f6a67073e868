//! Per-layer measurements, all taken from outside the simulator crates.
//!
//! * The engine layers (`core.phelps_engine`, `runahead.engine`) are
//!   timed in situ through [`crate::timed::Timed`].
//! * The emulator, branch predictor and memory hierarchy are concrete
//!   fields inside `Pipeline`, so they cannot be timed in situ from
//!   outside. Their costs are measured by replaying each input's first
//!   [`REGION`] instructions through `Cpu::step`, `TageScL` and
//!   `MemoryHierarchy::request`, and their shares are estimates: the
//!   replay cost per operation times the operations the cell performed.
//! * The checkpoint and shard layers are timed around their public entry
//!   points on the workload's lead cell.

use crate::cells::{self, Engine, Kind, Sample, WorkloadSpec, REGION, SHARDS, SHARD_WORKERS};
use crate::inputs::Input;
use crate::measure::shard_starts;
use crate::metrics::PER_LAYER;
use crate::stats::median;
use crate::timed::{Group, Probe};
use phelps::sim::{SimResult, MT};
use phelps_bench::ckpt_support::{ensure_region_checkpoints_with, region_cpu_with, CkptPolicy};
use phelps_bench::shard::{run_shard, run_sharded_with, shard_plan};
use phelps_isa::Cpu;
use phelps_uarch::bpred::{DirectionPredictor, TageScL};
use phelps_uarch::config::CoreConfig;
use phelps_uarch::mem::{MemRequest, MemoryHierarchy};
use phelps_uarch::SimStats;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions of each replay; the median is reported.
const REPS: usize = 3;

/// Per-layer values by metric name. A layer the workload never enters
/// keeps the default 0.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is a per-layer metric"
        );
        self.0.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Hook calls, estimated hook time and simulated stats of one engine's
/// cells, over every traced round.
#[derive(Debug, Default)]
struct EngineAcc {
    calls: [u64; 3],
    ns: [f64; 3],
    stats: SimStats,
}

#[derive(Debug, Default)]
pub struct EngineTotals {
    phelps: EngineAcc,
    br: EngineAcc,
    /// Host seconds of every traced cell, the share denominator.
    wall: f64,
    rounds: u64,
}

impl EngineTotals {
    /// Adds one traced round.
    pub fn add(
        &mut self,
        w: &WorkloadSpec,
        round: &[Option<Sample>],
        probes: &[Probe],
        span_ns: f64,
    ) {
        self.rounds += 1;
        for ((c, s), p) in w.cells.iter().zip(round).zip(probes) {
            let Some(s) = s else { continue };
            self.wall += s.secs;
            let acc = match c.kind {
                Kind::Solo(_, Engine::Phelps) => &mut self.phelps,
                Kind::Solo(_, Engine::Br) => &mut self.br,
                _ => continue,
            };
            for g in Group::ALL {
                acc.calls[g as usize] += p.calls(g);
                acc.ns[g as usize] += p.estimate_ns(g, span_ns);
            }
            acc.stats.merge(&s.stats[0]);
        }
    }

    pub fn report(&self, v: &mut Values) {
        for (layer, acc) in [
            ("core.phelps_engine", &self.phelps),
            ("runahead.engine", &self.br),
        ] {
            let s = &acc.stats;
            let ns: f64 = acc.ns.iter().sum();
            let kinst = s.mt_retired as f64 / 1000.0;
            v.set(
                &format!("{layer}.share_pct"),
                100.0 * ratio(ns, self.wall * 1e9),
            );
            v.set(&format!("{layer}.ns_per_cycle"), ratio(ns, s.cycles as f64));
            for g in Group::ALL {
                let (calls, ns) = (acc.calls[g as usize] as f64, acc.ns[g as usize]);
                v.set(
                    &format!("{layer}.{}.calls_per_kinst", g.name()),
                    ratio(calls, kinst),
                );
                v.set(
                    &format!("{layer}.{}.ns_per_call", g.name()),
                    ratio(ns, calls),
                );
            }
            v.set(
                &format!("{layer}.ht_per_mt"),
                ratio(s.ht_retired as f64, s.mt_retired as f64),
            );
            v.set(
                &format!("{layer}.triggers"),
                ratio(s.triggers as f64, self.rounds as f64),
            );
        }
        let s = &self.phelps.stats;
        v.set(
            "core.phelps_engine.queue_pred_pct",
            100.0 * ratio(s.preds_from_queue as f64, s.mt_cond_branches as f64),
        );
        v.set(
            "core.phelps_engine.queue_wrong_pct",
            100.0 * ratio(s.mispredicts_from_queue as f64, s.preds_from_queue as f64),
        );
    }
}

/// One load or store of the replayed stream.
#[derive(Clone, Copy, Debug)]
struct MemOp {
    /// Position in the instruction stream.
    index: u64,
    pc: u64,
    addr: u64,
    store: bool,
}

/// An input's first [`REGION`] instructions, replayed functionally.
#[derive(Debug)]
pub struct Replay {
    pub insts: u64,
    pub cond_branches: u64,
    /// Host time of stepping every instruction through `Cpu::step`.
    emu_ns: f64,
    /// Host time of TAGE-SC-L predicting, speculating and training on
    /// every conditional branch, and how many it predicted wrong.
    tage_ns: f64,
    tage_wrong: u64,
    mem: Vec<MemOp>,
}

pub fn replay(cpu: &Cpu) -> Replay {
    let mut c = cpu.clone();
    let (mut insts, mut branches, mut mem) = (0u64, Vec::new(), Vec::new());
    while insts < REGION && !c.is_halted() {
        let rec = c.step().expect("input emulates");
        if rec.inst.is_cond_branch() {
            branches.push((rec.pc, rec.taken));
        }
        if rec.inst.is_load() || rec.inst.is_store() {
            mem.push(MemOp {
                index: insts,
                pc: rec.pc,
                addr: rec.mem_addr,
                store: rec.inst.is_store(),
            });
        }
        insts += 1;
    }
    let emu_ns = median(
        &(0..REPS)
            .map(|_| {
                let mut c = cpu.clone();
                let t = Instant::now();
                for _ in 0..insts {
                    black_box(c.step().expect("input emulates"));
                }
                elapsed_ns(t)
            })
            .collect::<Vec<_>>(),
    );
    let mut tage_wrong = 0;
    let tage_ns = median(
        &(0..REPS)
            .map(|_| {
                let mut bp = TageScL::large();
                let t = Instant::now();
                // The body of `DirectionPredictor::warm`, spelled out to
                // count the wrong predictions.
                tage_wrong = branches
                    .iter()
                    .map(|&(pc, taken)| {
                        let p = bp.predict(pc);
                        bp.speculate(pc, taken);
                        bp.update(pc, taken, p);
                        u64::from(p != taken)
                    })
                    .sum();
                elapsed_ns(t)
            })
            .collect::<Vec<_>>(),
    );
    Replay {
        insts,
        cond_branches: branches.len() as u64,
        emu_ns,
        tage_ns,
        tage_wrong,
        mem,
    }
}

/// The memory replay of one core of one cell.
#[derive(Debug, Default)]
struct MemReplay {
    ns: f64,
    reqs: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    dram: u64,
    port_stalls: u64,
}

/// Replays `ops` through a fresh `MemoryHierarchy`, stamping the i-th
/// instruction's request at cycle `i * cpi`.
fn mem_replay(ops: &[MemOp], cpi: f64) -> MemReplay {
    let mut out = MemReplay::default();
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut mh = MemoryHierarchy::new(&CoreConfig::paper_default());
            let t = Instant::now();
            for op in ops {
                let cycle = (op.index as f64 * cpi) as u64;
                let req = if op.store {
                    MemRequest::store(MT, op.pc, op.addr, cycle)
                } else {
                    MemRequest::load(MT, op.pc, op.addr, cycle)
                };
                black_box(mh.request(req));
            }
            let ns = elapsed_ns(t);
            let (acc, miss, _) = mh.l1d_stats();
            let (l1i, l1d, l2, l3, dram) = mh.port_stalls();
            out.l1d_accesses = acc;
            out.l1d_misses = miss;
            out.dram = mh.l3_misses();
            out.port_stalls = l1i + l1d + l2 + l3 + dram;
            ns
        })
        .collect();
    out.ns = median(&times);
    out.reqs = ops.len() as u64;
    out
}

/// The replay layers' cost per operation, their estimated shares of the
/// workload's host time, and `core.pipeline` (whatever the engine and
/// replay shares leave). Call after [`EngineTotals::report`].
pub fn replay_shares(
    w: &WorkloadSpec,
    refs: &[Option<Sample>],
    walls: &[f64],
    replays: &BTreeMap<Input, Replay>,
    v: &mut Values,
) {
    let (mut emu_est, mut bp_est, mut mem_est, mut wall, mut cycles) = (0.0, 0.0, 0.0, 0.0, 0u64);
    let mut mem = MemReplay::default();
    let mut mem_insts = 0;
    for ((c, r), secs) in w.cells.iter().zip(refs).zip(walls) {
        let Some(r) = r else { continue };
        wall += secs * 1e9;
        cycles += r.cycles();
        for (input, s) in r.cores(c.kind) {
            let rp = &replays[&input];
            emu_est += ratio(rp.emu_ns, rp.insts as f64) * s.mt_retired as f64;
            bp_est += ratio(rp.tage_ns, rp.cond_branches as f64) * s.mt_cond_branches as f64;
            let m = mem_replay(&rp.mem, ratio(s.cycles as f64, s.mt_retired as f64));
            let reqs = s.l1i_accesses + s.l1d_accesses + s.l1d_store_accesses;
            mem_est += ratio(m.ns, m.reqs as f64) * reqs as f64;
            mem.ns += m.ns;
            mem.reqs += m.reqs;
            mem.l1d_accesses += m.l1d_accesses;
            mem.l1d_misses += m.l1d_misses;
            mem.dram += m.dram;
            mem.port_stalls += m.port_stalls;
            mem_insts += rp.insts;
        }
    }
    let sum = |f: fn(&Replay) -> f64| replays.values().map(f).sum::<f64>();
    let insts = sum(|r| r.insts as f64);
    v.set("isa.emu.ns_per_inst", ratio(sum(|r| r.emu_ns), insts));
    v.set("isa.emu.est_share_pct", 100.0 * ratio(emu_est, wall));
    v.set(
        "uarch.bpred.ns_per_branch",
        ratio(sum(|r| r.tage_ns), sum(|r| r.cond_branches as f64)),
    );
    v.set("uarch.bpred.est_share_pct", 100.0 * ratio(bp_est, wall));
    v.set(
        "uarch.bpred.mpki",
        1000.0 * ratio(sum(|r| r.tage_wrong as f64), insts),
    );
    let kinst = mem_insts as f64 / 1000.0;
    v.set("uarch.mem.ns_per_req", ratio(mem.ns, mem.reqs as f64));
    v.set("uarch.mem.est_share_pct", 100.0 * ratio(mem_est, wall));
    v.set(
        "uarch.mem.l1d_miss_pct",
        100.0 * ratio(mem.l1d_misses as f64, mem.l1d_accesses as f64),
    );
    v.set("uarch.mem.dram_per_kinst", ratio(mem.dram as f64, kinst));
    v.set(
        "uarch.mem.port_stalls_per_kinst",
        ratio(mem.port_stalls as f64, kinst),
    );
    v.set("core.pipeline.ns_per_cycle", ratio(wall, cycles as f64));
    let others: f64 = [
        "core.phelps_engine.share_pct",
        "runahead.engine.share_pct",
        "isa.emu.est_share_pct",
        "uarch.bpred.est_share_pct",
        "uarch.mem.est_share_pct",
    ]
    .iter()
    .map(|k| v.get(k))
    .sum();
    v.set("core.pipeline.self_share_pct", 100.0 - others);
}

/// Shared-tier contention per kilo-instruction, over every simulated
/// core (both tenants of a co-run).
pub fn uncore(w: &WorkloadSpec, refs: &[Option<Sample>], v: &mut Values) {
    let mut total = SimStats::default();
    for (c, r) in w.cells.iter().zip(refs) {
        for (_, s) in r.iter().flat_map(|r| r.cores(c.kind)) {
            total.merge(s);
        }
    }
    let kinst = total.mt_retired as f64 / 1000.0;
    v.set(
        "uarch.mem.uncore.shared_port_stalls_per_kinst",
        ratio((total.l2_port_stalls + total.l3_port_stalls) as f64, kinst),
    );
    v.set(
        "uarch.mem.uncore.dram_queue_stalls_per_kinst",
        ratio(total.dram_queue_stalls as f64, kinst),
    );
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Capturing the shard plan's region checkpoints of `cpu` into an empty
/// directory, restoring each, and their size on disk.
pub fn ckpt(input: Input, cpu: &Cpu, work: &Path) -> Vec<(&'static str, f64)> {
    let starts = shard_starts();
    let (mut capture, mut restore, mut bytes) = (Vec::new(), Vec::new(), 0);
    for r in 0..REPS {
        let policy = CkptPolicy {
            dir: work.join(format!("ckpt-layer-{r}")),
            ..CkptPolicy::from_env()
        };
        let c = cpu.clone();
        let t = Instant::now();
        ensure_region_checkpoints_with(&policy, input.label(), c, &starts)
            .expect("input runs past every shard start");
        capture.push(elapsed_ns(t) / 1e6);
        let clones: Vec<Cpu> = starts.iter().map(|_| cpu.clone()).collect();
        let t = Instant::now();
        for (c, &s) in clones.into_iter().zip(&starts) {
            black_box(region_cpu_with(&policy, input.label(), c, s).expect("restores"));
        }
        restore.push(elapsed_ns(t) / 1e6);
        bytes = dir_bytes(&policy.dir);
        let _ = std::fs::remove_dir_all(&policy.dir);
    }
    vec![
        ("ckpt.capture_ms", median(&capture)),
        ("ckpt.restore_ms", median(&restore)),
        ("ckpt.bytes", bytes as f64),
    ]
}

#[derive(Debug)]
pub struct ShardLayer {
    pub values: Vec<(&'static str, f64)>,
    /// Per parallel repetition: whether its merged stats equal the serial
    /// (one-worker) fold.
    pub workers_agree: Vec<bool>,
}

/// The lead cell split into [`SHARDS`] shards: each shard timed alone,
/// the merge fold, and the whole sharded run on [`SHARD_WORKERS`]
/// workers against the monolithic run (`mono`: host seconds, cycles).
pub fn shard(input: Input, engine: Engine, cpu: &Cpu, mono: (f64, u64), work: &Path) -> ShardLayer {
    let cfg = cells::config(engine);
    let label = input.label();
    let policy = CkptPolicy {
        dir: work.join("shard-layer"),
        ..CkptPolicy::from_env()
    };
    ensure_region_checkpoints_with(&policy, label, cpu.clone(), &shard_starts())
        .expect("input runs past every shard start");

    let mut shard_secs = Vec::new();
    let mut results: Vec<SimResult> = Vec::new();
    for spec in shard_plan(REGION, SHARDS) {
        let mut shard_cfg = cfg.clone();
        shard_cfg.max_mt_insts = spec.len;
        let c = cpu.clone();
        let t = Instant::now();
        results
            .push(run_shard(&policy, label, c, spec.skip, &shard_cfg, None).expect("shard runs"));
        shard_secs.push(t.elapsed().as_secs_f64());
    }
    let fold = |rs: Vec<SimResult>| {
        let mut it = rs.into_iter();
        let mut m = it.next().expect("at least one shard");
        for r in it {
            m.merge(&r);
        }
        m
    };
    let merge_ns: Vec<f64> = (0..101)
        .map(|_| {
            let rs = results.clone();
            let t = Instant::now();
            black_box(fold(rs));
            elapsed_ns(t)
        })
        .collect();
    let serial = fold(results).stats;

    let (mut parallel, mut workers_agree) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let c = cpu.clone();
        let t = Instant::now();
        let r = run_sharded_with(&policy, SHARD_WORKERS, SHARDS, label, c, &cfg, None)
            .expect("shards run");
        parallel.push(t.elapsed().as_secs_f64());
        workers_agree.push(r.stats == serial);
    }
    let _ = std::fs::remove_dir_all(&policy.dir);

    let par = median(&parallel);
    let total: f64 = shard_secs.iter().sum();
    let max = shard_secs.iter().copied().fold(0.0, f64::max);
    let (mono_secs, mono_cycles) = (mono.0, mono.1 as f64);
    ShardLayer {
        values: vec![
            ("bench.shard.speedup", ratio(mono_secs, par)),
            (
                "bench.shard.imbalance",
                ratio(max, total / shard_secs.len() as f64),
            ),
            (
                "bench.shard.worker_util_pct",
                100.0 * ratio(total, SHARD_WORKERS as f64 * par),
            ),
            ("bench.shard.merge_us", median(&merge_ns) / 1e3),
            (
                "bench.shard.err_pct",
                100.0 * ratio((serial.cycles as f64 - mono_cycles).abs(), mono_cycles),
            ),
        ],
        workers_agree,
    }
}

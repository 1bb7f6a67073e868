//! The workloads, their cells, and how one cell runs.
//!
//! A cell is one simulation: an input under one engine, a co-run pair,
//! or a checkpoint-sharded run. Every cell uses
//! `RunConfig::quick(mode, REGION, EPOCH)` on `CoreConfig::paper_default()`
//! with the modelled caches starting empty, as in the figure binaries.

use crate::inputs::Input;
use crate::timed::{Probe, Timed};
use phelps::sim::{
    simulate, simulate_corun_pair, Mode, PhelpsEngine, PhelpsFeatures, Pipeline, RunConfig,
    SimResult, ThreadQuota,
};
use phelps_bench::ckpt_support::CkptPolicy;
use phelps_bench::shard::run_sharded_with;
use phelps_isa::Cpu;
use phelps_runahead::{simulate_runahead, BrConfig, BrEngine, BrVariant};
use phelps_uarch::config::CoreConfig;
use phelps_uarch::SimStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Retired main-thread instructions per cell.
pub const REGION: u64 = 500_000;
/// Delinquency epoch length.
pub const EPOCH: u64 = 50_000;
/// Shards of the sharded cell, and the workers that run them.
pub const SHARDS: usize = 4;
pub const SHARD_WORKERS: usize = 2;

/// Which pre-execution engine a solo cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Baseline,
    /// Phelps with every feature (`PhelpsFeatures::full()`).
    Phelps,
    /// Branch Runahead with speculative triggering.
    Br,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Solo(Input, Engine),
    /// bfs against the uniform-graph neighbour on one shared uncore, both
    /// Baseline.
    Corun,
    /// bfs Baseline split into [`SHARDS`] checkpoint shards on
    /// [`SHARD_WORKERS`] workers.
    Sharded,
}

impl Kind {
    /// The inputs the cell simulates.
    pub fn inputs(self) -> Vec<Input> {
        match self {
            Kind::Solo(i, _) => vec![i],
            Kind::Corun => vec![Input::Bfs, Input::Neighbour],
            Kind::Sharded => vec![Input::Bfs],
        }
    }
}

#[derive(Debug)]
pub struct CellSpec {
    pub name: &'static str,
    pub kind: Kind,
    /// Counted in the workload's `mips`.
    pub mips: bool,
}

#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Run once per round, in this order.
    pub cells: &'static [CellSpec],
}

impl WorkloadSpec {
    /// Every input the workload's cells simulate, once each.
    pub fn inputs(&self) -> Vec<Input> {
        let mut v: Vec<Input> = self.cells.iter().flat_map(|c| c.kind.inputs()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The first solo cell (index, input, engine): the subject of the
    /// checkpoint and shard layer measurements.
    pub fn lead(&self) -> (usize, Input, Engine) {
        self.cells
            .iter()
            .enumerate()
            .find_map(|(n, c)| match c.kind {
                Kind::Solo(i, e) => Some((n, i, e)),
                _ => None,
            })
            .expect("every workload has a solo cell")
    }
}

const fn solo(name: &'static str, input: Input, engine: Engine, mips: bool) -> CellSpec {
    CellSpec {
        name,
        kind: Kind::Solo(input, engine),
        mips,
    }
}

/// The benchmark's workloads. `BENCHMARK.json` lists the same names
/// (checked by a test).
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "baseline",
        why:
            "No engine runs, so the pipeline, emulator, TAGE-SC-L and memory hierarchy do all the \
              work; an engine-only change must read no change here.",
        cells: &[
            solo("bfs-baseline", Input::Bfs, Engine::Baseline, true),
            solo("astar-baseline", Input::Astar, Engine::Baseline, true),
            solo("mcf-baseline", Input::Mcf, Engine::Baseline, true),
            CellSpec {
                name: "bfs-corun",
                kind: Kind::Corun,
                mips: false,
            },
        ],
    },
    WorkloadSpec {
        name: "preexec",
        why: "Helper threads and BR chains trigger, so side-thread fetch and issue, prediction \
              queues and chain tables run every cycle.",
        cells: &[
            solo("bfs-phelps", Input::Bfs, Engine::Phelps, true),
            solo("bfs-br", Input::Bfs, Engine::Br, true),
            solo("astar-phelps", Input::Astar, Engine::Phelps, true),
            solo("astar-br", Input::Astar, Engine::Br, true),
        ],
    },
    WorkloadSpec {
        name: "monitor",
        why: "Phelps trains on every retire but never triggers, so retire-time bookkeeping is the \
              only engine cost.",
        cells: &[
            solo("mcf-phelps", Input::Mcf, Engine::Phelps, true),
            solo("xz-phelps", Input::Xz, Engine::Phelps, true),
            solo("gcc-phelps", Input::Gcc, Engine::Phelps, true),
        ],
    },
    WorkloadSpec {
        name: "sharded",
        why: "bfs in 4 checkpoint shards on 2 workers beside its monolithic run: checkpoint \
              restore, the shard pool and the merge fold.",
        cells: &[
            CellSpec {
                name: "bfs-sharded",
                kind: Kind::Sharded,
                mips: true,
            },
            solo("bfs-baseline", Input::Bfs, Engine::Baseline, false),
        ],
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The prepared CPUs of a workload, cloned for every simulation.
pub type Prepared = BTreeMap<Input, Cpu>;

/// The run configuration of a cell with `engine`.
pub fn config(engine: Engine) -> RunConfig {
    let mode = match engine {
        Engine::Phelps => Mode::Phelps(PhelpsFeatures::full()),
        // Branch Runahead runs on the Baseline mode's pipeline.
        Engine::Baseline | Engine::Br => Mode::Baseline,
    };
    RunConfig::quick(mode, REGION, EPOCH)
}

/// One timed simulation of a cell.
#[derive(Clone, Debug)]
pub struct Sample {
    /// One bundle per simulated core (two for the co-run pair).
    pub stats: Vec<SimStats>,
    /// Host seconds of the simulation call alone.
    pub secs: f64,
}

impl Sample {
    /// Retired main-thread instructions over every core.
    pub fn insts(&self) -> u64 {
        self.stats.iter().map(|s| s.mt_retired).sum()
    }

    /// Simulated cycles over every core.
    pub fn cycles(&self) -> u64 {
        self.stats.iter().map(|s| s.cycles).sum()
    }

    /// Each core's input and stats, for a sample of a `kind` cell.
    pub fn cores(&self, kind: Kind) -> impl Iterator<Item = (Input, &SimStats)> {
        kind.inputs().into_iter().zip(&self.stats)
    }
}

/// Runs `kind` once. With a probe, Phelps and BR cells run their engine
/// inside [`Timed`]; every other cell has no engine hooks to time and
/// runs as untraced.
pub fn run(kind: Kind, cpus: &Prepared, ckpt: &CkptPolicy, probe: Option<&Probe>) -> Sample {
    let cpu = |i: Input| cpus[&i].clone();
    match kind {
        Kind::Solo(input, engine) => {
            let cfg = config(engine);
            let c = cpu(input);
            let t = Instant::now();
            let r = match (engine, probe) {
                (Engine::Baseline | Engine::Phelps, None) => simulate(c, &cfg),
                (Engine::Br, None) => simulate_runahead(c, &cfg, BrVariant::Speculative),
                (Engine::Baseline, Some(_)) => simulate(c, &cfg),
                (Engine::Phelps, Some(p)) => phelps_traced(c, &cfg, p),
                (Engine::Br, Some(p)) => br_traced(c, &cfg, p),
            };
            timed(vec![r.stats], t)
        }
        Kind::Corun => {
            let cfg = config(Engine::Baseline);
            let (c0, c1) = (cpu(Input::Bfs), cpu(Input::Neighbour));
            let t = Instant::now();
            let [a, b] = simulate_corun_pair(c0, &cfg, c1, &cfg);
            timed(vec![a.stats, b.stats], t)
        }
        Kind::Sharded => {
            let c = cpu(Input::Bfs);
            let t = Instant::now();
            let r = sharded(ckpt, SHARD_WORKERS, c, &config(Engine::Baseline));
            timed(vec![r.stats], t)
        }
    }
}

fn timed(stats: Vec<SimStats>, t: Instant) -> Sample {
    Sample {
        secs: t.elapsed().as_secs_f64(),
        stats,
    }
}

/// bfs in [`SHARDS`] shards on `workers` threads, under `ckpt`.
pub fn sharded(ckpt: &CkptPolicy, workers: usize, cpu: Cpu, cfg: &RunConfig) -> SimResult {
    run_sharded_with(ckpt, workers, SHARDS, Input::Bfs.label(), cpu, cfg, None)
        .expect("at least one shard simulates")
}

fn regs_of(cpu: &Cpu) -> [u64; phelps_isa::NUM_REGS] {
    let mut regs = [0u64; phelps_isa::NUM_REGS];
    for r in phelps_isa::Reg::all() {
        regs[r.index()] = cpu.reg(r);
    }
    regs
}

/// `simulate` of a Phelps-mode config, with the engine inside [`Timed`].
pub fn phelps_traced(cpu: Cpu, cfg: &RunConfig, probe: &Probe) -> SimResult {
    let Mode::Phelps(features) = cfg.mode else {
        panic!("phelps_traced needs a Phelps-mode config");
    };
    let mut engine = PhelpsEngine::new(
        cfg.epoch_len,
        cfg.delinq_threshold(),
        cfg.constructor.clone(),
        features,
    );
    engine.seed_mt_regs(regs_of(&cpu));
    Pipeline::new(
        cpu,
        cfg.core.clone(),
        &cfg.mode,
        Some(Timed::new(engine, probe)),
        cfg.max_mt_insts,
    )
    .run()
}

/// `simulate_runahead(.., BrVariant::Speculative)`, with the engine
/// inside [`Timed`]. The quotas are those `simulate_runahead` sets.
pub fn br_traced(cpu: Cpu, cfg: &RunConfig, probe: &Probe) -> SimResult {
    let base = CoreConfig::paper_default();
    let mt_quota = ThreadQuota {
        width: base.width / 2,
        rob: base.rob,
        lq: base.lq / 2,
        sq: base.sq,
        prf: base.prf / 2,
    };
    let side_quota = ThreadQuota {
        width: base.width / 2,
        rob: base.rob / 2,
        lq: base.lq / 2,
        sq: 8,
        prf: base.prf / 2,
    };
    let mut engine = BrEngine::new(BrConfig::speculative(cfg.epoch_len, cfg.delinq_threshold()));
    engine.seed_mt_regs(regs_of(&cpu));
    let mut p = Pipeline::new(
        cpu,
        base,
        &Mode::Baseline,
        Some(Timed::new(engine, probe)),
        cfg.max_mt_insts,
    );
    p.set_quotas(mt_quota, side_quota);
    p.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::Group;
    use phelps_isa::{Asm, Reg};

    /// A loop whose branch follows pseudo-random data: delinquent, so
    /// both engines trigger on it.
    fn delinquent_loop(n: u64) -> Cpu {
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.slli(Reg::T0, Reg::A1, 3);
        a.add(Reg::T0, Reg::A0, Reg::T0);
        a.ld(Reg::T1, Reg::T0, 0);
        a.andi(Reg::T1, Reg::T1, 1);
        a.beq(Reg::T1, Reg::ZERO, "skip");
        a.addi(Reg::A3, Reg::A3, 7);
        a.label("skip");
        a.addi(Reg::A3, Reg::A3, 1);
        a.xor(Reg::A3, Reg::A3, Reg::A1);
        a.addi(Reg::A1, Reg::A1, 1);
        a.bne(Reg::A1, Reg::A2, "loop");
        a.halt();
        let mut cpu = Cpu::new(a.assemble().unwrap());
        let mut x = 42u64;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cpu.mem.write_u64(0x100000 + i * 8, x >> 33);
        }
        cpu.set_reg(Reg::A0, 0x100000);
        cpu.set_reg(Reg::A2, n);
        cpu
    }

    fn small(engine: Engine) -> RunConfig {
        let mut cfg = config(engine);
        cfg.max_mt_insts = 60_000;
        cfg.epoch_len = 10_000;
        cfg
    }

    #[test]
    fn timed_phelps_matches_simulate() {
        let cfg = small(Engine::Phelps);
        let probe = Probe::default();
        let traced = phelps_traced(delinquent_loop(10_000), &cfg, &probe);
        let plain = simulate(delinquent_loop(10_000), &cfg);
        assert_eq!(traced.stats, plain.stats);
        assert!(plain.stats.triggers > 0, "the loop must trigger Phelps");
        for g in Group::ALL {
            assert!(probe.calls(g) > 0, "{g:?} hooks were called");
        }
    }

    #[test]
    fn timed_br_matches_simulate_runahead() {
        let cfg = small(Engine::Br);
        let probe = Probe::default();
        let traced = br_traced(delinquent_loop(10_000), &cfg, &probe);
        let plain = simulate_runahead(delinquent_loop(10_000), &cfg, BrVariant::Speculative);
        assert_eq!(traced.stats, plain.stats);
        assert!(plain.stats.triggers > 0, "the loop must trigger BR");
        assert!(probe.calls(Group::Side) > 0);
    }

    #[test]
    fn cell_names_are_unique_per_workload_and_mips_is_defined() {
        for w in &WORKLOADS {
            let mut names: Vec<&str> = w.cells.iter().map(|c| c.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), w.cells.len(), "{}", w.name);
            assert!(w.cells.iter().any(|c| c.mips), "{} has mips cells", w.name);
            let _ = w.lead();
        }
    }
}

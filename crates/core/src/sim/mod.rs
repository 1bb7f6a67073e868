//! The cycle-level simulator (paper §VI).
//!
//! [`simulate`] runs a prepared guest [`Cpu`] through the multi-thread
//! out-of-order [`Pipeline`] under a [`RunConfig`]: baseline, perfect
//! branch prediction, partition-only isolation (Fig. 13c), or Phelps with
//! ablation toggles (Figs. 11/12). [`Pipeline::from_config`] is the one
//! constructor behind it: callers that also want the retired record
//! stream or checkpoint warmup build the pipeline there and call
//! [`Pipeline::record_retires`] / [`Pipeline::warm_microarch`] before
//! [`Pipeline::run`].
//!
//! The Branch Runahead baseline lives in the `phelps-runahead` crate and
//! plugs into the same pipeline through [`PreExecEngine`] via
//! [`Pipeline::new`].
//!
//! [`simulate_corun_pair`] co-schedules two workloads onto two cores
//! sharing one uncore (L2/L3 + ports + DRAM queue), interleaved
//! cycle-by-cycle with deterministic tenant-id arbitration, and reports
//! per-tenant results with each tenant's attributed shared-tier stalls.

mod phelps_engine;
mod pipeline;
mod types;

pub use phelps_engine::PhelpsEngine;
pub use pipeline::{FinalState, Pipeline, SimResult, ThreadQuota};
pub use types::{
    EngineCkpt, EngineCmd, ExecInfo, Mode, PhelpsFeatures, PreExecEngine, QueueLookup, RunConfig,
    SideAction, SideInst, SideKind, HT_A, HT_B, MT, NUM_THREADS,
};

use phelps_isa::Cpu;
use phelps_telemetry as tlm;
use phelps_uarch::mem::Uncore;

/// Runs `cpu` (program + initialized memory/registers) to completion under
/// `cfg` and returns the statistics bundle.
///
/// # Examples
///
/// ```
/// use phelps::sim::{simulate, Mode, RunConfig};
/// use phelps_isa::{Asm, Cpu, Reg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new(0x1000);
/// a.li(Reg::A0, 1000);
/// a.label("loop");
/// a.addi(Reg::A0, Reg::A0, -1);
/// a.bne(Reg::A0, Reg::ZERO, "loop");
/// a.halt();
/// let cpu = Cpu::new(a.assemble()?);
///
/// let mut cfg = RunConfig::scaled(Mode::Baseline);
/// cfg.max_mt_insts = 10_000;
/// let result = simulate(cpu, &cfg);
/// assert!(result.stats.ipc() > 1.0, "a trivial loop sustains IPC > 1");
/// # Ok(())
/// # }
/// ```
pub fn simulate(cpu: Cpu, cfg: &RunConfig) -> SimResult {
    Pipeline::from_config(cpu, cfg).run()
}

impl Pipeline<PhelpsEngine> {
    /// Builds the pipeline `cfg` describes over `cpu`: the core geometry,
    /// mode and instruction budget, the Phelps engine (seeded with `cpu`'s
    /// registers) when the mode asks for one, and the design-choice knobs
    /// [`RunConfig::queue_columns`] and [`RunConfig::store_cache_sets`].
    /// This is the one way a [`RunConfig`] becomes a running simulation;
    /// [`simulate`] is `Pipeline::from_config(cpu, cfg).run()`.
    ///
    /// Callers that need more than a plain run call the pipeline's own
    /// methods before [`Pipeline::run`], in this order:
    /// [`Pipeline::record_retires`] to collect the retired record stream
    /// and final state (differential oracles), then
    /// [`Pipeline::warm_microarch`] to replay the tail of a checkpoint
    /// restore into the caches and branch predictor. An empty warming
    /// slice leaves the run bit-identical to [`simulate`].
    ///
    /// # Examples
    ///
    /// ```
    /// use phelps::sim::{Mode, Pipeline, RunConfig};
    /// use phelps_isa::{Asm, Cpu, Reg};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut a = Asm::new(0x1000);
    /// a.li(Reg::A0, 1000);
    /// a.label("loop");
    /// a.addi(Reg::A0, Reg::A0, -1);
    /// a.bne(Reg::A0, Reg::ZERO, "loop");
    /// a.halt();
    /// let mut cpu = Cpu::new(a.assemble()?);
    ///
    /// // Fast-forward 100 instructions functionally, keeping them as warmup.
    /// let warm = (0..100).map(|_| cpu.step()).collect::<Result<Vec<_>, _>>()?;
    ///
    /// let cfg = RunConfig::quick(Mode::Baseline, 10_000, 1_000);
    /// let mut pipeline = Pipeline::from_config(cpu, &cfg);
    /// pipeline.record_retires();
    /// pipeline.warm_microarch(&warm);
    /// let result = pipeline.run();
    /// let log = result.retire_log.expect("retire logging was on");
    /// assert_eq!(log.len() as u64, result.stats.mt_retired);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_config(cpu: Cpu, cfg: &RunConfig) -> Pipeline<PhelpsEngine> {
        let engine = match &cfg.mode {
            Mode::Phelps(features) => {
                let mut engine = PhelpsEngine::new(
                    cfg.epoch_len,
                    cfg.delinq_threshold(),
                    cfg.constructor.clone(),
                    *features,
                );
                let mut regs = [0u64; phelps_isa::NUM_REGS];
                for r in phelps_isa::Reg::all() {
                    regs[r.index()] = cpu.reg(r);
                }
                engine.seed_mt_regs(regs);
                engine.set_queue_columns(cfg.queue_columns);
                Some(engine)
            }
            _ => None,
        };
        let mut p = Pipeline::new(cpu, cfg.core.clone(), &cfg.mode, engine, cfg.max_mt_insts);
        p.set_store_cache_sets(cfg.store_cache_sets);
        p
    }
}

/// Co-runs two workloads on two cores sharing one uncore built from
/// `cfg0.core` (tenant 0's shared-tier geometry; co-run pairs normally
/// share a [`phelps_uarch::config::CoreConfig`]) and returns the
/// per-tenant results.
///
/// The driver interleaves the two pipelines cycle-by-cycle in fixed
/// tenant-id order, swapping the communal [`Uncore`] into each core
/// around its step — tenant 0 always claims same-cycle shared-port and
/// DRAM-queue slots first, so arbitration (and the whole co-run) is
/// deterministic: no host threading, timing, or worker count can change
/// the outcome. When one tenant finishes, the other keeps running alone.
///
/// Shared-level fields of each tenant's
/// [`phelps_uarch::stats::SimStats`] (L2/L3 misses, shared port and
/// DRAM-queue stalls, prefetches) hold that tenant's attributed share
/// (see [`Uncore::communal`]), so summing the two tenants reproduces the
/// machine totals. Solo baselines are the caller's: compare against
/// [`simulate`] of the same (cpu, config). A telemetry registry
/// installed on the calling thread describes tenant 0 alone: tenant 1
/// steps [`phelps_telemetry::muted`], and the report rides on tenant 0's
/// result with epochs that sum to tenant 0's stats.
pub fn simulate_corun_pair(
    cpu0: Cpu,
    cfg0: &RunConfig,
    cpu1: Cpu,
    cfg1: &RunConfig,
) -> [SimResult; 2] {
    let mut uncore = Uncore::communal(&cfg0.core);
    let mut p0 = Pipeline::from_config(cpu0, cfg0);
    let mut p1 = Pipeline::from_config(cpu1, cfg1);
    p0.set_tenant(0);
    p1.set_tenant(1);
    let bound = p0.cycle_bound().max(p1.cycle_bound());
    let mut outer = 0u64;
    while (!p0.finished() || !p1.finished()) && outer < bound {
        // Fixed tenant-id order within the cycle = deterministic
        // same-cycle arbitration at every shared port.
        if !p0.finished() {
            p0.step_shared(&mut uncore);
        }
        if !p1.finished() {
            tlm::muted(|| p1.step_shared(&mut uncore));
        }
        outer += 1;
    }
    // Tenant 0 closes first, so it is the one that harvests telemetry.
    let r0 = p0.finalize_shared(&mut uncore);
    [r0, p1.finalize_shared(&mut uncore)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::{Asm, Cpu, Reg};
    use phelps_uarch::stats::speedup;

    /// A predictable counted loop.
    fn counted_loop(n: i64) -> Cpu {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, n);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::ZERO, "loop");
        a.halt();
        Cpu::new(a.assemble().unwrap())
    }

    /// A loop with a pseudo-random data-dependent branch (delinquent).
    fn random_branch_loop(n: u64) -> Cpu {
        let mut a = Asm::new(0x1000);
        // a0 = data base, a1 = i, a2 = n, a3 = sum
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
        with_random_data(a, n)
    }

    /// Assembles `a` over `n` pseudo-random doublewords at `a0`, with the
    /// trip count in `a2`.
    fn with_random_data(a: Asm, n: u64) -> Cpu {
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

    fn quick_cfg(mode: Mode) -> RunConfig {
        RunConfig::quick(mode, 60_000, 10_000)
    }

    #[test]
    fn baseline_runs_predictable_loop_fast() {
        let r = simulate(counted_loop(20_000), &quick_cfg(Mode::Baseline));
        assert!(r.stats.mt_retired >= 40_000);
        assert!(r.stats.ipc() > 1.5, "ipc {}", r.stats.ipc());
        assert!(r.stats.mpki() < 1.0, "mpki {}", r.stats.mpki());
    }

    #[test]
    fn random_branch_is_delinquent_in_baseline() {
        let r = simulate(random_branch_loop(20_000), &quick_cfg(Mode::Baseline));
        assert!(
            r.stats.mpki() > 20.0,
            "random branch must stay hard: mpki {}",
            r.stats.mpki()
        );
    }

    #[test]
    fn perfect_bp_beats_baseline_on_delinquent_code() {
        let base = simulate(random_branch_loop(20_000), &quick_cfg(Mode::Baseline));
        let perf = simulate(random_branch_loop(20_000), &quick_cfg(Mode::PerfectBp));
        assert_eq!(perf.stats.mt_mispredicts, 0);
        let s = speedup(&base.stats, &perf.stats);
        assert!(s > 1.2, "perfect BP speedup {s}");
    }

    #[test]
    fn partitioning_slows_the_main_thread() {
        let base = simulate(counted_loop(20_000), &quick_cfg(Mode::Baseline));
        let half = simulate(counted_loop(20_000), &quick_cfg(Mode::PartitionOnly));
        assert!(
            half.stats.ipc() <= base.stats.ipc() + 1e-9,
            "half resources cannot be faster: {} vs {}",
            half.stats.ipc(),
            base.stats.ipc()
        );
    }

    #[test]
    fn phelps_triggers_and_reduces_mpki_on_delinquent_loop() {
        let cfg_b = quick_cfg(Mode::Baseline);
        let cfg_p = quick_cfg(Mode::Phelps(PhelpsFeatures::full()));
        let base = simulate(random_branch_loop(20_000), &cfg_b);
        let ph = simulate(random_branch_loop(20_000), &cfg_p);
        assert!(ph.stats.triggers > 0, "helper thread must trigger");
        assert!(ph.stats.ht_retired > 0, "helper thread must retire work");
        assert!(
            ph.stats.preds_from_queue > 0,
            "queues must supply predictions"
        );
        assert!(
            ph.stats.mpki() < base.stats.mpki() * 0.6,
            "phelps mpki {} vs baseline {}",
            ph.stats.mpki(),
            base.stats.mpki()
        );
    }

    #[test]
    fn phelps_speeds_up_delinquent_loop() {
        let base = simulate(random_branch_loop(20_000), &quick_cfg(Mode::Baseline));
        let ph = simulate(
            random_branch_loop(20_000),
            &quick_cfg(Mode::Phelps(PhelpsFeatures::full())),
        );
        let s = speedup(&base.stats, &ph.stats);
        assert!(s > 1.05, "phelps speedup {s}");
    }

    #[test]
    fn phelps_leaves_predictable_code_alone() {
        let r = simulate(
            counted_loop(20_000),
            &quick_cfg(Mode::Phelps(PhelpsFeatures::full())),
        );
        assert_eq!(r.stats.triggers, 0, "no delinquency, no helper threads");
    }

    #[test]
    fn empty_warming_is_bit_identical_to_plain_simulate() {
        for mode in [
            Mode::Baseline,
            Mode::PerfectBp,
            Mode::PartitionOnly,
            Mode::Phelps(PhelpsFeatures::full()),
        ] {
            let cfg = quick_cfg(mode);
            let plain = simulate(random_branch_loop(10_000), &cfg);
            let mut p = Pipeline::from_config(random_branch_loop(10_000), &cfg);
            p.record_retires();
            p.warm_microarch(&[]);
            let observed = p.run();
            assert_eq!(plain.stats, observed.stats, "mode {:?}", cfg.mode);
        }
    }

    /// A histogram loop whose delinquent branch tests a bucket that the
    /// loop itself stores to: the helper thread's loads read its own
    /// earlier stores back through the store cache.
    fn histogram_loop(n: u64) -> Cpu {
        let mut a = Asm::new(0x1000);
        // a0 = data base, a1 = i, a2 = n, a3 = sum, a4 = 16-bucket histogram
        a.label("loop");
        a.slli(Reg::T0, Reg::A1, 3);
        a.add(Reg::T0, Reg::A0, Reg::T0);
        a.ld(Reg::T1, Reg::T0, 0);
        a.andi(Reg::T1, Reg::T1, 15);
        a.slli(Reg::T1, Reg::T1, 3);
        a.add(Reg::T1, Reg::A4, Reg::T1);
        a.ld(Reg::T2, Reg::T1, 0);
        a.addi(Reg::T2, Reg::T2, 1);
        a.sd(Reg::T2, Reg::T1, 0);
        a.andi(Reg::T2, Reg::T2, 1);
        a.beq(Reg::T2, Reg::ZERO, "skip");
        a.addi(Reg::A3, Reg::A3, 7);
        a.label("skip");
        // Work off the branch's slice keeps the helper thread under the
        // §V-J size bound.
        a.addi(Reg::A3, Reg::A3, 1);
        a.xor(Reg::A3, Reg::A3, Reg::A1);
        a.slli(Reg::T3, Reg::A3, 1);
        a.add(Reg::A3, Reg::A3, Reg::T3);
        a.xor(Reg::A3, Reg::A3, Reg::A1);
        a.addi(Reg::A3, Reg::A3, 3);
        a.add(Reg::A5, Reg::A5, Reg::A3);
        a.xor(Reg::A5, Reg::A5, Reg::A1);
        a.addi(Reg::A1, Reg::A1, 1);
        a.bne(Reg::A1, Reg::A2, "loop");
        a.halt();
        let mut cpu = with_random_data(a, n);
        cpu.set_reg(Reg::A4, 0x300000);
        cpu
    }

    #[test]
    fn ablation_knobs_change_the_run() {
        let cfg = quick_cfg(Mode::Phelps(PhelpsFeatures::full()));
        let paper = simulate(random_branch_loop(20_000), &cfg);
        let mut shallow = cfg.clone();
        shallow.queue_columns = 1;
        let shallow = simulate(random_branch_loop(20_000), &shallow);
        assert_ne!(paper.stats, shallow.stats, "queue_columns is dead");

        let paper = simulate(histogram_loop(20_000), &cfg);
        assert!(paper.stats.triggers > 0, "helper thread must trigger");
        let mut tiny = cfg.clone();
        tiny.store_cache_sets = 1;
        let tiny = simulate(histogram_loop(20_000), &tiny);
        assert_ne!(paper.stats, tiny.stats, "store_cache_sets is dead");
    }

    /// A loop cycling over a small array — every pass after the first
    /// revisits resident data, so cache warming is visible.
    fn cyclic_array_loop() -> Cpu {
        let mut a = Asm::new(0x1000);
        // a0 = base, a1 = i, a3 = sum; 512 elements of 8 bytes = 4 KiB.
        a.label("loop");
        a.andi(Reg::T0, Reg::A1, 511);
        a.slli(Reg::T0, Reg::T0, 3);
        a.add(Reg::T0, Reg::A0, Reg::T0);
        a.ld(Reg::T1, Reg::T0, 0);
        a.add(Reg::A3, Reg::A3, Reg::T1);
        a.addi(Reg::A1, Reg::A1, 1);
        a.j("loop");
        let mut cpu = Cpu::new(a.assemble().unwrap());
        for i in 0..512u64 {
            cpu.mem.write_u64(0x200000 + i * 8, i * 3 + 1);
        }
        cpu.set_reg(Reg::A0, 0x200000);
        cpu
    }

    #[test]
    fn warming_trains_microarch_without_changing_retirement() {
        // Replay a full pass over the array through the functional
        // emulator, feed its records as warming, and simulate: retired
        // work is unchanged while cold-start misses disappear.
        let mut cfg = quick_cfg(Mode::Baseline);
        cfg.max_mt_insts = 20_000;
        let mut warm_src = cyclic_array_loop();
        let mut warm = Vec::new();
        for _ in 0..5_000 {
            warm.push(warm_src.step().unwrap());
        }
        let cold = simulate(warm_src.clone(), &cfg);
        let mut p = Pipeline::from_config(warm_src, &cfg);
        p.warm_microarch(&warm);
        let warmed = p.run();
        assert_eq!(cold.stats.mt_retired, warmed.stats.mt_retired);
        assert_eq!(cold.stats.mt_cond_branches, warmed.stats.mt_cond_branches);
        assert!(
            warmed.stats.l1d_misses < cold.stats.l1d_misses,
            "warming must cut cold-start L1 misses: {} vs {}",
            warmed.stats.l1d_misses,
            cold.stats.l1d_misses
        );
    }

    #[test]
    fn results_are_deterministic() {
        let cfg = quick_cfg(Mode::Phelps(PhelpsFeatures::full()));
        let a = simulate(random_branch_loop(10_000), &cfg);
        let b = simulate(random_branch_loop(10_000), &cfg);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.mt_mispredicts, b.stats.mt_mispredicts);
        assert_eq!(a.stats.ht_retired, b.stats.ht_retired);
    }

    /// A peer that issues zero shared-tier traffic: a register-only loop
    /// (no loads/stores) under `ideal_memory` (L1I disabled, so not even
    /// instruction fetches reach the uncore).
    fn silent_peer() -> (Cpu, RunConfig) {
        let mut cfg = quick_cfg(Mode::Baseline);
        cfg.core = cfg.core.clone().ideal_memory();
        (counted_loop(500), cfg)
    }

    #[test]
    fn corun_against_silent_peer_is_bit_identical_to_solo() {
        // The refactor's pin: a tenant whose neighbor issues no uncore
        // traffic must see the exact solo machine, byte for byte —
        // including through the swap-based shared stepping.
        let cfg = quick_cfg(Mode::Baseline);
        let (peer_cpu, peer_cfg) = silent_peer();
        let solo = simulate(random_branch_loop(10_000), &cfg);
        let [t0, t1] = simulate_corun_pair(random_branch_loop(10_000), &cfg, peer_cpu, &peer_cfg);
        assert_eq!(
            t0.stats, solo.stats,
            "silent neighbor must not perturb tenant 0"
        );
        // Every shared-tier L3 miss goes to DRAM.
        assert_eq!(t1.stats.l3_misses, 0, "peer stayed silent");
    }

    #[test]
    fn contended_corun_slows_both_tenants_and_attributes_stalls() {
        let cfg = quick_cfg(Mode::Baseline);
        let solo = simulate(random_branch_loop(10_000), &cfg);
        let tenants = simulate_corun_pair(
            random_branch_loop(10_000),
            &cfg,
            random_branch_loop(10_000),
            &cfg,
        );
        let mut stalls = 0;
        for (t, r) in tenants.iter().enumerate() {
            assert!(
                r.stats.ipc() <= solo.stats.ipc() + 1e-9,
                "tenant {t} cannot speed up under contention: {} vs {}",
                r.stats.ipc(),
                solo.stats.ipc()
            );
            assert!(r.stats.l3_misses > 0, "tenant {t} reached DRAM");
            stalls += r.stats.l2_port_stalls + r.stats.l3_port_stalls + r.stats.dram_queue_stalls;
        }
        assert!(stalls > 0, "contention must show up in stall attribution");
    }

    #[test]
    fn corun_is_deterministic() {
        let cfg_b = quick_cfg(Mode::Baseline);
        let cfg_p = quick_cfg(Mode::Phelps(PhelpsFeatures::full()));
        let run = || {
            simulate_corun_pair(
                random_branch_loop(10_000),
                &cfg_p,
                counted_loop(20_000),
                &cfg_b,
            )
        };
        let (a, b) = (run(), run());
        for t in 0..2 {
            assert_eq!(a[t].stats, b[t].stats, "tenant {t}");
        }
    }
}

//! # phelps-runahead
//!
//! The Branch Runahead baseline: chain-based branch pre-execution with
//! speculative or non-speculative child-chain triggering, plugged into the
//! same multi-thread pipeline as Phelps through
//! [`phelps::sim::PreExecEngine`].
//!
//! Two run configurations mirror the paper:
//!
//! * **BR** — the main thread keeps half the frontend width, LQ, and PRF
//!   for the full run (but the whole ROB and SQ); chains run in the other
//!   half with loose (dataflow) retirement.
//! * **BR-12w** — a 12-wide core where the main thread keeps full baseline
//!   resources and the chains get a 4-wide engine of their own (Fig. 12a).
//!
//! ```no_run
//! use phelps::sim::{Mode, RunConfig};
//! use phelps_runahead::{simulate_runahead, BrVariant};
//! use phelps_workloads::suite;
//!
//! let cfg = RunConfig::scaled(Mode::Baseline);
//! let result = simulate_runahead(suite::astar().cpu, &cfg, BrVariant::Speculative);
//! println!("BR-spec IPC: {:.3}", result.stats.ipc());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chains;
pub mod engine;

pub use chains::{Chain, ChainSet};
pub use engine::{BrConfig, BrEngine};

use phelps::sim::{Pipeline, RunConfig, SimResult, ThreadQuota};
use phelps_isa::Cpu;

/// Which Branch Runahead configuration to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BrVariant {
    /// Speculative child-chain triggering (BR-spec).
    Speculative,
    /// Non-speculative triggering (BR-non-spec).
    NonSpeculative,
    /// Speculative triggering on the 12-wide core (BR-12w).
    TwelveWide,
}

/// Runs a workload under Branch Runahead on `cfg.core`:
/// [`runahead_pipeline`]`(..).run()`.
pub fn simulate_runahead(cpu: Cpu, cfg: &RunConfig, variant: BrVariant) -> SimResult {
    runahead_pipeline(cpu, cfg, variant).run()
}

/// Builds the Branch Runahead pipeline for a workload on `cfg.core`, the
/// way [`Pipeline::from_config`] builds a Phelps one. `cfg.mode` is not
/// read: the core runs in Baseline mode with a [`BrEngine`] attached.
///
/// The partition is held for the full run (the paper's §VI methodology):
/// the main thread gets half the frontend width, LQ and PRF but the whole
/// ROB and SQ; BR-12w widens the core by half
/// ([`br_12_wide`](phelps_uarch::config::CoreConfig::br_12_wide)) and
/// gives the main thread the full resources of `cfg.core`. Call
/// [`Pipeline::record_retires`] before [`Pipeline::run`] for a retire log.
pub fn runahead_pipeline(cpu: Cpu, cfg: &RunConfig, variant: BrVariant) -> Pipeline<BrEngine> {
    let base = &cfg.core;
    let (core, mt_quota) = match variant {
        BrVariant::TwelveWide => (
            base.clone().br_12_wide(),
            ThreadQuota {
                width: base.width,
                rob: base.rob,
                lq: base.lq,
                sq: base.sq,
                prf: base.prf,
            },
        ),
        _ => (
            base.clone(),
            ThreadQuota {
                width: base.width / 2,
                rob: base.rob, // whole ROB to the main thread
                lq: base.lq / 2,
                sq: base.sq, // whole SQ to the main thread
                prf: base.prf / 2,
            },
        ),
    };
    let side_quota = ThreadQuota {
        width: base.width / 2,
        rob: base.rob / 2, // usage-counter budget for chains
        lq: base.lq / 2,
        sq: 8,
        prf: base.prf / 2,
    };

    let br = match variant {
        BrVariant::NonSpeculative => BrConfig::non_speculative,
        BrVariant::Speculative | BrVariant::TwelveWide => BrConfig::speculative,
    };
    let mut engine = BrEngine::new(br(cfg.epoch_len, cfg.delinq_threshold()));
    let mut regs = [0u64; phelps_isa::NUM_REGS];
    for r in phelps_isa::Reg::all() {
        regs[r.index()] = cpu.reg(r);
    }
    engine.seed_mt_regs(regs);

    let mode = phelps::sim::Mode::Baseline;
    let mut pipeline = Pipeline::new(cpu, core, &mode, Some(engine), cfg.max_mt_insts);
    pipeline.set_quotas(mt_quota, side_quota);
    pipeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps::sim::Mode;
    use phelps_isa::{Asm, Reg};
    use phelps_uarch::config::CoreConfig;

    /// A loop whose branch follows pseudo-random array data.
    fn data_dependent_loop() -> Cpu {
        let n = 4_000;
        let mut a = Asm::new(0x1000);
        a.label("loop");
        a.slli(Reg::T0, Reg::A1, 3);
        a.add(Reg::T0, Reg::A0, Reg::T0);
        a.ld(Reg::T1, Reg::T0, 0);
        a.andi(Reg::T1, Reg::T1, 1);
        a.beq(Reg::T1, Reg::ZERO, "skip");
        a.addi(Reg::A3, Reg::A3, 7);
        a.label("skip");
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

    #[test]
    fn runs_on_the_configured_core() {
        let paper = RunConfig::quick(Mode::Baseline, 20_000, 5_000);
        let mut ideal = paper.clone();
        ideal.core = CoreConfig::paper_default().ideal_memory();
        for variant in [BrVariant::Speculative, BrVariant::TwelveWide] {
            let on_paper = simulate_runahead(data_dependent_loop(), &paper, variant).stats;
            let on_ideal = simulate_runahead(data_dependent_loop(), &ideal, variant).stats;
            assert!(on_paper.l1i_misses > 0, "{variant:?}");
            assert_eq!(on_ideal.l1i_misses, 0, "{variant:?}: the L1I is off");
            assert_ne!(on_paper, on_ideal, "{variant:?}");
        }
    }
}

//! # phelps-repro
//!
//! Umbrella crate of the Phelps reproduction workspace: re-exports the
//! member crates so the workspace-level integration tests (`tests/`) and
//! runnable examples (`examples/`) have a single dependency root.
//!
//! * [`phelps`] — the paper's contribution (helper-thread machinery and
//!   the cycle-level simulator);
//! * [`phelps_isa`] — guest ISA, assembler, functional emulator;
//! * [`phelps_uarch`] — branch predictors, caches, core configuration;
//! * [`phelps_runahead`] — the Branch Runahead baseline;
//! * [`phelps_workloads`] — guest-assembly kernels and graph generators;
//! * [`phelps_ckpt`] — architectural checkpointing for instant SimPoint
//!   region starts.
//!
//! ```
//! use phelps_repro::prelude::*;
//!
//! let mut cfg = RunConfig::scaled(Mode::Baseline);
//! cfg.max_mt_insts = 20_000;
//! let result = simulate(suite::astar_small().cpu, &cfg);
//! assert!(result.stats.ipc() > 0.0);
//! ```

#![warn(missing_docs)]

pub use phelps;
pub use phelps_ckpt;
pub use phelps_isa;
pub use phelps_runahead;
pub use phelps_uarch;
pub use phelps_workloads;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use phelps::sim::{simulate, Mode, PhelpsFeatures, Pipeline, RunConfig, SimResult};
    pub use phelps_isa::{Asm, Cpu, Reg};
    pub use phelps_runahead::{simulate_runahead, BrVariant};
    pub use phelps_uarch::config::CoreConfig;
    pub use phelps_uarch::stats::speedup;
    pub use phelps_workloads::{suite, Workload};
}

//! # phelps-verify
//!
//! Differential co-simulation fuzzing harness for the Phelps
//! reproduction. Random guest programs (see [`gen`]) run lock-step
//! through the functional emulator and the cycle-level pipeline in every
//! mode and under Branch Runahead, and the retired record streams plus
//! final architectural state must agree exactly (see [`diff`]). Failures
//! are minimized by a delta-debugging shrinker (see [`shrink`]) and
//! reported with a `PHELPS_FUZZ_SEED=<seed>` replay line.
//!
//! The generated programs are too small to make either engine trigger,
//! so a second oracle ([`diff::check_kernel_prefix`]) checks the first
//! 60k retired instructions of real kernels under Phelps and
//! BR-Speculative, where helper threads trigger and retire, and fails a
//! run that triggers nothing.
//!
//! Build with `--features debug-invariants` to additionally compile the
//! pipeline's per-cycle microarchitectural assertions (in-order retire,
//! LSQ age ordering, resource-counter and rename-map consistency, the
//! wakeup lists and completion events, MSHR occupancy) into the checked
//! runs — CI does.
//!
//! Entry points: the `phelps-fuzz` binary (CI), the
//! `tests/fuzz_differential.rs` integration test (seeded sweep +
//! proptest-driven random seeds), the `tests/kernel_prefix.rs` kernel
//! oracle (CI), and [`fuzz`]/[`run_seed`] for programmatic use.

#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod restore;
pub mod shrink;

/// Base seed used when `PHELPS_FUZZ_SEED` is not set. Fixed so CI runs
/// are reproducible run-to-run.
pub const DEFAULT_SEED: u64 = 0x0be1_be11_eca5_7d1e;

/// A minimized fuzzing failure, ready to report.
#[derive(Debug)]
pub struct Failure {
    /// The seed whose program diverged.
    pub seed: u64,
    /// The divergence of the *minimized* program.
    pub mismatch: diff::Mismatch,
    /// The minimized spec.
    pub minimized: gen::ProgramSpec,
}

impl Failure {
    /// Full failure report: divergence, replay line, minimized program.
    pub fn report(&self) -> String {
        format!(
            "differential mismatch (seed {seed:#x}): {mismatch}\n\
             replay: PHELPS_FUZZ_SEED={seed:#x} cargo run -p phelps-verify \
             --features debug-invariants --bin phelps-fuzz -- 1\n\
             minimized program ({n} ops, {iters} outer iteration(s)):\n{spec:#?}",
            seed = self.seed,
            mismatch = self.mismatch,
            n = shrink::size(&self.minimized.ops),
            iters = self.minimized.outer_iters,
            spec = self.minimized.ops,
        )
    }
}

/// Generates, builds and differentially checks the program for one seed;
/// on divergence the failing program is shrunk before reporting.
pub fn run_seed(seed: u64) -> Result<(), Box<Failure>> {
    let spec = gen::generate(seed);
    match diff::check_cpu(&gen::build(&spec)) {
        Ok(()) => Ok(()),
        Err(first) => {
            let minimized = shrink::shrink(&spec);
            // Re-derive the mismatch from the minimized program (the
            // shrinker only guarantees *some* divergence remains).
            let mismatch = diff::check_cpu(&gen::build(&minimized))
                .err()
                .unwrap_or(first);
            Err(Box::new(Failure {
                seed,
                mismatch,
                minimized,
            }))
        }
    }
}

/// Checks `count` consecutive seeds starting at `base_seed`, stopping at
/// the first failure. Returns the number of programs verified.
pub fn fuzz(base_seed: u64, count: u64) -> Result<u64, Box<Failure>> {
    for i in 0..count {
        run_seed(base_seed.wrapping_add(i))?;
    }
    Ok(count)
}

/// The replay seed from the `PHELPS_FUZZ_SEED` environment variable
/// (decimal or `0x`-prefixed hex), if set and well-formed.
pub fn env_seed() -> Option<u64> {
    let raw = std::env::var("PHELPS_FUZZ_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => {
            eprintln!("warning: ignoring malformed PHELPS_FUZZ_SEED={raw:?}");
            None
        }
    }
}

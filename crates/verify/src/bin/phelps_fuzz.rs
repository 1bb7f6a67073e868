//! CI fuzzing driver: checks N random guest programs (default 200)
//! differentially across every pipeline mode and under Branch Runahead.
//!
//! Usage: `phelps-fuzz [count]`. The base seed comes from
//! `PHELPS_FUZZ_SEED` (decimal or 0x-hex) when set, so a failing seed
//! printed by a previous run replays exactly; otherwise a fixed default
//! keeps CI deterministic. Exits 1 on the first divergence, after
//! printing the minimized reproducer and its replay line.

use phelps_verify::{diff, env_seed, fuzz, DEFAULT_SEED};

fn main() {
    let count: u64 = match std::env::args().nth(1) {
        Some(arg) => arg
            .parse()
            .unwrap_or_else(|_| panic!("usage: phelps-fuzz [count]; got {arg:?}")),
        None => 200,
    };
    let base = env_seed().unwrap_or(DEFAULT_SEED);
    eprintln!(
        "phelps-fuzz: checking {count} program(s) from base seed {base:#x} across {} modes \
         and {}{}",
        diff::modes().len(),
        diff::BR_SPEC,
        if cfg!(feature = "debug-invariants") {
            " (debug-invariants on)"
        } else {
            ""
        }
    );
    match fuzz(base, count) {
        Ok(n) => eprintln!("phelps-fuzz: all {n} program(s) agree with the reference emulator"),
        Err(failure) => {
            eprintln!("{}", failure.report());
            std::process::exit(1);
        }
    }
}

//! Workload differential smoke test: the real benchmark suite, not just
//! fuzzer-generated programs, must co-simulate exactly.
//!
//! For every GAP and SPEC-like workload, the first `PREFIX` retired
//! main-thread records from the baseline pipeline must equal the
//! functional emulator's trace, and the pipeline's retire-time register
//! file (over registers the prefix wrote) and memory image must equal the
//! emulator's state at the same instruction boundary. This is the
//! workload-scale cousin of the `phelps-verify` fuzzing harness: the
//! fuzzer covers the ISA corners, this covers the paper's actual kernels
//! (pointer chasing, worklists, hash tables) at their real working-set
//! sizes.
//!
//! The full run-to-halt check lives in the `#[ignore]`d test below: at
//! ~290M combined instructions it is release-mode work, and
//! `scripts/ci.sh` runs it there.

use phelps_repro::prelude::*;
use std::collections::HashSet;

/// Retired-instruction prefix compared per workload. Long enough to get
/// every kernel out of its setup code and into its main loop.
const PREFIX: usize = 10_000;

fn workload(name: &str) -> Workload {
    suite::gap_workload(name)
        .or_else(|| suite::spec_workload(name))
        .unwrap_or_else(|| panic!("unknown workload {name}"))
}

fn check_prefix(w: Workload) {
    let name = w.name;
    let cpu = w.cpu;
    let mut emu = cpu.clone();
    let mut want = Vec::with_capacity(PREFIX);
    for i in 0..PREFIX {
        match emu.step() {
            Ok(rec) => want.push(rec),
            Err(e) => panic!("{name}: emulator fault at instruction {i}: {e}"),
        }
        if emu.is_halted() {
            break;
        }
    }

    let mut cfg = RunConfig::scaled(Mode::Baseline);
    cfg.max_mt_insts = want.len() as u64;
    let mut p = Pipeline::from_config(cpu, &cfg);
    p.record_retires();
    let r = p.run();
    let got = r.retire_log.expect("retire log was requested");
    assert_eq!(
        got.len(),
        want.len(),
        "{name}: pipeline retired {} records, emulator executed {}",
        got.len(),
        want.len()
    );
    for (i, (w_rec, g_rec)) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(w_rec, g_rec, "{name}: retired record {i} diverges");
    }
    assert_eq!(r.stats.mt_retired, want.len() as u64, "{name}: stat count");

    // Both machines now sit at the same instruction boundary. The
    // pipeline's register file starts zeroed and is written only at
    // retire, so compare the registers the prefix actually wrote; memory
    // is seeded from the guest image and must match everywhere.
    let fin = r.final_state.expect("final state was requested");
    let written: HashSet<usize> = want
        .iter()
        .filter_map(|rec| rec.inst.dst())
        .map(|d| d.index())
        .collect();
    for idx in written {
        let reg = phelps_isa::Reg::new(idx as u8).expect("valid index");
        assert_eq!(
            fin.mt_regs[idx],
            emu.reg(reg),
            "{name}: final register {reg} diverges"
        );
    }
    assert_eq!(
        fin.mem.first_difference(&emu.mem),
        None,
        "{name}: final memory diverges"
    );
}

#[test]
fn gap_workloads_cosimulate_exactly() {
    for name in suite::gap_names() {
        check_prefix(workload(name));
    }
}

#[test]
fn spec_workloads_cosimulate_exactly() {
    for name in suite::spec_names() {
        check_prefix(workload(name));
    }
}

/// Every workload is a terminating program: the emulator reaches `halt`
/// (nothing in the suite spins forever waiting on state the timing model
/// would have to provide). ~290M combined instructions, so release-only:
/// `scripts/ci.sh` runs it via `cargo test --release -- --ignored`.
#[test]
#[ignore = "runs every workload to completion; scripts/ci.sh runs this in release"]
fn every_workload_halts_on_the_emulator() {
    for name in suite::gap_names().iter().chain(suite::spec_names()) {
        let mut cpu = workload(name).cpu;
        cpu.run(250_000_000)
            .unwrap_or_else(|e| panic!("{name}: emulator fault: {e}"));
        assert!(
            cpu.is_halted(),
            "{name} did not halt within 250M instructions"
        );
    }
}

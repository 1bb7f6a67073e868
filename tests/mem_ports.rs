//! Port-model and L1I integration tests.
//!
//! Three families:
//!
//! 1. **Ideal-memory compatibility** — with every bandwidth limit removed
//!    and the L1I disabled ([`CoreConfig::ideal_memory`]), the refactored
//!    request path must reproduce the pre-refactor golden cycle counts to
//!    within 0.5% (the residual delta comes from retired stores now
//!    allocating MSHRs, so later loads merge onto in-flight store fills
//!    instead of hitting eagerly-filled tags).
//! 2. **L1I behavior** — a straight-line code footprint larger than the
//!    L1I misses and stalls fetch on every pass; a tight loop only takes
//!    compulsory misses; a W>0 checkpoint warmup replays the lead-in
//!    through the L1I so the region starts warm.
//! 3. **Bandwidth pressure** — with paper-default port widths, a Phelps
//!    run shows nonzero per-level port-stall counters, both in `SimStats`
//!    and in the telemetry stream.

use phelps_repro::phelps_ckpt::{capture_snapshots, resume};
use phelps_repro::prelude::*;

/// Pre-refactor golden pins (see the history note in
/// `tests/golden_stats.rs`).
const OLD_BASELINE_CYCLES: u64 = 152_471;
const OLD_PHELPS_CYCLES: u64 = 149_181;

fn ideal_cfg(mode: Mode) -> RunConfig {
    let mut c = RunConfig::quick(mode, 200_000, 80_000);
    c.core = c.core.ideal_memory();
    c
}

fn within_half_percent(got: u64, want: u64) -> bool {
    got.abs_diff(want) as f64 / want as f64 <= 0.005
}

/// A loop whose straight-line body (12K instructions, 48KB) overflows the
/// 32KB L1I: every pass re-misses the whole footprint.
fn straightline_kernel(passes: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("pass");
    for _ in 0..12_000 {
        a.add(Reg::A3, Reg::A3, Reg::A4);
    }
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "pass");
    a.halt();
    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    cpu.set_reg(Reg::A2, passes);
    cpu
}

/// A four-instruction loop: one code block, compulsory misses only.
fn tight_loop_kernel(iters: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("loop");
    a.add(Reg::A3, Reg::A3, Reg::A4);
    a.xor(Reg::A4, Reg::A4, Reg::A3);
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();
    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    cpu.set_reg(Reg::A2, iters);
    cpu
}

#[test]
fn ideal_memory_reproduces_prerefactor_baseline() {
    let r = simulate(suite::astar_small().cpu, &ideal_cfg(Mode::Baseline));
    assert!(
        within_half_percent(r.stats.cycles, OLD_BASELINE_CYCLES),
        "ideal-memory baseline drifted past 0.5%: got {} want ~{}",
        r.stats.cycles,
        OLD_BASELINE_CYCLES
    );
    // No L1I, no port limits: the new counters must all stay zero.
    assert_eq!(r.stats.l1i_accesses, 0);
    assert_eq!(r.stats.l1i_misses, 0);
    assert_eq!(r.stats.mt_fetch_stall_ifetch, 0);
    assert_eq!(r.stats.l1i_port_stalls, 0);
    assert_eq!(r.stats.l1d_port_stalls, 0);
    assert_eq!(r.stats.l2_port_stalls, 0);
    assert_eq!(r.stats.l3_port_stalls, 0);
    assert_eq!(r.stats.dram_queue_stalls, 0);
}

#[test]
fn ideal_memory_reproduces_prerefactor_phelps() {
    let r = simulate(
        suite::astar_small().cpu,
        &ideal_cfg(Mode::Phelps(PhelpsFeatures::full())),
    );
    assert!(
        within_half_percent(r.stats.cycles, OLD_PHELPS_CYCLES),
        "ideal-memory phelps drifted past 0.5%: got {} want ~{}",
        r.stats.cycles,
        OLD_PHELPS_CYCLES
    );
}

#[test]
fn straightline_footprint_misses_l1i_and_stalls_fetch() {
    let cfg = RunConfig::quick(Mode::Baseline, 36_100, 12_000);
    let r = simulate(straightline_kernel(3), &cfg);
    // 48KB body in a 32KB cache: every pass re-misses its ~750 blocks.
    assert!(
        r.stats.l1i_misses > 1_000,
        "expected capacity thrash, got {} L1I misses",
        r.stats.l1i_misses
    );
    let mpki = 1000.0 * r.stats.l1i_misses as f64 / r.stats.mt_retired as f64;
    assert!(mpki > 10.0, "L1I MPKI {mpki:.1} too low for this footprint");
    assert!(
        r.stats.mt_fetch_stall_ifetch > 0,
        "I-misses must stall fetch"
    );
    assert!(r.stats.l1i_accesses >= r.stats.l1i_misses);
}

#[test]
fn tight_loop_takes_compulsory_l1i_misses_only() {
    let cfg = RunConfig::quick(Mode::Baseline, 40_100, 12_000);
    let r = simulate(tight_loop_kernel(10_000), &cfg);
    // The whole kernel is two code blocks; after they fill, fetch never
    // misses again.
    assert!(
        r.stats.l1i_misses <= 2,
        "tight loop re-missed the L1I: {} misses",
        r.stats.l1i_misses
    );
    assert!(r.stats.l1i_accesses > 1_000, "block-grain probes expected");
}

#[test]
fn checkpoint_warmup_warms_l1i() {
    let skip = 20_000;
    let warm_window = 2_000;
    let cfg = RunConfig::quick(Mode::Baseline, 20_000, 8_000);

    // W=0: the region starts with a cold L1I and takes compulsory misses.
    let snap = capture_snapshots(&mut tight_loop_kernel(100_000), &[skip], 0)
        .expect("capture")
        .pop()
        .expect("one snapshot");
    let r0 = resume(tight_loop_kernel(100_000), &snap, 0).expect("restore");
    let mut p = Pipeline::from_config(r0.cpu, &cfg);
    p.warm_microarch(&r0.warm);
    let cold = p.run();
    assert!(
        cold.stats.l1i_misses > 0,
        "cold region start must take a compulsory I-miss"
    );

    // W>0: the warmup replay walks the same loop body through the L1I, so
    // the region itself never I-misses.
    let snap = capture_snapshots(&mut tight_loop_kernel(100_000), &[skip], warm_window)
        .expect("capture")
        .pop()
        .expect("one snapshot");
    let rw = resume(tight_loop_kernel(100_000), &snap, warm_window).expect("restore");
    assert!(!rw.warm.is_empty(), "warmup records expected");
    let mut p = Pipeline::from_config(rw.cpu, &cfg);
    p.warm_microarch(&rw.warm);
    let warm = p.run();
    assert_eq!(
        warm.stats.l1i_misses, 0,
        "warmup replay must have filled the loop's code blocks"
    );
}

#[test]
fn paper_ports_show_bandwidth_pressure_and_l1i_traffic() {
    // Paper-default config: L1I enabled, finite port widths everywhere.
    let cfg = RunConfig::quick(Mode::Phelps(PhelpsFeatures::full()), 200_000, 80_000);
    let r = simulate(suite::astar_small().cpu, &cfg);
    assert!(r.stats.l1i_accesses > 0, "L1I saw no fetch traffic");
    assert!(r.stats.l1i_misses > 0, "no compulsory L1I misses");
    assert!(
        r.stats.l1d_port_stalls > 0,
        "2-wide L1D port never backed up under load+store+prefetch traffic"
    );
}

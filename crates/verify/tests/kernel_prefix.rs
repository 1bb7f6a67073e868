//! Kernel prefix oracle: the first 60k retired instructions of bfs and
//! astar_small under Phelps and BR-Speculative match the functional
//! emulator record for record, with helper threads triggering and
//! retiring (see `phelps_verify::diff::check_kernel_prefix`). Each
//! tenant of a bfs/astar_small co-run pair, with Phelps on one tenant
//! and Baseline on the other, matches its solo emulator prefix too
//! (`check_corun_prefix`). CI runs this in release with `--features
//! debug-invariants`, so every side-thread instruction also passes the
//! pipeline's per-cycle audits.

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_verify::diff::{check_corun_prefix, check_kernel_prefix, CORUN_TENANTS};
use phelps_workloads::suite;

fn check(kernel: &str, cpu: &phelps_isa::Cpu) {
    match check_kernel_prefix(cpu) {
        Ok(runs) => {
            for (mode, stats) in runs {
                eprintln!(
                    "{kernel} [{mode}]: {} triggers, {} helper-thread instructions retired",
                    stats.triggers, stats.ht_retired
                );
            }
        }
        Err(m) => panic!("kernel prefix oracle failed on {kernel}: {m}"),
    }
}

#[test]
fn bfs_prefix_matches_the_emulator() {
    check("bfs", &suite::bfs().cpu);
}

#[test]
fn astar_small_prefix_matches_the_emulator() {
    check("astar_small", &suite::astar_small().cpu);
}

fn check_corun(pair: &str, mode0: Mode, mode1: Mode) {
    let (bfs, astar) = (suite::bfs().cpu, suite::astar_small().cpu);
    match check_corun_prefix(&bfs, mode0, &astar, mode1) {
        Ok(stats) => {
            for (tenant, s) in CORUN_TENANTS.iter().zip(stats) {
                eprintln!(
                    "{pair} [{tenant}]: {} triggers, {} helper-thread instructions retired",
                    s.triggers, s.ht_retired
                );
            }
        }
        Err(m) => panic!("co-run prefix oracle failed on {pair}: {m}"),
    }
}

#[test]
fn corun_phelps_bfs_beside_baseline_astar_small_matches_the_emulator() {
    let phelps = Mode::Phelps(PhelpsFeatures::full());
    check_corun(
        "bfs (phelps) + astar_small (baseline)",
        phelps,
        Mode::Baseline,
    );
}

#[test]
fn corun_baseline_bfs_beside_phelps_astar_small_matches_the_emulator() {
    let phelps = Mode::Phelps(PhelpsFeatures::full());
    check_corun(
        "bfs (baseline) + astar_small (phelps)",
        Mode::Baseline,
        phelps,
    );
}

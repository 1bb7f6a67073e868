//! Kernel prefix oracle: the first 60k retired instructions of bfs and
//! astar_small under Phelps and BR-Speculative match the functional
//! emulator record for record, with helper threads triggering and
//! retiring (see `phelps_verify::diff::check_kernel_prefix`). CI runs
//! this in release with `--features debug-invariants`, so every
//! side-thread instruction also passes the pipeline's per-cycle audits.

use phelps_verify::diff::check_kernel_prefix;
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

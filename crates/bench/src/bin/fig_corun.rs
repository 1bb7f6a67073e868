//! Fig. 15-style co-run study — Phelps under a contending neighbor.
//!
//! The paper's helper threads steal shared L2/L3/DRAM bandwidth from
//! their own main thread; this experiment asks the cross-core version of
//! that question: how much of Phelps' pre-execution win survives when a
//! memory-intensive neighbor tenant contends for the same uncore?
//!
//! Each benchmark runs solo and co-scheduled (shared L2/L3 ports + DRAM
//! queue, deterministic tenant-id arbitration) against bfs on a seeded
//! uniform-random graph — the input whose lack of locality makes it the
//! most aggressive bandwidth consumer in the suite. Reported per
//! benchmark: baseline and Phelps co-run slowdowns vs. their solo runs,
//! the Phelps-over-baseline speedup in both settings, and the primary
//! tenant's attributed share of DRAM-queue contention.

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::runner::{parse_cli, Experiment, MatrixResults};
use phelps_bench::{exp_config, pct, print_table, write_csv};
use phelps_uarch::stats::speedup;
use phelps_workloads::suite;

const BENCHES: [&str; 3] = ["bfs", "bc", "astar"];
/// The contending neighbor: decorrelated from the suite seed so the
/// tenants never walk correlated address streams.
const PEER_SEED: u64 = 0xc0417;

fn peer_name() -> &'static str {
    "bfs_uniform"
}

fn make_peer() -> phelps_isa::Cpu {
    suite::uniform_bfs(suite::GAP_VERTICES, PEER_SEED).cpu
}

fn rows(res: &MatrixResults) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for name in BENCHES {
        let cells = (
            res.get(name, "base-solo"),
            res.get(name, "base-corun"),
            res.get(name, "phelps-solo"),
            res.get(name, "phelps-corun"),
        );
        let (Some(bs), Some(bc), Some(ps), Some(pc)) = cells else {
            continue;
        };
        out.push(vec![
            name.to_string(),
            format!("{:.3}", bs.stats.ipc()),
            pct(speedup(&bc.stats, &bs.stats)),
            pct(speedup(&pc.stats, &ps.stats)),
            pct(speedup(&bs.stats, &ps.stats)),
            pct(speedup(&bc.stats, &pc.stats)),
            format!(
                "{}",
                pc.stats.l2_port_stalls + pc.stats.l3_port_stalls + pc.stats.dram_queue_stalls
            ),
        ]);
    }
    out
}

fn main() {
    let opts = parse_cli();
    let mut exp = Experiment::new("fig_corun").with_cli(&opts);

    for name in BENCHES {
        let make = move || suite::gap_workload(name).expect("known workload").cpu;
        // Solo cells share their cache entries with the other figures.
        exp.sim_cell(name, "base-solo", Mode::Baseline, make);
        exp.sim_cell(
            name,
            "phelps-solo",
            Mode::Phelps(PhelpsFeatures::full()),
            make,
        );
        let peer_cfg = exp_config(Mode::Baseline);
        exp.corun_cell(
            name,
            "base-corun",
            exp_config(Mode::Baseline),
            make,
            peer_name(),
            peer_cfg.clone(),
            make_peer,
        );
        exp.corun_cell(
            name,
            "phelps-corun",
            exp_config(Mode::Phelps(PhelpsFeatures::full())),
            make,
            peer_name(),
            peer_cfg,
            make_peer,
        );
    }

    let res = exp.run();
    if opts.list {
        return;
    }

    let headers = [
        "bench",
        "solo IPC",
        "base slowdown",
        "Phelps slowdown",
        "Phelps solo",
        "Phelps corun",
        "uncore stalls",
    ];
    let rows = rows(&res);
    print_table(
        &format!("Co-run vs. {} neighbor (shared uncore)", peer_name()),
        &headers,
        &rows,
    );
    println!(
        "\nslowdown columns: cycles lost co-running vs. the same config solo \
         (positive = the neighbor cost throughput); Phelps solo/corun: \
         speedup over the baseline in the same setting; uncore stalls: \
         shared-port + DRAM-queue delay cycles attributed to the primary \
         tenant."
    );
    write_csv("fig_corun", &headers, &rows);
}

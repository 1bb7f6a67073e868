//! Fig. 13 — (a) MPKI reduction with/without stores, (b) retired
//! helper-thread instructions per 100M main-thread instructions, and
//! (c) the isolated impact of partitioning on the main thread.
//!
//! Paper shape: (a) 72–91% MPKI reductions on four of six benchmarks;
//! (b) a mean overhead around 34.7M helper instructions per 100M retired;
//! (c) partitioning alone costs 4.1% (pr) to 12.8% (bc).

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::print_table;
use phelps_bench::runner::{parse_cli, Experiment};
use phelps_uarch::stats::speedup;
use phelps_workloads::suite;

fn main() {
    let opts = parse_cli();
    let mut exp = Experiment::new("fig13").with_cli(&opts);
    for name in suite::gap_names() {
        let make = move || suite::gap_workload(name).expect("known workload").cpu;
        exp.sim_cell(name, "baseline", Mode::Baseline, make);
        exp.sim_cell(name, "phelps", Mode::Phelps(PhelpsFeatures::full()), make);
        exp.sim_cell(
            name,
            "no-stores",
            Mode::Phelps(PhelpsFeatures::no_stores()),
            make,
        );
        exp.sim_cell(name, "partition", Mode::PartitionOnly, make);
    }
    let res = exp.run();
    if opts.list {
        return;
    }

    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut rows_c = Vec::new();
    for name in suite::gap_names() {
        let (Some(base), Some(ph), Some(ph_ns), Some(part)) = (
            res.get(name, "baseline"),
            res.get(name, "phelps"),
            res.get(name, "no-stores"),
            res.get(name, "partition"),
        ) else {
            continue;
        };

        let red = |r: &phelps::sim::SimResult| {
            if base.stats.mpki() > 0.0 {
                format!("{:.0}%", 100.0 * (1.0 - r.stats.mpki() / base.stats.mpki()))
            } else {
                "n/a".to_string()
            }
        };
        rows_a.push(vec![
            name.to_string(),
            format!("{:.1}", base.stats.mpki()),
            format!("{:.1}", ph.stats.mpki()),
            red(ph),
            format!("{:.1}", ph_ns.stats.mpki()),
            red(ph_ns),
        ]);
        // Fig. 13b units: helper instructions per 100M main-thread retired.
        rows_b.push(vec![
            name.to_string(),
            format!("{:.1}M", ph.stats.ht_overhead_ratio() * 100.0),
        ]);
        let slowdown = 100.0 * (1.0 - speedup(&base.stats, &part.stats));
        rows_c.push(vec![
            name.to_string(),
            format!("{:.3}", base.stats.ipc()),
            format!("{:.3}", part.stats.ipc()),
            format!("{:.1}%", slowdown),
        ]);
    }
    print_table(
        "Fig. 13a: MPKI and reduction, with / without stores",
        &["bench", "base", "Phelps", "red.", "no-stores", "red."],
        &rows_a,
    );
    print_table(
        "Fig. 13b: helper-thread instructions retired per 100M main-thread",
        &["bench", "HT insts"],
        &rows_b,
    );
    print_table(
        "Fig. 13c: main-thread-only IPC, full vs partitioned resources",
        &["bench", "full", "partitioned", "slowdown"],
        &rows_c,
    );
}

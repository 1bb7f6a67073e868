//! Fig. 12b — Phelps with and without helper-thread stores.
//!
//! Paper shape: predicated stores are critical on bc and astar (stores
//! both influence and are control-dependent on delinquent branches); bfs
//! loses a little accuracy without stores but gains timeliness.

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::runner::{parse_cli, Experiment};
use phelps_bench::{pct, print_table};
use phelps_uarch::stats::speedup;
use phelps_workloads::suite;

fn main() {
    let opts = parse_cli();
    let mut exp = Experiment::new("fig12b").with_cli(&opts);
    for name in suite::gap_names() {
        let make = move || suite::gap_workload(name).expect("known workload").cpu;
        exp.sim_cell(name, "baseline", Mode::Baseline, make);
        exp.sim_cell(
            name,
            "with-stores",
            Mode::Phelps(PhelpsFeatures::full()),
            make,
        );
        exp.sim_cell(
            name,
            "no-stores",
            Mode::Phelps(PhelpsFeatures::no_stores()),
            make,
        );
    }
    let res = exp.run();
    if opts.list {
        return;
    }

    let mut rows = Vec::new();
    for name in suite::gap_names() {
        let (Some(base), Some(with), Some(without)) = (
            res.get(name, "baseline"),
            res.get(name, "with-stores"),
            res.get(name, "no-stores"),
        ) else {
            continue;
        };
        rows.push(vec![
            name.to_string(),
            pct(speedup(&base.stats, &with.stats)),
            pct(speedup(&base.stats, &without.stats)),
        ]);
    }
    print_table(
        "Fig. 12b: Phelps speedup with / without stores",
        &["bench", "with stores", "without stores"],
        &rows,
    );
}

//! Fig. 12a — Speedups of perfect branch prediction, Phelps, Branch
//! Runahead, and BR-12w over the baseline, across GAP + astar and the
//! SPEC2017-like kernels.
//!
//! Paper shape: Phelps yields large speedups on bc/bfs and a solid one on
//! astar; BR shows mostly slowdowns except astar; BR-12w turns things
//! around; SPEC2017-like kernels see little activation.

use phelps_bench::runner::{parse_cli, Experiment, MatrixResults};
use phelps_bench::{pct, print_table, Config12a};
use phelps_uarch::stats::speedup;
use phelps_workloads::suite;

fn speedup_rows(res: &MatrixResults, names: &[&str], configs: &[Config12a]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for name in names {
        let base = res.get(name, Config12a::Baseline.label());
        let mut row = vec![
            name.to_string(),
            base.map_or_else(|| "n/a".into(), |b| format!("{:.3}", b.stats.ipc())),
        ];
        let mut any = base.is_some();
        for cfg in configs {
            let cell = res.get(name, cfg.label());
            any |= cell.is_some();
            row.push(match (base, cell) {
                (Some(b), Some(r)) => pct(speedup(&b.stats, &r.stats)),
                _ => "n/a".into(),
            });
        }
        if any {
            rows.push(row);
        }
    }
    rows
}

fn main() {
    let opts = parse_cli();
    let mut exp = Experiment::new("fig12a").with_cli(&opts);
    // Per-cell workload factories: each cell builds exactly the one
    // workload it runs (no per-config suite rebuild).
    for name in suite::gap_names() {
        let make = move || suite::gap_workload(name).expect("known workload").cpu;
        for cfg in [
            Config12a::Baseline,
            Config12a::PerfBp,
            Config12a::Phelps,
            Config12a::Br,
            Config12a::Br12w,
        ] {
            cfg.add_cell(&mut exp, name, make);
        }
    }
    for name in suite::spec_names() {
        let make = move || suite::spec_workload(name).expect("known workload").cpu;
        for cfg in [Config12a::Baseline, Config12a::PerfBp, Config12a::Phelps] {
            cfg.add_cell(&mut exp, name, make);
        }
    }
    let res = exp.run();
    if opts.list {
        return;
    }

    let rows = speedup_rows(
        &res,
        suite::gap_names(),
        &[
            Config12a::PerfBp,
            Config12a::Phelps,
            Config12a::Br,
            Config12a::Br12w,
        ],
    );
    let headers = ["bench", "base IPC", "perfBP", "Phelps", "BR", "BR-12w"];
    print_table(
        "Fig. 12a (GAP + astar): speedups over baseline",
        &headers,
        &rows,
    );
    phelps_bench::write_csv("fig12a_gap", &headers, &rows);

    let rows = speedup_rows(
        &res,
        suite::spec_names(),
        &[Config12a::PerfBp, Config12a::Phelps],
    );
    print_table(
        "Fig. 12a (SPEC2017-like): speedups over baseline",
        &["bench", "base IPC", "perfBP", "Phelps"],
        &rows,
    );
    println!("\npaper shape: Phelps rarely activates on SPEC2017 (see fig14).");
}

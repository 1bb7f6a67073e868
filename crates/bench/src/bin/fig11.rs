//! Fig. 11 — Phelps and Branch Runahead on astar's top-weighted region.
//!
//! Reproduces the bar chart comparing, on the astar kernel alone:
//! BR-non-spec, BR-spec, and four Phelps variants (full `b1→b2→s1`,
//! `b1→b2`, `b1`, `b1→s1`). The paper's text additionally reports MPKI for
//! the ablations: 29.5 baseline → 2.68 (full), 13.4 (b1→b2), 22.9 (b1),
//! 24.5 (b1->s1), and speedups of 47% (Phelps) vs 29% (BR-spec).

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::runner::{parse_cli, Experiment};
use phelps_bench::{pct, print_table};
use phelps_runahead::BrVariant;
use phelps_uarch::stats::speedup;
use phelps_workloads::suite;

fn main() {
    let opts = parse_cli();
    let mut exp = Experiment::new("fig11").with_cli(&opts);
    let astar = || suite::astar().cpu;
    exp.sim_cell("astar", "baseline", Mode::Baseline, astar);
    exp.br_cell("astar", "BR-non-spec", BrVariant::NonSpeculative, astar);
    exp.br_cell("astar", "BR-spec", BrVariant::Speculative, astar);
    exp.sim_cell(
        "astar",
        "Phelps:b1",
        Mode::Phelps(PhelpsFeatures::b1_only()),
        astar,
    );
    exp.sim_cell(
        "astar",
        "Phelps:b1->s1",
        Mode::Phelps(PhelpsFeatures::b1_with_stores()),
        astar,
    );
    exp.sim_cell(
        "astar",
        "Phelps:b1->b2",
        Mode::Phelps(PhelpsFeatures::no_stores()),
        astar,
    );
    exp.sim_cell(
        "astar",
        "Phelps:b1->b2->s1",
        Mode::Phelps(PhelpsFeatures::full()),
        astar,
    );
    let res = exp.run();
    if opts.list {
        return;
    }

    let base = res.get("astar", "baseline");
    if let Some(b) = base {
        println!(
            "baseline: IPC {:.3}, MPKI {:.1}",
            b.stats.ipc(),
            b.stats.mpki()
        );
    }
    let mut rows = Vec::new();
    for config in [
        "BR-non-spec",
        "BR-spec",
        "Phelps:b1",
        "Phelps:b1->s1",
        "Phelps:b1->b2",
        "Phelps:b1->b2->s1",
    ] {
        let Some(r) = res.get("astar", config) else {
            continue;
        };
        rows.push(vec![
            config.to_string(),
            format!("{:.3}", r.stats.ipc()),
            base.map_or_else(|| "n/a".into(), |b| pct(speedup(&b.stats, &r.stats))),
            format!("{:.1}", r.stats.mpki()),
        ]);
    }
    print_table(
        "Fig. 11: astar top region — Phelps vs Branch Runahead",
        &["config", "IPC", "speedup", "MPKI"],
        &rows,
    );
    println!(
        "\npaper shape: full Phelps > BR-spec > BR-non-spec; ablation MPKI\n\
         ordering full < b1->b2 < b1 ~ b1->s1 (29.5 -> 2.68/13.4/22.9/24.5)."
    );
}

//! Fig. 15 — (a) Sensitivity to window size and pipeline depth;
//! (b) bfs speedups on different inputs.
//!
//! Paper shape: (a) bc and bfs show even higher speedups at ROB 1024
//! (which the baseline cannot utilize due to frequent squashes), and
//! speedups grow with pipeline depth (astar 15/22/27%, bfs 64/70/74%,
//! bc 63/71/79% at depths 11/15/19); (b) the road-network input benefits
//! most; inputs with ineligible phases benefit less.

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::runner::{parse_cli, Experiment, MatrixResults};
use phelps_bench::{exp_config, pct, print_table};
use phelps_uarch::config::CoreConfig;
use phelps_uarch::stats::speedup;
use phelps_workloads::graph::GraphKind;
use phelps_workloads::suite;

const BENCHES: [&str; 3] = ["bc", "bfs", "astar"];

fn sweep_rows(res: &MatrixResults, tags: &[String]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for name in BENCHES {
        let mut row = vec![name.to_string()];
        let mut any = false;
        for tag in tags {
            let base = res.get(name, &format!("base@{tag}"));
            let ph = res.get(name, &format!("phelps@{tag}"));
            any |= base.is_some() || ph.is_some();
            row.push(match (base, ph) {
                (Some(b), Some(p)) => pct(speedup(&b.stats, &p.stats)),
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
    let mut exp = Experiment::new("fig15").with_cli(&opts);

    // (a1) Window-size sweep; (a2) pipeline-depth sweep.
    for name in BENCHES {
        let make = move || suite::gap_workload(name).expect("known workload").cpu;
        let windows = [316u32, 632, 1024].map(|rob| {
            (
                format!("rob{rob}"),
                CoreConfig::paper_default().with_window(rob),
            )
        });
        let depths = [11u32, 15, 19].map(|depth| {
            let core = CoreConfig::paper_default().with_pipeline_stages(depth);
            (format!("depth{depth}"), core)
        });
        for (tag, core) in windows.into_iter().chain(depths) {
            for (prefix, mode) in [
                ("base", Mode::Baseline),
                ("phelps", Mode::Phelps(PhelpsFeatures::full())),
            ] {
                let mut cfg = exp_config(mode);
                cfg.core = core.clone();
                exp.cfg_cell(name, &format!("{prefix}@{tag}"), cfg, make);
            }
        }
    }

    // (b) bfs inputs.
    let inputs = [
        ("road-net", GraphKind::RoadNetwork),
        ("power-law", GraphKind::PowerLaw),
        ("uniform", GraphKind::Uniform),
    ];
    for (label, kind) in inputs {
        let make = move || suite::bfs_on(kind, suite::GAP_VERTICES).cpu;
        let wl = format!("bfs:{label}");
        exp.sim_cell(&wl, "baseline", Mode::Baseline, make);
        exp.sim_cell(&wl, "phelps", Mode::Phelps(PhelpsFeatures::full()), make);
    }

    let res = exp.run();
    if opts.list {
        return;
    }

    let tags: Vec<String> = [316u32, 632, 1024]
        .iter()
        .map(|r| format!("rob{r}"))
        .collect();
    print_table(
        "Fig. 15a (window): Phelps speedup at ROB 316 / 632 / 1024",
        &["bench", "ROB=316", "ROB=632", "ROB=1024"],
        &sweep_rows(&res, &tags),
    );

    let tags: Vec<String> = [11u32, 15, 19]
        .iter()
        .map(|d| format!("depth{d}"))
        .collect();
    print_table(
        "Fig. 15a (depth): Phelps speedup at 11 / 15 / 19 stages",
        &["bench", "depth=11", "depth=15", "depth=19"],
        &sweep_rows(&res, &tags),
    );

    let mut rows = Vec::new();
    for (label, _) in inputs {
        let wl = format!("bfs:{label}");
        let (Some(base), Some(ph)) = (res.get(&wl, "baseline"), res.get(&wl, "phelps")) else {
            continue;
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", base.stats.mpki()),
            pct(speedup(&base.stats, &ph.stats)),
        ]);
    }
    print_table(
        "Fig. 15b: bfs on different inputs",
        &["input", "base MPKI", "Phelps speedup"],
        &rows,
    );
}

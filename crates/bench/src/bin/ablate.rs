//! Design-choice ablations for the structures DESIGN.md calls out:
//!
//! * prediction-queue depth (the paper chooses 32 iterations/columns) —
//!   shallower queues throttle the helper thread's lead; deeper ones
//!   don't help once the lead covers the main thread's stall shadow;
//! * helper-thread store-cache capacity (the paper chooses 16 sets × 2
//!   ways = 32 doublewords) — too small loses in-window store→load
//!   dependences, costing outcome accuracy on store-coupled kernels.

use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::runner::{parse_cli, Experiment};
use phelps_bench::{exp_config, pct, print_table};
use phelps_uarch::stats::speedup;
use phelps_workloads::suite;

const QUEUE_COLUMNS: [usize; 4] = [8, 16, 32, 64];
const STORE_SETS: [usize; 5] = [4, 8, 16, 32, 64];

fn main() {
    let opts = parse_cli();
    let mut exp = Experiment::new("ablate").with_cli(&opts);
    let astar = || suite::astar().cpu;
    exp.sim_cell("astar", "baseline", Mode::Baseline, astar);
    for columns in QUEUE_COLUMNS {
        let mut cfg = exp_config(Mode::Phelps(PhelpsFeatures::full()));
        cfg.queue_columns = columns;
        exp.cfg_cell("astar", &format!("qcols{columns}"), cfg, astar);
    }
    for sets in STORE_SETS {
        let mut cfg = exp_config(Mode::Phelps(PhelpsFeatures::full()));
        cfg.store_cache_sets = sets;
        exp.cfg_cell("astar", &format!("scsets{sets}"), cfg, astar);
    }
    let res = exp.run();
    if opts.list {
        return;
    }

    let base = res.get("astar", "baseline");
    if let Some(b) = base {
        println!(
            "astar baseline: IPC {:.3}, MPKI {:.1}",
            b.stats.ipc(),
            b.stats.mpki()
        );
    }

    let mut rows = Vec::new();
    for columns in QUEUE_COLUMNS {
        let Some(r) = res.get("astar", &format!("qcols{columns}")) else {
            continue;
        };
        rows.push(vec![
            columns.to_string(),
            base.map_or_else(|| "n/a".into(), |b| pct(speedup(&b.stats, &r.stats))),
            format!("{:.1}", r.stats.mpki()),
            r.stats.queue_untimely.to_string(),
        ]);
    }
    print_table(
        "Ablation: prediction-queue depth (paper: 32 columns)",
        &["columns", "speedup", "MPKI", "untimely"],
        &rows,
    );

    let mut rows = Vec::new();
    for sets in STORE_SETS {
        let Some(r) = res.get("astar", &format!("scsets{sets}")) else {
            continue;
        };
        rows.push(vec![
            format!("{} ({} DWs)", sets, sets * 2),
            base.map_or_else(|| "n/a".into(), |b| pct(speedup(&b.stats, &r.stats))),
            format!("{:.1}", r.stats.mpki()),
            r.stats.mispredicts_from_queue.to_string(),
        ]);
    }
    print_table(
        "Ablation: helper-thread store cache (paper: 16 sets / 32 DWs)",
        &["sets", "speedup", "MPKI", "wrong outcomes"],
        &rows,
    );
}

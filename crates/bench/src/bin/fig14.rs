//! Fig. 14 — Characterization of main-thread mispredictions under Phelps.
//!
//! For each benchmark, every retired misprediction is attributed to one
//! bin (eliminated / gathering delinquency / being constructed / not
//! constructed / too big / not in loop / not iterating enough / not
//! delinquent / wrong or untimely helper outcome), expressed in MPKI.
//!
//! Paper shape: Phelps eliminates most mispredictions in bc, bfs, pr, cc,
//! astar; mcf's are "not in loop" (non-inlined callee); leela's are
//! spread thin ("not delinquent"); gcc's branches never finish
//! "gathering" (the paper: a thrashed DBT; here: a full DBT-Max);
//! xz's loops don't iterate enough; omnetpp's helper thread is too big.

use phelps::classify::MispredictClass;
use phelps::sim::{Mode, PhelpsFeatures};
use phelps_bench::print_table;
use phelps_bench::runner::{parse_cli, Experiment};
use phelps_workloads::suite;

fn main() {
    let opts = parse_cli();
    let mut exp = Experiment::new("fig14").with_cli(&opts);
    // One cell per benchmark; per-cell factories build only their own
    // workload (the GAP and SPEC suites are never rebuilt per config).
    for name in suite::gap_names() {
        let make = move || suite::gap_workload(name).expect("known workload").cpu;
        exp.sim_cell(name, "phelps", Mode::Phelps(PhelpsFeatures::full()), make);
    }
    for name in suite::spec_names() {
        let make = move || suite::spec_workload(name).expect("known workload").cpu;
        exp.sim_cell(name, "phelps", Mode::Phelps(PhelpsFeatures::full()), make);
    }
    let res = exp.run();
    if opts.list {
        return;
    }

    let classes = MispredictClass::all();
    let mut rows = Vec::new();
    for name in suite::gap_names().iter().chain(suite::spec_names()) {
        let Some(r) = res.get(name, "phelps") else {
            continue;
        };
        let mut row = vec![name.to_string()];
        for c in classes {
            row.push(format!("{:.2}", c.mpki(&r.stats)));
        }
        rows.push(row);
    }
    let mut headers: Vec<&str> = vec!["bench"];
    headers.extend(classes.iter().map(|c| c.label()));
    print_table(
        "Fig. 14: misprediction characterization (MPKI by bin)",
        &headers,
        &rows,
    );
}

//! Misprediction triage (paper Fig. 14): why Phelps does or doesn't engage
//! on a given workload.
//!
//! Runs three contrasting kernels and prints the per-bin breakdown:
//! * astar — most mispredictions eliminated;
//! * mcf-like — the delinquent branch lives in a non-inlined callee, so it
//!   is never inside a contiguous loop ("del. but not in loop");
//! * gcc-like — so many static branches that the 256-entry DBT thrashes
//!   ("gathering delinquency" forever).
//!
//! ```sh
//! cargo run --release --example misprediction_triage
//! ```

use phelps::classify::MispredictClass;
use phelps_repro::prelude::*;
use phelps_workloads::spec;

fn triage(name: &str, cpu: Cpu) {
    let mut cfg = RunConfig::scaled(Mode::Phelps(PhelpsFeatures::full()));
    cfg.max_mt_insts = 600_000;
    cfg.epoch_len = 100_000;
    let r = simulate(cpu, &cfg);
    println!("\n{name}: MPKI {:.1}", r.stats.mpki());
    for class in MispredictClass::all() {
        let mpki = class.mpki(&r.stats);
        if mpki > 0.005 {
            println!("  {:<40} {:>6.2} MPKI", class.label(), mpki);
        }
    }
}

fn main() {
    triage("astar", suite::astar().cpu);
    triage("mcf-like", spec::mcf_like(400_000, 1));
    triage("gcc-like", spec::gcc_like(600, 80, 1));
}

//! Cross-checks the telemetry subsystem against the simulator's own
//! statistics. The epoch series is a sequence of `SimStats` deltas, so
//! it must partition the run: summed field by field, the epochs equal
//! the run's `SimStats`. Recording only observes: a recorded run's
//! `SimStats` equal the unrecorded run's.

use phelps_repro::phelps::sim::{run_corun_pair, PreExecEngine};
use phelps_repro::phelps_runahead::runahead_pipeline;
use phelps_repro::prelude::*;
use phelps_telemetry as tlm;
use phelps_uarch::stats::SimStats;

/// Small-but-representative run configuration (mirrors `end_to_end.rs`).
fn quick(mode: Mode) -> RunConfig {
    RunConfig::quick(mode, 200_000, 80_000)
}

/// Sets `p` to record an epoch every 25k retired instructions.
fn recording<E: PreExecEngine>(mut p: Pipeline<E>, label: &str) -> Pipeline<E> {
    p.record_epochs(tlm::Config {
        epoch_len: 25_000,
        label: label.to_string(),
    });
    p
}

/// Runs `cpu` under `cfg` (Phelps or not, as `cfg.mode` says) with its
/// epoch series recorded under `label`.
fn run_recorded(cpu: Cpu, cfg: &RunConfig, label: &str) -> SimResult {
    recording(Pipeline::from_config(cpu, cfg), label).run()
}

/// Asserts that `rep`'s epoch deltas sum to `stats` for every counter.
fn assert_epochs_partition(rep: &tlm::Report, stats: &SimStats, run: &str) {
    let mut sum = SimStats::default();
    for e in &rep.epochs {
        sum.merge(&e.stats);
    }
    for ((name, got), want) in SimStats::NAMES
        .iter()
        .zip(sum.to_array())
        .zip(stats.to_array())
    {
        assert_eq!(
            got, want,
            "{run}: epoch deltas of {name} must sum to the run's"
        );
    }
}

#[test]
fn baseline_trace_matches_sim_stats() {
    let r = run_recorded(
        suite::astar_small().cpu,
        &quick(Mode::Baseline),
        "consistency/baseline",
    );
    let rep = r
        .telemetry
        .as_ref()
        .expect("a run asked to record carries its epoch series");
    assert!(r.stats.mt_retired > 0, "run must make progress");
    assert_epochs_partition(rep, &r.stats, "baseline");

    // Each epoch spans `epoch_len` retirements (the trailing one the
    // rest: none when the run stops on a boundary), and end cycles are
    // monotone and reach the run's last cycle.
    for e in &rep.epochs[..rep.epochs.len() - 1] {
        assert_eq!(e.stats.mt_retired, 25_000);
    }
    for w in rep.epochs.windows(2) {
        assert!(w[0].end_cycle <= w[1].end_cycle, "epoch cycles monotone");
        assert_eq!(w[1].end_cycle - w[0].end_cycle, w[1].stats.cycles);
    }
    assert_eq!(rep.epochs.last().map(|e| e.end_cycle), Some(r.stats.cycles));
    assert_eq!(rep.final_cycle, r.stats.cycles);
}

#[test]
fn phelps_trace_matches_trigger_and_queue_stats() {
    let r = run_recorded(
        suite::astar_small().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
        "consistency/phelps",
    );
    let rep = r.telemetry.as_ref().expect("telemetry must be recorded");
    assert!(r.stats.triggers > 0, "the helper thread must trigger");
    assert!(
        r.stats.preds_from_queue > 0,
        "the main thread consumes queues"
    );
    let epoch_triggers: u64 = rep.epochs.iter().map(|e| e.stats.triggers).sum();
    assert_eq!(epoch_triggers, r.stats.triggers);
    let epoch_queue_preds: u64 = rep.epochs.iter().map(|e| e.stats.preds_from_queue).sum();
    assert_eq!(epoch_queue_preds, r.stats.preds_from_queue);
}

/// The partition law in every engine mode: Baseline, Phelps and Branch
/// Runahead (whose engine squashes, rolls back and retires side work).
#[test]
fn epoch_deltas_partition_the_run() {
    for name in ["baseline", "phelps", "br-spec"] {
        let cpu = suite::astar_small().cpu;
        let r = match name {
            "baseline" => run_recorded(cpu, &quick(Mode::Baseline), name),
            "phelps" => run_recorded(cpu, &quick(Mode::Phelps(PhelpsFeatures::full())), name),
            _ => recording(
                runahead_pipeline(cpu, &quick(Mode::Baseline), BrVariant::Speculative),
                name,
            )
            .run(),
        };
        let rep = r.telemetry.as_ref().expect("telemetry recorded");
        assert!(rep.epochs.len() >= 8, "{name}: 200k insts / 25k epochs");
        assert_epochs_partition(rep, &r.stats, name);
    }
}

/// The Fig. 14 classification law: every retired main-thread
/// misprediction lands in exactly one residual class, with "ht wrong
/// outcome" read as `mispredicts_from_queue`. Baseline has no engine,
/// so every misprediction is "not delinquent" and none is eliminated.
#[test]
fn misprediction_classes_partition_the_mispredicts() {
    use phelps_repro::phelps::classify::MispredictClass;
    for name in ["baseline", "phelps", "br-spec"] {
        let cpu = suite::astar_small().cpu;
        let r = match name {
            "baseline" => simulate(cpu, &quick(Mode::Baseline)),
            "phelps" => simulate(cpu, &quick(Mode::Phelps(PhelpsFeatures::full()))),
            _ => simulate_runahead(cpu, &quick(Mode::Baseline), BrVariant::Speculative),
        };
        let s = &r.stats;
        assert!(s.mt_mispredicts > 0, "{name}: the kernel mispredicts");
        let residual: u64 = MispredictClass::all()
            .into_iter()
            .filter(|c| *c != MispredictClass::Eliminated)
            .map(|c| c.count(s))
            .sum();
        assert_eq!(residual, s.mt_mispredicts, "{name}: classes partition");
        if name == "baseline" {
            assert_eq!(s.misp_not_delinquent, s.mt_mispredicts);
            assert_eq!(s.misp_eliminated, 0);
        } else {
            assert!(s.misp_eliminated > 0, "{name}: the engine eliminates some");
        }
    }
}

/// A co-run in which only tenant 0 records describes tenant 0 alone:
/// tenant 1 carries no report, and tenant 0's epochs sum to its own
/// stats — including the shared-level fields, whose mid-run snapshots
/// read the communal uncore's attribution, just as its final stats do.
#[test]
fn corun_trace_describes_tenant_zero() {
    let cfg = quick(Mode::Baseline);
    let [t0, t1] = run_corun_pair(
        &cfg.core,
        recording(
            Pipeline::from_config(suite::astar_small().cpu, &cfg),
            "consistency/corun",
        ),
        Pipeline::from_config(suite::bfs().cpu, &cfg),
    );
    let rep = t0.telemetry.as_ref().expect("tenant 0 records");
    assert!(t1.telemetry.is_none(), "tenant 1 was not asked to record");
    assert!(t0.stats.l3_misses > 0 && t1.stats.l3_misses > 0);
    assert!(t0.stats.l2_port_stalls + t0.stats.l3_port_stalls > 0);
    let retired: u64 = rep.epochs.iter().map(|e| e.stats.mt_retired).sum();
    assert_eq!(retired, t0.stats.mt_retired);
    assert_epochs_partition(rep, &t0.stats, "corun tenant 0");
}

#[test]
fn report_serializes_to_valid_json() {
    let r = run_recorded(
        suite::astar_small().cpu,
        &quick(Mode::Baseline),
        "consistency/json",
    );
    let rep = r.telemetry.as_ref().expect("telemetry must be recorded");

    let mut w = tlm::JsonWriter::new();
    rep.write_json(&mut w);
    let v = tlm::parse_json(&w.finish()).expect("report JSON must parse");
    assert_eq!(
        v.get("label").and_then(|l| l.as_str()),
        Some("consistency/json")
    );
    assert_eq!(
        v.get("final_cycle").and_then(|c| c.as_u64()),
        Some(r.stats.cycles)
    );
    let epochs = v.get("epochs").and_then(|e| e.as_array()).expect("epochs");
    assert_eq!(epochs.len(), rep.epochs.len());
    let back: Vec<tlm::EpochSample> = epochs
        .iter()
        .map(|e| tlm::EpochSample::from_json(e).expect("epoch decodes"))
        .collect();
    assert_eq!(back[0].stats, rep.epochs[0].stats);
    assert_eq!(
        back.iter().map(|e| e.stats.mt_retired).sum::<u64>(),
        r.stats.mt_retired
    );
}

/// A pipeline not asked to record holds no recorder and fabricates no
/// report, in every engine mode, even when it logs its retires.
#[test]
fn no_install_means_no_telemetry_and_no_overhead_path() {
    let r = simulate(suite::astar_small().cpu, &quick(Mode::Baseline));
    assert!(r.telemetry.is_none());
    let mut p = Pipeline::from_config(
        suite::astar_small().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    p.record_retires();
    let r = p.run();
    assert!(r.retire_log.is_some() && r.telemetry.is_none());
    let r = simulate_runahead(
        suite::astar_small().cpu,
        &quick(Mode::Baseline),
        BrVariant::Speculative,
    );
    assert!(r.telemetry.is_none());
}

/// Recording observes a run and never steers it: Baseline, Phelps,
/// Branch Runahead and a co-run pair each reach the same `SimStats`
/// with and without `record_epochs`. With both co-run tenants
/// recording, each report partitions its own tenant's stats.
#[test]
fn recording_observes_a_run_and_never_steers_it() {
    let cfg = |mode| RunConfig::quick(mode, 100_000, 40_000);
    let phelps = cfg(Mode::Phelps(PhelpsFeatures::full()));
    let base = cfg(Mode::Baseline);
    for (name, c) in [("baseline", &base), ("phelps", &phelps)] {
        let plain = simulate(suite::astar_small().cpu, c);
        let recorded = run_recorded(suite::astar_small().cpu, c, name);
        assert_eq!(plain.stats, recorded.stats, "{name}: recording moved stats");
    }
    let br = || runahead_pipeline(suite::astar_small().cpu, &base, BrVariant::Speculative);
    let plain = br().run();
    let recorded = recording(br(), "br-spec").run();
    assert!(plain.stats.triggers > 0, "BR chains must trigger");
    assert_eq!(
        plain.stats, recorded.stats,
        "br-spec: recording moved stats"
    );

    // Phelps on tenant 0, so a helper thread runs beside the recorders.
    let t0 = || Pipeline::from_config(suite::astar_small().cpu, &phelps);
    let t1 = || Pipeline::from_config(suite::bfs().cpu, &base);
    let plain = run_corun_pair(&base.core, t0(), t1());
    let recorded = run_corun_pair(
        &base.core,
        recording(t0(), "corun/t0"),
        recording(t1(), "corun/t1"),
    );
    for (tenant, (p, r)) in plain.iter().zip(&recorded).enumerate() {
        assert_eq!(p.stats, r.stats, "tenant {tenant}: recording moved stats");
        let rep = r.telemetry.as_ref().expect("each tenant records");
        assert_eq!(rep.label, format!("corun/t{tenant}"));
        assert_epochs_partition(rep, &r.stats, &format!("corun tenant {tenant}"));
    }
    assert!(
        recorded[0].stats.triggers > 0,
        "tenant 0's helper thread triggers"
    );
}

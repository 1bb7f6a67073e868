//! Cross-checks the telemetry subsystem against the simulator's own
//! statistics. The epoch series is a sequence of `SimStats` deltas, so
//! it must partition the run: summed field by field, the epochs equal
//! the run's `SimStats`. The event stream is recorded independently and
//! must agree with the counters it mirrors.

use phelps_repro::prelude::*;
use phelps_telemetry as tlm;
use phelps_uarch::stats::SimStats;

/// Small-but-representative run configuration (mirrors `end_to_end.rs`).
fn quick(mode: Mode) -> RunConfig {
    RunConfig::quick(mode, 200_000, 80_000)
}

/// Installs a verbose sink big enough that nothing is dropped.
fn install_trace(label: &str) {
    tlm::install(tlm::Config {
        epoch_len: 25_000,
        verbose: true,
        ring_capacity: 1 << 20,
        label: label.to_string(),
        epoch_sink: None,
    });
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
    install_trace("consistency/baseline");
    let r = simulate(suite::astar_small().cpu, &quick(Mode::Baseline));
    let rep = r
        .telemetry
        .as_ref()
        .expect("telemetry installed before the run must be harvested");
    assert!(r.stats.mt_retired > 0, "run must make progress");
    assert_epochs_partition(rep, &r.stats, "baseline");

    // Verbose mode records one event per misprediction; the ring was sized
    // so none were dropped, making the event stream exhaustive.
    assert_eq!(rep.events_dropped, 0, "ring must not overflow in this test");
    assert_eq!(
        rep.event_count(tlm::EventKind::Mispredict) as u64,
        r.stats.mt_mispredicts
    );

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
    install_trace("consistency/phelps");
    let r = simulate(
        suite::astar_small().cpu,
        &quick(Mode::Phelps(PhelpsFeatures::full())),
    );
    let rep = r.telemetry.as_ref().expect("telemetry must be harvested");
    assert!(r.stats.triggers > 0, "the helper thread must trigger");
    assert_eq!(
        rep.event_count(tlm::EventKind::Trigger) as u64,
        r.stats.triggers
    );
    assert_eq!(
        rep.event_count(tlm::EventKind::Terminate) as u64,
        r.stats.terminations
    );
    let epoch_triggers: u64 = rep.epochs.iter().map(|e| e.stats.triggers).sum();
    assert_eq!(epoch_triggers, r.stats.triggers);
}

/// The partition law in every engine mode: Baseline, Phelps and Branch
/// Runahead (whose engine squashes, rolls back and retires side work).
#[test]
fn epoch_deltas_partition_the_run() {
    for name in ["baseline", "phelps", "br-spec"] {
        install_trace(name);
        let cpu = suite::astar_small().cpu;
        let r = match name {
            "baseline" => simulate(cpu, &quick(Mode::Baseline)),
            "phelps" => simulate(cpu, &quick(Mode::Phelps(PhelpsFeatures::full()))),
            _ => simulate_runahead(cpu, &quick(Mode::Baseline), BrVariant::Speculative),
        };
        let rep = r.telemetry.as_ref().expect("telemetry harvested");
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

/// A traced co-run describes tenant 0 alone: tenant 1 never feeds the
/// registry, and tenant 0's epochs sum to its own stats — including the
/// shared-level fields, whose mid-run snapshots read the communal
/// uncore's attribution, just as its final stats do.
#[test]
fn corun_trace_describes_tenant_zero() {
    install_trace("consistency/corun");
    let cfg = quick(Mode::Baseline);
    let [t0, t1] =
        phelps::sim::simulate_corun_pair(suite::astar_small().cpu, &cfg, suite::bfs().cpu, &cfg);
    let rep = t0.telemetry.as_ref().expect("tenant 0 harvests");
    assert!(t1.telemetry.is_none());
    assert!(t0.stats.l3_misses > 0 && t1.stats.l3_misses > 0);
    assert!(t0.stats.l2_port_stalls + t0.stats.l3_port_stalls > 0);
    let retired: u64 = rep.epochs.iter().map(|e| e.stats.mt_retired).sum();
    assert_eq!(retired, t0.stats.mt_retired);
    assert_epochs_partition(rep, &t0.stats, "corun tenant 0");
}

#[test]
fn report_serializes_to_valid_json() {
    install_trace("consistency/json");
    let r = simulate(suite::astar_small().cpu, &quick(Mode::Baseline));
    let rep = r.telemetry.as_ref().expect("telemetry must be harvested");

    let json = rep.to_json();
    let v = tlm::parse_json(&json).expect("report JSON must parse");
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

#[test]
fn no_install_means_no_telemetry_and_no_overhead_path() {
    // Without an installed sink, the run must not fabricate a report.
    let r = simulate(suite::astar_small().cpu, &quick(Mode::Baseline));
    assert!(r.telemetry.is_none());
    assert!(!tlm::enabled());
}

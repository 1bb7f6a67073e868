//! The metric tables. `BENCHMARK.json` at the repository root lists
//! [`END_TO_END`] and [`PER_LAYER`] with the same names, units,
//! directions and bounds (checked by a test).

/// Host seconds one run measures, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the parent's median.
    Rel(f64),
    /// Absolute, in the metric's unit (percentage points for `%`).
    Abs(f64),
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<Bound>,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, b: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(b),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports (`run`).
pub const END_TO_END: [MetricDef; 3] = [
    bounded("mips", "MIPS", Higher, Bound::Rel(0.20)),
    bounded("setup_s", "s", Lower, Bound::Rel(0.25)),
    bounded("rss_mb", "MiB", Lower, Bound::Rel(0.10)),
];

/// End-to-end metrics kept only in the result file, where `compare`
/// judges the bounded ones: the unscaled host speed, and metrics only
/// some workloads have (`BENCHMARK.json` needs every metric on every
/// workload).
pub const RESULT_ONLY: [MetricDef; 5] = [
    // `mips` before scaling to the reference host speed.
    layer("mips_raw", "MIPS", Higher),
    // The host-speed probe, median over rounds: how busy the host was.
    layer("host_probe_ms", "ms", Lower),
    // baseline only: both tenants' instructions over the co-run pair's time.
    bounded("corun_mips", "MIPS", Higher, Bound::Rel(0.20)),
    // sharded only: deterministic, so any move is a real one.
    bounded("shard_err_pct", "%", Lower, Bound::Abs(0.1)),
    // every workload; 0 when nothing failed.
    bounded("fail_pct", "%", Lower, Bound::Abs(0.0)),
];

/// Per-layer metrics every workload reports (`trace`). A layer a
/// workload never enters reads 0.
pub const PER_LAYER: [MetricDef; 45] = [
    layer("core.pipeline.ns_per_cycle", "ns", Lower),
    layer("core.pipeline.self_share_pct", "%", Lower),
    layer("core.phelps_engine.share_pct", "%", Lower),
    layer("core.phelps_engine.ns_per_cycle", "ns", Lower),
    layer("core.phelps_engine.fetch.calls_per_kinst", "1/kinst", Lower),
    layer("core.phelps_engine.fetch.ns_per_call", "ns", Lower),
    layer(
        "core.phelps_engine.retire.calls_per_kinst",
        "1/kinst",
        Lower,
    ),
    layer("core.phelps_engine.retire.ns_per_call", "ns", Lower),
    layer("core.phelps_engine.side.calls_per_kinst", "1/kinst", Lower),
    layer("core.phelps_engine.side.ns_per_call", "ns", Lower),
    layer("core.phelps_engine.queue_pred_pct", "%", Higher),
    layer("core.phelps_engine.queue_wrong_pct", "%", Lower),
    layer("core.phelps_engine.ht_per_mt", "ratio", Lower),
    layer("core.phelps_engine.triggers", "count", Higher),
    layer("runahead.engine.share_pct", "%", Lower),
    layer("runahead.engine.ns_per_cycle", "ns", Lower),
    layer("runahead.engine.fetch.calls_per_kinst", "1/kinst", Lower),
    layer("runahead.engine.fetch.ns_per_call", "ns", Lower),
    layer("runahead.engine.retire.calls_per_kinst", "1/kinst", Lower),
    layer("runahead.engine.retire.ns_per_call", "ns", Lower),
    layer("runahead.engine.side.calls_per_kinst", "1/kinst", Lower),
    layer("runahead.engine.side.ns_per_call", "ns", Lower),
    layer("runahead.engine.ht_per_mt", "ratio", Lower),
    layer("runahead.engine.triggers", "count", Higher),
    layer("isa.emu.ns_per_inst", "ns", Lower),
    layer("isa.emu.est_share_pct", "%", Lower),
    layer("uarch.bpred.ns_per_branch", "ns", Lower),
    layer("uarch.bpred.est_share_pct", "%", Lower),
    layer("uarch.bpred.mpki", "1/kinst", Lower),
    layer("uarch.mem.ns_per_req", "ns", Lower),
    layer("uarch.mem.est_share_pct", "%", Lower),
    layer("uarch.mem.l1d_miss_pct", "%", Lower),
    layer("uarch.mem.dram_per_kinst", "1/kinst", Lower),
    layer("uarch.mem.port_stalls_per_kinst", "1/kinst", Lower),
    layer(
        "uarch.mem.uncore.shared_port_stalls_per_kinst",
        "1/kinst",
        Lower,
    ),
    layer(
        "uarch.mem.uncore.dram_queue_stalls_per_kinst",
        "1/kinst",
        Lower,
    ),
    layer("ckpt.capture_ms", "ms", Lower),
    layer("ckpt.restore_ms", "ms", Lower),
    layer("ckpt.bytes", "B", Lower),
    layer("bench.shard.speedup", "x", Higher),
    layer("bench.shard.imbalance", "ratio", Lower),
    layer("bench.shard.worker_util_pct", "%", Higher),
    layer("bench.shard.merge_us", "us", Lower),
    layer("bench.shard.err_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Looks a metric up in every table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&RESULT_ONLY)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::WORKLOADS;
    use phelps_telemetry::{parse_json, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        v.get(key).and_then(JsonValue::as_array).expect(key)
    }

    fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key).and_then(JsonValue::as_str).expect(key)
    }

    fn check_metrics(json: &[JsonValue], table: &[MetricDef]) {
        assert_eq!(json.len(), table.len());
        for (j, m) in json.iter().zip(table) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
            let better = match m.better {
                Higher => "higher",
                Lower => "lower",
            };
            assert_eq!(str_of(j, "better"), better, "{}", m.name);
            let bound = j.get("bound").and_then(JsonValue::as_f64);
            assert_eq!(bound.map(Bound::Rel), m.bound, "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let v = benchmark_json();
        let workloads = list(&v, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
        }
        check_metrics(list(&v, "end_to_end"), &END_TO_END);
        check_metrics(list(&v, "per_layer"), &PER_LAYER);
        assert_eq!(
            v.get("run_seconds").and_then(JsonValue::as_u64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .chain(&RESULT_ONLY)
            .chain(&PER_LAYER)
            .collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "names are unique");
    }
}

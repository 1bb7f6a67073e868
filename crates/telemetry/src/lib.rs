//! Run telemetry for the Phelps simulator: typed counters, occupancy
//! gauges, log2 latency histograms, a bounded event ring, and per-epoch
//! time-series samples, exported as hand-rolled JSON or CSV.
//!
//! # Model
//!
//! A [`Registry`] is installed per thread with [`install`]; every record
//! call ([`count`], [`add`], [`gauge`], [`event`], [`hist`], [`tick`])
//! is a free function that consults a thread-local `enabled` flag first
//! and returns immediately when no registry is installed. Simulation
//! code therefore carries no telemetry handles and pays one predictable
//! branch per call site when tracing is off.
//!
//! The thread-local design also gives per-test isolation: `cargo test`
//! runs tests on separate threads, so concurrent simulations never share
//! a registry.
//!
//! When the simulated run completes, the owner calls [`harvest`] to take
//! the finished [`Report`], which serializes with [`Report::to_json`]
//! (single object) or [`Report::epochs_csv`] (per-epoch series).
//!
//! # Epochs
//!
//! The registry closes an epoch every `epoch_len` retired main-thread
//! instructions (tracked through [`Counter::MtRetired`]), snapshotting
//! counter deltas and gauge averages into an [`EpochSample`]. This gives
//! IPC/MPKI time series aligned with the helper-thread epoch machinery
//! of the simulator, whose epochs are likewise retirement-counted.
//!
//! # Event volume
//!
//! The event ring is bounded; once full, further events are counted in
//! `events_dropped` rather than stored. High-frequency event kinds
//! (per-mispredict, per-DRAM-miss, per-MSHR-conflict) are additionally
//! gated behind [`Config::verbose`] so that structural events (trigger,
//! terminate, epoch end, HTC install) survive ring pressure on long
//! runs.

mod json;
mod report;

pub use json::{parse as parse_json, JsonValue, JsonWriter};
pub use report::{
    EpochSample, EventRecord, GaugeSummary, HistSummary, Report, EPOCH_FEATURES,
    EPOCH_FEATURE_NAMES,
};

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Monotonic counters, indexed densely by discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Counter {
    /// Main-thread instructions retired.
    MtRetired,
    /// Main-thread conditional branches retired.
    MtCondBranches,
    /// Main-thread conditional branch mispredicts.
    MtMispredicts,
    /// Main-thread pipeline squashes (any cause).
    MtSquashes,
    /// Load-store ordering violations detected at retire.
    LoadViolations,
    /// Helper-thread pre-execution triggers.
    Triggers,
    /// Helper-thread pre-execution terminations.
    Terminations,
    /// Predictions deposited into the prediction queues.
    PredDeposits,
    /// Prediction-queue lookups that supplied a timely prediction.
    PredConsumeHits,
    /// Prediction-queue lookups that found an untimely (late) entry.
    PredConsumeUntimely,
    /// Loop visits enqueued for the helper thread.
    VisitEnqueues,
    /// Loop visits dequeued by the helper thread.
    VisitDequeues,
    /// Helper-thread code (HTC) installs at epoch end.
    HtcInstalls,
    /// Pre-execution epochs ended.
    EpochsEnded,
    /// Branch-chain deposits by the runahead engine.
    ChainDeposits,
    /// Branch-chain rollbacks on wrong helper-thread outcomes.
    ChainRollbacks,
    /// L1-D misses.
    L1dMisses,
    /// L2 misses.
    L2Misses,
    /// L3 misses.
    L3Misses,
    /// DRAM accesses.
    DramAccesses,
    /// Loads merged into an in-flight MSHR.
    MshrMerges,
    /// Retries forced by MSHR exhaustion.
    MshrFullRetries,
    /// Stores retired into the memory hierarchy.
    StoresRetired,
    /// Direction-predictor updates.
    BpredUpdates,
    /// Direction-predictor wrong updates.
    BpredWrong,
    /// L1-I instruction-fetch misses.
    L1iMisses,
    /// Main-thread fetch cycles stalled on an in-flight L1-I miss.
    IfetchStallCycles,
    /// Cycles of admission delay imposed by the L1-I port.
    L1iPortStalls,
    /// Cycles of admission delay imposed by the L1-D port.
    L1dPortStalls,
    /// Cycles of admission delay imposed by the L2 port.
    L2PortStalls,
    /// Cycles of admission delay imposed by the L3 port.
    L3PortStalls,
    /// Cycles of admission delay imposed by the DRAM queue.
    DramQueueStalls,
    /// Shared (L2+L3) port admission delay charged to tenant 0. In a
    /// solo run this equals `L2PortStalls + L3PortStalls`; in a co-run
    /// the T0/T1 split attributes uncore contention per tenant.
    SharedPortStallsT0,
    /// Shared (L2+L3) port admission delay charged to tenant 1.
    SharedPortStallsT1,
    /// DRAM-queue admission delay charged to tenant 0.
    DramQueueStallsT0,
    /// DRAM-queue admission delay charged to tenant 1.
    DramQueueStallsT1,
}

impl Counter {
    /// Number of counter kinds (array size).
    pub const COUNT: usize = 36;

    /// All counters, in discriminant order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MtRetired,
        Counter::MtCondBranches,
        Counter::MtMispredicts,
        Counter::MtSquashes,
        Counter::LoadViolations,
        Counter::Triggers,
        Counter::Terminations,
        Counter::PredDeposits,
        Counter::PredConsumeHits,
        Counter::PredConsumeUntimely,
        Counter::VisitEnqueues,
        Counter::VisitDequeues,
        Counter::HtcInstalls,
        Counter::EpochsEnded,
        Counter::ChainDeposits,
        Counter::ChainRollbacks,
        Counter::L1dMisses,
        Counter::L2Misses,
        Counter::L3Misses,
        Counter::DramAccesses,
        Counter::MshrMerges,
        Counter::MshrFullRetries,
        Counter::StoresRetired,
        Counter::BpredUpdates,
        Counter::BpredWrong,
        Counter::L1iMisses,
        Counter::IfetchStallCycles,
        Counter::L1iPortStalls,
        Counter::L1dPortStalls,
        Counter::L2PortStalls,
        Counter::L3PortStalls,
        Counter::DramQueueStalls,
        Counter::SharedPortStallsT0,
        Counter::SharedPortStallsT1,
        Counter::DramQueueStallsT0,
        Counter::DramQueueStallsT1,
    ];

    /// How this counter combines when two shards' reports merge (see
    /// [`Report::merge`]).
    pub fn merge_kind(self) -> MergeKind {
        // Every current counter is a monotonic event/cycle total, so they
        // all sum. A future high-water-mark counter ("peak X") must
        // declare `MergeKind::Max` here — storing a peak in a summing
        // counter would silently break shard merging.
        MergeKind::Sum
    }

    /// Stable snake_case identifier used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MtRetired => "mt_retired",
            Counter::MtCondBranches => "mt_cond_branches",
            Counter::MtMispredicts => "mt_mispredicts",
            Counter::MtSquashes => "mt_squashes",
            Counter::LoadViolations => "load_violations",
            Counter::Triggers => "triggers",
            Counter::Terminations => "terminations",
            Counter::PredDeposits => "pred_deposits",
            Counter::PredConsumeHits => "pred_consume_hits",
            Counter::PredConsumeUntimely => "pred_consume_untimely",
            Counter::VisitEnqueues => "visit_enqueues",
            Counter::VisitDequeues => "visit_dequeues",
            Counter::HtcInstalls => "htc_installs",
            Counter::EpochsEnded => "epochs_ended",
            Counter::ChainDeposits => "chain_deposits",
            Counter::ChainRollbacks => "chain_rollbacks",
            Counter::L1dMisses => "l1d_misses",
            Counter::L2Misses => "l2_misses",
            Counter::L3Misses => "l3_misses",
            Counter::DramAccesses => "dram_accesses",
            Counter::MshrMerges => "mshr_merges",
            Counter::MshrFullRetries => "mshr_full_retries",
            Counter::StoresRetired => "stores_retired",
            Counter::BpredUpdates => "bpred_updates",
            Counter::BpredWrong => "bpred_wrong",
            Counter::L1iMisses => "l1i_misses",
            Counter::IfetchStallCycles => "ifetch_stall_cycles",
            Counter::L1iPortStalls => "l1i_port_stalls",
            Counter::L1dPortStalls => "l1d_port_stalls",
            Counter::L2PortStalls => "l2_port_stalls",
            Counter::L3PortStalls => "l3_port_stalls",
            Counter::DramQueueStalls => "dram_queue_stalls",
            Counter::SharedPortStallsT0 => "shared_port_stalls_t0",
            Counter::SharedPortStallsT1 => "shared_port_stalls_t1",
            Counter::DramQueueStallsT0 => "dram_queue_stalls_t0",
            Counter::DramQueueStallsT1 => "dram_queue_stalls_t1",
        }
    }
}

/// How one aggregate combines across shard reports in
/// [`Report::merge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeKind {
    /// Totals add (event and cycle counts).
    Sum,
    /// The larger value wins (peaks / high-water marks).
    Max,
}

/// Occupancy gauges, sampled once per simulated cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Reorder-buffer occupancy.
    RobOccupancy,
    /// Load-store-queue occupancy.
    LsqOccupancy,
    /// Total prediction-queue depth across branches.
    PredQueueDepth,
    /// Visit-queue depth.
    VisitQueueDepth,
    /// L1-D MSHR occupancy.
    MshrOccupancy,
}

impl Gauge {
    /// Number of gauge kinds (array size).
    pub const COUNT: usize = 5;

    /// All gauges, in discriminant order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::RobOccupancy,
        Gauge::LsqOccupancy,
        Gauge::PredQueueDepth,
        Gauge::VisitQueueDepth,
        Gauge::MshrOccupancy,
    ];

    /// Stable snake_case identifier used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::RobOccupancy => "rob_occupancy",
            Gauge::LsqOccupancy => "lsq_occupancy",
            Gauge::PredQueueDepth => "pred_queue_depth",
            Gauge::VisitQueueDepth => "visit_queue_depth",
            Gauge::MshrOccupancy => "mshr_occupancy",
        }
    }
}

/// Log2-bucketed histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Cycles between a pre-execution trigger and its termination.
    TriggerSpanCycles,
    /// Latency of memory accesses that missed in the L1-D.
    MissLatency,
}

impl Hist {
    /// Number of histogram kinds (array size).
    pub const COUNT: usize = 2;

    /// All histograms, in discriminant order.
    pub const ALL: [Hist; Hist::COUNT] = [Hist::TriggerSpanCycles, Hist::MissLatency];

    /// Stable snake_case identifier used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Hist::TriggerSpanCycles => "trigger_span_cycles",
            Hist::MissLatency => "miss_latency",
        }
    }
}

/// Typed events recorded into the bounded ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Pre-execution triggered; `pc` is the delinquent branch/loop PC.
    Trigger,
    /// Pre-execution terminated; `info` is the termination cause code.
    Terminate,
    /// Telemetry epoch closed; `info` is the epoch index.
    EpochEnd,
    /// Helper-thread code installed; `pc` is the loop header.
    HtcInstall,
    /// Main-thread conditional mispredict (verbose only).
    Mispredict,
    /// DRAM access (verbose only); `info` is the latency.
    DramMiss,
    /// MSHR exhaustion retry (verbose only).
    MshrFull,
}

impl EventKind {
    /// Stable snake_case identifier used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Trigger => "trigger",
            EventKind::Terminate => "terminate",
            EventKind::EpochEnd => "epoch_end",
            EventKind::HtcInstall => "htc_install",
            EventKind::Mispredict => "mispredict",
            EventKind::DramMiss => "dram_miss",
            EventKind::MshrFull => "mshr_full",
        }
    }

    /// High-frequency kinds recorded only when [`Config::verbose`] is
    /// set, so structural events survive ring pressure.
    pub fn is_verbose(self) -> bool {
        matches!(
            self,
            EventKind::Mispredict | EventKind::DramMiss | EventKind::MshrFull
        )
    }
}

/// Number of log2 buckets per histogram (covers the full u64 range).
pub const HIST_BUCKETS: usize = 65;

/// A live subscription to epoch samples: the callback runs on the
/// simulating thread, synchronously, the moment each epoch closes —
/// before the sample is appended to the report. This is how long-running
/// consumers (the `phelps-serve` daemon) stream IPC/MPKI series to
/// clients while the simulation is still in flight instead of waiting
/// for the export-at-end [`Report`].
///
/// The callback MUST NOT call any telemetry record function ([`count`],
/// [`gauge`], ...) — it runs while the thread's registry is borrowed,
/// and re-entry would panic. Keep it to channel sends or lock-free
/// bookkeeping.
#[derive(Clone)]
pub struct SampleSink(Arc<dyn Fn(&EpochSample) + Send + Sync>);

impl SampleSink {
    /// Wraps a callback invoked once per closed epoch.
    pub fn new(f: impl Fn(&EpochSample) + Send + Sync + 'static) -> SampleSink {
        SampleSink(Arc::new(f))
    }

    /// Delivers one sample to the subscriber.
    pub fn emit(&self, sample: &EpochSample) {
        (self.0)(sample);
    }
}

impl std::fmt::Debug for SampleSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SampleSink")
    }
}

/// Configuration for an installed registry.
#[derive(Clone, Debug)]
pub struct Config {
    /// Retired main-thread instructions per telemetry epoch.
    pub epoch_len: u64,
    /// Record high-frequency event kinds too.
    pub verbose: bool,
    /// Event-ring capacity; further events only bump `events_dropped`.
    pub ring_capacity: usize,
    /// Free-form run label carried into the report (e.g. "fig11/bfs").
    pub label: String,
    /// Optional live epoch-sample subscription (see [`SampleSink`]).
    pub epoch_sink: Option<SampleSink>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            epoch_len: 10_000,
            verbose: false,
            ring_capacity: 65_536,
            label: String::new(),
            epoch_sink: None,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct GaugeAccum {
    sum: u128,
    samples: u64,
    max: u64,
}

impl GaugeAccum {
    fn record(&mut self, v: u64) {
        self.sum += u128::from(v);
        self.samples += 1;
        if v > self.max {
            self.max = v;
        }
    }

    fn avg(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// The per-thread telemetry sink. Usually manipulated through the free
/// functions; constructed directly only in tests.
#[derive(Debug)]
pub struct Registry {
    cfg: Config,
    counters: [u64; Counter::COUNT],
    gauges: [GaugeAccum; Gauge::COUNT],
    epoch_gauges: [GaugeAccum; Gauge::COUNT],
    hists: [[u64; HIST_BUCKETS]; Hist::COUNT],
    hist_totals: [(u64, u128); Hist::COUNT],
    events: Vec<EventRecord>,
    events_dropped: u64,
    epochs: Vec<EpochSample>,
    // Epoch bookkeeping.
    cur_cycle: u64,
    epoch_start_cycle: u64,
    epoch_mark: [u64; Counter::COUNT],
    epoch_retired: u64,
}

impl Registry {
    /// Creates an empty registry for `cfg`.
    pub fn new(cfg: Config) -> Registry {
        Registry {
            cfg,
            counters: [0; Counter::COUNT],
            gauges: [GaugeAccum::default(); Gauge::COUNT],
            epoch_gauges: [GaugeAccum::default(); Gauge::COUNT],
            hists: [[0; HIST_BUCKETS]; Hist::COUNT],
            hist_totals: [(0, 0); Hist::COUNT],
            events: Vec::new(),
            events_dropped: 0,
            epochs: Vec::new(),
            cur_cycle: 0,
            epoch_start_cycle: 0,
            epoch_mark: [0; Counter::COUNT],
            epoch_retired: 0,
        }
    }

    fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
        if c == Counter::MtRetired && self.cfg.epoch_len > 0 {
            self.epoch_retired += n;
            while self.epoch_retired >= self.cfg.epoch_len {
                self.epoch_retired -= self.cfg.epoch_len;
                self.close_epoch();
            }
        }
    }

    fn tick(&mut self, cycle: u64) {
        self.cur_cycle = cycle;
    }

    fn gauge(&mut self, g: Gauge, v: u64) {
        self.gauges[g as usize].record(v);
        self.epoch_gauges[g as usize].record(v);
    }

    fn hist(&mut self, h: Hist, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.hists[h as usize][bucket] += 1;
        let (n, sum) = &mut self.hist_totals[h as usize];
        *n += 1;
        *sum += u128::from(v);
    }

    fn event(&mut self, kind: EventKind, cycle: u64, pc: u64, info: u64) {
        if kind.is_verbose() && !self.cfg.verbose {
            return;
        }
        if self.events.len() < self.cfg.ring_capacity {
            self.events.push(EventRecord {
                kind,
                cycle,
                pc,
                info,
            });
        } else {
            self.events_dropped += 1;
        }
    }

    fn delta(&self, c: Counter) -> u64 {
        self.counters[c as usize] - self.epoch_mark[c as usize]
    }

    fn close_epoch(&mut self) {
        let epoch = self.epochs.len() as u64;
        let cycles = self.cur_cycle.saturating_sub(self.epoch_start_cycle);
        let retired = self.delta(Counter::MtRetired);
        let mispredicts = self.delta(Counter::MtMispredicts);
        let ipc = if cycles == 0 {
            0.0
        } else {
            retired as f64 / cycles as f64
        };
        let mpki = if retired == 0 {
            0.0
        } else {
            mispredicts as f64 * 1000.0 / retired as f64
        };
        let sample = EpochSample {
            epoch,
            end_cycle: self.cur_cycle,
            cycles,
            retired,
            ipc,
            mispredicts,
            mpki,
            triggers: self.delta(Counter::Triggers),
            pred_hits: self.delta(Counter::PredConsumeHits),
            dram_accesses: self.delta(Counter::DramAccesses),
            ifetch_stalls: self.delta(Counter::IfetchStallCycles),
            avg_rob: self.epoch_gauges[Gauge::RobOccupancy as usize].avg(),
            avg_pred_queue: self.epoch_gauges[Gauge::PredQueueDepth as usize].avg(),
        };
        if let Some(sink) = &self.cfg.epoch_sink {
            sink.emit(&sample);
        }
        self.epochs.push(sample);
        self.event(EventKind::EpochEnd, self.cur_cycle, 0, epoch);
        self.epoch_mark = self.counters;
        self.epoch_start_cycle = self.cur_cycle;
        self.epoch_gauges = [GaugeAccum::default(); Gauge::COUNT];
    }

    /// Finalizes the registry into an immutable [`Report`]. A trailing
    /// partial epoch (at least one retired instruction) is flushed so
    /// the series covers the whole run.
    pub fn into_report(mut self) -> Report {
        if self.cfg.epoch_len > 0 && self.delta(Counter::MtRetired) > 0 {
            self.close_epoch();
        }
        Report {
            label: self.cfg.label.clone(),
            epoch_len: self.cfg.epoch_len,
            verbose: self.cfg.verbose,
            final_cycle: self.cur_cycle,
            counters: self.counters,
            gauges: Gauge::ALL.map(|g| GaugeSummary {
                sum: self.gauges[g as usize].sum,
                max: self.gauges[g as usize].max,
                samples: self.gauges[g as usize].samples,
            }),
            hists: Hist::ALL.map(|h| HistSummary {
                buckets: self.hists[h as usize].to_vec(),
                count: self.hist_totals[h as usize].0,
                sum: self.hist_totals[h as usize].1,
            }),
            epochs: self.epochs,
            events: self.events,
            events_dropped: self.events_dropped,
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REGISTRY: RefCell<Option<Box<Registry>>> = const { RefCell::new(None) };
}

/// Installs a fresh registry for this thread, enabling all record
/// functions until [`harvest`] is called. Replaces (and discards) any
/// registry already installed.
pub fn install(cfg: Config) {
    REGISTRY.with(|r| *r.borrow_mut() = Some(Box::new(Registry::new(cfg))));
    ENABLED.with(|e| e.set(true));
}

/// Takes the installed registry, disabling telemetry for this thread,
/// and returns its finalized report. `None` when nothing is installed.
pub fn harvest() -> Option<Box<Report>> {
    ENABLED.with(|e| e.set(false));
    REGISTRY
        .with(|r| r.borrow_mut().take())
        .map(|reg| Box::new(reg.into_report()))
}

/// Whether telemetry is currently installed on this thread. This is the
/// zero-cost guard: a thread-local flag read and one branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

fn with_registry(f: impl FnOnce(&mut Registry)) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            f(reg);
        }
    });
}

/// Increments `c` by one.
#[inline]
pub fn count(c: Counter) {
    add(c, 1);
}

/// Increments `c` by `n`.
#[inline]
pub fn add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.add(c, n));
}

/// Advances the registry's notion of the current cycle. Call once per
/// simulated cycle so epoch samples get correct cycle spans.
#[inline]
pub fn tick(cycle: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.tick(cycle));
}

/// Records one occupancy sample for `g`.
#[inline]
pub fn gauge(g: Gauge, v: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.gauge(g, v));
}

/// Records `v` into histogram `h`.
#[inline]
pub fn hist(h: Hist, v: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.hist(h, v));
}

/// Records a typed event. Verbose kinds are dropped unless the
/// installed config set [`Config::verbose`].
#[inline]
pub fn event(kind: EventKind, cycle: u64, pc: u64, info: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.event(kind, cycle, pc, info));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain() {
        let _ = harvest();
    }

    #[test]
    fn disabled_is_inert() {
        drain();
        assert!(!enabled());
        count(Counter::MtRetired);
        gauge(Gauge::RobOccupancy, 10);
        event(EventKind::Trigger, 1, 2, 3);
        assert!(harvest().is_none());
    }

    #[test]
    fn counters_and_events_round_trip() {
        drain();
        install(Config {
            epoch_len: 0,
            ..Config::default()
        });
        assert!(enabled());
        add(Counter::MtRetired, 5);
        count(Counter::Triggers);
        event(EventKind::Trigger, 100, 0x400, 0);
        event(EventKind::Mispredict, 101, 0x404, 0); // verbose: dropped
        let rep = harvest().expect("installed");
        assert!(!enabled());
        assert_eq!(rep.counter(Counter::MtRetired), 5);
        assert_eq!(rep.counter(Counter::Triggers), 1);
        assert_eq!(rep.events.len(), 1);
        assert_eq!(rep.events[0].kind, EventKind::Trigger);
        assert_eq!(rep.events[0].pc, 0x400);
    }

    #[test]
    fn verbose_config_keeps_hot_events() {
        drain();
        install(Config {
            epoch_len: 0,
            verbose: true,
            ..Config::default()
        });
        event(EventKind::Mispredict, 7, 0x8, 0);
        let rep = harvest().unwrap();
        assert_eq!(rep.events.len(), 1);
    }

    #[test]
    fn ring_capacity_bounds_events() {
        drain();
        install(Config {
            epoch_len: 0,
            ring_capacity: 4,
            ..Config::default()
        });
        for i in 0..10 {
            event(EventKind::Trigger, i, 0, 0);
        }
        let rep = harvest().unwrap();
        assert_eq!(rep.events.len(), 4);
        assert_eq!(rep.events_dropped, 6);
    }

    #[test]
    fn epochs_sample_counter_deltas() {
        drain();
        install(Config {
            epoch_len: 10,
            ..Config::default()
        });
        for cycle in 0..50u64 {
            tick(cycle);
            gauge(Gauge::RobOccupancy, 8);
            count(Counter::MtRetired); // 1 IPC exactly
            if cycle % 5 == 0 {
                count(Counter::MtMispredicts);
            }
        }
        let rep = harvest().unwrap();
        assert_eq!(rep.counter(Counter::MtRetired), 50);
        // 50 retired / epoch_len 10 = 5 full epochs, no partial flush.
        assert_eq!(rep.epochs.len(), 5);
        for e in &rep.epochs[1..] {
            assert_eq!(e.retired, 10);
            assert_eq!(e.cycles, 10);
            assert!((e.ipc - 1.0).abs() < 1e-9, "ipc {}", e.ipc);
            assert_eq!(e.mispredicts, 2);
            assert!((e.mpki - 200.0).abs() < 1e-9);
            assert!((e.avg_rob - 8.0).abs() < 1e-9);
        }
        // One EpochEnd event per epoch.
        let ends = rep
            .events
            .iter()
            .filter(|e| e.kind == EventKind::EpochEnd)
            .count();
        assert_eq!(ends, 5);
    }

    #[test]
    fn partial_final_epoch_is_flushed() {
        drain();
        install(Config {
            epoch_len: 10,
            ..Config::default()
        });
        for cycle in 0..13u64 {
            tick(cycle);
            count(Counter::MtRetired);
        }
        let rep = harvest().unwrap();
        assert_eq!(rep.epochs.len(), 2);
        assert_eq!(rep.epochs[1].retired, 3);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        drain();
        install(Config {
            epoch_len: 0,
            ..Config::default()
        });
        hist(Hist::MissLatency, 0); // bucket 0
        hist(Hist::MissLatency, 1); // bucket 1
        hist(Hist::MissLatency, 2); // bucket 2
        hist(Hist::MissLatency, 3); // bucket 2
        hist(Hist::MissLatency, 1024); // bucket 11
        hist(Hist::MissLatency, u64::MAX); // bucket 64
        let rep = harvest().unwrap();
        let h = &rep.hists[Hist::MissLatency as usize];
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, (1 + 2 + 3 + 1024) as u128 + u64::MAX as u128);
    }

    #[test]
    fn epoch_sink_streams_samples_live() {
        use std::sync::Mutex;
        drain();
        let seen: Arc<Mutex<Vec<EpochSample>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        install(Config {
            epoch_len: 10,
            epoch_sink: Some(SampleSink::new(move |s| {
                sink_seen.lock().unwrap().push(s.clone());
            })),
            ..Config::default()
        });
        for cycle in 0..25u64 {
            tick(cycle);
            count(Counter::MtRetired);
            // The sink must observe epochs as they close, not at harvest.
            if cycle == 12 {
                assert_eq!(seen.lock().unwrap().len(), 1, "first epoch streamed live");
            }
        }
        let rep = harvest().unwrap();
        // 2 full epochs + 1 flushed partial, all streamed, same contents.
        assert_eq!(rep.epochs.len(), 3);
        assert_eq!(*seen.lock().unwrap(), rep.epochs);
    }

    #[test]
    fn reinstall_discards_previous() {
        drain();
        install(Config::default());
        count(Counter::Triggers);
        install(Config::default());
        let rep = harvest().unwrap();
        assert_eq!(rep.counter(Counter::Triggers), 0);
    }

    #[test]
    fn enum_tables_are_consistent() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "counter {} out of order", c.name());
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "gauge {} out of order", g.name());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "hist {} out of order", h.name());
        }
    }
}

//! Run telemetry for the Phelps simulator: per-epoch samples of the
//! simulator's counter table ([`SimStats`]), occupancy gauges, log2
//! latency histograms and a bounded event ring, exported as hand-rolled
//! JSON or CSV.
//!
//! # Model
//!
//! There is one counter table, [`SimStats`], and the simulator owns it;
//! the registry never counts on its own. A [`Registry`] is installed per
//! thread with [`install`]; every record call ([`retired`], [`gauge`],
//! [`event`], [`hist`]) is a free function that consults a thread-local
//! `enabled` flag first and returns immediately when no registry is
//! installed. Simulation code therefore carries no telemetry handles and
//! pays one predictable branch per call site when tracing is off.
//!
//! The thread-local design also gives per-test isolation: `cargo test`
//! runs tests on separate threads, so concurrent simulations never share
//! a registry. A driver that steps a second simulation on the same
//! thread keeps it out of the registry with [`muted`].
//!
//! When the simulated run completes, the owner calls [`harvest`] with
//! the run's final counters to take the finished [`Report`], which
//! serializes with [`Report::to_json`] (single object) or
//! [`Report::epochs_csv`] (per-epoch series).
//!
//! # Epochs
//!
//! The simulator calls [`retired`] once per retired main-thread
//! instruction. Every `epoch_len`-th call closes an epoch: the registry
//! asks for a snapshot of the counters and stores the change since the
//! previous close, plus the epoch's gauge averages, as an
//! [`EpochSample`]. [`harvest`] closes a trailing epoch with whatever
//! the final counters add beyond the last close, so the epoch deltas sum
//! field by field to the run's `SimStats`. This gives IPC/MPKI (and every
//! other counter's) time series aligned with the helper-thread epoch
//! machinery of the simulator, whose epochs are likewise
//! retirement-counted.
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
mod stats;

pub use json::{parse as parse_json, JsonValue, JsonWriter};
pub use report::{EpochSample, EventRecord, GaugeSummary, HistSummary, Report};
pub use stats::SimStats;

use std::cell::{Cell, RefCell};
use std::sync::Arc;

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
/// consumers (the `phelps-serve` daemon) stream epoch series to
/// clients while the simulation is still in flight instead of waiting
/// for the export-at-end [`Report`].
///
/// The callback MUST NOT call any telemetry record function
/// ([`retired`], [`gauge`], ...) — it runs while the thread's registry is borrowed,
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
    gauges: [GaugeAccum; Gauge::COUNT],
    epoch_gauges: [GaugeAccum; Gauge::COUNT],
    hists: [[u64; HIST_BUCKETS]; Hist::COUNT],
    hist_totals: [(u64, u128); Hist::COUNT],
    events: Vec<EventRecord>,
    events_dropped: u64,
    epochs: Vec<EpochSample>,
    /// The counters at the last epoch close; the next sample is the
    /// change from here.
    epoch_mark: SimStats,
    /// Main-thread instructions retired since the last epoch close.
    epoch_retired: u64,
}

impl Registry {
    /// Creates an empty registry for `cfg`.
    pub fn new(cfg: Config) -> Registry {
        Registry {
            cfg,
            gauges: [GaugeAccum::default(); Gauge::COUNT],
            epoch_gauges: [GaugeAccum::default(); Gauge::COUNT],
            hists: [[0; HIST_BUCKETS]; Hist::COUNT],
            hist_totals: [(0, 0); Hist::COUNT],
            events: Vec::new(),
            events_dropped: 0,
            epochs: Vec::new(),
            epoch_mark: SimStats::default(),
            epoch_retired: 0,
        }
    }

    fn retired(&mut self, snapshot: impl FnOnce() -> SimStats) {
        if self.cfg.epoch_len == 0 {
            return;
        }
        self.epoch_retired += 1;
        if self.epoch_retired >= self.cfg.epoch_len {
            self.close_epoch(snapshot());
        }
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

    /// Closes the current epoch at the counters `now`.
    fn close_epoch(&mut self, now: SimStats) {
        let epoch = self.epochs.len() as u64;
        let sample = EpochSample {
            epoch,
            end_cycle: now.cycles,
            stats: now.since(&self.epoch_mark),
            avg_rob: self.epoch_gauges[Gauge::RobOccupancy as usize].avg(),
            avg_pred_queue: self.epoch_gauges[Gauge::PredQueueDepth as usize].avg(),
        };
        if let Some(sink) = &self.cfg.epoch_sink {
            sink.emit(&sample);
        }
        self.epochs.push(sample);
        self.event(EventKind::EpochEnd, now.cycles, 0, epoch);
        self.epoch_mark = now;
        self.epoch_retired = 0;
        self.epoch_gauges = [GaugeAccum::default(); Gauge::COUNT];
    }

    /// Finalizes the registry into an immutable [`Report`] for a run
    /// whose final counters are `end`. When `end` differs from the last
    /// epoch close, a trailing epoch holds the difference, so the epoch
    /// deltas sum to `end` (a run that stops exactly on an epoch boundary
    /// still adds a trailing epoch for the counters its last instruction
    /// moved after the close).
    pub fn into_report(mut self, end: &SimStats) -> Report {
        if self.cfg.epoch_len > 0 && *end != self.epoch_mark {
            self.close_epoch(end.clone());
        }
        Report {
            label: self.cfg.label.clone(),
            epoch_len: self.cfg.epoch_len,
            verbose: self.cfg.verbose,
            final_cycle: end.cycles,
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
/// and returns its report for a run that ended at the counters `end`
/// (see [`Registry::into_report`]). `None` when nothing is installed.
pub fn harvest(end: &SimStats) -> Option<Box<Report>> {
    ENABLED.with(|e| e.set(false));
    REGISTRY
        .with(|r| r.borrow_mut().take())
        .map(|reg| Box::new(reg.into_report(end)))
}

/// Whether telemetry is currently installed on this thread. This is the
/// zero-cost guard: a thread-local flag read and one branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Runs `f` with every record function switched off on this thread,
/// then restores the previous state. A driver that steps two
/// simulations on one thread (the co-run pair) steps the second this
/// way, so the installed registry describes the first alone.
pub fn muted<R>(f: impl FnOnce() -> R) -> R {
    let was = ENABLED.with(|e| e.replace(false));
    let out = f();
    ENABLED.with(|e| e.set(was));
    out
}

fn with_registry(f: impl FnOnce(&mut Registry)) {
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            f(reg);
        }
    });
}

/// Counts one retired main-thread instruction. Every
/// [`Config::epoch_len`]-th call closes an epoch at the counters
/// `snapshot` returns, which must be the run's [`SimStats`] as the
/// finished run would report them at this instant. `snapshot` is only
/// called when an epoch closes, and must not call back into telemetry.
#[inline]
pub fn retired(snapshot: impl FnOnce() -> SimStats) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.retired(snapshot));
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
        let _ = harvest(&SimStats::default());
    }

    /// Drives `n` retirements, one per cycle from cycle 1, keeping `s`
    /// as the simulator's running counters; every fifth instruction
    /// mispredicts.
    fn retire_n(s: &mut SimStats, n: u64) {
        for _ in 0..n {
            s.cycles += 1;
            gauge(Gauge::RobOccupancy, 8);
            s.mt_retired += 1;
            if s.mt_retired.is_multiple_of(5) {
                s.mt_mispredicts += 1;
            }
            retired(|| s.clone());
        }
    }

    #[test]
    fn disabled_is_inert() {
        drain();
        assert!(!enabled());
        retired(|| unreachable!("no registry, no snapshot"));
        gauge(Gauge::RobOccupancy, 10);
        event(EventKind::Trigger, 1, 2, 3);
        assert!(harvest(&SimStats::default()).is_none());
    }

    #[test]
    fn events_round_trip() {
        drain();
        install(Config {
            epoch_len: 0,
            ..Config::default()
        });
        assert!(enabled());
        event(EventKind::Trigger, 100, 0x400, 0);
        event(EventKind::Mispredict, 101, 0x404, 0); // verbose: dropped
        let rep = harvest(&SimStats::default()).expect("installed");
        assert!(!enabled());
        assert!(rep.epochs.is_empty(), "epoch_len 0 records no series");
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
        let rep = harvest(&SimStats::default()).unwrap();
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
        let rep = harvest(&SimStats::default()).unwrap();
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
        let mut s = SimStats::default();
        retire_n(&mut s, 50);
        let rep = harvest(&s).unwrap();
        // 50 retired / epoch_len 10 = 5 full epochs; the final counters
        // equal the last close, so no trailing epoch.
        assert_eq!(rep.epochs.len(), 5);
        for e in &rep.epochs {
            assert_eq!(e.stats.mt_retired, 10);
            assert_eq!(e.stats.cycles, 10);
            assert!((e.ipc() - 1.0).abs() < 1e-9, "ipc {}", e.ipc());
            assert_eq!(e.stats.mt_mispredicts, 2);
            assert!((e.mpki() - 200.0).abs() < 1e-9);
            assert!((e.avg_rob - 8.0).abs() < 1e-9);
        }
        assert_eq!(rep.epochs[4].end_cycle, 50);
        assert_eq!(rep.final_cycle, 50);
        // One EpochEnd event per epoch.
        assert_eq!(rep.event_count(EventKind::EpochEnd), 5);
    }

    #[test]
    fn trailing_epoch_holds_the_rest_of_the_run() {
        drain();
        install(Config {
            epoch_len: 10,
            ..Config::default()
        });
        let mut s = SimStats::default();
        retire_n(&mut s, 13);
        let rep = harvest(&s).unwrap();
        assert_eq!(rep.epochs.len(), 2);
        assert_eq!(rep.epochs[1].stats.mt_retired, 3);

        // A run that stops on a boundary still flushes what moved after
        // the close (here: the last instruction's store traffic).
        install(Config {
            epoch_len: 10,
            ..Config::default()
        });
        let mut s = SimStats::default();
        retire_n(&mut s, 10);
        s.l1d_store_accesses += 1;
        let rep = harvest(&s).unwrap();
        assert_eq!(rep.epochs.len(), 2);
        let tail = &rep.epochs[1].stats;
        assert_eq!((tail.mt_retired, tail.l1d_store_accesses), (0, 1));
        let mut sum = SimStats::default();
        for e in &rep.epochs {
            sum.merge(&e.stats);
        }
        assert_eq!(sum, s, "epoch deltas partition the run");
    }

    #[test]
    fn muted_records_nothing_and_restores() {
        drain();
        install(Config {
            epoch_len: 1,
            ..Config::default()
        });
        muted(|| {
            assert!(!enabled());
            retired(|| unreachable!("muted: no epoch closes"));
            event(EventKind::Trigger, 1, 0, 0);
        });
        assert!(enabled());
        let rep = harvest(&SimStats::default()).unwrap();
        assert!(rep.epochs.is_empty() && rep.events.is_empty());
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
        let rep = harvest(&SimStats::default()).unwrap();
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
        let mut s = SimStats::default();
        retire_n(&mut s, 12);
        // The sink must observe epochs as they close, not at harvest.
        assert_eq!(seen.lock().unwrap().len(), 1, "first epoch streamed live");
        retire_n(&mut s, 13);
        let rep = harvest(&s).unwrap();
        // 2 full epochs + 1 flushed partial, all streamed, same contents.
        assert_eq!(rep.epochs.len(), 3);
        assert_eq!(*seen.lock().unwrap(), rep.epochs);
    }

    #[test]
    fn reinstall_discards_previous() {
        drain();
        install(Config::default());
        event(EventKind::Trigger, 1, 0, 0);
        install(Config::default());
        let rep = harvest(&SimStats::default()).unwrap();
        assert!(rep.events.is_empty());
    }

    #[test]
    fn enum_tables_are_consistent() {
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "gauge {} out of order", g.name());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "hist {} out of order", h.name());
        }
    }
}

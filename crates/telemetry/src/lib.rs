//! Run telemetry for the Phelps simulator: per-epoch samples of the
//! simulator's counter table ([`SimStats`]), exported as hand-rolled
//! JSON or CSV.
//!
//! # Model
//!
//! There is one counter table, [`SimStats`], and the simulator owns it;
//! the registry never counts on its own. A [`Registry`] is installed per
//! thread with [`install`]; the one record call, [`retired`], is a free
//! function that consults a thread-local `enabled` flag first and
//! returns immediately when no registry is installed. Simulation code
//! therefore carries no telemetry handles and pays one predictable
//! branch per retired instruction when tracing is off.
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
//! previous close as an [`EpochSample`]. [`harvest`] closes a trailing
//! epoch with whatever the final counters add beyond the last close, so
//! the epoch deltas sum field by field to the run's `SimStats`. This
//! gives IPC/MPKI (and every other counter's) time series aligned with
//! the helper-thread epoch machinery of the simulator, whose epochs are
//! likewise retirement-counted.

mod json;
mod report;
mod stats;

pub use json::{parse as parse_json, JsonValue, JsonWriter};
pub use report::{EpochSample, Report};
pub use stats::SimStats;

use std::cell::{Cell, RefCell};

/// Configuration for an installed registry.
#[derive(Clone, Debug)]
pub struct Config {
    /// Retired main-thread instructions per telemetry epoch.
    pub epoch_len: u64,
    /// Free-form run label carried into the report (e.g. "fig11/bfs").
    pub label: String,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            epoch_len: 10_000,
            label: String::new(),
        }
    }
}

/// The per-thread telemetry sink. Usually manipulated through the free
/// functions; constructed directly only in tests.
#[derive(Debug)]
pub struct Registry {
    cfg: Config,
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

    /// Closes the current epoch at the counters `now`.
    fn close_epoch(&mut self, now: SimStats) {
        let sample = EpochSample {
            epoch: self.epochs.len() as u64,
            end_cycle: now.cycles,
            stats: now.since(&self.epoch_mark),
        };
        self.epochs.push(sample);
        self.epoch_mark = now;
        self.epoch_retired = 0;
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
            label: self.cfg.label,
            epoch_len: self.cfg.epoch_len,
            final_cycle: end.cycles,
            epochs: self.epochs,
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REGISTRY: RefCell<Option<Box<Registry>>> = const { RefCell::new(None) };
}

/// Installs a fresh registry for this thread, enabling [`retired`]
/// until [`harvest`] is called. Replaces (and discards) any registry
/// already installed.
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

/// Runs `f` with [`retired`] switched off on this thread, then restores
/// the previous state. A driver that steps two simulations on one thread
/// (the co-run pair) steps the second this way, so the installed
/// registry describes the first alone.
pub fn muted<R>(f: impl FnOnce() -> R) -> R {
    let was = ENABLED.with(|e| e.replace(false));
    let out = f();
    ENABLED.with(|e| e.set(was));
    out
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
    REGISTRY.with(|r| {
        if let Some(reg) = r.borrow_mut().as_mut() {
            reg.retired(snapshot);
        }
    });
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
        assert!(harvest(&SimStats::default()).is_none());
    }

    #[test]
    fn zero_epoch_len_records_no_series() {
        drain();
        install(Config {
            epoch_len: 0,
            ..Config::default()
        });
        assert!(enabled());
        retired(|| unreachable!("epoch_len 0 never closes an epoch"));
        let rep = harvest(&SimStats::default()).expect("installed");
        assert!(!enabled());
        assert!(rep.epochs.is_empty(), "epoch_len 0 records no series");
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
        }
        assert_eq!(rep.epochs[4].end_cycle, 50);
        assert_eq!(rep.final_cycle, 50);
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
        });
        assert!(enabled());
        let rep = harvest(&SimStats::default()).unwrap();
        assert!(rep.epochs.is_empty());
    }

    #[test]
    fn reinstall_discards_previous() {
        drain();
        install(Config {
            epoch_len: 1,
            ..Config::default()
        });
        let mut s = SimStats::default();
        retire_n(&mut s, 3);
        install(Config::default());
        let rep = harvest(&SimStats::default()).unwrap();
        assert!(rep.epochs.is_empty());
    }
}

//! Run telemetry for the Phelps simulator: per-epoch samples of the
//! simulator's counter table ([`SimStats`]), exported as hand-rolled
//! JSON or CSV.
//!
//! # Model
//!
//! There is one counter table, [`SimStats`], and the simulator owns it;
//! the recorder never counts on its own. A [`Registry`] is a plain value
//! owned by the run it describes: a pipeline asked to record
//! (`Pipeline::record_epochs` in `phelps`) holds one, feeds it through
//! [`Registry::retired`] and finishes it with [`Registry::into_report`].
//! A run that records nothing holds no registry and pays one `Option`
//! test per retired instruction. The finished [`Report`] serializes with
//! [`Report::write_json`] (single object) or [`Report::epochs_csv`]
//! (per-epoch series).
//!
//! # Epochs
//!
//! The owner calls [`Registry::retired`] once per retired main-thread
//! instruction. Every `epoch_len`-th call closes an epoch: the registry
//! asks for a snapshot of the counters and stores the change since the
//! previous close as an [`EpochSample`]. [`Registry::into_report`]
//! closes a trailing epoch with whatever the final counters add beyond
//! the last close, so the epoch deltas sum field by field to the run's
//! `SimStats`. This gives IPC/MPKI (and every other counter's) time
//! series aligned with the helper-thread epoch machinery of the
//! simulator, whose epochs are likewise retirement-counted.

mod json;
mod report;
mod stats;

pub use json::{parse as parse_json, JsonValue, JsonWriter};
pub use report::{EpochSample, Report};
pub use stats::SimStats;

/// What a [`Registry`] records and under which label.
#[derive(Clone, Debug)]
pub struct Config {
    /// Retired main-thread instructions per telemetry epoch.
    pub epoch_len: u64,
    /// Free-form run label carried into the report (e.g. "fig11/bfs").
    pub label: String,
}

/// The epoch recorder of one run.
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

    /// Counts one retired main-thread instruction. Every
    /// [`Config::epoch_len`]-th call closes an epoch at the counters
    /// `snapshot` returns, which must be the run's [`SimStats`] as the
    /// finished run would report them at this instant. `snapshot` is
    /// only called when an epoch closes.
    #[inline]
    pub fn retired(&mut self, snapshot: impl FnOnce() -> SimStats) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(epoch_len: u64) -> Registry {
        Registry::new(Config {
            epoch_len,
            label: String::new(),
        })
    }

    /// Drives `n` retirements into `reg`, one per cycle from cycle 1,
    /// keeping `s` as the simulator's running counters; every fifth
    /// instruction mispredicts.
    fn retire_n(reg: &mut Registry, s: &mut SimStats, n: u64) {
        for _ in 0..n {
            s.cycles += 1;
            s.mt_retired += 1;
            if s.mt_retired.is_multiple_of(5) {
                s.mt_mispredicts += 1;
            }
            reg.retired(|| s.clone());
        }
    }

    #[test]
    fn zero_epoch_len_records_no_series() {
        let mut reg = registry(0);
        reg.retired(|| unreachable!("epoch_len 0 never closes an epoch"));
        let rep = reg.into_report(&SimStats::default());
        assert!(rep.epochs.is_empty(), "epoch_len 0 records no series");
    }

    #[test]
    fn epochs_sample_counter_deltas() {
        let mut reg = registry(10);
        let mut s = SimStats::default();
        retire_n(&mut reg, &mut s, 50);
        let rep = reg.into_report(&s);
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
        let mut reg = registry(10);
        let mut s = SimStats::default();
        retire_n(&mut reg, &mut s, 13);
        let rep = reg.into_report(&s);
        assert_eq!(rep.epochs.len(), 2);
        assert_eq!(rep.epochs[1].stats.mt_retired, 3);

        // A run that stops on a boundary still flushes what moved after
        // the close (here: the last instruction's store traffic).
        let mut reg = registry(10);
        let mut s = SimStats::default();
        retire_n(&mut reg, &mut s, 10);
        s.l1d_store_accesses += 1;
        let rep = reg.into_report(&s);
        assert_eq!(rep.epochs.len(), 2);
        let tail = &rep.epochs[1].stats;
        assert_eq!((tail.mt_retired, tail.l1d_store_accesses), (0, 1));
        let mut sum = SimStats::default();
        for e in &rep.epochs {
            sum.merge(&e.stats);
        }
        assert_eq!(sum, s, "epoch deltas partition the run");
    }
}

//! A counting, sampling wrapper around a pre-execution engine.
//!
//! [`Timed`] implements [`PreExecEngine`] by delegating every hook to the
//! wrapped engine. It counts every call and times one call in
//! [`SAMPLE_EVERY`] per hook group; [`Probe::estimate_ns`] scales the
//! sampled time up to all calls after subtracting the calibrated cost of
//! an empty timed span. The hooks run thousands of times per thousand
//! instructions and each takes tens of nanoseconds, about what two clock
//! reads cost, so timing every call would distort what it measures; the
//! trace reports the overhead that sampling leaves.

use phelps::classify::MispredictClass;
use phelps::sim::{
    EngineCkpt, EngineCmd, ExecInfo, PreExecEngine, QueueLookup, SideAction, SideInst,
};
use phelps_isa::ExecRecord;
use phelps_uarch::config::ActiveThreads;
use std::cell::Cell;
use std::time::Instant;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Hook groups, named after the pipeline stage that calls them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Main-thread fetch: queue lookup, branch fetched, checkpoint, restore.
    Fetch = 0,
    /// Main-thread retire: retire notification and misprediction classing.
    Retire = 1,
    /// Side threads: fetch, execute, branch resolve, retire, terminate,
    /// and the per-cycle squash-tag poll.
    Side = 2,
}

impl Group {
    pub const ALL: [Group; 3] = [Group::Fetch, Group::Retire, Group::Side];

    pub fn name(self) -> &'static str {
        match self {
            Group::Fetch => "fetch",
            Group::Retire => "retire",
            Group::Side => "side",
        }
    }
}

/// Call counts and sampled time per hook group of one run.
#[derive(Debug, Default)]
pub struct Probe {
    calls: [Cell<u64>; 3],
    sampled: [Cell<u64>; 3],
    sampled_ns: [Cell<u64>; 3],
}

impl Probe {
    fn time<R>(&self, g: Group, f: impl FnOnce() -> R) -> R {
        let i = g as usize;
        let n = self.calls[i].get();
        self.calls[i].set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.sampled[i].set(self.sampled[i].get() + 1);
        self.sampled_ns[i].set(self.sampled_ns[i].get() + ns);
        r
    }

    /// Calls made to group `g`.
    pub fn calls(&self, g: Group) -> u64 {
        self.calls[g as usize].get()
    }

    /// Estimated host nanoseconds spent inside group `g`'s hooks: the
    /// sampled time net of `span_ns` per sample, scaled to every call.
    pub fn estimate_ns(&self, g: Group, span_ns: f64) -> f64 {
        let i = g as usize;
        let sampled = self.sampled[i].get();
        if sampled == 0 {
            return 0.0;
        }
        let net = (self.sampled_ns[i].get() as f64 - sampled as f64 * span_ns).max(0.0);
        net * self.calls[i].get() as f64 / sampled as f64
    }
}

/// What a timed span around no work reads, in nanoseconds (median).
pub fn calibrate_span_ns() -> f64 {
    let reads: Vec<f64> = (0..10_001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&reads)
}

/// `E` with every hook counted and sampled into `probe`.
#[derive(Debug)]
pub struct Timed<'p, E> {
    inner: E,
    probe: &'p Probe,
}

impl<'p, E> Timed<'p, E> {
    pub fn new(inner: E, probe: &'p Probe) -> Timed<'p, E> {
        Timed { inner, probe }
    }
}

impl<E: PreExecEngine> PreExecEngine for Timed<'_, E> {
    fn queue_lookup(&mut self, pc: u64) -> QueueLookup {
        self.probe
            .time(Group::Fetch, || self.inner.queue_lookup(pc))
    }

    fn on_mt_branch_fetched(&mut self, pc: u64, predicted_taken: bool) {
        self.probe.time(Group::Fetch, || {
            self.inner.on_mt_branch_fetched(pc, predicted_taken)
        })
    }

    fn checkpoint(&self) -> EngineCkpt {
        self.probe.time(Group::Fetch, || self.inner.checkpoint())
    }

    fn restore(&mut self, ckpt: &EngineCkpt) {
        self.probe.time(Group::Fetch, || self.inner.restore(ckpt))
    }

    fn on_mt_retire(&mut self, rec: &ExecRecord, mispredicted: bool, cycle: u64) -> EngineCmd {
        self.probe.time(Group::Retire, || {
            self.inner.on_mt_retire(rec, mispredicted, cycle)
        })
    }

    fn classify(
        &mut self,
        pc: u64,
        from_queue: bool,
        mispredicted: bool,
        default_wrong: bool,
    ) -> MispredictClass {
        self.probe.time(Group::Retire, || {
            self.inner
                .classify(pc, from_queue, mispredicted, default_wrong)
        })
    }

    fn active_threads(&self) -> ActiveThreads {
        self.inner.active_threads()
    }

    fn side_fetch(&mut self, tid: usize, cycle: u64) -> Option<SideInst> {
        self.probe
            .time(Group::Side, || self.inner.side_fetch(tid, cycle))
    }

    fn side_executed(&mut self, tid: usize, inst: &SideInst, info: &ExecInfo, cycle: u64) {
        self.probe.time(Group::Side, || {
            self.inner.side_executed(tid, inst, info, cycle)
        })
    }

    fn side_branch_resolved(&mut self, tid: usize, inst: &SideInst, taken: bool) -> SideAction {
        self.probe.time(Group::Side, || {
            self.inner.side_branch_resolved(tid, inst, taken)
        })
    }

    fn side_retired(&mut self, tid: usize, inst: &SideInst, info: &ExecInfo, cycle: u64) {
        self.probe.time(Group::Side, || {
            self.inner.side_retired(tid, inst, info, cycle)
        })
    }

    fn on_terminated(&mut self) {
        self.probe.time(Group::Side, || self.inner.on_terminated())
    }

    fn loose_retire(&self) -> bool {
        self.inner.loose_retire()
    }

    fn take_squash_tags(&mut self) -> Vec<u64> {
        self.probe
            .time(Group::Side, || self.inner.take_squash_tags())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_counts_and_one_in_sample_every_is_timed() {
        let probe = Probe::default();
        for _ in 0..(2 * SAMPLE_EVERY + 1) {
            probe.time(Group::Side, || std::hint::black_box(1));
        }
        assert_eq!(probe.calls(Group::Side), 2 * SAMPLE_EVERY + 1);
        assert_eq!(probe.sampled[Group::Side as usize].get(), 3);
        assert_eq!(probe.calls(Group::Fetch), 0);
        assert_eq!(probe.estimate_ns(Group::Fetch, 0.0), 0.0);
        // Subtracting a span cost larger than any sample clamps at zero.
        assert_eq!(probe.estimate_ns(Group::Side, 1e12), 0.0);
    }
}

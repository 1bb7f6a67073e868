//! Data-oriented in-flight instruction table.
//!
//! Sequence numbers are dense and monotonically allocated, so the
//! in-flight window is a contiguous seq range at all times. [`InstSlab`]
//! exploits that: its columns form one power-of-two ring, and seq `s`
//! lives at `s & mask`. A lookup is one wrapping range check against the
//! span `[base, base + len)` plus the mask, with no hashing. Removal
//! marks a slot dead; reclamation at retire advances `base` over the
//! dead prefix, so the span is the in-flight window plus transient holes
//! from out-of-order side-thread removal. When an insert finds the span
//! as long as the ring, the ring doubles and every span slot moves to
//! its seq under the new mask. The ring never shrinks.
//!
//! The hot per-cycle scalar state is split out of the payload into
//! structure-of-arrays columns kept parallel to the slots:
//!
//! * the **stage column** ([`Stage`], with the exec-done cycle inline);
//! * the **meta column** ([`InstMeta`]: lane, thread id, latency, the
//!   ready-dep count, flag bits, and the four producer-seq dep slots) —
//!   issue select reads one 48-byte record per candidate;
//! * the **wait-list columns**: each producer heads an intrusive list of
//!   the in-queue consumers waiting on its result, linked through the
//!   consumers' dep slots. A consumer joins once per distinct unfinished
//!   producer at dispatch ([`InstSlab::bind_deps`]). The lists take no
//!   heap: a consumer is younger than its producer, so the consumer's
//!   slot, and its link, stays in the slab as long as the producer's.
//!
//! Completion and wakeup are event-driven, so their cost per cycle tracks
//! what completes, not the window size. An instruction that starts
//! executing pushes a `(done, seq)` completion event
//! ([`InstSlab::start_exec`]). Each cycle pops the events that are due
//! ([`InstSlab::pop_completed`]), marks those instructions `Done`, and
//! decrements only their registered consumers' ready-dep counts
//! ([`InstSlab::wake_consumers`]). Events of seqs that have left flight
//! are dropped when popped; seqs are never reused, so that is safe.
//!
//! The issue queue is not a list either. It is the set of live
//! [`Stage::InIq`] entries, with two views kept on events:
//!
//! * the **occupancy count** ([`InstSlab::iq_len`]), updated on every
//!   stage change and every removal, which dispatch compares with the
//!   IQ size;
//! * the **ready queues**, one min-heap of seqs per issue lane. An entry
//!   joins its lane's queue exactly once, when it is in the IQ with no
//!   unready dep: at dispatch ([`InstSlab::bind_deps`]) or when
//!   [`InstSlab::wake_consumers`] brings its count to zero. Select
//!   ([`InstSlab::pop_ready`]) merges the lane heads, so it visits
//!   ready entries in global oldest-first order and costs what issues,
//!   not what waits. Entries that left the IQ are dropped when popped,
//!   for the same reason as stale completion events.
//!
//! A thread that retires loosely (Branch Runahead's chains, see
//! `PreExecEngine::loose_retire`) has a **Done queue** beside these: a
//! min-heap of its seqs that turned `Done`, filled at completion and
//! kept with the thread's ROB in the pipeline's thread context. Done
//! queues are to retire what the ready queues are to issue: retire pops
//! the oldest Done seqs, and drops those that left flight, in place of a
//! scan of the ROB.
//!
//! The payload ([`DynInst`]: trace record, checkpoints, side metadata,
//! results) is touched only when an instruction actually executes or
//! retires.

use super::{DynInst, Stage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for an empty/ready dep slot (never a valid seq: allocation
/// starts at 1 and a simulation retires far fewer than 2^64 records).
pub(super) const NO_DEP: u64 = u64::MAX;

/// End of a wait list. A list entry names a consumer dep slot as
/// `seq * 4 + slot`, which never reaches this value.
const NO_WAITER: u64 = u64::MAX;

/// Issue lane class, with a stable index for the budget array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Lane {
    Alu = 0,
    Mem = 1,
    Complex = 2,
}

impl Lane {
    pub(super) fn index(self) -> usize {
        self as usize
    }
}

const F_LOAD: u8 = 1 << 0;
const F_STORE: u8 = 1 << 1;
const F_DST: u8 = 1 << 2;

/// Hot per-instruction scalar state (structure-of-arrays column).
#[derive(Clone, Copy, Debug)]
pub(super) struct InstMeta {
    /// Issue lane class.
    pub lane: Lane,
    /// Hardware thread context.
    pub tid: u8,
    /// Non-memory execution latency in cycles.
    pub latency: u8,
    /// Dep slots (register + predicate) whose producer has not completed.
    /// Decremented by [`InstSlab::wake_consumers`]; issue-ready at zero.
    pub unready: u8,
    flags: u8,
    /// Register-source producer seqs, parallel to `inst.srcs()`.
    /// [`NO_DEP`] marks an empty slot (no producer in flight).
    pub deps: [u64; 2],
    /// Predicate-source producer seqs (two slots for OR-guards, §V-K).
    pub pred_deps: [u64; 2],
}

impl InstMeta {
    pub(super) fn new(lane: Lane, tid: usize, latency: u32, inst: &phelps_isa::Inst) -> InstMeta {
        debug_assert!(latency <= u8::MAX as u32, "exec latency overflows u8");
        let mut flags = 0;
        if inst.is_load() {
            flags |= F_LOAD;
        }
        if inst.is_store() {
            flags |= F_STORE;
        }
        if inst.dst().is_some() {
            flags |= F_DST;
        }
        InstMeta {
            lane,
            tid: tid as u8,
            latency: latency as u8,
            unready: 0,
            flags,
            deps: [NO_DEP; 2],
            pred_deps: [NO_DEP; 2],
        }
    }

    pub(super) fn is_load(&self) -> bool {
        self.flags & F_LOAD != 0
    }

    pub(super) fn is_store(&self) -> bool {
        self.flags & F_STORE != 0
    }

    pub(super) fn has_dst(&self) -> bool {
        self.flags & F_DST != 0
    }
}

/// A removed instruction: payload plus the column state it held, so
/// retire/squash bookkeeping (resource release) works after the columns
/// have been reclaimed.
pub(super) struct RemovedInst {
    pub di: DynInst,
    pub stage: Stage,
    pub meta: InstMeta,
}

/// The slab. See the module docs for the layout rationale.
#[derive(Debug, Default)]
pub(super) struct InstSlab {
    /// Oldest seq of the span `[base, base + len)`: the oldest live seq,
    /// or the next seq to allocate when nothing is live.
    base: u64,
    /// Length of the span. Every live seq lies in it; dead seqs inside it
    /// are holes left by out-of-order removal.
    len: usize,
    /// Ring capacity minus one. The capacity (every column's length) is a
    /// power of two at least `len`, and seq `s` lives at `s & mask`.
    mask: usize,
    slots: Vec<Option<DynInst>>,
    stage: Vec<Option<Stage>>,
    meta: Vec<InstMeta>,
    /// Head of each slot's wait list: its newest registered consumer.
    waiters: Vec<u64>,
    /// For each dep slot a consumer registered through, the next (older)
    /// consumer on the same producer's wait list.
    links: Vec<[u64; 4]>,
    /// Pending completions `(done, seq)`, earliest first.
    events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Per-lane ready queues (indexed by [`Lane::index`]), oldest first.
    ready: [BinaryHeap<Reverse<u64>>; 3],
    /// Live entries in [`Stage::InIq`].
    iq_len: usize,
    live: usize,
}

/// Capacity of the first ring: a full-size ROB holds a few hundred
/// seqs, so a run grows the ring only a few times.
const FIRST_CAPACITY: usize = 64;

/// The meta value of a ring slot that holds no instruction.
const EMPTY_META: InstMeta = InstMeta {
    lane: Lane::Alu,
    tid: 0,
    latency: 0,
    unready: 0,
    flags: 0,
    deps: [NO_DEP; 2],
    pred_deps: [NO_DEP; 2],
};

impl InstSlab {
    pub(super) fn new() -> InstSlab {
        InstSlab {
            base: 1,
            ..InstSlab::default()
        }
    }

    /// The ring slot of an in-span seq: one wrapping range check (a seq
    /// below `base` wraps to a huge offset), then the mask.
    fn index(&self, seq: u64) -> Option<usize> {
        (seq.wrapping_sub(self.base) < self.len as u64).then_some(seq as usize & self.mask)
    }

    /// Doubles the ring and re-places every span slot at its seq under
    /// the new mask. Slots outside the span hold nothing that is read
    /// again, so they start empty.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(FIRST_CAPACITY);
        let mask = cap - 1;
        let mut slots = vec![None; cap];
        let mut stage = vec![None; cap];
        let mut meta = vec![EMPTY_META; cap];
        let mut waiters = vec![NO_WAITER; cap];
        let mut links = vec![[NO_WAITER; 4]; cap];
        for seq in self.base..self.base + self.len as u64 {
            let (from, to) = (seq as usize & self.mask, seq as usize & mask);
            slots[to] = self.slots[from].take();
            stage[to] = self.stage[from];
            meta[to] = self.meta[from];
            waiters[to] = self.waiters[from];
            links[to] = self.links[from];
        }
        self.mask = mask;
        self.slots = slots;
        self.stage = stage;
        self.meta = meta;
        self.waiters = waiters;
        self.links = links;
    }

    /// Number of live instructions. (Used by the `debug-invariants`
    /// whole-window audit.)
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    pub(super) fn live(&self) -> usize {
        self.live
    }

    /// Issue-queue occupancy: the live entries in [`Stage::InIq`].
    pub(super) fn iq_len(&self) -> usize {
        self.iq_len
    }

    /// Inserts the next instruction. Seqs must arrive in allocation
    /// order — the slab is dense by construction.
    pub(super) fn insert(&mut self, di: DynInst, stage: Stage, meta: InstMeta) {
        assert_eq!(
            di.seq,
            self.base + self.len as u64,
            "slab insert out of allocation order"
        );
        if self.len == self.slots.len() {
            self.grow();
        }
        let i = di.seq as usize & self.mask;
        self.slots[i] = Some(di);
        self.stage[i] = Some(stage);
        self.meta[i] = meta;
        self.waiters[i] = NO_WAITER;
        self.links[i] = [NO_WAITER; 4];
        self.len += 1;
        self.live += 1;
    }

    pub(super) fn get(&self, seq: u64) -> Option<&DynInst> {
        self.slots[self.index(seq)?].as_ref()
    }

    pub(super) fn get_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        let i = self.index(seq)?;
        self.slots[i].as_mut()
    }

    /// The stage column entry, `None` when the seq is no longer in
    /// flight (retired or squashed) — callers treat that as "producer
    /// result architecturally committed".
    pub(super) fn stage(&self, seq: u64) -> Option<Stage> {
        self.stage[self.index(seq)?]
    }

    /// Writes a live slot's stage and keeps the IQ occupancy count.
    fn restage(&mut self, i: usize, st: Stage) {
        let old = self.stage[i].replace(st);
        debug_assert!(old.is_some(), "restaging a dead slot");
        if st == Stage::InIq {
            self.iq_len += 1;
        }
        if old == Some(Stage::InIq) {
            self.iq_len -= 1;
        }
    }

    /// A live instruction starts executing and completes at `done`.
    pub(super) fn start_exec(&mut self, seq: u64, done: u64) {
        let i = self.index(seq).expect("start_exec on reclaimed seq");
        self.restage(i, Stage::Exec { done });
        self.events.push(Reverse((done, seq)));
    }

    /// Pops the next completion due by `now`, marks that instruction
    /// `Done` and returns its seq; the caller then wakes its consumers.
    /// Skips events whose instruction has left flight or no longer
    /// executes until the event's cycle.
    pub(super) fn pop_completed(&mut self, now: u64) -> Option<u64> {
        while let Some(&Reverse((done, seq))) = self.events.peek() {
            if done > now {
                break;
            }
            self.events.pop();
            if let Some(i) = self.index(seq) {
                if self.stage[i] == Some(Stage::Exec { done }) {
                    self.stage[i] = Some(Stage::Done);
                    return Some(seq);
                }
            }
        }
        None
    }

    /// Whether a dep slot is satisfied right now. A reclaimed seq (stage
    /// `None`) means the producer retired: its value is architecturally
    /// committed, hence ready.
    pub(super) fn dep_ready(&self, dep: u64) -> bool {
        dep == NO_DEP || matches!(self.stage(dep), None | Some(Stage::Done))
    }

    /// Dispatch: moves a frontend instruction into the IQ, stores its
    /// dep slots, seeds its ready-dep count with the slots whose producer
    /// has not completed, and registers it once with each distinct such
    /// producer, linking through the first slot that names it. With no
    /// such producer it is ready at once and joins its lane's queue.
    pub(super) fn bind_deps(&mut self, seq: u64, deps: [u64; 2], pred_deps: [u64; 2]) {
        let slots = [deps[0], deps[1], pred_deps[0], pred_deps[1]];
        let c = self.index(seq).expect("binding a reclaimed seq");
        let mut unready = 0u8;
        for (k, &d) in slots.iter().enumerate() {
            if self.dep_ready(d) {
                continue;
            }
            unready += 1;
            if !slots[..k].contains(&d) {
                let p = self.index(d).expect("waiting producer is in flight");
                self.links[c][k] = std::mem::replace(&mut self.waiters[p], seq * 4 + k as u64);
            }
        }
        debug_assert_eq!(
            self.stage[c],
            Some(Stage::Frontend),
            "dispatching seq {seq} twice"
        );
        let m = &mut self.meta[c];
        m.deps = deps;
        m.pred_deps = pred_deps;
        m.unready = unready;
        let lane = m.lane.index();
        self.restage(c, Stage::InIq);
        if unready == 0 {
            self.ready[lane].push(Reverse(seq));
        }
    }

    /// Wakeup: `producer` turned `Done`. Each registered consumer still in
    /// flight loses one ready-dep count per dep slot naming the producer,
    /// and joins its lane's ready queue when the count reaches zero.
    /// The transition to `Done` is unique per seq, so every slot is
    /// accounted exactly once and the counts cannot underflow.
    pub(super) fn wake_consumers(&mut self, producer: u64) {
        let Some(p) = self.index(producer) else {
            return;
        };
        let mut w = std::mem::replace(&mut self.waiters[p], NO_WAITER);
        while w != NO_WAITER {
            let c = w / 4;
            let i = self
                .index(c)
                .expect("a waiter outlasts its producer's slot");
            w = self.links[i][(w % 4) as usize];
            if self.stage[i].is_none() {
                continue; // the consumer left flight
            }
            let m = &mut self.meta[i];
            let hits = m
                .deps
                .iter()
                .chain(&m.pred_deps)
                .filter(|&&d| d == producer)
                .count() as u8;
            #[cfg(feature = "debug-invariants")]
            assert!(
                m.unready >= hits,
                "seq {c}: wakeup underflow (unready {} < hits {hits})",
                m.unready
            );
            m.unready -= hits;
            if m.unready == 0 {
                self.ready[m.lane.index()].push(Reverse(c));
            }
        }
    }

    /// Issue select: pops the oldest ready IQ entry among the lanes with
    /// budget left, or `None` when those lanes hold none. Taking the
    /// oldest of the lane heads, rather than draining one lane after
    /// another, keeps select in global oldest-first order. Entries that
    /// left the IQ since they were queued are dropped here.
    pub(super) fn pop_ready(&mut self, budget: &[u32; 3]) -> Option<u64> {
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (lane, q) in self.ready.iter().enumerate() {
                if budget[lane] == 0 {
                    continue;
                }
                if let Some(&Reverse(s)) = q.peek() {
                    if best.is_none_or(|(b, _)| s < b) {
                        best = Some((s, lane));
                    }
                }
            }
            let (seq, lane) = best?;
            self.ready[lane].pop();
            if self.stage(seq) == Some(Stage::InIq) {
                return Some(seq);
            }
        }
    }

    /// Puts a popped entry that did not issue (a held load) back in its
    /// lane's queue.
    pub(super) fn requeue(&mut self, seq: u64) {
        let i = self.index(seq).expect("a held entry is still in flight");
        self.ready[self.meta[i].lane.index()].push(Reverse(seq));
    }

    /// Every queued seq with its lane index, in no order, including
    /// entries that have left the IQ and are not yet popped.
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    pub(super) fn queued(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.ready
            .iter()
            .enumerate()
            .flat_map(|(lane, q)| q.iter().map(move |&Reverse(s)| (lane, s)))
    }

    /// The consumers registered with a live producer, newest first.
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    pub(super) fn consumers(&self, producer: u64) -> impl Iterator<Item = u64> + '_ {
        let mut w = self.index(producer).map_or(NO_WAITER, |p| self.waiters[p]);
        std::iter::from_fn(move || {
            if w == NO_WAITER {
                return None;
            }
            let c = w / 4;
            w = self.links[self.index(c).expect("waiter in the slab")][(w % 4) as usize];
            Some(c)
        })
    }

    /// Pending completion events as `(done, seq)`, in no order.
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    pub(super) fn events(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.events.iter().map(|&Reverse(e)| e)
    }

    pub(super) fn meta(&self, seq: u64) -> Option<&InstMeta> {
        let i = self.index(seq)?;
        self.stage[i].is_some().then(|| &self.meta[i])
    }

    /// Removes a live instruction, returning its payload and column
    /// state, then reclaims any contiguous dead prefix so the slab
    /// tracks the in-flight window.
    pub(super) fn remove(&mut self, seq: u64) -> Option<RemovedInst> {
        let i = self.index(seq)?;
        let stage = self.stage[i].take()?;
        if stage == Stage::InIq {
            self.iq_len -= 1;
        }
        let di = self.slots[i].take().expect("stage/slot parity");
        let meta = self.meta[i];
        self.live -= 1;
        while self.len > 0 && self.stage[self.base as usize & self.mask].is_none() {
            self.base += 1;
            self.len -= 1;
        }
        Some(RemovedInst { di, stage, meta })
    }

    /// Live instructions in seq order. (Used by the `debug-invariants`
    /// whole-window audit.)
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &DynInst)> {
        (self.base..self.base + self.len as u64)
            .filter_map(|seq| Some((seq, self.slots[seq as usize & self.mask].as_ref()?)))
    }

    /// The span length and the ring capacity. (Used by the
    /// `debug-invariants` whole-window audit.)
    #[cfg_attr(not(feature = "debug-invariants"), allow(dead_code))]
    pub(super) fn ring(&self) -> (usize, usize) {
        (self.len, self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::super::PredFrom;
    use super::*;
    use phelps_isa::{ExecRecord, Inst};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn dummy(seq: u64) -> DynInst {
        let inst = Inst::Halt;
        DynInst {
            seq,
            tid: 0,
            pc: 0x1000 + 4 * seq,
            inst,
            rec: ExecRecord {
                pc: 0x1000 + 4 * seq,
                inst,
                next_pc: 0x1004 + 4 * seq,
                taken: false,
                rd_value: 0,
                mem_addr: 0,
                store_data: 0,
            },
            predicted: None,
            default_pred: None,
            pred_from: PredFrom::None,
            mispredicted: false,
            bp_ckpt: None,
            engine_ckpt: None,
            side: None,
            result: 0,
            taken: false,
            mem_addr: 0,
            enabled: true,
            mem_done: 0,
        }
    }

    /// The lifecycle operations the pipeline performs on the slab.
    /// Indices select among the currently live seqs (mod live count).
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Fetch: insert the next seq, in the given issue lane.
        Alloc(u8),
        /// In-order retire: remove the oldest live seq.
        RetireFront,
        /// Loose side retire: remove an arbitrary live seq.
        RemoveAt(usize),
        /// Squash: remove every live seq >= a live pivot.
        SquashFrom(usize),
        /// Dispatch with every dep ready: a frontend seq enters the IQ
        /// and its lane's ready queue.
        Enqueue(usize),
        /// Issue select under the given lane budget: every popped seq
        /// starts executing (completing at the given cycle), except the
        /// held ones (seq divisible by the third field plus one, when
        /// that field is nonzero), which go back in their queue.
        PopReady([u32; 3], u64, u64),
        /// Issue: start executing, completing at the given cycle.
        Exec(usize, u64),
        /// Completion: pop every event due by the given cycle.
        Sweep(u64),
    }

    /// Alloc and Enqueue are listed four times each to weight them:
    /// with one entry each the removals keep the window nearly empty,
    /// and select rarely has two lanes to merge.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..3).prop_map(Op::Alloc),
            (0u8..3).prop_map(Op::Alloc),
            (0u8..3).prop_map(Op::Alloc),
            (0u8..3).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::Enqueue),
            (0usize..64).prop_map(Op::Enqueue),
            (0usize..64).prop_map(Op::Enqueue),
            (0usize..64).prop_map(Op::Enqueue),
            Just(Op::RetireFront),
            (0usize..64).prop_map(Op::RemoveAt),
            (0usize..64).prop_map(Op::SquashFrom),
            ((0u32..3, 0u32..3, 0u32..3), 0u64..16, 0u64..4)
                .prop_map(|((a, m, c), d, h)| Op::PopReady([a, m, c], d, h)),
            (0usize..64, 0u64..16).prop_map(|(i, d)| Op::Exec(i, d)),
            (0u64..16).prop_map(Op::Sweep),
        ]
    }

    fn lane_of(code: u8) -> Lane {
        match code {
            0 => Lane::Alu,
            1 => Lane::Mem,
            _ => Lane::Complex,
        }
    }

    /// Picks the `i % len`-th live seq in ascending order.
    fn pick(model: &HashMap<u64, Stage>, i: usize) -> Option<u64> {
        if model.is_empty() {
            return None;
        }
        let mut seqs: Vec<u64> = model.keys().copied().collect();
        seqs.sort_unstable();
        Some(seqs[i % seqs.len()])
    }

    /// A consumer reading one producer through two slots registers once
    /// and loses both counts at that producer's completion; a producer
    /// already `Done` at dispatch is neither counted nor registered with.
    #[test]
    fn wakeup_reaches_exactly_the_registered_consumers() {
        let mut slab = InstSlab::new();
        for seq in 1..=4 {
            slab.insert(
                dummy(seq),
                Stage::Frontend,
                InstMeta::new(Lane::Alu, 0, 1, &Inst::Halt),
            );
        }
        slab.start_exec(1, 5);
        slab.start_exec(2, 3);
        slab.start_exec(3, 1);
        assert_eq!(slab.pop_completed(1), Some(3));
        slab.bind_deps(4, [1, 1], [2, 3]);
        assert_eq!(slab.meta(4).unwrap().unready, 3);
        assert!(slab.consumers(1).eq([4]));
        assert!(slab.consumers(2).eq([4]));
        assert_eq!(slab.consumers(3).count(), 0);

        assert_eq!(slab.pop_completed(4), Some(2));
        assert_eq!(slab.pop_completed(4), None);
        slab.wake_consumers(2);
        assert_eq!(slab.meta(4).unwrap().unready, 2);
        assert_eq!(slab.consumers(2).count(), 0, "a woken list is emptied");

        assert_eq!(slab.pop_ready(&[1; 3]), None, "waiting on seq 1");
        assert_eq!(slab.pop_completed(5), Some(1));
        slab.wake_consumers(1);
        assert_eq!(slab.meta(4).unwrap().unready, 0);
        assert_eq!(
            slab.pop_ready(&[1, 0, 0]),
            Some(4),
            "the last wakeup queues it"
        );
        assert_eq!(slab.pop_ready(&[1; 3]), None, "queued exactly once");
    }

    /// The ring keeps every seq in its slot while it grows with live
    /// entries across the wrap. The oldest entry (seq 38, so the span
    /// starts mid-ring) stays in `Exec` and holds `base` while 12,000
    /// younger seqs are inserted, bound, issued, woken and removed out of
    /// order; the span outgrows the ring eight times (64 to 16,384
    /// slots). After each growth and at the end, a model checks every
    /// live seq's stage and meta, every live producer's wait list, and
    /// that no removed seq comes back.
    #[test]
    fn ring_growth_keeps_every_seq_in_place() {
        struct Entry {
            stage: Stage,
            lane: Lane,
            deps: [u64; 2],
            pred_deps: [u64; 2],
        }
        fn check(
            slab: &InstSlab,
            model: &BTreeMap<u64, Entry>,
            waits: &HashMap<u64, Vec<u64>>,
            removed: &[u64],
        ) {
            let pending = |d: u64| model.get(&d).is_some_and(|e| e.stage != Stage::Done);
            for (&s, e) in model {
                assert_eq!(slab.get(s).map(|d| d.seq), Some(s));
                assert_eq!(slab.stage(s), Some(e.stage), "seq {s}");
                let m = slab.meta(s).expect("live seq has meta");
                assert_eq!(m.lane, e.lane, "seq {s}");
                assert_eq!((m.deps, m.pred_deps), (e.deps, e.pred_deps), "seq {s}");
                let unready = e.deps.iter().chain(&e.pred_deps).filter(|&&d| pending(d));
                assert_eq!(m.unready as usize, unready.count(), "seq {s}");
                let want = waits.get(&s).map_or(&[][..], Vec::as_slice);
                assert!(slab.consumers(s).eq(want.iter().copied()), "seq {s}");
            }
            for &s in removed {
                assert!(slab.get(s).is_none(), "removed seq {s} resurrected");
                assert_eq!(slab.stage(s), None);
                assert!(slab.meta(s).is_none());
            }
            assert_eq!(slab.live(), model.len());
        }

        let mut slab = InstSlab::new();
        let mut model: BTreeMap<u64, Entry> = BTreeMap::new();
        let mut waits: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut removed: Vec<u64> = Vec::new();
        let alu = || InstMeta::new(Lane::Alu, 0, 1, &Inst::Halt);
        for seq in 1..38 {
            slab.insert(dummy(seq), Stage::Frontend, alu());
            slab.remove(seq).expect("just inserted");
            removed.push(seq);
        }
        let pinned = 38;
        let pinned_done = 1_000_000;
        slab.insert(dummy(pinned), Stage::Frontend, alu());
        slab.bind_deps(pinned, [NO_DEP; 2], [NO_DEP; 2]);
        assert_eq!(slab.pop_ready(&[1; 3]), Some(pinned));
        slab.start_exec(pinned, pinned_done);
        model.insert(
            pinned,
            Entry {
                stage: Stage::Exec { done: pinned_done },
                lane: Lane::Alu,
                deps: [NO_DEP; 2],
                pred_deps: [NO_DEP; 2],
            },
        );

        // One seq per cycle. Even seqs read the previous seq, every fifth
        // seq's predicate reads the pinned one, and a completed seq is
        // removed once six younger completions wait behind it, picked
        // out of order.
        let mut completed: Vec<u64> = Vec::new();
        let mut cap = slab.ring().1;
        let mut growths = 0;
        let end = pinned + 1 + 12_000;
        for seq in pinned + 1..end {
            let now = seq;
            let lane = lane_of((seq % 3) as u8);
            slab.insert(
                dummy(seq),
                Stage::Frontend,
                InstMeta::new(lane, 0, 1, &Inst::Halt),
            );
            let deps = [if seq % 2 == 0 { seq - 1 } else { NO_DEP }, NO_DEP];
            let pred_deps = [if seq % 5 == 0 { pinned } else { NO_DEP }, NO_DEP];
            for d in [deps[0], pred_deps[0]] {
                if model.get(&d).is_some_and(|e| e.stage != Stage::Done) {
                    waits.entry(d).or_default().insert(0, seq);
                }
            }
            slab.bind_deps(seq, deps, pred_deps);
            model.insert(
                seq,
                Entry {
                    stage: Stage::InIq,
                    lane,
                    deps,
                    pred_deps,
                },
            );
            while let Some(s) = slab.pop_ready(&[u32::MAX; 3]) {
                slab.start_exec(s, now + 3);
                model.get_mut(&s).expect("issued seq is live").stage =
                    Stage::Exec { done: now + 3 };
            }
            while let Some(s) = slab.pop_completed(now) {
                slab.wake_consumers(s);
                model.get_mut(&s).expect("completed seq is live").stage = Stage::Done;
                waits.remove(&s);
                completed.push(s);
            }
            if completed.len() > 6 {
                let s = completed.swap_remove(seq as usize % completed.len());
                slab.remove(s).expect("completed seq is live");
                model.remove(&s);
                removed.push(s);
            }
            if slab.ring().1 != cap {
                cap = slab.ring().1;
                growths += 1;
                check(&slab, &model, &waits, &removed);
            }
        }
        assert_eq!(growths, 8, "the ring grew from 64 to {cap} slots");
        assert_eq!(slab.base, pinned, "the pinned entry held the span's base");
        check(&slab, &model, &waits, &removed);

        // The pinned entry completes, last, and wakes its consumers
        // across the grown ring; then everything drains.
        let mut last = None;
        while let Some(s) = slab.pop_completed(pinned_done) {
            slab.wake_consumers(s);
            model.get_mut(&s).expect("completed seq is live").stage = Stage::Done;
            waits.remove(&s);
            last = Some(s);
        }
        assert_eq!(last, Some(pinned));
        check(&slab, &model, &waits, &removed);
        for &s in model.keys() {
            slab.remove(s).expect("model says live");
        }
        assert_eq!((slab.live(), slab.len, slab.base), (0, 0, end));
    }

    proptest! {
        /// Under random allocate/retire/squash/dispatch/issue/complete
        /// interleavings the slab stays equivalent to a reference HashMap
        /// model, counts exactly the model's IQ entries, issues exactly
        /// the oldest IQ entries of each lane with budget in ascending
        /// seq order (skipping entries that left the IQ and keeping held
        /// ones queued), completes exactly the model's executing entries
        /// that are due (skipping events of removed or restaged seqs),
        /// reclaims its dead prefix eagerly (the span runs from the oldest
        /// live seq to the newest allocated one), and never resurrects a
        /// removed seq.
        #[test]
        fn slab_matches_hashmap_model(ops in prop::collection::vec(op(), 0..300)) {
            let mut slab = InstSlab::new();
            let mut model: HashMap<u64, Stage> = HashMap::new();
            let mut next_seq = 1u64;
            let mut removed: Vec<u64> = Vec::new();
            let mut lanes: HashMap<u64, usize> = HashMap::new();
            for op in ops {
                match op {
                    Op::Alloc(code) => {
                        let meta = InstMeta::new(lane_of(code), 0, 1, &Inst::Halt);
                        slab.insert(dummy(next_seq), Stage::Frontend, meta);
                        model.insert(next_seq, Stage::Frontend);
                        lanes.insert(next_seq, lane_of(code).index());
                        next_seq += 1;
                    }
                    Op::RetireFront => {
                        if let Some(&s) = model.keys().min() {
                            let r = slab.remove(s).expect("model says live");
                            prop_assert_eq!(r.di.seq, s);
                            model.remove(&s);
                            removed.push(s);
                        }
                    }
                    Op::RemoveAt(i) => {
                        if let Some(s) = pick(&model, i) {
                            let r = slab.remove(s).expect("model says live");
                            prop_assert_eq!(Some(r.stage), model.remove(&s));
                            removed.push(s);
                        }
                    }
                    Op::SquashFrom(i) => {
                        if let Some(pivot) = pick(&model, i) {
                            let doomed: Vec<u64> =
                                model.keys().copied().filter(|&s| s >= pivot).collect();
                            for s in doomed {
                                slab.remove(s).expect("model says live");
                                model.remove(&s);
                                removed.push(s);
                            }
                        }
                    }
                    Op::Enqueue(i) => {
                        if let Some(s) = pick(&model, i).filter(|s| model[s] == Stage::Frontend) {
                            slab.bind_deps(s, [NO_DEP; 2], [NO_DEP; 2]);
                            model.insert(s, Stage::InIq);
                        }
                    }
                    Op::PopReady(budget, done, hold) => {
                        let held = |s: u64| hold > 0 && s.is_multiple_of(hold + 1);
                        let mut left = budget;
                        let (mut got, mut kept) = (Vec::new(), Vec::new());
                        while let Some(s) = slab.pop_ready(&left) {
                            if held(s) {
                                kept.push(s);
                                continue;
                            }
                            left[slab.meta(s).expect("popped seq is live").lane.index()] -= 1;
                            slab.start_exec(s, done);
                            got.push(s);
                        }
                        for s in kept {
                            slab.requeue(s);
                        }
                        let mut ready: Vec<u64> = model
                            .iter()
                            .filter(|(_, &st)| st == Stage::InIq)
                            .map(|(&s, _)| s)
                            .collect();
                        ready.sort_unstable();
                        let mut left = budget;
                        let want: Vec<u64> = ready
                            .into_iter()
                            .filter(|&s| {
                                let lane = lanes[&s];
                                let take = !held(s) && left[lane] > 0;
                                left[lane] -= u32::from(take);
                                take
                            })
                            .collect();
                        prop_assert_eq!(&got, &want);
                        for s in want {
                            model.insert(s, Stage::Exec { done });
                        }
                    }
                    Op::Exec(i, done) => {
                        if let Some(s) = pick(&model, i) {
                            slab.start_exec(s, done);
                            model.insert(s, Stage::Exec { done });
                        }
                    }
                    Op::Sweep(now) => {
                        let mut got = Vec::new();
                        while let Some(s) = slab.pop_completed(now) {
                            got.push(s);
                        }
                        got.sort_unstable();
                        let mut want: Vec<u64> = model
                            .iter()
                            .filter(|(_, st)| matches!(st, Stage::Exec { done } if *done <= now))
                            .map(|(&s, _)| s)
                            .collect();
                        want.sort_unstable();
                        prop_assert_eq!(&got, &want);
                        for s in want {
                            model.insert(s, Stage::Done);
                        }
                    }
                }

                // Occupancy and per-seq agreement with the model.
                prop_assert_eq!(slab.live(), model.len());
                prop_assert_eq!(
                    slab.iq_len(),
                    model.values().filter(|&&st| st == Stage::InIq).count()
                );
                for (&s, &st) in &model {
                    prop_assert_eq!(slab.get(s).map(|d| d.seq), Some(s));
                    prop_assert_eq!(slab.stage(s), Some(st));
                    prop_assert!(slab.meta(s).is_some());
                }
                for &s in &removed {
                    prop_assert!(slab.get(s).is_none(), "removed seq {} resurrected", s);
                    prop_assert_eq!(slab.stage(s), None);
                    prop_assert!(slab.meta(s).is_none());
                }
                // Eager prefix reclamation: the span is exactly
                // [oldest live, newest allocated] — empty when drained —
                // and fits the power-of-two ring.
                prop_assert_eq!(slab.base + slab.len as u64, next_seq);
                match model.keys().min() {
                    Some(&oldest) => prop_assert_eq!(slab.base, oldest),
                    None => prop_assert_eq!(slab.len, 0),
                }
                let (span, cap) = slab.ring();
                prop_assert!(span <= cap && (cap == 0 || cap.is_power_of_two()));
            }
        }
    }
}

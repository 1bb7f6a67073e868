//! The multi-thread out-of-order pipeline.
//!
//! One [`Pipeline`] simulates up to three hardware thread contexts:
//!
//! * the **main thread** (MT), trace-driven from the functional emulator —
//!   branch outcomes, values and addresses come from the correct-path
//!   [`ExecRecord`] stream; the timing model decides *when* things happen;
//! * up to two **side threads** (HT_A/HT_B), supplied and steered by a
//!   [`PreExecEngine`], executed with *real values* against the retire-time
//!   memory image plus the side store cache.
//!
//! Frontend width, ROB, LQ, SQ and PRF are partitioned per Table I while
//! side threads run; the issue queue and execution lanes are flexibly
//! shared. Mispredicted MT branches stall fetch until they resolve (no
//! wrong-path execution; documented in DESIGN.md); load-store ordering
//! violations squash and replay.
//!
//! # Module layout
//!
//! The pipeline is decomposed per stage, one file per stage, all
//! operating on the shared [`SimContext`] (every piece of simulator state
//! except the pre-execution engine):
//!
//! * [`fetch`] — MT trace fetch, side-thread fetch, branch prediction;
//! * [`rename_dispatch`] — rename, resource allocation, IQ entry;
//! * [`issue_execute`] — select from the ready queues, MT and side
//!   execution;
//! * [`lsq`] — store-to-load forwarding, ordering-violation detection,
//!   doubleword extract/merge;
//! * [`retire`] — in-order (and loose side) retirement, stat accounting;
//! * [`squash`] — squash machinery plus pre-execution trigger/terminate.
//!
//! Stage methods that never touch the engine live on `SimContext`; the
//! rest live on `Pipeline<E>` and borrow `ctx` and `engine` disjointly.
//! `SimContext` (and therefore every run input: [`crate::sim::RunConfig`],
//! a prepared [`Cpu`]) is `Send`, so whole simulations can move to worker
//! threads — the experiment runner in `phelps-bench` relies on this.

mod fetch;
mod issue_execute;
mod lsq;
mod rename_dispatch;
mod retire;
mod slab;
mod squash;

use crate::sim::types::{Mode, PreExecEngine, SideInst, HT_A, HT_B, MT};
use crate::storecache::StoreCache;
use phelps_isa::{Cpu, EmuError, ExecRecord, Inst, Memory, NUM_REGS};
use phelps_telemetry as tlm;
use phelps_uarch::bpred::{DirectionPredictor, HistoryCheckpoint, TageScL};
use phelps_uarch::config::{ActiveThreads, CoreConfig, PartitionPlan};
use phelps_uarch::mem::{MemoryHierarchy, Uncore};
use phelps_uarch::stats::SimStats;
use std::collections::VecDeque;

use crate::sim::types::EngineCkpt;
use slab::{InstMeta, InstSlab, Lane, NO_DEP};

fn lane_of(inst: &Inst) -> Lane {
    match inst {
        Inst::Load { .. } | Inst::Store { .. } => Lane::Mem,
        Inst::Alu { op, .. } | Inst::AluImm { op, .. } if op.is_complex() => Lane::Complex,
        _ => Lane::Alu,
    }
}

fn exec_latency(inst: &Inst) -> u32 {
    match inst {
        Inst::Alu { op, .. } | Inst::AluImm { op, .. } => op.latency(),
        _ => 1,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// In the frontend pipe; dispatches at the stored cycle.
    Frontend,
    /// Waiting in the issue queue.
    InIq,
    /// Executing; completes at `done`.
    Exec { done: u64 },
    /// Result available.
    Done,
}

/// Where a fetched MT prediction came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PredFrom {
    Default,
    Queue,
    Oracle,
    None,
}

/// Cold per-instruction payload, stored in the slab's slot column. The
/// per-cycle scalar state (stage, lane, dep slots, ready-dep count,
/// flags) lives in the slab's hot columns — see [`slab`].
#[derive(Clone, Debug)]
struct DynInst {
    seq: u64,
    tid: usize,
    pc: u64,
    inst: Inst,
    /// MT: the trace record. Side: stub filled at execute.
    rec: ExecRecord,
    /// MT conditional branches: prediction consumed at fetch.
    predicted: Option<bool>,
    /// What the default predictor said (computed even when a queue
    /// supplied the prediction — the DBT measures the core predictor's
    /// delinquency regardless of the consumed source, paper §V-B).
    default_pred: Option<bool>,
    pred_from: PredFrom,
    mispredicted: bool,
    /// Checkpoints for recovery (MT conditional branches).
    bp_ckpt: Option<HistoryCheckpoint>,
    engine_ckpt: Option<EngineCkpt>,
    /// Side-thread payload.
    side: Option<SideInst>,
    /// Execute-time results (side threads; MT copies from rec).
    result: u64,
    taken: bool,
    mem_addr: u64,
    /// Predicate evaluation result.
    enabled: bool,
    /// Frontend-pipe exit cycle while in [`Stage::Frontend`]; cleared at
    /// dispatch.
    mem_done: u64,
}

impl DynInst {
    fn is_cond_branch(&self) -> bool {
        self.inst.is_cond_branch()
    }
}

/// The correct-path instruction source for the main thread, with a replay
/// buffer for squash recovery.
#[derive(Debug)]
struct TraceSource {
    cpu: Cpu,
    replay: VecDeque<ExecRecord>,
    exhausted: bool,
}

impl TraceSource {
    fn next(&mut self) -> Option<ExecRecord> {
        if let Some(r) = self.replay.pop_front() {
            return Some(r);
        }
        if self.exhausted || self.cpu.is_halted() {
            return None;
        }
        match self.cpu.step() {
            Ok(rec) => Some(rec),
            Err(EmuError::Halted) => None,
            Err(e) => panic!("guest program fault: {e}"),
        }
    }

    fn push_replay_front(&mut self, recs: impl DoubleEndedIterator<Item = ExecRecord>) {
        for r in recs.rev() {
            self.replay.push_front(r);
        }
    }
}

#[derive(Clone, Debug)]
struct ThreadCtx {
    /// In-flight seqs in program order (frontend + ROB).
    rob: VecDeque<u64>,
    /// In-flight load seqs, program order (the loads of `rob`). Keeps
    /// ordering-violation search off the full ROB scan.
    loads: VecDeque<u64>,
    /// In-flight store seqs, program order (the stores of `rob`).
    /// Store-to-load forwarding and the store-set check walk this
    /// SQ-bounded list instead of the whole ROB.
    stores: VecDeque<u64>,
    /// Seqs in the frontend pipe (prefix of `rob`).
    frontend: usize,
    /// Rename map: logical reg -> producing seq.
    rmt: [Option<u64>; NUM_REGS],
    /// Predicate rename: logical pred reg -> producing seq.
    pred_rmt: [Option<u64>; 17],
    /// Committed predicate values (enabled, taken), written at predicate
    /// producer retire; read by consumers whose producer already retired.
    pred_vals: [(bool, bool); 17],
    /// Committed (retire-time) register values. MT: the timing-architectural
    /// file used for live-in capture; side threads: their value state.
    regs: [u64; NUM_REGS],
    // Partition limits.
    width: u32,
    rob_cap: u32,
    lq_cap: u32,
    sq_cap: u32,
    prf_cap: u32,
    // Usage.
    lq_used: u32,
    sq_used: u32,
    prf_used: u32,
    /// MT fetch blocked until this cycle (mispredict resolution, trigger).
    fetch_stall_until: u64,
    /// MT fetch blocked until this cycle by an in-flight L1I miss. Kept
    /// apart from `fetch_stall_until` (which squashes reset) because the
    /// instruction fill stays in flight across a squash.
    ifetch_stall_until: u64,
    /// Seq of the unresolved mispredicted branch blocking fetch.
    blocking_branch: Option<u64>,
    /// MT fetch blocked until the flagged live-in move retires.
    waiting_mt_release: bool,
    active: bool,
}

impl ThreadCtx {
    fn new() -> ThreadCtx {
        ThreadCtx {
            rob: VecDeque::new(),
            loads: VecDeque::new(),
            stores: VecDeque::new(),
            frontend: 0,
            rmt: [None; NUM_REGS],
            pred_rmt: [None; 17],
            pred_vals: [(true, false); 17],
            regs: [0; NUM_REGS],
            width: 0,
            rob_cap: 0,
            lq_cap: 0,
            sq_cap: 0,
            prf_cap: 0,
            lq_used: 0,
            sq_used: 0,
            prf_used: 0,
            fetch_stall_until: 0,
            ifetch_stall_until: 0,
            blocking_branch: None,
            waiting_mt_release: false,
            active: false,
        }
    }

    /// Records a fetched instruction in the load/store index lists.
    fn track_fetched(&mut self, seq: u64, meta: &InstMeta) {
        if meta.is_load() {
            self.loads.push_back(seq);
        }
        if meta.is_store() {
            self.stores.push_back(seq);
        }
    }

    /// Drops a removed instruction from the load/store index lists. The
    /// lists are sorted (program order), so off-head removal is a binary
    /// search; the common retire case pops the front.
    fn forget_tracked(&mut self, seq: u64, meta: &InstMeta) {
        fn drop_seq(q: &mut VecDeque<u64>, seq: u64) {
            if q.front() == Some(&seq) {
                q.pop_front();
            } else if let Ok(i) = q.binary_search(&seq) {
                q.remove(i);
            }
        }
        if meta.is_load() {
            drop_seq(&mut self.loads, seq);
        }
        if meta.is_store() {
            drop_seq(&mut self.stores, seq);
        }
    }

    /// Truncates the load/store index lists at a squash boundary
    /// (removes every seq >= `from`).
    fn truncate_tracked_from(&mut self, from: u64) {
        let cut = self.loads.partition_point(|&s| s < from);
        self.loads.truncate(cut);
        let cut = self.stores.partition_point(|&s| s < from);
        self.stores.truncate(cut);
    }
}

/// Simulation result bundle.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Counter bundle.
    pub stats: SimStats,
    /// Harvested telemetry, when a [`phelps_telemetry`] registry was
    /// installed on this thread before the run (see `PHELPS_TRACE`).
    pub telemetry: Option<Box<tlm::Report>>,
    /// Every main-thread [`ExecRecord`] in retirement order, when
    /// [`Pipeline::record_retires`] was called before the run. `None`
    /// otherwise (the common case — experiment runs pay nothing for it).
    pub retire_log: Option<Vec<ExecRecord>>,
    /// Final timing-architectural state, captured together with the
    /// retire log for differential co-simulation (`phelps-verify`).
    pub final_state: Option<Box<FinalState>>,
}

impl SimResult {
    /// Folds a later shard's result into this one: stats sum, telemetry
    /// reports merge (splicing the epoch/event series, see
    /// `phelps_telemetry::Report::merge`), and a missing telemetry side
    /// adopts the present one.
    ///
    /// The retire log and final architectural state are positional
    /// artifacts of one contiguous run — a stitched run has neither, so
    /// both drop to `None`.
    pub fn merge(&mut self, other: &SimResult) {
        self.stats.merge(&other.stats);
        self.telemetry = match (self.telemetry.take(), other.telemetry.as_deref()) {
            (Some(mut a), Some(b)) => {
                a.merge(b);
                Some(a)
            }
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(Box::new(b.clone())),
            (None, None) => None,
        };
        self.retire_log = None;
        self.final_state = None;
    }
}

/// Architectural end-state of a run, for differential comparison against
/// the functional emulator. Captured only when retire logging is on.
#[derive(Clone, Debug)]
pub struct FinalState {
    /// The main thread's timing-architectural register file (updated at
    /// retire; registers never written by a retired instruction stay 0).
    pub mt_regs: [u64; NUM_REGS],
    /// The retire-time memory image. Seeded from the guest memory at
    /// construction and written only by retired main-thread stores, so a
    /// correct pipeline ends with exactly the emulator's final memory.
    pub mem: Memory,
}

/// Explicit per-thread resource quotas, overriding the Table I fractional
/// partitioning. Used by the Branch Runahead baseline, whose main thread
/// keeps the whole ROB and SQ (and, in the 12-wide configuration, full
/// baseline resources).
#[derive(Clone, Copy, Debug)]
pub struct ThreadQuota {
    /// Frontend (fetch/dispatch/retire) width.
    pub width: u32,
    /// In-flight instruction budget (ROB share or usage-counter budget).
    pub rob: u32,
    /// Load-queue share.
    pub lq: u32,
    /// Store-queue share.
    pub sq: u32,
    /// Physical-register share.
    pub prf: u32,
}

/// Everything the stages share: the whole simulator state *except* the
/// pre-execution engine. Stage methods that never consult the engine are
/// implemented directly on this type (see the module docs); methods on
/// [`Pipeline`] borrow `ctx` and `engine` as disjoint fields.
#[derive(Debug)]
struct SimContext {
    cfg: CoreConfig,
    mode_oracle: bool,
    partition_only: bool,
    trace: TraceSource,
    bpred: TageScL,
    hierarchy: MemoryHierarchy,
    /// Retire-time memory image: MT stores applied at retire; side loads
    /// read it (plus the store cache).
    timing_mem: Memory,
    store_cache: StoreCache,
    threads: Vec<ThreadCtx>,
    /// In-flight instruction table: seq-indexed slab with hot
    /// structure-of-arrays columns. It also holds the shared issue
    /// queue, as an occupancy count and per-lane ready queues (see
    /// [`slab`]).
    insts: InstSlab,
    /// Reused scratch for the issue walk: the MT loads that the
    /// store-set check held this cycle, put back in their ready queue
    /// after the walk.
    issue_scratch: Vec<u64>,
    /// Reused scratch for loose side retirement.
    loose_scratch: Vec<u64>,
    next_seq: u64,
    cycle: u64,
    /// Engine-triggered state.
    preexec_active: bool,
    /// Cycle of the most recent trigger (telemetry: trigger-span hist).
    trigger_cycle: u64,
    /// Outstanding `mt_release` move.
    mt_release_pending: bool,
    max_mt_insts: u64,
    stats: SimStats,
    thread_priority: usize,
    /// Explicit quota override: (main thread, side thread).
    quotas: Option<(ThreadQuota, ThreadQuota)>,
    /// Load PCs that previously caused an ordering violation: they wait
    /// for older stores' addresses before issuing (a store-set-style
    /// memory-dependence predictor — without it, every loop-carried
    /// store→load pair would violate every iteration).
    violating_loads: std::collections::HashSet<u64>,
    /// Stop when the MT trace is fully retired.
    finished: bool,
    /// When `Some`, every retired MT record is appended (co-simulation
    /// oracle; see [`Pipeline::record_retires`]).
    retire_log: Option<Vec<ExecRecord>>,
    /// Highest MT seq retired so far (in-order retirement invariant).
    #[cfg(feature = "debug-invariants")]
    last_mt_retired_seq: u64,
}

/// The pipeline. Construct via [`Pipeline::new`], then [`Pipeline::run`].
#[derive(Debug)]
pub struct Pipeline<E: PreExecEngine> {
    ctx: SimContext,
    engine: Option<E>,
}

// Whole simulations must be movable to worker threads: the experiment
// runner in `phelps-bench` schedules `simulate` calls across a scoped
// thread pool. Keep this statically checked so a stray `Rc`/raw pointer
// in any simulator structure fails the build here, with a clear culprit,
// rather than at the runner's spawn site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SimContext>();
    assert_send::<SimResult>();
    assert_send::<crate::sim::types::RunConfig>();
    assert_send::<Cpu>();
    assert_send::<SimStats>();
};

impl<E: PreExecEngine> Pipeline<E> {
    /// Creates a pipeline over a prepared guest CPU (program + initialized
    /// memory + entry registers).
    pub fn new(
        cpu: Cpu,
        cfg: CoreConfig,
        mode: &Mode,
        engine: Option<E>,
        max_mt_insts: u64,
    ) -> Pipeline<E> {
        let timing_mem = cpu.mem.clone();
        let mut threads = vec![ThreadCtx::new(), ThreadCtx::new(), ThreadCtx::new()];
        threads[MT].active = true;
        let hierarchy = MemoryHierarchy::new(&cfg);
        let partition_only = matches!(mode, Mode::PartitionOnly);
        let mut ctx = SimContext {
            mode_oracle: matches!(mode, Mode::PerfectBp),
            partition_only,
            trace: TraceSource {
                cpu,
                replay: VecDeque::new(),
                exhausted: false,
            },
            bpred: TageScL::large(),
            hierarchy,
            timing_mem,
            store_cache: StoreCache::paper_default(),
            threads,
            insts: InstSlab::new(),
            issue_scratch: Vec::new(),
            loose_scratch: Vec::new(),
            next_seq: 0,
            cycle: 0,
            preexec_active: false,
            trigger_cycle: 0,
            mt_release_pending: false,
            max_mt_insts,
            stats: SimStats::new(),
            thread_priority: 0,
            quotas: None,
            violating_loads: std::collections::HashSet::new(),
            finished: false,
            retire_log: None,
            #[cfg(feature = "debug-invariants")]
            last_mt_retired_seq: 0,
            cfg,
        };
        ctx.apply_partition(if partition_only {
            ActiveThreads::MainPartitioned
        } else {
            ActiveThreads::MainOnly
        });
        Pipeline { ctx, engine }
    }

    /// Immutable view of the statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.ctx.stats
    }

    /// Turns on retire logging: the run collects every retired main-thread
    /// [`ExecRecord`] plus the final timing-architectural state into
    /// [`SimResult::retire_log`] / [`SimResult::final_state`]. Used by the
    /// `phelps-verify` differential harness; call before [`Pipeline::run`].
    pub fn record_retires(&mut self) {
        self.ctx.retire_log = Some(Vec::new());
    }

    /// Functionally warms the microarchitectural state from a replayed
    /// instruction trace (checkpoint warmup, `phelps-ckpt`): conditional
    /// branches train the direction predictor, every instruction warms the
    /// L1I fetch path, and loads and stores touch the data hierarchy's tag
    /// arrays. No cycles pass and no statistics move — call before
    /// [`Pipeline::run`]. With an empty slice this is a no-op, so the
    /// unwarmed path is bit-for-bit unchanged.
    pub fn warm_microarch(&mut self, warm: &[ExecRecord]) {
        for rec in warm {
            self.ctx.hierarchy.warm_ifetch(rec.pc);
            if rec.inst.is_cond_branch() {
                self.ctx.bpred.warm(rec.pc, rec.taken);
            }
            if rec.inst.is_load() || rec.inst.is_store() {
                self.ctx.hierarchy.warm_access(rec.mem_addr);
            }
        }
    }

    /// Overrides the helper-thread store-cache geometry (sets of 2 ways;
    /// paper: 16). [`Pipeline::from_config`] applies
    /// `RunConfig::store_cache_sets` through this; call before
    /// [`Pipeline::run`].
    pub fn set_store_cache_sets(&mut self, sets: usize) {
        self.ctx.store_cache = StoreCache::new(sets.next_power_of_two().max(1));
    }

    /// Overrides Table I partitioning with explicit quotas: the main
    /// thread always gets `mt`; the side thread gets `side` while
    /// pre-execution is active. Call before [`Pipeline::run`].
    pub fn set_quotas(&mut self, mt: ThreadQuota, side: ThreadQuota) {
        self.ctx.quotas = Some((mt, side));
        self.ctx.apply_partition(ActiveThreads::MainOnly);
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs to completion (trace exhausted or `max_mt_insts` retired) and
    /// returns the result bundle.
    pub fn run(mut self) -> SimResult {
        let cycle_bound = self.cycle_bound();
        while !self.ctx.finished && self.ctx.cycle < cycle_bound {
            self.step_cycle();
        }
        self.finalize()
    }

    /// Hard cycle bound to catch livelocks in debugging scenarios.
    pub fn cycle_bound(&self) -> u64 {
        self.ctx.max_mt_insts.saturating_mul(64).max(1_000_000)
    }

    /// Whether the run has reached its end condition (trace exhausted or
    /// `max_mt_insts` retired).
    pub fn finished(&self) -> bool {
        self.ctx.finished
    }

    /// Tags this core's shared-tier traffic with `tenant` (co-run driver;
    /// solo runs keep the default 0).
    pub fn set_tenant(&mut self, tenant: usize) {
        self.ctx.hierarchy.set_tenant(tenant);
    }

    /// Advances one cycle against a communal shared tier: swaps `uncore`
    /// in for the step and back out after, so every co-running core's
    /// misses land in the same L2/L3/DRAM. The swap leaves this
    /// pipeline's owned uncore untouched while the step runs elsewhere —
    /// a solo run never calls this and is bit-identical to [`Pipeline::run`].
    pub fn step_shared(&mut self, uncore: &mut Uncore) {
        self.ctx.hierarchy.swap_uncore(uncore);
        self.step_cycle();
        self.ctx.hierarchy.swap_uncore(uncore);
    }

    /// Closes out a core stepped with [`Pipeline::step_shared`] (the
    /// co-run driver's [`Pipeline::run`]): finalizes with the communal
    /// `uncore` swapped in, so the result's shared-level counters (and
    /// the last telemetry epoch) are this tenant's attributed share, read
    /// the same way as every snapshot taken while it stepped.
    pub fn finalize_shared(mut self, uncore: &mut Uncore) -> SimResult {
        self.ctx.hierarchy.swap_uncore(uncore);
        let result = self.finalize();
        self.ctx.hierarchy.swap_uncore(uncore);
        result
    }

    /// Closes out a finished run: takes the final counter snapshot,
    /// harvests the thread's telemetry registry (if any) with it and
    /// assembles the [`SimResult`].
    fn finalize(&mut self) -> SimResult {
        assert!(
            self.ctx.finished,
            "simulation did not converge within {} cycles (deadlock?)",
            self.cycle_bound()
        );
        self.ctx.stats = self.ctx.snapshot();
        let retire_log = self.ctx.retire_log.take();
        let final_state = retire_log.is_some().then(|| {
            Box::new(FinalState {
                mt_regs: self.ctx.threads[MT].regs,
                mem: std::mem::take(&mut self.ctx.timing_mem),
            })
        });
        SimResult {
            telemetry: tlm::harvest(&self.ctx.stats),
            stats: self.ctx.stats.clone(),
            retire_log,
            final_state,
        }
    }

    fn step_cycle(&mut self) {
        self.ctx.cycle += 1;
        if tlm::enabled() {
            let t = &self.ctx.threads[MT];
            tlm::gauge(tlm::Gauge::RobOccupancy, t.rob.len() as u64);
            tlm::gauge(tlm::Gauge::LsqOccupancy, u64::from(t.lq_used + t.sq_used));
        }
        self.retire();
        if self.ctx.finished {
            return;
        }
        self.ctx.complete_execution();
        self.issue();
        self.ctx.dispatch();
        self.fetch();
        #[cfg(feature = "debug-invariants")]
        self.ctx.check_invariants();
    }
}

impl SimContext {
    fn apply_partition(&mut self, active: ActiveThreads) {
        if let Some((mt, side)) = self.quotas {
            let set = |t: &mut ThreadCtx, q: ThreadQuota, on: bool| {
                t.width = q.width;
                t.rob_cap = q.rob;
                t.lq_cap = q.lq;
                t.sq_cap = q.sq;
                t.prf_cap = q.prf;
                t.active = on && q.width > 0;
            };
            set(&mut self.threads[MT], mt, true);
            let side_on =
                active != ActiveThreads::MainOnly && active != ActiveThreads::MainPartitioned;
            set(&mut self.threads[HT_A], side, side_on);
            set(
                &mut self.threads[HT_B],
                ThreadQuota {
                    width: 0,
                    rob: 0,
                    lq: 0,
                    sq: 0,
                    prf: 0,
                },
                false,
            );
            self.threads[MT].active = true;
            return;
        }
        let plan = PartitionPlan::for_threads(active);
        let cfg = &self.cfg;
        let set = |t: &mut ThreadCtx, eighths: u32| {
            t.width = PartitionPlan::scale(cfg.width, eighths);
            t.rob_cap = PartitionPlan::scale(cfg.rob, eighths);
            t.lq_cap = PartitionPlan::scale(cfg.lq, eighths);
            t.sq_cap = PartitionPlan::scale(cfg.sq, eighths);
            t.prf_cap = PartitionPlan::scale(cfg.prf, eighths);
            t.active = eighths > 0;
        };
        set(&mut self.threads[MT], plan.mt_eighths);
        // For MT+ITO, the single helper runs in slot HT_A with the IT share.
        if active == ActiveThreads::MainPlusIto {
            set(&mut self.threads[HT_A], plan.it_eighths);
            set(&mut self.threads[HT_B], 0);
        } else {
            set(&mut self.threads[HT_A], plan.ot_eighths);
            set(&mut self.threads[HT_B], plan.it_eighths);
        }
        self.threads[MT].active = true;
    }

    fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Cross-stage microarchitectural invariants, verified once per cycle
    /// under the `debug-invariants` feature (the `phelps-verify` fuzzing
    /// harness and CI compile with it; experiment builds pay nothing).
    ///
    /// Covered here: ROB occupancy within the partition cap, program-order
    /// (strictly ascending) ROB contents, LQ/SQ/PRF usage counters exactly
    /// matching the live post-dispatch instructions (a drifting counter is
    /// the usage-counter analog of a free list double-allocating), rename
    /// and predicate-rename entries pointing only at live same-thread
    /// producers of the mapped register, the IQ occupancy count matching
    /// the live `InIq` entries, and the wakeup structures: every
    /// not-ready dep slot of an IQ entry names a live producer whose
    /// consumer list holds that entry exactly once, every ready IQ entry
    /// sits in its own lane's ready queue exactly once, no queued live
    /// entry waits on a dep, and every executing instruction has its
    /// completion event pending. Stage-local invariants (in-order retire,
    /// LSQ forwarding age order, MSHR occupancy) live in their stage
    /// modules and in `phelps-uarch`.
    #[cfg(feature = "debug-invariants")]
    fn check_invariants(&self) {
        let mut rob_total = 0usize;
        for (tid, t) in self.threads.iter().enumerate() {
            rob_total += t.rob.len();
            assert!(
                t.rob.len() as u32 <= t.rob_cap || t.rob_cap == 0,
                "tid {tid}: ROB occupancy {} exceeds partition cap {}",
                t.rob.len(),
                t.rob_cap
            );
            assert!(
                t.frontend <= t.rob.len(),
                "tid {tid}: frontend pipe count {} exceeds ROB occupancy {}",
                t.frontend,
                t.rob.len()
            );
            let mut prev: Option<u64> = None;
            for &s in &t.rob {
                if let Some(p) = prev {
                    assert!(
                        p < s,
                        "tid {tid}: ROB out of program order ({p} before {s})"
                    );
                }
                prev = Some(s);
            }
            // Recompute resource usage from the live post-dispatch
            // instructions; the incremental counters must agree exactly.
            // The load/store index lists must also be exactly the ROB
            // filtered by the meta flags — a drifting list would make
            // forwarding or the store-set check miss a store.
            let (mut lq, mut sq, mut prf) = (0u32, 0u32, 0u32);
            let (mut loads, mut stores) = (Vec::new(), Vec::new());
            for &s in &t.rob {
                let Some(m) = self.insts.meta(s) else {
                    continue;
                };
                if m.is_load() {
                    loads.push(s);
                }
                if m.is_store() {
                    stores.push(s);
                }
                if matches!(self.insts.stage(s), Some(Stage::Frontend)) {
                    continue;
                }
                lq += u32::from(m.is_load());
                sq += u32::from(m.is_store());
                prf += u32::from(m.has_dst());
            }
            assert_eq!(
                (t.lq_used, t.sq_used, t.prf_used),
                (lq, sq, prf),
                "tid {tid}: resource usage counters (lq, sq, prf) drifted from live instructions"
            );
            assert!(
                t.loads.iter().copied().eq(loads.iter().copied()),
                "tid {tid}: load index list drifted from the ROB"
            );
            assert!(
                t.stores.iter().copied().eq(stores.iter().copied()),
                "tid {tid}: store index list drifted from the ROB"
            );
            for (r, slot) in t.rmt.iter().enumerate() {
                let Some(seq) = slot else { continue };
                let di = self.insts.get(*seq).unwrap_or_else(|| {
                    panic!("tid {tid}: rmt[{r}] -> seq {seq} which is no longer in flight")
                });
                assert_eq!(di.tid, tid, "rmt[{r}] crosses threads");
                assert_eq!(
                    di.inst.dst().map(|d| d.index()),
                    Some(r),
                    "tid {tid}: rmt[{r}] -> seq {seq} which does not produce x{r}"
                );
            }
            for (p, slot) in t.pred_rmt.iter().enumerate() {
                let Some(seq) = slot else { continue };
                let di = self.insts.get(*seq).unwrap_or_else(|| {
                    panic!("tid {tid}: pred_rmt[{p}] -> seq {seq} which is no longer in flight")
                });
                assert_eq!(di.tid, tid, "pred_rmt[{p}] crosses threads");
                let produces = matches!(
                    di.side.as_ref().map(|s| s.kind),
                    Some(crate::sim::types::SideKind::PredProducer { dest }) if dest as usize == p
                );
                assert!(
                    produces,
                    "tid {tid}: pred_rmt[{p}] -> seq {seq} which does not produce p{p}"
                );
            }
        }
        // Every slab entry is in exactly one ROB and vice versa.
        assert_eq!(
            self.insts.live(),
            rob_total,
            "slab live count drifted from ROB membership"
        );
        // A queued seq that left the IQ is stale and is dropped when
        // popped; every other queued seq must be a ready IQ entry of the
        // queue's lane.
        let mut queued: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (lane, s) in self.insts.queued() {
            let Some(m) = self.insts.meta(s) else {
                continue;
            };
            assert_eq!(
                self.insts.stage(s),
                Some(Stage::InIq),
                "ready queue holds seq {s}, which has left the IQ"
            );
            assert_eq!(
                m.unready, 0,
                "ready queue holds seq {s} with {} unready deps",
                m.unready
            );
            assert_eq!(
                m.lane.index(),
                lane,
                "seq {s} is queued in another lane's ready queue"
            );
            *queued.entry(s).or_default() += 1;
        }
        let mut iq_len = 0usize;
        for (s, _) in self.insts.iter() {
            if self.insts.stage(s) != Some(Stage::InIq) {
                continue;
            }
            iq_len += 1;
            // The event-maintained ready-dep count must equal the count
            // recomputed from the dep slots: a drift here is a missed or
            // double wakeup. Each unfinished producer must also hold this
            // entry in its consumer list, or it would never wake it.
            let m = self.insts.meta(s).expect("live iq entry");
            let mut unready = 0u8;
            for d in m.deps.into_iter().chain(m.pred_deps) {
                if self.insts.dep_ready(d) {
                    continue;
                }
                unready += 1;
                let registered = self.insts.consumers(d).filter(|&c| c == s).count();
                assert_eq!(
                    registered, 1,
                    "seq {s}: registered {registered} times with unfinished producer {d}"
                );
            }
            assert_eq!(
                m.unready, unready,
                "seq {s}: ready-dep count drifted from dep-slot stages"
            );
            if unready == 0 {
                let n = queued.get(&s).copied().unwrap_or(0);
                assert_eq!(n, 1, "ready IQ entry {s} is queued {n} times");
            }
        }
        assert_eq!(
            self.insts.iq_len(),
            iq_len,
            "IQ occupancy count drifted from the live InIq entries"
        );
        let events: std::collections::HashSet<(u64, u64)> = self.insts.events().collect();
        for (s, _) in self.insts.iter() {
            if let Some(Stage::Exec { done }) = self.insts.stage(s) {
                assert!(
                    events.contains(&(done, s)),
                    "seq {s} executes until cycle {done} with no completion event"
                );
            }
        }
    }

    /// The run's counters at this instant, as the finished run reports
    /// them: the stages' own counts plus the memory hierarchy's
    /// and the cycle count. The telemetry epochs are differences of
    /// these snapshots, so they sum to the finished run's stats.
    fn snapshot(&self) -> SimStats {
        let mut s = self.stats.clone();
        let (acc, miss, pf_hits) = self.hierarchy.l1d_stats();
        s.l1d_accesses = acc;
        s.l1d_misses = miss;
        let (st_acc, st_miss) = self.hierarchy.l1d_store_stats();
        s.l1d_store_accesses = st_acc;
        s.l1d_store_misses = st_miss;
        s.prefetch_hits = pf_hits;
        let (i_acc, i_miss) = self.hierarchy.l1i_stats();
        s.l1i_accesses = i_acc;
        s.l1i_misses = i_miss;
        s.l2_misses = self.hierarchy.l2_misses();
        s.l3_misses = self.hierarchy.l3_misses();
        s.prefetches_issued = self.hierarchy.prefetches_issued();
        let (l1i_p, l1d_p, l2_p, l3_p, dram_p) = self.hierarchy.port_stalls();
        s.l1i_port_stalls = l1i_p;
        s.l1d_port_stalls = l1d_p;
        s.l2_port_stalls = l2_p;
        s.l3_port_stalls = l3_p;
        s.dram_queue_stalls = dram_p;
        s.cycles = self.cycle;
        s
    }
}

//! Shared types between the pipeline and pre-execution engines.

use crate::classify::MispredictClass;
use crate::construct::ConstructorConfig;
use crate::htc::HtKind;
use crate::predicate::PredSource;
use phelps_isa::{ExecRecord, Inst};
use phelps_uarch::config::{ActiveThreads, CoreConfig};

/// Hardware thread slots.
pub const MT: usize = 0;
/// First side (helper/pre-execution) thread slot: inner-thread-only or
/// outer-thread.
pub const HT_A: usize = 1;
/// Second side thread slot: inner-thread.
pub const HT_B: usize = 2;
/// Total thread slots.
pub const NUM_THREADS: usize = 3;

/// What a side (pre-execution) instruction is, for pipeline semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SideKind {
    /// Ordinary slice computation.
    Plain,
    /// Phelps predicate producer (converted delinquent branch).
    PredProducer {
        /// Destination logical predicate register.
        dest: u8,
    },
    /// Retained store (writes the side store cache at retire when enabled).
    Store,
    /// The helper thread's loop branch.
    LoopBranch,
    /// Inner-loop header branch in the outer-thread.
    HeaderBranch,
    /// Live-in move carrying its value directly.
    LiveInMove,
}

impl From<HtKind> for SideKind {
    fn from(k: HtKind) -> SideKind {
        match k {
            HtKind::Plain => SideKind::Plain,
            HtKind::PredicateProducer { dest } => SideKind::PredProducer { dest },
            HtKind::Store => SideKind::Store,
            HtKind::LoopBranch => SideKind::LoopBranch,
            HtKind::HeaderBranch => SideKind::HeaderBranch,
        }
    }
}

/// One instruction supplied by a pre-execution engine for a side thread.
#[derive(Clone, Copy, Debug)]
pub struct SideInst {
    /// Original main-thread PC (identity for queues and stats).
    pub pc: u64,
    /// The operation.
    pub inst: Inst,
    /// Pipeline semantics.
    pub kind: SideKind,
    /// Predicate source operand.
    pub pred_src: PredSource,
    /// For [`SideKind::LiveInMove`]: the value to write.
    pub live_in_value: u64,
    /// When `true`, the main thread's fetch resumes once this instruction
    /// retires (the last live-in move of a trigger).
    pub mt_release: bool,
    /// Engine-private tag (iteration index, chain id + generation, ...).
    pub tag: u64,
}

/// Execution results handed back to the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecInfo {
    /// Destination value (or branch link, or store data).
    pub value: u64,
    /// Branch direction, for branch-like kinds.
    pub taken: bool,
    /// Effective memory address, for loads/stores.
    pub addr: u64,
    /// Predicate evaluation: whether the instruction was predicated-true.
    pub enabled: bool,
}

/// Result of a queue lookup at main-thread fetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueLookup {
    /// No queue row for this PC: use the default predictor.
    NoRow,
    /// Queue supplies this prediction.
    Hit(bool),
    /// A row exists but the outcome isn't deposited yet (helper thread
    /// behind): fall back to the default predictor, counted as untimely.
    Untimely,
}

/// Engine state checkpointed at every in-flight main-thread branch.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EngineCkpt {
    /// `spec_head` of the HT_A queue partition.
    pub a: u64,
    /// `spec_head` of the HT_B queue partition.
    pub b: u64,
    /// Per-branch-queue consumption cursors (Branch Runahead's pop-based
    /// outcome queues); empty for Phelps.
    pub cursors: Vec<u64>,
}

/// What the pipeline should do after a side branch resolves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SideAction {
    /// Keep going.
    Continue,
    /// Squash this thread's instructions younger than the branch
    /// (inner-thread visit boundary).
    SquashYounger,
    /// Terminate pre-execution entirely.
    Terminate,
}

/// Engine command returned from the retire path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineCmd {
    /// Nothing to do.
    None,
    /// Start pre-execution with the given thread set.
    Trigger(ActiveThreads),
    /// Stop pre-execution and return resources.
    Terminate,
}

/// A pre-execution engine: Phelps helper threads or the Branch Runahead
/// baseline. The pipeline drives it through these hooks.
pub trait PreExecEngine {
    /// Queue lookup for a conditional branch the main thread is fetching.
    fn queue_lookup(&mut self, pc: u64) -> QueueLookup;

    /// The main thread fetched a conditional branch at `pc` with the given
    /// prediction (advances spec pointers / pops BR queues).
    fn on_mt_branch_fetched(&mut self, pc: u64, predicted_taken: bool);

    /// Checkpoint of consumption state, taken at every MT branch fetch.
    fn checkpoint(&self) -> EngineCkpt;

    /// Misprediction recovery: restore consumption state.
    fn restore(&mut self, ckpt: &EngineCkpt);

    /// A main-thread instruction retired. `mispredicted` applies to
    /// conditional branches. Returns a control command.
    fn on_mt_retire(&mut self, rec: &ExecRecord, mispredicted: bool, cycle: u64) -> EngineCmd;

    /// Classifies a retired main-thread misprediction (Fig. 14) or a
    /// correct queue-supplied prediction (`Eliminated` when the default
    /// predictor would have been wrong).
    fn classify(
        &mut self,
        pc: u64,
        from_queue: bool,
        mispredicted: bool,
        default_wrong: bool,
    ) -> MispredictClass;

    /// Which thread set the engine wants while triggered.
    fn active_threads(&self) -> ActiveThreads;

    /// Supplies the next instruction to fetch for side thread `tid`
    /// (`HT_A`/`HT_B`), or `None` to idle this cycle.
    fn side_fetch(&mut self, tid: usize, cycle: u64) -> Option<SideInst>;

    /// A side instruction finished executing (engine deposits here when it
    /// uses execute-time outcome queues, e.g. Branch Runahead).
    fn side_executed(&mut self, tid: usize, inst: &SideInst, info: &ExecInfo, cycle: u64);

    /// A side branch resolved: the engine steers sequencing.
    fn side_branch_resolved(&mut self, tid: usize, inst: &SideInst, taken: bool) -> SideAction;

    /// A side instruction retired in order (Phelps deposits here).
    fn side_retired(&mut self, tid: usize, inst: &SideInst, info: &ExecInfo, cycle: u64);

    /// Pre-execution was terminated (cleanup).
    fn on_terminated(&mut self);

    /// Whether side threads retire loosely (free resources at execute,
    /// no program-order retire) — used by Branch Runahead chains.
    fn loose_retire(&self) -> bool {
        false
    }

    /// Unused: the pipeline never calls this and no engine overrides it.
    /// It stays declared only because the benchmark's timing wrapper in
    /// `benchmark/src/timed.rs` implements it; the next change to
    /// `benchmark/` deletes both.
    fn take_squash_tags(&mut self) -> Vec<u64> {
        Vec::new()
    }
}

/// Simulation mode.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Plain superscalar, full resources.
    Baseline,
    /// Oracle branch prediction at fetch.
    PerfectBp,
    /// Main thread only, but resources halved (Fig. 13c isolation).
    PartitionOnly,
    /// Phelps pre-execution with feature toggles.
    Phelps(PhelpsFeatures),
}

/// Ablation toggles for Phelps (Fig. 11 / Fig. 12b).
#[derive(Clone, Copy, Debug)]
pub struct PhelpsFeatures {
    /// Include influential stores in helper threads.
    pub include_stores: bool,
    /// Pre-execute delinquent branches that are guarded by other
    /// delinquent branches (b2). When `false`, guarded producers are
    /// dropped (the `Phelps:b1` / `Phelps:b1→s1` ablations).
    pub preexec_guarded_branches: bool,
}

impl PhelpsFeatures {
    /// Full-featured Phelps (`b1→b2→s1`).
    pub fn full() -> PhelpsFeatures {
        PhelpsFeatures {
            include_stores: true,
            preexec_guarded_branches: true,
        }
    }

    /// `Phelps:b1→b2`: guarded branches pre-executed, stores excluded.
    pub fn no_stores() -> PhelpsFeatures {
        PhelpsFeatures {
            include_stores: false,
            preexec_guarded_branches: true,
        }
    }

    /// `Phelps:b1`: only unguarded delinquent branches, no stores.
    pub fn b1_only() -> PhelpsFeatures {
        PhelpsFeatures {
            include_stores: false,
            preexec_guarded_branches: false,
        }
    }

    /// `Phelps:b1→s1`: stores included but guarded branches dropped.
    pub fn b1_with_stores() -> PhelpsFeatures {
        PhelpsFeatures {
            include_stores: true,
            preexec_guarded_branches: false,
        }
    }
}

/// Full run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Core and memory hierarchy.
    pub core: CoreConfig,
    /// Simulation mode.
    pub mode: Mode,
    /// Stop after this many main-thread instructions retire.
    pub max_mt_insts: u64,
    /// Epoch length in retired main-thread instructions (paper: 4M;
    /// experiments scale this down).
    pub epoch_len: u64,
    /// Delinquency threshold in mispredictions per kilo-instruction of the
    /// epoch (paper: 0.5).
    pub delinq_threshold_mpki: f64,
    /// Construction hardware limits.
    pub constructor: ConstructorConfig,
    /// Prediction-queue capacity in iterations (columns; paper: 32).
    pub queue_columns: usize,
    /// Helper-thread speculative store cache sets (2 ways each; paper: 16).
    pub store_cache_sets: usize,
}

impl RunConfig {
    /// A scaled configuration suitable for tests and CI-scale experiments:
    /// 200K-instruction epochs, 2M-instruction regions.
    pub fn scaled(mode: Mode) -> RunConfig {
        RunConfig {
            core: CoreConfig::paper_default(),
            mode,
            max_mt_insts: 2_000_000,
            epoch_len: 200_000,
            delinq_threshold_mpki: 0.5,
            constructor: ConstructorConfig::default(),
            queue_columns: 32,
            store_cache_sets: 16,
        }
    }

    /// The paper's full-scale parameters (4M epochs, 100M regions).
    pub fn paper(mode: Mode) -> RunConfig {
        RunConfig {
            core: CoreConfig::paper_default(),
            mode,
            max_mt_insts: 100_000_000,
            epoch_len: 4_000_000,
            delinq_threshold_mpki: 0.5,
            constructor: ConstructorConfig::default(),
            queue_columns: 32,
            store_cache_sets: 16,
        }
    }

    /// A scaled configuration with caller-chosen region and epoch lengths
    /// — the shared constructor behind unit tests, oracles, and golden
    /// runs, so they can't drift apart one literal at a time.
    pub fn quick(mode: Mode, max_mt_insts: u64, epoch_len: u64) -> RunConfig {
        let mut c = RunConfig::scaled(mode);
        c.max_mt_insts = max_mt_insts;
        c.epoch_len = epoch_len;
        c
    }

    /// The delinquency threshold in absolute mispredictions per epoch.
    pub fn delinq_threshold(&self) -> u64 {
        ((self.delinq_threshold_mpki * self.epoch_len as f64) / 1000.0).max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_matches_paper_scale() {
        let cfg = RunConfig::paper(Mode::Baseline);
        assert_eq!(cfg.delinq_threshold(), 2000, "0.5 MPKI of 4M = 2000");
        let cfg = RunConfig::scaled(Mode::Baseline);
        assert_eq!(cfg.delinq_threshold(), 100);
    }

    #[test]
    fn feature_presets() {
        assert!(PhelpsFeatures::full().include_stores);
        assert!(PhelpsFeatures::full().preexec_guarded_branches);
        assert!(!PhelpsFeatures::no_stores().include_stores);
        assert!(!PhelpsFeatures::b1_only().preexec_guarded_branches);
        assert!(PhelpsFeatures::b1_with_stores().include_stores);
        assert!(!PhelpsFeatures::b1_with_stores().preexec_guarded_branches);
    }

    #[test]
    fn side_kind_from_ht_kind() {
        assert_eq!(SideKind::from(HtKind::Plain), SideKind::Plain);
        assert_eq!(
            SideKind::from(HtKind::PredicateProducer { dest: 3 }),
            SideKind::PredProducer { dest: 3 }
        );
        assert_eq!(SideKind::from(HtKind::LoopBranch), SideKind::LoopBranch);
    }
}

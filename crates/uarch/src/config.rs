//! Core and memory-hierarchy configuration.
//!
//! [`CoreConfig::paper_default`] reproduces Table III of the paper: an
//! 8-wide, 11-stage superscalar with a 632-entry ROB, 64KB-class TAGE-SC-L
//! branch prediction, and a three-level cache hierarchy. [`PartitionPlan`]
//! reproduces Table I: the fractional allocation of frontend width and
//! resources among the main thread (MT), outer-thread (OT), inner-thread
//! (IT), and inner-thread-only (ITO).

use std::fmt;

/// Which hardware thread contexts are active.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ActiveThreads {
    /// Main thread only (no pre-execution) with full resources.
    MainOnly,
    /// Main thread only, but resources partitioned as if a helper thread
    /// were active (the Fig. 13c isolation experiment).
    MainPartitioned,
    /// Main thread + inner-thread-only helper (non-nested loop).
    MainPlusIto,
    /// Main thread + outer-thread + inner-thread (nested loop).
    MainPlusOtIt,
}

/// Per-thread resource shares for one partitioning scenario (Table I).
///
/// Shares are expressed in eighths so the paper's 1/2, 1/8 and 3/8 fractions
/// are exact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PartitionPlan {
    /// Main-thread share, in eighths.
    pub mt_eighths: u32,
    /// Outer-thread share, in eighths (0 when not running).
    pub ot_eighths: u32,
    /// Inner-thread (or inner-thread-only) share, in eighths.
    pub it_eighths: u32,
}

impl PartitionPlan {
    /// Table I, row `MT + ITO`: 1/2 main thread, 1/2 inner-thread-only.
    pub const MT_ITO: PartitionPlan = PartitionPlan {
        mt_eighths: 4,
        ot_eighths: 0,
        it_eighths: 4,
    };

    /// Table I, row `MT + OT + IT`: 1/2 main, 1/8 outer, 3/8 inner.
    pub const MT_OT_IT: PartitionPlan = PartitionPlan {
        mt_eighths: 4,
        ot_eighths: 1,
        it_eighths: 3,
    };

    /// The whole machine for the main thread.
    pub const MT_ONLY: PartitionPlan = PartitionPlan {
        mt_eighths: 8,
        ot_eighths: 0,
        it_eighths: 0,
    };

    /// The plan for a given set of active threads.
    pub fn for_threads(active: ActiveThreads) -> PartitionPlan {
        match active {
            ActiveThreads::MainOnly => PartitionPlan::MT_ONLY,
            ActiveThreads::MainPartitioned => PartitionPlan {
                mt_eighths: 4,
                ot_eighths: 0,
                it_eighths: 0,
            },
            ActiveThreads::MainPlusIto => PartitionPlan::MT_ITO,
            ActiveThreads::MainPlusOtIt => PartitionPlan::MT_OT_IT,
        }
    }

    /// Applies a share (in eighths) to a resource count, rounding down but
    /// never below 1 when the share is non-zero.
    pub fn scale(resource: u32, eighths: u32) -> u32 {
        if eighths == 0 {
            return 0;
        }
        ((resource * eighths) / 8).max(1)
    }

    /// Main-thread allocation of `resource`.
    pub fn mt(&self, resource: u32) -> u32 {
        PartitionPlan::scale(resource, self.mt_eighths)
    }

    /// Outer-thread allocation of `resource`.
    pub fn ot(&self, resource: u32) -> u32 {
        PartitionPlan::scale(resource, self.ot_eighths)
    }

    /// Inner-thread allocation of `resource`.
    pub fn it(&self, resource: u32) -> u32 {
        PartitionPlan::scale(resource, self.it_eighths)
    }
}

/// One cache level's geometry and latency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Cache block size in bytes.
    pub block_bytes: u64,
    /// Access (hit) latency in cycles.
    pub latency: u32,
    /// Number of miss status holding registers.
    pub mshrs: u32,
    /// Requests admitted per cycle at this level's port; `0` means
    /// unlimited bandwidth (the pre-port synchronous model).
    pub ports: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.block_bytes)
    }
}

/// Full core + memory-hierarchy configuration (Table III).
#[derive(Clone, PartialEq, Debug)]
pub struct CoreConfig {
    /// Frontend/retire superscalar width (instructions per cycle).
    pub width: u32,
    /// Fetch-to-retire depth in stages. Determines the misprediction
    /// re-fill penalty.
    pub pipeline_stages: u32,
    /// Reorder buffer entries.
    pub rob: u32,
    /// Physical register file size (free-list-governed rename stall).
    pub prf: u32,
    /// Load queue entries.
    pub lq: u32,
    /// Store queue entries.
    pub sq: u32,
    /// Issue queue (scheduler) entries, shared among threads.
    pub iq: u32,
    /// Simple-ALU lanes (also execute branches).
    pub lanes_alu: u32,
    /// Load/store lanes.
    pub lanes_mem: u32,
    /// Complex-ALU lanes (mul/div).
    pub lanes_complex: u32,
    /// L1 instruction cache fronting the fetch stage. A `size_bytes` of
    /// `0` disables instruction-fetch modeling entirely (ideal
    /// instruction supply, the pre-port behavior).
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L2 unified cache.
    pub l2: CacheConfig,
    /// L3 last-level cache.
    pub l3: CacheConfig,
    /// Main-memory latency in cycles.
    pub dram_latency: u32,
    /// Requests the DRAM queue accepts per cycle; `0` means unlimited.
    pub dram_queue_width: u32,
    /// Enable the IPCP-style L1D prefetcher.
    pub l1d_prefetcher: bool,
    /// Enable the VLDP-style L2 prefetcher.
    pub l2_prefetcher: bool,
}

impl CoreConfig {
    /// The principal configuration of the paper (Table III): 8-wide,
    /// 11-stage, ROB/PRF/LQ/SQ/IQ = 632/696/144/144/128, 32KB L1I (2
    /// cycles), 48KB L1D (3 cycles), 1.25MB L2 (15 cycles), 3MB L3 (40
    /// cycles), 100-cycle DRAM. Port widths model finite bandwidth: two
    /// L1I and two L1D requests per cycle (matching the fetch-group/
    /// `lanes_mem` rate), one request per cycle into each of L2, L3 and
    /// the DRAM queue.
    pub fn paper_default() -> CoreConfig {
        CoreConfig {
            width: 8,
            pipeline_stages: 11,
            rob: 632,
            prf: 696,
            lq: 144,
            sq: 144,
            iq: 128,
            lanes_alu: 4,
            lanes_mem: 2,
            lanes_complex: 2,
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                block_bytes: 64,
                latency: 2,
                mshrs: 8,
                ports: 2,
            },
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                ways: 12,
                block_bytes: 64,
                latency: 3,
                mshrs: 16,
                ports: 2,
            },
            l2: CacheConfig {
                size_bytes: 1280 * 1024,
                ways: 20,
                block_bytes: 64,
                latency: 15,
                mshrs: 32,
                ports: 1,
            },
            l3: CacheConfig {
                size_bytes: 3 * 1024 * 1024,
                ways: 12,
                block_bytes: 64,
                latency: 40,
                mshrs: 64,
                ports: 1,
            },
            dram_latency: 100,
            dram_queue_width: 1,
            l1d_prefetcher: true,
            l2_prefetcher: true,
        }
    }

    /// Effectively-infinite memory bandwidth and instruction supply:
    /// unlimited ports at every level, no DRAM queue limit, and the L1I
    /// disabled (`size_bytes = 0`, i.e. ideal fetch). This reproduces the
    /// pre-port timing model and is used by the golden-compatibility
    /// tests and A/B bandwidth experiments.
    pub fn ideal_memory(mut self) -> CoreConfig {
        self.l1i.size_bytes = 0;
        self.l1i.ports = 0;
        self.l1d.ports = 0;
        self.l2.ports = 0;
        self.l3.ports = 0;
        self.dram_queue_width = 0;
        self
    }

    /// The BR-12w configuration of Fig. 12a: `self` widened by half, so
    /// the main thread keeps the full frontend width and resources while
    /// the pre-execution engine gets a frontend half as wide of its own,
    /// with half again as many execution lanes. On the paper's 8-wide
    /// core that is a 12-wide core with 4 extra lanes.
    pub fn br_12_wide(mut self) -> CoreConfig {
        self.width += self.width / 2;
        self.lanes_alu += self.lanes_alu / 2;
        self.lanes_mem += self.lanes_mem / 2;
        self.lanes_complex += self.lanes_complex / 2;
        self
    }

    /// Scales the window (ROB and, commensurately, PRF/LQ/SQ/IQ) to
    /// `rob` entries, for the Fig. 15a sensitivity study.
    pub fn with_window(mut self, rob: u32) -> CoreConfig {
        let base = self.rob.max(1);
        let ratio = |v: u32| ((v as u64 * rob as u64) / base as u64).max(8) as u32;
        self.prf = ratio(self.prf);
        self.lq = ratio(self.lq);
        self.sq = ratio(self.sq);
        self.iq = ratio(self.iq);
        self.rob = rob;
        self
    }

    /// Sets the fetch-to-retire depth (Fig. 15a varies 11, 15, 19).
    pub fn with_pipeline_stages(mut self, stages: u32) -> CoreConfig {
        self.pipeline_stages = stages;
        self
    }

    /// Frontend stages between fetch and dispatch, derived from the total
    /// depth. With the paper's 11 stages this is 7; it grows one-for-one
    /// with total depth.
    pub fn frontend_stages(&self) -> u32 {
        self.pipeline_stages.saturating_sub(4).max(1)
    }

    /// Cycles of fetch bubble charged when a mispredicted branch resolves
    /// (frontend re-fill).
    pub fn redirect_penalty(&self) -> u32 {
        self.frontend_stages()
    }

    /// Total issue width across lane classes.
    pub fn issue_width(&self) -> u32 {
        self.lanes_alu + self.lanes_mem + self.lanes_complex
    }
}

impl fmt::Display for CoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-wide {}-stage ROB={} PRF={} LQ={} SQ={} IQ={}",
            self.width, self.pipeline_stages, self.rob, self.prf, self.lq, self.sq, self.iq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_iii() {
        let c = CoreConfig::paper_default();
        assert_eq!(c.width, 8);
        assert_eq!(c.pipeline_stages, 11);
        assert_eq!((c.rob, c.prf, c.lq, c.sq, c.iq), (632, 696, 144, 144, 128));
        assert_eq!(c.lanes_alu + c.lanes_mem + c.lanes_complex, 8);
        assert_eq!(c.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.l1i.latency, 2);
        assert_eq!(c.l1d.size_bytes, 48 * 1024);
        assert_eq!(c.l1d.ways, 12);
        assert_eq!(c.l1d.latency, 3);
        assert_eq!(c.l2.latency, 15);
        assert_eq!(c.l3.latency, 40);
        assert_eq!(c.dram_latency, 100);
        // Finite bandwidth is the paper default; L1 ports track the
        // fetch/AGU rate while the shared levels take one per cycle.
        assert_eq!((c.l1i.ports, c.l1d.ports), (2, 2));
        assert_eq!((c.l2.ports, c.l3.ports, c.dram_queue_width), (1, 1, 1));
    }

    #[test]
    fn ideal_memory_removes_every_bandwidth_limit() {
        let c = CoreConfig::paper_default().ideal_memory();
        assert_eq!(c.l1i.size_bytes, 0, "ideal fetch disables the L1I");
        assert_eq!(
            (
                c.l1i.ports,
                c.l1d.ports,
                c.l2.ports,
                c.l3.ports,
                c.dram_queue_width
            ),
            (0, 0, 0, 0, 0)
        );
        // Everything else stays at the paper default.
        assert_eq!(c.l1d.size_bytes, 48 * 1024);
        assert_eq!(c.rob, 632);
    }

    #[test]
    fn cache_sets_geometry() {
        let c = CoreConfig::paper_default();
        assert_eq!(c.l1d.sets(), 48 * 1024 / (12 * 64));
        assert_eq!(c.l2.sets(), 1280 * 1024 / (20 * 64));
    }

    #[test]
    fn table_i_fractions() {
        // MT + ITO: both halves.
        let p = PartitionPlan::for_threads(ActiveThreads::MainPlusIto);
        assert_eq!(p.mt(8), 4);
        assert_eq!(p.it(8), 4);
        assert_eq!(p.ot(8), 0);
        assert_eq!(p.mt(632), 316);
        assert_eq!(p.it(144), 72);

        // MT + OT + IT: 1/2, 1/8, 3/8.
        let p = PartitionPlan::for_threads(ActiveThreads::MainPlusOtIt);
        assert_eq!(p.mt(8), 4);
        assert_eq!(p.ot(8), 1);
        assert_eq!(p.it(8), 3);
        assert_eq!(p.ot(632), 79);
        assert_eq!(p.it(632), 237);
    }

    #[test]
    fn partition_scale_never_zero_for_nonzero_share() {
        assert_eq!(PartitionPlan::scale(4, 1), 1, "rounds down to at least 1");
        assert_eq!(PartitionPlan::scale(100, 0), 0);
    }

    #[test]
    fn window_scaling_is_commensurate() {
        let c = CoreConfig::paper_default().with_window(1024);
        assert_eq!(c.rob, 1024);
        assert!(c.prf > 1024, "PRF scales with ROB: {}", c.prf);
        assert_eq!(c.lq, 144 * 1024 / 632);
        let c = CoreConfig::paper_default().with_window(316);
        assert_eq!(c.rob, 316);
        assert_eq!(c.lq, 144 * 316 / 632);
    }

    #[test]
    fn deeper_pipelines_pay_larger_redirect_penalty() {
        let d11 = CoreConfig::paper_default().redirect_penalty();
        let d15 = CoreConfig::paper_default()
            .with_pipeline_stages(15)
            .redirect_penalty();
        let d19 = CoreConfig::paper_default()
            .with_pipeline_stages(19)
            .redirect_penalty();
        assert!(d11 < d15 && d15 < d19);
    }

    #[test]
    fn br12w_keeps_mt_at_baseline() {
        let c = CoreConfig::paper_default().br_12_wide();
        assert_eq!(c.width, 12);
        assert_eq!((c.lanes_alu, c.lanes_mem, c.lanes_complex), (6, 3, 3));
        assert_eq!(c.rob, 632);
        assert_eq!(c.issue_width(), 12);
    }
}

//! Three-level memory hierarchy behind bandwidth-limited ports.
//!
//! [`MemoryHierarchy`] is one core's view of the memory system: the
//! core-private tier (L1I/L1D [`Cache`]s with their MSHRs, the L1
//! prefetcher, per-core admission [`Port`]s) plus an owned shared tier
//! ([`Uncore`]: L2/L3, their ports, the DRAM queue and the L2
//! prefetcher). Every piece of traffic — instruction fetches, demand
//! loads, retired stores, prefetches — is a [`MemRequest`] handed to
//! [`MemoryHierarchy::request`], which admits it through the ports of
//! each level it touches, performs fills on the way back, trains the
//! prefetchers, and returns the cycle at which the data is available.
//! Requests that miss the private tier are re-stamped with this core's
//! tenant id and handed to the uncore, which attributes shared-level
//! contention per tenant.
//!
//! A solo run keeps the owned uncore in place and is bit-identical to
//! the pre-split hierarchy. A co-run driver instead maintains one
//! external [`Uncore::communal`] and swaps it in around each core's cycle
//! step ([`MemoryHierarchy::swap_uncore`]), so N cores share one
//! L2/L3/DRAM while each keeps its private tier, and each core's
//! shared-level counters read its attributed share.
//!
//! Port admission models finite bandwidth: a level with `ports = N`
//! accepts N requests per cycle and pushes the rest to later cycles, so
//! helper-thread traffic is charged for the L2/L3/DRAM contention it
//! creates. `ports = 0` disables the limit at that level.

use crate::config::CoreConfig;
use crate::mem::{Cache, IpcpPrefetcher, MemRequest, Port, Probe, ReqKind, Uncore};

/// Outcome of a demand access, for statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessLevel {
    /// Hit in the L1 cache the request entered at (L1I or L1D).
    L1,
    /// Hit in the L2.
    L2,
    /// Hit in the L3.
    L3,
    /// Served from DRAM.
    Dram,
}

/// Result of [`MemoryHierarchy::request`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Cycle at which the value is available to dependents.
    pub done_cycle: u64,
    /// Deepest level the access had to travel to.
    pub level: AccessLevel,
}

/// The simulated cache hierarchy (fetch + demand paths, ports,
/// prefetchers).
///
/// # Examples
///
/// ```
/// use phelps_uarch::config::CoreConfig;
/// use phelps_uarch::mem::{AccessLevel, MemRequest, MemoryHierarchy};
///
/// let mut mh = MemoryHierarchy::new(&CoreConfig::paper_default());
/// let first = mh.request(MemRequest::load(0, 0x400, 0x10_000, 0));
/// assert_eq!(first.level, AccessLevel::Dram);
/// let again = mh.request(MemRequest::load(0, 0x400, 0x10_000, first.done_cycle));
/// assert_eq!(again.level, AccessLevel::L1);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    /// `None` when `cfg.l1i.size_bytes == 0`: ideal instruction supply,
    /// every [`ReqKind::IFetch`] completes instantly.
    l1i: Option<Cache>,
    l1d: Cache,
    l1i_port: Port,
    l1d_port: Port,
    ipcp: Option<IpcpPrefetcher>,
    /// L1-targeted prefetch fills issued by this core (after in-cache
    /// filtering). Shared-tier (VLDP) prefetches live in the uncore.
    core_prefetches: u64,
    /// Tenant id stamped onto every request handed to the shared tier.
    tenant: usize,
    /// The shared tier. Solo runs use this owned instance; a co-run
    /// driver swaps a communal one in and out around each cycle step.
    uncore: Uncore,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a core configuration.
    pub fn new(cfg: &CoreConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            l1i: (cfg.l1i.size_bytes > 0).then(|| Cache::new(cfg.l1i)),
            l1d: Cache::new(cfg.l1d),
            l1i_port: Port::new(cfg.l1i.ports),
            l1d_port: Port::new(cfg.l1d.ports),
            ipcp: cfg.l1d_prefetcher.then(|| IpcpPrefetcher::new(256)),
            core_prefetches: 0,
            tenant: 0,
            uncore: Uncore::new(cfg),
        }
    }

    /// Sets the tenant id stamped onto requests entering the shared tier
    /// (solo runs keep the default 0).
    pub fn set_tenant(&mut self, tenant: usize) {
        self.tenant = tenant;
    }

    /// The tenant id this core stamps onto shared-tier requests.
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// Exchanges the shared tier with `uncore`. A co-run driver keeps
    /// one communal [`Uncore`] and swaps it in before each core's cycle
    /// step and back out after, so every core's misses land in the same
    /// L2/L3/DRAM while the cores themselves stay independently owned.
    pub fn swap_uncore(&mut self, uncore: &mut Uncore) {
        std::mem::swap(&mut self.uncore, uncore);
    }

    /// The currently-installed shared tier.
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// L1I instruction-fetch statistics: (accesses, misses). Both zero
    /// when the L1I is disabled.
    pub fn l1i_stats(&self) -> (u64, u64) {
        self.l1i.as_ref().map_or((0, 0), |c| (c.accesses, c.misses))
    }

    /// L1D demand-load statistics: (accesses, misses, prefetch hits).
    pub fn l1d_stats(&self) -> (u64, u64, u64) {
        (self.l1d.accesses, self.l1d.misses, self.l1d.prefetch_hits)
    }

    /// L1D retired-store statistics: (accesses, misses). Kept separate from
    /// [`MemoryHierarchy::l1d_stats`] so store refill traffic does not
    /// inflate the demand counters that feed load-MPKI.
    pub fn l1d_store_stats(&self) -> (u64, u64) {
        (self.l1d.store_accesses, self.l1d.store_misses)
    }

    /// L2 demand misses charged to this core by the installed uncore
    /// (see [`Uncore::charged`]).
    pub fn l2_misses(&self) -> u64 {
        self.uncore.charged(self.tenant).l2_misses
    }

    /// L3 demand misses charged to this core by the installed uncore.
    pub fn l3_misses(&self) -> u64 {
        self.uncore.charged(self.tenant).l3_misses
    }

    /// Prefetches issued on this core's behalf: L1-targeted fills plus
    /// the shared prefetcher's fills attributed to this tenant. In a solo
    /// run this equals the pre-split hierarchy's single counter.
    pub fn prefetches_issued(&self) -> u64 {
        self.core_prefetches + self.uncore.charged(self.tenant).prefetches_issued
    }

    /// Per-level port admission-stall cycles:
    /// `(l1i, l1d, l2, l3, dram queue)`. Each value is the total delay the
    /// level's port imposed on requests over the run; the shared-tier
    /// values are those the installed uncore charges to this core.
    pub fn port_stalls(&self) -> (u64, u64, u64, u64, u64) {
        let shared = self.uncore.charged(self.tenant);
        (
            self.l1i_port.stall_cycles(),
            self.l1d_port.stall_cycles(),
            shared.l2_port_stalls,
            shared.l3_port_stalls,
            shared.dram_queue_stalls,
        )
    }

    /// Routes one request into the hierarchy: admits it through the ports
    /// of every level it touches, fills caches on the way back, trains
    /// the prefetchers, and returns when (and from where) it completes.
    ///
    /// Loads and retired stores enter at the L1D, instruction fetches at
    /// the L1I, and all three take the same L1 path. A store counts into
    /// the dedicated store counters
    /// ([`MemoryHierarchy::l1d_store_stats`]), so retired stores do not
    /// inflate load-MPKI; its completion cycle is write-buffer drain
    /// time, which retire never blocks on. With the L1I disabled
    /// (`size_bytes = 0`) an instruction fetch is ideal: it completes
    /// instantly at level L1 and touches no port.
    pub fn request(&mut self, req: MemRequest) -> AccessResult {
        let (cache, port) = match req.kind {
            ReqKind::Prefetch => return self.prefetch_request(req),
            ReqKind::Load | ReqKind::Store => (&mut self.l1d, &mut self.l1d_port),
            ReqKind::IFetch => match self.l1i.as_mut() {
                Some(l1i) => (l1i, &mut self.l1i_port),
                None => {
                    return AccessResult {
                        done_cycle: req.cycle,
                        level: AccessLevel::L1,
                    }
                }
            },
        };
        let (cycle, result) = l1_access(cache, port, &mut self.uncore, self.tenant, req);
        // Train the L1 prefetcher on every demand load (merged or not).
        if let (ReqKind::Load, Some(ipcp)) = (req.kind, &mut self.ipcp) {
            for r in ipcp.train(req.pc, req.addr) {
                self.prefetch_fill_l1d(r.addr, cycle);
            }
        }
        result
    }

    /// An externally-issued prefetch targeting the L1D: fills from
    /// wherever the block lives, charged port bandwidth but no demand
    /// counters. The internal L1 prefetcher uses the same path.
    fn prefetch_request(&mut self, req: MemRequest) -> AccessResult {
        let filled = self.prefetch_fill_l1d(req.addr, req.cycle);
        AccessResult {
            done_cycle: req.cycle + self.l1d.latency() as u64,
            level: if filled {
                AccessLevel::L2
            } else {
                AccessLevel::L1
            },
        }
    }

    /// Fills `addr` into the L1D (and L2 if missing) as prefetch data,
    /// charging L1D/L2 port bandwidth. Skipped (returning `false`) when
    /// the block is already L1-resident.
    fn prefetch_fill_l1d(&mut self, addr: u64, cycle: u64) -> bool {
        if self.l1d.contains(addr) {
            return false;
        }
        self.core_prefetches += 1;
        let at = self.l1d_port.admit(cycle);
        if !self.uncore.l2_contains(addr, self.tenant) {
            self.uncore.prefetch_fill_l2(addr, at, self.tenant);
        }
        self.l1d.fill(addr, true);
        true
    }

    /// Functional warming: replays one memory reference through the tag
    /// arrays only. Mirrors the demand fill path (miss at a level fills
    /// that level and everything above) but charges no latency or port
    /// bandwidth, trains no prefetcher, allocates no MSHR, and perturbs no
    /// statistics — the point is that a checkpoint-restored region starts
    /// with plausibly warm caches while its counters still read zero.
    pub fn warm_access(&mut self, addr: u64) {
        if self.l1d.warm_touch(addr) {
            return;
        }
        self.uncore.warm(addr, self.tenant);
        self.l1d.warm_insert(addr);
    }

    /// Functional warming of the instruction-fetch path: like
    /// [`MemoryHierarchy::warm_access`] but entering at the L1I. A no-op
    /// when the L1I is disabled.
    pub fn warm_ifetch(&mut self, pc: u64) {
        let Some(l1i) = self.l1i.as_mut() else {
            return;
        };
        if l1i.warm_touch(pc) {
            return;
        }
        self.uncore.warm(pc, self.tenant);
        if let Some(l1i) = self.l1i.as_mut() {
            l1i.warm_insert(pc);
        }
    }
}

/// One load, store or instruction fetch entering at an L1 (`cache` behind
/// `port`): port admission, then a merge onto an in-flight miss to the
/// block, else a probe, and on a miss the shared tier (re-stamped with
/// `tenant` and the admitted cycle), an MSHR and the fill. A store counts
/// into the cache's store counters. Returns the admitted cycle and the
/// result.
///
/// A merge is checked before the probe because fills are applied to the
/// tag array eagerly: the merged access must see the true fill latency
/// and report the level the in-flight fill is headed to. MSHR exhaustion
/// adds a fixed 4-cycle retry penalty rather than blocking the caller,
/// keeping the interface non-blocking while still bounding MLP.
fn l1_access(
    cache: &mut Cache,
    port: &mut Port,
    uncore: &mut Uncore,
    tenant: usize,
    req: MemRequest,
) -> (u64, AccessResult) {
    let store = req.kind == ReqKind::Store;
    let cycle = port.admit(req.cycle);
    let hit_done = cycle + cache.latency() as u64;
    if let Some((fill, level)) = cache.mshr_pending(req.addr, cycle) {
        if store {
            cache.store_accesses += 1;
        } else {
            cache.accesses += 1;
        }
        #[cfg(feature = "debug-invariants")]
        assert_ne!(
            level,
            AccessLevel::L1,
            "MSHR invariant: an in-flight miss cannot be L1-bound"
        );
        let done_cycle = fill.max(hit_done);
        return (cycle, AccessResult { done_cycle, level });
    }
    let probe = if store {
        cache.probe_store(req.addr)
    } else {
        cache.probe(req.addr)
    };
    if let Probe::Hit { .. } = probe {
        let hit = AccessResult {
            done_cycle: hit_done,
            level: AccessLevel::L1,
        };
        return (cycle, hit);
    }
    let (mut done_cycle, level) = uncore.access(MemRequest { cycle, ..req }.with_tenant(tenant));
    if !cache.mshr_allocate(req.addr, cycle, done_cycle, level) {
        done_cycle += 4;
    }
    cache.fill(req.addr, false);
    (cycle, AccessResult { done_cycle, level })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mh() -> MemoryHierarchy {
        MemoryHierarchy::new(&CoreConfig::paper_default())
    }

    /// Paper config with unlimited ports and no prefetchers, so latency
    /// tests see the raw ladder.
    fn quiet_cfg() -> CoreConfig {
        CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default().ideal_memory()
        }
    }

    fn load(m: &mut MemoryHierarchy, pc: u64, addr: u64, cycle: u64) -> AccessResult {
        m.request(MemRequest::load(0, pc, addr, cycle))
    }

    #[test]
    fn latency_ladder() {
        let cfg = CoreConfig::paper_default();
        let mut m = mh();
        // Cold: DRAM.
        let r = load(&mut m, 0x0, 0x80_0000, 0);
        assert_eq!(r.level, AccessLevel::Dram);
        assert_eq!(
            r.done_cycle,
            (cfg.l3.latency + cfg.dram_latency) as u64,
            "L3 lookup + DRAM"
        );
        // Warm: L1.
        let r = load(&mut m, 0x0, 0x80_0000, 1000);
        assert_eq!(r.level, AccessLevel::L1);
        assert_eq!(r.done_cycle, 1000 + cfg.l1d.latency as u64);
    }

    #[test]
    fn ifetch_latency_ladder() {
        let cfg = CoreConfig::paper_default();
        let mut m = mh();
        let r = m.request(MemRequest::ifetch(0, 0x40_0000, 0));
        assert_eq!(r.level, AccessLevel::Dram, "cold code block");
        assert_eq!(r.done_cycle, (cfg.l3.latency + cfg.dram_latency) as u64);
        let r = m.request(MemRequest::ifetch(0, 0x40_0000, 1000));
        assert_eq!(r.level, AccessLevel::L1);
        assert_eq!(r.done_cycle, 1000 + cfg.l1i.latency as u64);
        assert_eq!(m.l1i_stats(), (2, 1));
        // Instruction and data L1s are disjoint: the same block misses L1D
        // but is caught by the shared L2.
        let r = load(&mut m, 0x0, 0x40_0000, 2000);
        assert_eq!(r.level, AccessLevel::L2);
    }

    #[test]
    fn disabled_l1i_is_ideal() {
        let mut m = MemoryHierarchy::new(&CoreConfig::paper_default().ideal_memory());
        let r = m.request(MemRequest::ifetch(0, 0x40_0000, 7));
        assert_eq!(r.level, AccessLevel::L1);
        assert_eq!(r.done_cycle, 7, "no latency, no stall");
        assert_eq!(m.l1i_stats(), (0, 0));
        assert_eq!((m.l2_misses(), m.l3_misses()), (0, 0), "no L2 traffic");
    }

    #[test]
    fn ifetch_merges_onto_inflight_code_miss() {
        let mut m = MemoryHierarchy::new(&CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        });
        let first = m.request(MemRequest::ifetch(0, 0x40_0000, 0));
        let merged = m.request(MemRequest::ifetch(0, 0x40_0008, 1));
        assert_eq!(merged.done_cycle, first.done_cycle);
        assert_eq!(merged.level, AccessLevel::Dram);
    }

    #[test]
    fn l1d_port_serializes_same_cycle_loads() {
        let mut cfg = CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default().ideal_memory()
        };
        cfg.l1d.ports = 1;
        let mut m = MemoryHierarchy::new(&cfg);
        // Warm two distinct blocks.
        let _ = load(&mut m, 0x0, 0x0, 0);
        let _ = load(&mut m, 0x0, 0x40, 0);
        // Both hit L1, but the second is admitted a cycle later.
        let a = load(&mut m, 0x0, 0x0, 1000);
        let b = load(&mut m, 0x0, 0x40, 1000);
        assert_eq!(a.done_cycle, 1000 + cfg.l1d.latency as u64);
        assert_eq!(b.done_cycle, 1001 + cfg.l1d.latency as u64);
        let (_, l1d_stalls, _, _, _) = m.port_stalls();
        assert!(l1d_stalls > 0, "admission delay is accounted");
    }

    #[test]
    fn dram_queue_serializes_concurrent_misses() {
        let mut cfg = CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default().ideal_memory()
        };
        cfg.dram_queue_width = 1;
        let mut m = MemoryHierarchy::new(&cfg);
        // Two cold misses to different blocks in the same cycle: both go
        // to DRAM, but the queue admits one per cycle.
        let a = load(&mut m, 0x0, 0x100_0000, 0);
        let b = load(&mut m, 0x0, 0x200_0000, 0);
        assert_eq!(a.level, AccessLevel::Dram);
        assert_eq!(b.level, AccessLevel::Dram);
        assert_eq!(b.done_cycle, a.done_cycle + 1);
        let (_, _, _, _, dram_stalls) = m.port_stalls();
        assert_eq!(dram_stalls, 1);
    }

    #[test]
    fn unlimited_ports_impose_no_stalls() {
        let mut m = MemoryHierarchy::new(&quiet_cfg());
        for i in 0..16u64 {
            let _ = load(&mut m, 0x0, i * 0x1_0000, 0);
        }
        assert_eq!(m.port_stalls(), (0, 0, 0, 0, 0));
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut m = MemoryHierarchy::new(&CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        });
        // Fill a block, then blow the L1 with conflicting blocks.
        let _ = load(&mut m, 0x0, 0x0, 0);
        let cfg = CoreConfig::paper_default();
        let sets = cfg.l1d.sets();
        for w in 1..=cfg.l1d.ways as u64 + 2 {
            let _ = load(&mut m, 0x0, w * sets * 64, 0);
        }
        let r = load(&mut m, 0x0, 0x0, 10_000);
        assert_eq!(r.level, AccessLevel::L2, "victim caught by L2");
    }

    #[test]
    fn stride_stream_gets_prefetched() {
        let mut m = mh();
        let mut dram_late = 0;
        for i in 0..64u64 {
            let r = load(&mut m, 0x40, 0x100_0000 + i * 64, i * 200);
            if i >= 16 && r.level == AccessLevel::Dram {
                dram_late += 1;
            }
        }
        assert!(
            dram_late < 8,
            "stride prefetcher hides most DRAM accesses late in the stream: {dram_late}"
        );
        assert!(m.prefetches_issued() > 0);
    }

    #[test]
    fn prefetch_request_fills_l1d_without_demand_counters() {
        let mut m = MemoryHierarchy::new(&quiet_cfg());
        let r = m.request(MemRequest::prefetch(0, 0, 0x55_0000, 0));
        assert_eq!(r.level, AccessLevel::L2, "cold prefetch did a fill");
        assert_eq!(m.prefetches_issued(), 1);
        let (acc, miss, _) = m.l1d_stats();
        assert_eq!((acc, miss), (0, 0), "no demand traffic from prefetches");
        let hit = load(&mut m, 0x0, 0x55_0000, 100);
        assert_eq!(hit.level, AccessLevel::L1);
        assert_eq!(m.l1d_stats().2, 1, "first demand touch of prefetched data");
        // A redundant prefetch to resident data is filtered.
        let r = m.request(MemRequest::prefetch(0, 0, 0x55_0000, 200));
        assert_eq!(r.level, AccessLevel::L1);
        assert_eq!(m.prefetches_issued(), 1);
    }

    #[test]
    fn store_fill_serves_later_loads() {
        let mut m = mh();
        let st = m.request(MemRequest::store(0, 0x0, 0x55_0000, 0));
        assert_eq!(st.level, AccessLevel::Dram, "cold store miss");
        // A load while the store's fill is still in flight merges onto it
        // (stores share the MSHR path), observing the true fill latency.
        let merged = load(&mut m, 0x0, 0x55_0000, 100);
        assert_eq!(merged.level, AccessLevel::Dram);
        assert_eq!(merged.done_cycle, st.done_cycle);
        // After the fill lands, loads hit L1.
        let r = load(&mut m, 0x0, 0x55_0000, st.done_cycle + 1);
        assert_eq!(r.level, AccessLevel::L1, "store brought the block in");
    }

    #[test]
    fn store_merges_onto_inflight_load_miss() {
        let mut m = MemoryHierarchy::new(&CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        });
        let ld = load(&mut m, 0x0, 0x77_0000, 0);
        let st = m.request(MemRequest::store(0, 0x0, 0x77_0008, 1));
        assert_eq!(st.done_cycle, ld.done_cycle, "store merged onto the miss");
        assert_eq!(m.l1d_store_stats(), (1, 0), "merge is not a store miss");
    }

    #[test]
    fn mshr_merge_returns_inflight_fill_time() {
        let mut m = MemoryHierarchy::new(&CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        });
        let first = load(&mut m, 0x0, 0x77_0000, 0);
        // Second access to the same block before the fill completes merges.
        let second = load(&mut m, 0x0, 0x77_0040 - 0x40, 1);
        assert_eq!(second.done_cycle, first.done_cycle);
    }

    #[test]
    fn mshr_merge_on_dram_bound_miss_reports_dram() {
        // Regression: the merge path used to hardcode `AccessLevel::L2`
        // for every merged miss; it must report the level the in-flight
        // fill is actually headed to.
        let mut m = MemoryHierarchy::new(&CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        });
        let first = load(&mut m, 0x0, 0x99_0000, 0);
        assert_eq!(first.level, AccessLevel::Dram, "cold miss goes to DRAM");
        let merged = load(&mut m, 0x0, 0x99_0008, 1);
        assert_eq!(merged.done_cycle, first.done_cycle);
        assert_eq!(merged.level, AccessLevel::Dram, "merge reports true level");
    }

    #[test]
    fn mshr_merge_on_l2_bound_miss_reports_l2() {
        let cfg = CoreConfig {
            l1d_prefetcher: false,
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        };
        let mut m = MemoryHierarchy::new(&cfg);
        // Warm the L2, then evict the block from the L1 with conflicting
        // accesses so a fresh L1 miss is L2-bound.
        let warm = load(&mut m, 0x0, 0x0, 0);
        let sets = cfg.l1d.sets();
        let t0 = warm.done_cycle + 1000;
        for w in 1..=cfg.l1d.ways as u64 + 2 {
            let r = load(&mut m, 0x0, w * sets * 64, t0);
            assert!(r.done_cycle > t0);
        }
        let miss = load(&mut m, 0x0, 0x0, t0 + 10_000);
        assert_eq!(miss.level, AccessLevel::L2, "victim caught by L2");
        let merged = load(&mut m, 0x0, 0x8, t0 + 10_001);
        assert_eq!(merged.level, AccessLevel::L2);
        assert_eq!(merged.done_cycle, miss.done_cycle);
    }

    #[test]
    fn mshr_merge_trains_l1_prefetcher() {
        // Regression: the merge early-return used to skip IPCP training,
        // so a load PC whose accesses always merge onto another PC's
        // in-flight misses never built stride confidence. Here pc 0x84
        // walks a perfect +64 stride but every access is a merge (pc 0x80
        // touched the block one cycle earlier); pc 0x80 itself alternates
        // between two far-apart streams so it never gains confidence. Only
        // merge-path training can produce prefetches in this pattern.
        let mut m = MemoryHierarchy::new(&CoreConfig {
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        });
        let base = 0x300_0000u64;
        let far = base + 100 * 64;
        let mut merges = 0u64;
        let mut t = 0u64;
        for i in 0..32u64 {
            let a = load(&mut m, 0x80, base + i * 64, t);
            let b = load(&mut m, 0x84, base + i * 64 + 8, t + 1);
            if a.level != AccessLevel::L1 && b.done_cycle == a.done_cycle {
                merges += 1;
            }
            // Scramble pc 0x80's stride (+6400, -6336, ...).
            let _ = load(&mut m, 0x80, far + i * 64, t + 2);
            t += 24;
        }
        assert!(merges >= 3, "stream produced MSHR merges: {merges}");
        assert!(
            m.prefetches_issued() > 0,
            "IPCP trained on merged accesses issues prefetches"
        );
    }

    #[test]
    fn warm_access_fills_all_levels_without_stats() {
        let mut m = mh();
        m.warm_access(0x44_0000);
        let (acc, miss, pf) = m.l1d_stats();
        assert_eq!((acc, miss, pf), (0, 0, 0));
        assert_eq!((m.l2_misses(), m.l3_misses()), (0, 0));
        assert_eq!(m.prefetches_issued(), 0, "warming trains no prefetcher");
        assert_eq!(m.port_stalls(), (0, 0, 0, 0, 0), "warming charges no port");
        // The block is genuinely resident: the first demand access hits L1.
        let r = load(&mut m, 0x0, 0x44_0000, 100);
        assert_eq!(r.level, AccessLevel::L1);
    }

    #[test]
    fn warm_access_is_idempotent_on_resident_blocks() {
        let mut m = mh();
        m.warm_access(0x44_0000);
        m.warm_access(0x44_0008); // same block, L1 warm hit
        let r = load(&mut m, 0x0, 0x44_0000, 0);
        assert_eq!(r.level, AccessLevel::L1);
        let (acc, miss, _) = m.l1d_stats();
        assert_eq!((acc, miss), (1, 0));
    }

    #[test]
    fn warm_ifetch_fills_the_instruction_path() {
        let mut m = mh();
        m.warm_ifetch(0x40_0000);
        assert_eq!(m.l1i_stats(), (0, 0), "warming perturbs no stats");
        let r = m.request(MemRequest::ifetch(0, 0x40_0000, 100));
        assert_eq!(r.level, AccessLevel::L1, "warmed code block hits");
        // Warming with the L1I disabled is a no-op.
        let mut ideal = MemoryHierarchy::new(&CoreConfig::paper_default().ideal_memory());
        ideal.warm_ifetch(0x40_0000);
        assert_eq!(ideal.l1i_stats(), (0, 0));
    }

    #[test]
    fn store_retired_counts_separately_from_demand() {
        // Regression: the store path used to call the demand `probe`,
        // inflating the accesses/misses counters that feed load-MPKI.
        let mut m = mh();
        let first = m.request(MemRequest::store(0, 0x0, 0x66_0000, 0));
        // Second store after the fill lands hits L1.
        let _ = m.request(MemRequest::store(0, 0x0, 0x66_0000, first.done_cycle + 1));
        let (acc, miss, _) = m.l1d_stats();
        assert_eq!((acc, miss), (0, 0), "no demand traffic from stores");
        assert_eq!(m.l1d_store_stats(), (2, 1));
        // Demand loads still count into the demand counters.
        let _ = load(&mut m, 0x0, 0x66_0000, first.done_cycle + 2);
        let (acc, miss, _) = m.l1d_stats();
        assert_eq!((acc, miss), (1, 0), "store fill serves the load");
        assert_eq!(m.l1d_store_stats(), (2, 1), "unchanged by loads");
    }
}

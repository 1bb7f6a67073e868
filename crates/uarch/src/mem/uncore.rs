//! The shared uncore: L2/L3 caches, their admission ports, and the DRAM
//! queue, factored out of [`crate::mem::MemoryHierarchy`] so N core-private
//! tiers can share one instance.
//!
//! Every request arriving here is tenant-tagged (see
//! [`MemRequest::tenant`]); the uncore attributes the misses and the
//! port/queue admission delay it charges to the issuing tenant in
//! [`UncoreStats`], while the underlying [`Cache`] and [`Port`] counters
//! keep the machine-wide totals the solo path has always reported.
//! [`Uncore::charged`] reports one or the other: a core's own uncore
//! charges it the machine totals (a solo run is tenant 0 throughout, so
//! its numbers are bit-identical to the pre-split hierarchy), and a
//! [`Uncore::communal`] one charges each tenant its attributed share.
//!
//! Cross-core arbitration is deterministic: the co-run driver steps the
//! cores in fixed tenant-id order within each simulated cycle, and
//! [`Port::admit`] hands out same-cycle slots in arrival order — so on a
//! same-cycle conflict the lower tenant id always wins the slot.

use crate::config::CoreConfig;
use crate::mem::{AccessLevel, Cache, MemRequest, Port, Probe, VldpPrefetcher};

/// Per-tenant attribution of the shared-level traffic and contention.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UncoreStats {
    /// L2 demand misses issued by this tenant.
    pub l2_misses: u64,
    /// L3 demand misses (each one a DRAM access) issued by this tenant.
    pub l3_misses: u64,
    /// Cycles of L2-port admission delay imposed on this tenant.
    pub l2_port_stalls: u64,
    /// Cycles of L3-port admission delay imposed on this tenant.
    pub l3_port_stalls: u64,
    /// Cycles of DRAM-queue admission delay imposed on this tenant.
    pub dram_queue_stalls: u64,
    /// L2 prefetch fills issued by the shared VLDP prefetcher while
    /// training on this tenant's demand stream.
    pub prefetches_issued: u64,
}

/// The shared memory-system tier: L2/L3 + ports + DRAM queue + the L2
/// delta prefetcher, with per-tenant contention attribution.
#[derive(Clone, Debug)]
pub struct Uncore {
    l2: Cache,
    l3: Cache,
    l2_port: Port,
    l3_port: Port,
    dram_queue: Port,
    dram_latency: u32,
    vldp: Option<VldpPrefetcher>,
    /// Per-tenant attribution, grown on demand as tenants appear.
    tenants: Vec<UncoreStats>,
    /// Whether several cores share this instance (see [`Uncore::charged`]).
    communal: bool,
}

impl Uncore {
    /// Builds the shared tier from a core configuration (the uncore
    /// portion of [`CoreConfig`]: L2, L3, DRAM latency and queue width,
    /// L2 prefetcher toggle).
    pub fn new(cfg: &CoreConfig) -> Uncore {
        Uncore {
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            l2_port: Port::new(cfg.l2.ports),
            l3_port: Port::new(cfg.l3.ports),
            dram_queue: Port::new(cfg.dram_queue_width),
            dram_latency: cfg.dram_latency,
            vldp: cfg
                .l2_prefetcher
                .then(|| VldpPrefetcher::new(cfg.l2.block_bytes)),
            tenants: Vec::new(),
            communal: false,
        }
    }

    /// Builds the shared tier a co-run driver swaps into each core: the
    /// same machine as [`Uncore::new`], but [`Uncore::charged`] reports
    /// each tenant's attributed share instead of the machine totals.
    pub fn communal(cfg: &CoreConfig) -> Uncore {
        Uncore {
            communal: true,
            ..Uncore::new(cfg)
        }
    }

    fn stat_mut(&mut self, tenant: usize) -> &mut UncoreStats {
        if tenant >= self.tenants.len() {
            self.tenants.resize(tenant + 1, UncoreStats::default());
        }
        &mut self.tenants[tenant]
    }

    /// This tenant's attribution so far (zeros when it never issued).
    pub fn tenant_stats(&self, tenant: usize) -> UncoreStats {
        self.tenants.get(tenant).copied().unwrap_or_default()
    }

    /// Number of tenants that have issued at least one request.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The shared-level counters charged to `tenant`: its attributed
    /// share of a [`Uncore::communal`] tier, or the machine totals of a
    /// core's own tier (which also count the L3 probes of the L2
    /// prefetcher's fills). Prefetches are the tenant's share either way.
    pub fn charged(&self, tenant: usize) -> UncoreStats {
        let own = self.tenant_stats(tenant);
        if self.communal {
            return own;
        }
        UncoreStats {
            l2_misses: self.l2.misses,
            l3_misses: self.l3.misses,
            l2_port_stalls: self.l2_port.stall_cycles(),
            l3_port_stalls: self.l3_port.stall_cycles(),
            dram_queue_stalls: self.dram_queue.stall_cycles(),
            prefetches_issued: own.prefetches_issued,
        }
    }

    fn admit_l2(&mut self, cycle: u64, tenant: usize) -> u64 {
        let at = self.l2_port.admit(cycle);
        if at > cycle {
            self.stat_mut(tenant).l2_port_stalls += at - cycle;
        }
        at
    }

    fn admit_l3(&mut self, cycle: u64, tenant: usize) -> u64 {
        let at = self.l3_port.admit(cycle);
        if at > cycle {
            self.stat_mut(tenant).l3_port_stalls += at - cycle;
        }
        at
    }

    fn admit_dram(&mut self, cycle: u64, tenant: usize) -> u64 {
        let at = self.dram_queue.admit(cycle);
        if at > cycle {
            self.stat_mut(tenant).dram_queue_stalls += at - cycle;
        }
        at
    }

    /// Namespaces a tenant's guest address before it touches a shared tag
    /// array: co-running programs are distinct address spaces, so equal
    /// guest addresses must not alias to one shared block (that would
    /// make a neighbor a constructive prefetcher). Tenant 0 maps to
    /// itself, keeping the solo path bit-identical to the pre-split
    /// hierarchy.
    fn color(addr: u64, tenant: usize) -> u64 {
        addr ^ ((tenant as u64) << 48)
    }

    /// One tenant-tagged demand access that missed a core-private L1:
    /// admits through the L2 port, walks the L2 → L3 → DRAM ladder
    /// (filling on the way back), trains the shared L2 prefetcher, and
    /// returns when and from where the data arrives. `req.cycle` is the
    /// post-L1-port cycle the request leaves the private tier.
    pub fn access(&mut self, req: MemRequest) -> (u64, AccessLevel) {
        let tenant = req.tenant;
        let addr = Self::color(req.addr, tenant);
        let cycle = self.admit_l2(req.cycle, tenant);
        let l2_lat = self.l2.latency() as u64;
        let result = match self.l2.probe(addr, cycle) {
            Probe::Hit { .. } => (cycle + l2_lat, AccessLevel::L2),
            Probe::Miss => {
                self.stat_mut(tenant).l2_misses += 1;
                let at3 = self.admit_l3(cycle, tenant);
                let (done, level) = match self.l3.probe(addr, at3) {
                    Probe::Hit { .. } => (at3 + self.l3.latency() as u64, AccessLevel::L3),
                    Probe::Miss => {
                        self.stat_mut(tenant).l3_misses += 1;
                        let atq = self.admit_dram(at3, tenant);
                        let done = atq + self.l3.latency() as u64 + self.dram_latency as u64;
                        self.l3.fill(addr, false, done);
                        (done, AccessLevel::Dram)
                    }
                };
                self.l2.fill(addr, false, done);
                (done, level)
            }
        };
        // Train the L2 delta prefetcher on demand traffic reaching L2; its
        // fills are charged L2/L3 port bandwidth like any other traffic.
        let reqs = match &mut self.vldp {
            Some(vldp) => vldp.train(addr),
            None => Vec::new(),
        };
        for r in reqs {
            if !self.l2.contains(r.addr) {
                self.stat_mut(tenant).prefetches_issued += 1;
                let at2 = self.admit_l2(cycle, tenant);
                if matches!(self.l3.probe(r.addr, at2), Probe::Miss) {
                    let at3 = self.admit_l3(at2, tenant);
                    self.l3.fill(r.addr, true, at3);
                }
                self.l2.fill(r.addr, true, at2);
            }
        }
        result
    }

    /// Whether `tenant`'s block at `addr` is L2-resident (prefetch
    /// filtering; no counters, no recency update).
    pub fn l2_contains(&self, addr: u64, tenant: usize) -> bool {
        self.l2.contains(Self::color(addr, tenant))
    }

    /// Backing fill for an L1-targeted prefetch whose block is not yet
    /// L2-resident: admits through the L2 port at `cycle` and fills the
    /// L2 as prefetch data. The caller owns the prefetch-issue counting.
    pub fn prefetch_fill_l2(&mut self, addr: u64, cycle: u64, tenant: usize) {
        let addr = Self::color(addr, tenant);
        let at2 = self.admit_l2(cycle, tenant);
        self.l2.fill(addr, true, at2);
    }

    /// Functional warming of the shared tier: the L2/L3 warm ladder
    /// under either L1 (no statistics, no ports, no prefetcher training).
    pub fn warm(&mut self, addr: u64, tenant: usize) {
        let addr = Self::color(addr, tenant);
        if !self.l2.warm_touch(addr) {
            if !self.l3.warm_touch(addr) {
                self.l3.warm_insert(addr);
            }
            self.l2.warm_insert(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uncore() -> Uncore {
        Uncore::new(&CoreConfig {
            l2_prefetcher: false,
            ..CoreConfig::paper_default()
        })
    }

    fn req(addr: u64, cycle: u64, tenant: usize) -> MemRequest {
        MemRequest::load(0, 0x40, addr, cycle).with_tenant(tenant)
    }

    #[test]
    fn per_tenant_attribution_sums_to_machine_totals() {
        let mut u = uncore();
        // Two tenants, disjoint cold blocks: every miss goes to DRAM.
        for i in 0..8u64 {
            let _ = u.access(req(0x100_0000 + i * 0x1_0000, i * 400, 0));
            let _ = u.access(req(0x900_0000 + i * 0x1_0000, i * 400, 1));
        }
        let t0 = u.tenant_stats(0);
        let t1 = u.tenant_stats(1);
        // A core's own uncore charges it the machine totals.
        let m = u.charged(0);
        assert_eq!(t0.l2_misses + t1.l2_misses, m.l2_misses);
        assert_eq!(t0.l3_misses + t1.l3_misses, m.l3_misses);
        assert_eq!(t0.l2_port_stalls + t1.l2_port_stalls, m.l2_port_stalls);
        assert_eq!(t0.l3_port_stalls + t1.l3_port_stalls, m.l3_port_stalls);
        assert_eq!(
            t0.dram_queue_stalls + t1.dram_queue_stalls,
            m.dram_queue_stalls
        );
    }

    #[test]
    fn same_cycle_conflict_resolves_to_lower_tenant_first() {
        // Width-1 DRAM queue, two cold misses in the same cycle: the
        // tenant admitted first (the driver steps tenant 0 first) gets
        // the slot, the other queues one cycle behind.
        let mut cfg = CoreConfig {
            l2_prefetcher: false,
            ..CoreConfig::paper_default().ideal_memory()
        };
        cfg.dram_queue_width = 1;
        let mut u = Uncore::new(&cfg);
        let (a_done, a_level) = u.access(req(0x100_0000, 0, 0));
        let (b_done, b_level) = u.access(req(0x200_0000, 0, 1));
        assert_eq!(a_level, AccessLevel::Dram);
        assert_eq!(b_level, AccessLevel::Dram);
        assert_eq!(b_done, a_done + 1, "tenant 1 queues behind tenant 0");
        assert_eq!(u.tenant_stats(0).dram_queue_stalls, 0);
        assert_eq!(u.tenant_stats(1).dram_queue_stalls, 1);
    }

    #[test]
    fn unused_tenant_reads_zero_stats() {
        let u = uncore();
        assert_eq!(u.tenant_stats(5), UncoreStats::default());
        assert_eq!(u.tenant_count(), 0);
    }
}

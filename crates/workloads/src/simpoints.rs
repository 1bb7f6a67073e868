//! SimPoint-style representative-region selection (paper §VI).
//!
//! The paper evaluates up to five 100M-instruction SimPoints per benchmark
//! and aggregates with a weighted harmonic mean of IPCs. This module
//! implements the same methodology at reproduction scale:
//!
//! 1. a functional profiling pass splits execution into fixed-length
//!    intervals and collects a **basic-block vector** (BBV) per interval —
//!    how often each branch-bounded region executed;
//! 2. k-means clustering over the (L1-normalized) BBVs groups intervals
//!    into phases;
//! 3. the interval closest to each centroid becomes that phase's
//!    representative region, weighted by the cluster's share of execution.
//!
//! The returned [`SimPoint`]s carry the instruction offsets at which a
//! timing simulation should start, plus weights for
//! `phelps_uarch::stats::weighted_harmonic_mean_ipc`.

use phelps_isa::Cpu;
use std::collections::HashMap;

/// One selected representative region.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimPoint {
    /// Instruction offset at which the region begins.
    pub start_inst: u64,
    /// Share of total execution this region represents (sums to 1 across
    /// the returned set).
    pub weight: f64,
    /// Cluster id (phase).
    pub phase: usize,
}

/// Profiling + clustering configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimPointConfig {
    /// Instructions per profiling interval.
    pub interval_len: u64,
    /// Maximum number of regions (clusters) to select (the paper uses up
    /// to 5).
    pub max_points: usize,
    /// k-means iterations.
    pub kmeans_iters: usize,
}

impl Default for SimPointConfig {
    fn default() -> SimPointConfig {
        SimPointConfig {
            interval_len: 100_000,
            max_points: 5,
            kmeans_iters: 12,
        }
    }
}

/// A basic-block vector: execution counts keyed by basic-block leader PC,
/// L1-normalized at comparison time.
#[derive(Clone, Debug, Default)]
struct Bbv {
    counts: HashMap<u64, u64>,
    total: u64,
}

impl Bbv {
    fn bump(&mut self, leader: u64, insts: u64) {
        *self.counts.entry(leader).or_insert(0) += insts;
        self.total += insts;
    }

    /// L1 distance between normalized vectors.
    fn distance(&self, other: &Bbv) -> f64 {
        if self.total == 0 || other.total == 0 {
            return 2.0;
        }
        let mut d = 0.0;
        for (k, v) in &self.counts {
            let a = *v as f64 / self.total as f64;
            let b = other.counts.get(k).copied().unwrap_or(0) as f64 / other.total as f64;
            d += (a - b).abs();
        }
        for (k, v) in &other.counts {
            if !self.counts.contains_key(k) {
                d += *v as f64 / other.total as f64;
            }
        }
        d
    }

    fn accumulate(&mut self, other: &Bbv) {
        for (k, v) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += v;
        }
        self.total += other.total;
    }
}

/// Profiles `cpu` functionally for up to `max_insts` instructions and
/// selects representative regions.
///
/// The CPU is consumed (its architectural state advances); callers re-create
/// the workload for the subsequent timing runs.
pub fn select_simpoints(mut cpu: Cpu, max_insts: u64, cfg: &SimPointConfig) -> Vec<SimPoint> {
    // --- Pass 1: interval BBVs. ---
    let mut intervals: Vec<Bbv> = Vec::new();
    let mut current = Bbv::default();
    let mut block_leader = cpu.pc();
    let mut block_len = 0u64;
    let mut executed = 0u64;
    while executed < max_insts && !cpu.is_halted() {
        let Ok(rec) = cpu.step() else { break };
        executed += 1;
        block_len += 1;
        let ends_block = rec.inst.is_control() || matches!(rec.inst, phelps_isa::Inst::Halt);
        if ends_block {
            current.bump(block_leader, block_len);
            block_leader = rec.next_pc;
            block_len = 0;
        }
        if executed.is_multiple_of(cfg.interval_len) {
            if block_len > 0 {
                current.bump(block_leader, block_len);
                block_len = 0;
            }
            intervals.push(std::mem::take(&mut current));
        }
    }
    if current.total > 0 {
        intervals.push(current);
    }
    if intervals.is_empty() {
        return Vec::new();
    }

    // --- Pass 2: k-means over BBVs (deterministic farthest-point init). ---
    let k = cfg.max_points.min(intervals.len()).max(1);
    let mut centroid_idx: Vec<usize> = vec![0];
    while centroid_idx.len() < k {
        let far = (0..intervals.len())
            .max_by(|&a, &b| {
                let da = centroid_idx
                    .iter()
                    .map(|&c| intervals[a].distance(&intervals[c]))
                    .fold(f64::MAX, f64::min);
                let db = centroid_idx
                    .iter()
                    .map(|&c| intervals[b].distance(&intervals[c]))
                    .fold(f64::MAX, f64::min);
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("nonempty");
        if centroid_idx.contains(&far) {
            break;
        }
        centroid_idx.push(far);
    }
    let mut centroids: Vec<Bbv> = centroid_idx.iter().map(|&i| intervals[i].clone()).collect();

    let mut assignment = vec![0usize; intervals.len()];
    for _ in 0..cfg.kmeans_iters {
        let mut changed = false;
        for (i, iv) in intervals.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    iv.distance(&centroids[a])
                        .partial_cmp(&iv.distance(&centroids[b]))
                        .expect("finite distances")
                })
                .expect("k >= 1");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centroids as cluster sums (equivalent to means under
        // L1-normalized comparison).
        let mut next: Vec<Bbv> = (0..centroids.len()).map(|_| Bbv::default()).collect();
        for (i, iv) in intervals.iter().enumerate() {
            next[assignment[i]].accumulate(iv);
        }
        for (c, n) in centroids.iter_mut().zip(next) {
            if n.total > 0 {
                *c = n;
            }
        }
        if !changed {
            break;
        }
    }

    // --- Pass 3: representatives + weights. ---
    let mut points = Vec::new();
    for (c, centroid) in centroids.iter().enumerate() {
        let members: Vec<usize> = (0..intervals.len())
            .filter(|&i| assignment[i] == c)
            .collect();
        if members.is_empty() {
            continue;
        }
        let rep = members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                intervals[a]
                    .distance(centroid)
                    .partial_cmp(&intervals[b].distance(centroid))
                    .expect("finite distances")
            })
            .expect("nonempty cluster");
        points.push(SimPoint {
            start_inst: rep as u64 * cfg.interval_len,
            weight: members.len() as f64 / intervals.len() as f64,
            phase: c,
        });
    }
    points.sort_by(|a, b| b.weight.partial_cmp(&a.weight).expect("finite weights"));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::{Asm, Reg};

    /// A two-phase program: a long arithmetic phase then a long memory
    /// phase. SimPoints must find both phases with sensible weights.
    fn two_phase_cpu(phase_iters: i64) -> Cpu {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A1, phase_iters);
        a.label("phase1");
        a.addi(Reg::A3, Reg::A3, 1);
        a.xor(Reg::A4, Reg::A4, Reg::A3);
        a.slli(Reg::A5, Reg::A3, 1);
        a.addi(Reg::A1, Reg::A1, -1);
        a.bne(Reg::A1, Reg::ZERO, "phase1");
        a.li(Reg::A1, phase_iters);
        a.li(Reg::A0, 0x100000);
        a.label("phase2");
        a.ld(Reg::T0, Reg::A0, 0);
        a.add(Reg::A3, Reg::A3, Reg::T0);
        a.addi(Reg::A0, Reg::A0, 8);
        a.addi(Reg::A1, Reg::A1, -1);
        a.bne(Reg::A1, Reg::ZERO, "phase2");
        a.halt();
        Cpu::new(a.assemble().unwrap())
    }

    #[test]
    fn finds_both_phases() {
        let cpu = two_phase_cpu(40_000);
        let cfg = SimPointConfig {
            interval_len: 20_000,
            max_points: 4,
            kmeans_iters: 10,
        };
        let points = select_simpoints(cpu, 500_000, &cfg);
        assert!(points.len() >= 2, "two phases found: {points:?}");
        let total: f64 = points.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to 1: {total}");
        // The two top points come from different phases of the program
        // (one early, one late).
        let starts: Vec<u64> = points.iter().map(|p| p.start_inst).collect();
        assert!(
            starts.iter().any(|&s| s < 200_000) && starts.iter().any(|&s| s >= 200_000),
            "representatives span both phases: {starts:?}"
        );
    }

    #[test]
    fn uniform_program_collapses_to_one_heavy_point() {
        let cpu = two_phase_cpu(200_000); // profile only phase 1
        let cfg = SimPointConfig {
            interval_len: 25_000,
            max_points: 5,
            kmeans_iters: 10,
        };
        let points = select_simpoints(cpu, 400_000, &cfg);
        assert!(!points.is_empty());
        assert!(
            points[0].weight > 0.7,
            "one dominant phase: {:?}",
            points[0]
        );
    }

    #[test]
    fn short_program_yields_single_point() {
        let cpu = two_phase_cpu(100);
        let points = select_simpoints(cpu, 10_000, &SimPointConfig::default());
        assert_eq!(points.len(), 1);
        assert!((points[0].weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_selection() {
        let cfg = SimPointConfig {
            interval_len: 10_000,
            max_points: 3,
            kmeans_iters: 8,
        };
        let a = select_simpoints(two_phase_cpu(20_000), 300_000, &cfg);
        let b = select_simpoints(two_phase_cpu(20_000), 300_000, &cfg);
        assert_eq!(a, b);
    }
}

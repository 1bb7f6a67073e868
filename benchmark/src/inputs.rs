//! Guest inputs, generated from the benchmark seed.
//!
//! Each input's generator seed is `seed ^ suite::SEED ^ s`, where `s` is
//! the seed the figure binaries use for that input. The default seed
//! ([`DEFAULT_SEED`] = `suite::SEED`) therefore reproduces the `suite::`
//! inputs byte for byte, and any other seed moves every input at once.

use crate::cells::REGION;
use phelps_isa::Cpu;
use phelps_workloads::astar::{astar_grid, AstarParams};
use phelps_workloads::graph::{Graph, GraphKind};
use phelps_workloads::{gap, spec, suite};

/// The seed the figure binaries' inputs correspond to.
pub const DEFAULT_SEED: u64 = suite::SEED;

/// Seed of the astar grid in `suite::astar()`.
const ASTAR_SEED: u64 = 0xa57a;
/// Seed of the co-run neighbour graph in `fig_corun` and `perf`.
const NEIGHBOUR_SEED: u64 = 0xc0417;

/// One guest program with its data.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Input {
    /// bfs on the road-network graph.
    Bfs,
    /// The astar grid-expansion kernel.
    Astar,
    /// The mcf-like kernel.
    Mcf,
    /// The xz-like kernel.
    Xz,
    /// The gcc-like kernel.
    Gcc,
    /// bfs on the uniform-random graph: the co-run neighbour.
    Neighbour,
}

impl Input {
    /// Short label, used in cell names and checkpoint keys.
    pub fn label(self) -> &'static str {
        match self {
            Input::Bfs => "bfs",
            Input::Astar => "astar",
            Input::Mcf => "mcf",
            Input::Xz => "xz",
            Input::Gcc => "gcc",
            Input::Neighbour => "bfs_uniform",
        }
    }

    /// Builds the prepared CPU for `seed`.
    pub fn build(self, seed: u64) -> Cpu {
        let derive = |s: u64| seed ^ suite::SEED ^ s;
        match self {
            Input::Bfs => gap::bfs(
                &Graph::generate(GraphKind::RoadNetwork, suite::GAP_VERTICES, seed),
                0,
            ),
            Input::Astar => astar_grid(&AstarParams {
                seed: derive(ASTAR_SEED),
                ..AstarParams::default()
            }),
            // Sizes as in `suite::spec_workload`.
            Input::Mcf => spec::mcf_like(400_000, seed),
            Input::Xz => spec::xz_like(120_000, 3, seed),
            Input::Gcc => spec::gcc_like(600, 80, seed),
            Input::Neighbour => suite::uniform_bfs(suite::GAP_VERTICES, derive(NEIGHBOUR_SEED)).cpu,
        }
    }

    /// The first of `seed` and the seeds derived from it in turn whose
    /// input runs [`REGION`] instructions without halting. Some graphs
    /// put bfs's source vertex in a tiny component (seed 7 halts after
    /// 73 instructions), and such an input measures nothing.
    pub fn runnable_seed(self, seed: u64) -> u64 {
        let mut s = seed;
        for _ in 0..16 {
            if emulate(&self.build(s)).0 == REGION {
                return s;
            }
            eprintln!(
                "note: {} input of seed {s} halts early; deriving another",
                self.label()
            );
            s = splitmix64(s);
        }
        panic!(
            "no runnable {} input derived from seed {seed}",
            self.label()
        );
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Instructions and conditional branches of the first [`REGION`]
/// instructions of `cpu`, by the functional emulator.
pub fn emulate(cpu: &Cpu) -> (u64, u64) {
    let mut c = cpu.clone();
    let (mut insts, mut branches) = (0, 0);
    while insts < REGION && !c.is_halted() {
        let rec = c.step().expect("input emulates");
        insts += 1;
        branches += u64::from(rec.inst.is_cond_branch());
    }
    (insts, branches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn content(label: &str, cpu: &Cpu) -> [u64; 2] {
        phelps_ckpt::region_key(label, cpu, 0).hash
    }

    #[test]
    fn default_seed_reproduces_the_suite_inputs() {
        let pairs = [
            (Input::Bfs, suite::bfs().cpu),
            (Input::Astar, suite::astar().cpu),
            (Input::Mcf, suite::spec_workload("mcf").unwrap().cpu),
            (Input::Xz, suite::spec_workload("xz").unwrap().cpu),
            (Input::Gcc, suite::spec_workload("gcc").unwrap().cpu),
            (
                Input::Neighbour,
                suite::uniform_bfs(suite::GAP_VERTICES, NEIGHBOUR_SEED).cpu,
            ),
        ];
        for (input, reference) in pairs {
            assert_eq!(
                content("x", &input.build(DEFAULT_SEED)),
                content("x", &reference),
                "{input:?}"
            );
        }
    }

    #[test]
    fn an_input_that_halts_early_is_replaced() {
        assert_eq!(Input::Bfs.runnable_seed(DEFAULT_SEED), DEFAULT_SEED);
        assert!(emulate(&Input::Bfs.build(7)).0 < REGION);
        let s = Input::Bfs.runnable_seed(7);
        assert_ne!(s, 7);
        assert_eq!(emulate(&Input::Bfs.build(s)).0, REGION);
    }

    #[test]
    fn another_seed_changes_every_input() {
        for input in [
            Input::Bfs,
            Input::Astar,
            Input::Mcf,
            Input::Xz,
            Input::Gcc,
            Input::Neighbour,
        ] {
            assert_ne!(
                content("x", &input.build(DEFAULT_SEED)),
                content("x", &input.build(DEFAULT_SEED + 1)),
                "{input:?}"
            );
        }
    }
}

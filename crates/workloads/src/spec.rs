//! SPEC2017-like idiom kernels.
//!
//! The paper's Fig. 14 explains *why* Phelps rarely activates on SPEC2017:
//! each benchmark falls into a characteristic misprediction bin. We write
//! one parameterized kernel per idiom so the classification machinery can
//! be exercised end to end. These are synthetic kernels engineered to land
//! in the corresponding bin — not ports of the benchmarks.
//!
//! | kernel | idiom | expected dominant bin |
//! |---|---|---|
//! | [`mcf_like`] | delinquent branch inside a non-inlined callee | `del. but not in loop` |
//! | [`leela_like`] | MPKI spread over many individually-cold branches | `not delinquent` |
//! | [`omnetpp_like`] | delinquent branch whose whole loop body feeds it | `del. but ht too big` |
//! | [`exchange2_like`] | deeply predictable control | (almost no mispredictions) |
//! | [`xz_like`] | delinquent loop visited for ~3 iterations at a time | `del. but not iterating enough` |
//! | [`gcc_like`] | mispredictions spread over 160 data-dependent branches in 80 small loops | `gathering delinquency` |
//! | [`x264_like`] | streaming memory-bound, predictable branches | (not branch-limited) |
//! | [`deepsjeng_like`] | delinquent branch in a large search-evaluation body | `del. but ht too big` |
//! | [`perlbench_like`] | mostly predictable interpreter dispatch | `not delinquent` (low MPKI) |
//! | [`xalanc_like`] | pointer-chasing tree walk, mispredictions spread thin | `not delinquent` |

use crate::graph::layout;
use phelps_isa::{Asm, Cpu, Reg};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_data(cpu: &mut Cpu, base: u64, n: u64, seed: u64, modulo: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..n {
        cpu.mem.write_u64(base + 8 * i, rng.gen::<u64>() % modulo);
    }
}

/// A loop that calls a non-inlined helper function containing the
/// delinquent branch. The branch's PC lies outside the loop's contiguous
/// bounds, so the DBT never finds an enclosing loop for it (the paper's
/// mcf observation).
pub fn mcf_like(elems: u64, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    // a0=data base, a1=i, a2=n, a3=acc
    a.label("loop");
    a.slli(Reg::T0, Reg::A1, 3);
    a.add(Reg::T0, Reg::A0, Reg::T0);
    a.ld(Reg::T1, Reg::T0, 0);
    a.call("helper"); // branch lives here, outside the loop bounds
    a.add(Reg::A3, Reg::A3, Reg::A4);
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();
    // Non-inlined callee: PCs above the loop.
    a.label("helper");
    a.andi(Reg::T2, Reg::T1, 1);
    a.li(Reg::A4, 0);
    a.beq(Reg::T2, Reg::ZERO, "even"); // delinquent, not-in-loop
    a.li(Reg::A4, 3);
    a.label("even");
    a.ret();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    random_data(&mut cpu, layout::ARRAY_A, elems, seed, u64::MAX);
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, elems);
    cpu
}

/// Mispredictions spread across many branches, none individually clearing
/// the 0.5-MPKI delinquency bar: each branch is strongly biased (taken a
/// few percent of the time on random data), so its absolute misprediction
/// count stays small while the aggregate MPKI is significant.
pub fn leela_like(elems: u64, branches: usize, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("loop");
    a.slli(Reg::T0, Reg::A1, 3);
    a.add(Reg::T0, Reg::A0, Reg::T0);
    a.ld(Reg::T1, Reg::T0, 0);
    a.ld(Reg::T5, Reg::T0, 8);
    // A long chain of rarely-taken branches selected by data bits.
    for k in 0..branches {
        let skip = format!("s{k}");
        let src = if k % 2 == 0 { Reg::T1 } else { Reg::T5 };
        a.srli(Reg::T2, src, (k % 40) as i32);
        a.andi(Reg::T2, Reg::T2, 0x1f);
        a.bne(Reg::T2, Reg::ZERO, &skip); // taken ~3% of the time
        a.addi(Reg::A3, Reg::A3, 1);
        a.label(&skip);
    }
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    random_data(&mut cpu, layout::ARRAY_A, 2 * elems + 2, seed, u64::MAX);
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, elems);
    cpu
}

/// One delinquent branch whose backward slice spans essentially the whole
/// (large) loop body: the constructed helper thread violates the 75% size
/// bound.
pub fn omnetpp_like(elems: u64, chain: usize, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("loop");
    a.slli(Reg::T0, Reg::A1, 3);
    a.add(Reg::T0, Reg::A0, Reg::T0);
    a.ld(Reg::T1, Reg::T0, 0);
    // Long dependent computation, all of it feeding the branch.
    for _ in 0..chain {
        a.xor(Reg::T1, Reg::T1, Reg::A1);
        a.slli(Reg::T2, Reg::T1, 1);
        a.add(Reg::T1, Reg::T1, Reg::T2);
        a.srli(Reg::T2, Reg::T1, 7);
        a.xor(Reg::T1, Reg::T1, Reg::T2);
    }
    a.andi(Reg::T3, Reg::T1, 1);
    a.beq(Reg::T3, Reg::ZERO, "skip"); // delinquent; slice == body
    a.addi(Reg::A3, Reg::A3, 1);
    a.label("skip");
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    random_data(&mut cpu, layout::ARRAY_A, elems, seed, u64::MAX);
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, elems);
    cpu
}

/// Deeply predictable nested counting (exchange2's character): almost no
/// mispredictions, so pre-execution has nothing to do and partitioning
/// would only hurt.
pub fn exchange2_like(outer: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("outer");
    a.li(Reg::T0, 9);
    a.label("mid");
    a.li(Reg::T1, 9);
    a.label("inner");
    a.add(Reg::A3, Reg::A3, Reg::T0);
    a.xor(Reg::A4, Reg::A4, Reg::T1);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bne(Reg::T1, Reg::ZERO, "inner");
    a.addi(Reg::T0, Reg::T0, -1);
    a.bne(Reg::T0, Reg::ZERO, "mid");
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "outer");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    cpu.set_reg(Reg::A2, outer);
    cpu
}

/// A delinquent inner loop that is visited for only ~`trip` iterations per
/// visit: helper-thread start/stop can never amortize (§V-J condition 2).
/// The short loop lives in a non-inlined routine (as in real codecs), so
/// the only contiguous loop enclosing its branch is the short loop itself.
pub fn xz_like(visits: u64, trip: u64, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    // Driver: repeatedly call the short delinquent loop.
    a.label("visit");
    a.call("decode");
    a.add(Reg::A1, Reg::A1, Reg::A4);
    a.andi(Reg::A1, Reg::A1, 0xfff);
    a.addi(Reg::A2, Reg::A2, -1);
    a.bne(Reg::A2, Reg::ZERO, "visit");
    a.halt();
    // The short loop with a data-dependent branch.
    a.label("decode");
    a.li(Reg::T0, 0);
    a.label("short");
    a.add(Reg::T1, Reg::A1, Reg::T0);
    a.slli(Reg::T2, Reg::T1, 3);
    a.add(Reg::T2, Reg::A0, Reg::T2);
    a.ld(Reg::T3, Reg::T2, 0);
    a.andi(Reg::T3, Reg::T3, 1);
    a.beq(Reg::T3, Reg::ZERO, "skip"); // delinquent
    a.addi(Reg::A3, Reg::A3, 1);
    a.label("skip");
    a.addi(Reg::T0, Reg::T0, 1);
    a.bltu(Reg::T0, Reg::A4, "short"); // short trip count
    a.ret();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    random_data(&mut cpu, layout::ARRAY_A, 0x1000 + trip, seed, u64::MAX);
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, visits);
    cpu.set_reg(Reg::A4, trip);
    cpu
}

/// 160 data-dependent branches across 80 small loops (241 static
/// conditional branches in all, fewer than the 256-entry DBT holds):
/// more than the 32-entry DBT-Max ranks per epoch, so most branches never
/// finish gathering delinquency (the paper's gcc bin, which the paper
/// attributes to DBT thrashing).
pub fn gcc_like(rounds: u64, loops: usize, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("round");
    for l in 0..loops {
        let lp = format!("l{l}");
        let sk = format!("k{l}");
        let sk2 = format!("m{l}");
        a.li(Reg::T0, 4);
        a.label(&lp);
        a.slli(Reg::T1, Reg::A1, 3);
        a.add(Reg::T1, Reg::A0, Reg::T1);
        a.ld(Reg::T2, Reg::T1, 0);
        a.addi(Reg::A1, Reg::A1, 1);
        a.andi(Reg::A1, Reg::A1, 0x7ff);
        a.andi(Reg::T3, Reg::T2, 1);
        a.beq(Reg::T3, Reg::ZERO, &sk); // one cold delinquent branch...
        a.addi(Reg::A3, Reg::A3, 1);
        a.label(&sk);
        a.srli(Reg::T3, Reg::T2, 1);
        a.andi(Reg::T3, Reg::T3, 1);
        a.beq(Reg::T3, Reg::ZERO, &sk2); // ...and another, per loop
        a.addi(Reg::A4, Reg::A4, 1);
        a.label(&sk2);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, &lp);
    }
    a.addi(Reg::A2, Reg::A2, -1);
    a.bne(Reg::A2, Reg::ZERO, "round");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    random_data(&mut cpu, layout::ARRAY_A, 0x800, seed, u64::MAX);
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, rounds);
    cpu
}

/// Streaming, memory-bound kernel with predictable control (x264's
/// character): a useful helper thread could be built, but branch
/// prediction isn't the bottleneck.
pub fn x264_like(blocks: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("loop");
    a.slli(Reg::T0, Reg::A1, 6); // 64-byte stride: every block misses
    a.add(Reg::T0, Reg::A0, Reg::T0);
    a.ld(Reg::T1, Reg::T0, 0);
    a.ld(Reg::T2, Reg::T0, 8);
    a.ld(Reg::T3, Reg::T0, 16);
    a.ld(Reg::T4, Reg::T0, 24);
    a.add(Reg::T1, Reg::T1, Reg::T2);
    a.add(Reg::T3, Reg::T3, Reg::T4);
    a.add(Reg::A3, Reg::T1, Reg::T3);
    a.add(Reg::A4, Reg::A4, Reg::A3);
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, blocks);
    cpu
}

/// Game-tree evaluation flavor (deepsjeng): a delinquent branch whose
/// inputs funnel through a large evaluation function — the whole body is
/// its backward slice, so the constructed helper thread violates the 75%
/// size bound (like [`omnetpp_like`], with a deeper, wider slice mix).
pub fn deepsjeng_like(elems: u64, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    a.label("loop");
    a.slli(Reg::T0, Reg::A1, 3);
    a.add(Reg::T0, Reg::A0, Reg::T0);
    a.ld(Reg::T1, Reg::T0, 0); // position hash
    a.ld(Reg::T2, Reg::T0, 8); // material
                               // "Evaluation": two interleaved dependent chains merged at the end —
                               // all of it feeds the cutoff branch.
    for k in 0..12 {
        a.xor(Reg::T1, Reg::T1, Reg::T2);
        a.slli(Reg::T3, Reg::T1, 1);
        a.add(Reg::T1, Reg::T1, Reg::T3);
        a.srli(Reg::T4, Reg::T2, k % 11 + 1);
        a.add(Reg::T2, Reg::T2, Reg::T4);
        a.xor(Reg::T2, Reg::T2, Reg::T1);
    }
    a.add(Reg::T5, Reg::T1, Reg::T2);
    a.andi(Reg::T5, Reg::T5, 1);
    a.beq(Reg::T5, Reg::ZERO, "cutoff"); // delinquent; slice == body
    a.addi(Reg::A3, Reg::A3, 1);
    a.label("cutoff");
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    random_data(&mut cpu, layout::ARRAY_A, 2 * elems + 2, seed, u64::MAX);
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, elems);
    cpu
}

/// Interpreter-dispatch flavor (perlbench): opcode dispatch through a
/// small, heavily-repeated program — histories repeat, so TAGE predicts
/// nearly everything (the paper reports only a 2% partitioning cost and
/// little for Phelps to do).
pub fn perlbench_like(iters: u64, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    // A fixed 16-op "bytecode" program interpreted in a loop: dispatch
    // branches follow a repeating sequence.
    a.label("loop");
    a.andi(Reg::T0, Reg::A1, 15); // opcode index
    a.slli(Reg::T1, Reg::T0, 3);
    a.add(Reg::T1, Reg::A0, Reg::T1);
    a.ld(Reg::T2, Reg::T1, 0); // opcode (fixed program)
    a.andi(Reg::T3, Reg::T2, 3);
    a.beq(Reg::T3, Reg::ZERO, "op0");
    a.addi(Reg::T4, Reg::T3, -1);
    a.beq(Reg::T4, Reg::ZERO, "op1");
    a.addi(Reg::T4, Reg::T3, -2);
    a.beq(Reg::T4, Reg::ZERO, "op2");
    a.xor(Reg::A3, Reg::A3, Reg::T2); // op3
    a.j("next");
    a.label("op0");
    a.add(Reg::A3, Reg::A3, Reg::T2);
    a.j("next");
    a.label("op1");
    a.sub(Reg::A3, Reg::A3, Reg::T2);
    a.j("next");
    a.label("op2");
    a.or(Reg::A3, Reg::A3, Reg::T2);
    a.label("next");
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    random_data(&mut cpu, layout::ARRAY_A, 16, seed, 4);
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, iters);
    cpu
}

/// Tree-walking flavor (xalancbmk): pointer chasing through a randomized
/// binary tree with direction decided per node. Mispredictions are spread
/// across short walks; the walk loop's trip count is small and the branch
/// outcomes follow the (repeating) tree shape, so little clears the bar.
pub fn xalanc_like(nodes: u64, walks: u64, seed: u64) -> Cpu {
    let mut a = Asm::new(0x10000);
    // Node layout: [left, right, key] — 24 bytes each at ARRAY_A.
    a.label("walk");
    a.li(Reg::T0, 0); // node index
    a.li(Reg::T5, 0); // depth
    a.label("descend");
    a.slli(Reg::T1, Reg::T0, 3);
    a.add(Reg::T2, Reg::T1, Reg::T1);
    a.add(Reg::T1, Reg::T2, Reg::T1); // t1 = 24 * node
    a.add(Reg::T1, Reg::A0, Reg::T1);
    a.ld(Reg::T3, Reg::T1, 16); // key
    a.xor(Reg::T4, Reg::T3, Reg::A1);
    a.andi(Reg::T4, Reg::T4, 1);
    a.beq(Reg::T4, Reg::ZERO, "left"); // data-dependent direction
    a.ld(Reg::T0, Reg::T1, 8); // right child
    a.j("step");
    a.label("left");
    a.ld(Reg::T0, Reg::T1, 0); // left child
    a.label("step");
    a.addi(Reg::T5, Reg::T5, 1);
    a.slti(Reg::T6, Reg::T5, 10);
    a.bne(Reg::T6, Reg::ZERO, "descend"); // walk depth 10
    a.add(Reg::A3, Reg::A3, Reg::T0);
    a.addi(Reg::A1, Reg::A1, 1);
    a.bne(Reg::A1, Reg::A2, "walk");
    a.halt();

    let mut cpu = Cpu::new(a.assemble().expect("assembles"));
    let mut rng = SmallRng::seed_from_u64(seed);
    for n in 0..nodes {
        let base = layout::ARRAY_A + 24 * n;
        cpu.mem.write_u64(base, rng.gen_range(0..nodes));
        cpu.mem.write_u64(base + 8, rng.gen_range(0..nodes));
        cpu.mem.write_u64(base + 16, rng.gen::<u64>());
    }
    cpu.set_reg(Reg::A0, layout::ARRAY_A);
    cpu.set_reg(Reg::A2, walks);
    cpu
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mut cpu: Cpu) -> Cpu {
        cpu.run(200_000_000).unwrap();
        assert!(cpu.is_halted(), "kernel halts");
        cpu
    }

    #[test]
    fn all_kernels_run_to_completion() {
        run(mcf_like(5_000, 1));
        run(leela_like(2_000, 12, 2));
        run(omnetpp_like(2_000, 30, 3));
        run(exchange2_like(200));
        run(xz_like(3_000, 3, 4));
        run(gcc_like(50, 80, 5));
        run(x264_like(20_000));
        run(deepsjeng_like(2_000, 6));
        run(perlbench_like(20_000, 7));
        run(xalanc_like(512, 2_000, 8));
    }

    #[test]
    fn xalanc_walks_stay_in_bounds() {
        let cpu = run(xalanc_like(256, 500, 9));
        // Walk accumulator moved and the program halted without faulting:
        // every chased pointer stayed a valid node index.
        assert!(cpu.reg(Reg::A3) > 0);
    }

    #[test]
    fn perlbench_program_is_cyclic() {
        // A 16-op program interpreted 32k times: the dispatch sequence
        // repeats with period 16, which history predictors learn.
        let cpu = run(perlbench_like(32_768, 3));
        assert_eq!(cpu.reg(Reg::A1), 32_768);
    }

    #[test]
    fn exchange2_is_predictable_work() {
        let cpu = run(exchange2_like(100));
        // 100 outer × 9 mid × 9 inner iterations of real work.
        assert!(cpu.retired() > 100 * 81 * 2);
    }

    #[test]
    fn mcf_helper_is_called_per_element() {
        let cpu = run(mcf_like(1_000, 7));
        // acc accumulates 3 per odd element: roughly half.
        let acc = cpu.reg(Reg::A3);
        assert!(acc > 3 * 300 && acc < 3 * 700, "acc {acc}");
    }

    #[test]
    fn gcc_like_has_many_static_branches() {
        // 80 loops × 2 data branches + loop branches: > 256 static
        // conditional branches would be ideal; ensure at least a lot.
        let cpu = gcc_like(1, 80, 9);
        let listing = cpu.program().to_string();
        let branches = listing
            .lines()
            .filter(|l| l.contains("beq") || l.contains("bne") || l.contains("blt"))
            .count();
        assert!(branches > 160, "static branches: {branches}");
    }

    #[test]
    fn xz_like_visits_are_short() {
        let cpu = run(xz_like(500, 3, 1));
        // 500 visits × 3 iterations each.
        assert!(cpu.retired() > 500 * 3 * 5);
    }
}

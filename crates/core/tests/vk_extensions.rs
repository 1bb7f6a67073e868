//! Tests of the paper's §V-K "explored but omitted" scenarios, which this
//! reproduction implements as extensions that `ConstructorConfig::default()`
//! turns on (the paper's evaluated configuration has neither):
//!
//! * **OR-guards** — a store reachable on either of two guard directions
//!   gets a two-source ORed predicate operand;
//! * **alternate producers** — a control-independent consumer whose source
//!   has path-dependent producers marks the loop ineligible (conservative
//!   protection instead of silent straight-line clobbering).

use phelps::construct::{ConstructionTarget, Constructor, ConstructorConfig, Ineligibility};
use phelps::delinq::LoopBounds;
use phelps::htc::HtKind;
use phelps::predicate::PredSource;
use phelps_isa::{Asm, Cpu, Reg};

/// `if (a || b) store` — the store retires directly after whichever guard
/// passed, so its CDFSM row keeps CD states on both columns.
fn or_guard_kernel() -> (Cpu, Vec<u64>, u64, LoopBounds) {
    let mut a = Asm::new(0x1000);
    a.label("loop");
    a.slli(Reg::T0, Reg::A1, 3);
    a.add(Reg::T0, Reg::A0, Reg::T0);
    a.ld(Reg::T1, Reg::T0, 0);
    a.andi(Reg::T2, Reg::T1, 1);
    let b1 = a.here();
    a.bne(Reg::T2, Reg::ZERO, "body"); // guard a: taken -> body
    a.srli(Reg::T3, Reg::T1, 1);
    a.andi(Reg::T3, Reg::T3, 1);
    let b2 = a.here();
    a.beq(Reg::T3, Reg::ZERO, "skip"); // guard b: not-taken -> skip
    a.label("body");
    a.xori(Reg::T4, Reg::T1, 5);
    let st = a.here();
    a.sd(Reg::T4, Reg::T0, 8); // store to the *next* element: a
                               // loop-carried conflict with b1's load,
                               // guarded by the OR of both guards
    a.label("skip");
    // Non-slice filler so the 75% bound passes.
    a.add(Reg::S8, Reg::S8, Reg::A1);
    a.xor(Reg::S9, Reg::S9, Reg::S8);
    a.slli(Reg::S10, Reg::S8, 2);
    a.add(Reg::S11, Reg::S11, Reg::S10);
    a.or(Reg::S9, Reg::S9, Reg::S11);
    a.add(Reg::S8, Reg::S8, Reg::S10);
    a.addi(Reg::A1, Reg::A1, 1);
    let lb = a.here();
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();
    let bounds = LoopBounds {
        branch_pc: lb,
        target_pc: 0x1000,
    };
    let mut cpu = Cpu::new(a.assemble().unwrap());
    let mut x = 3u64;
    for i in 0..4000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        cpu.mem.write_u64(0x100000 + i * 8, x >> 33);
    }
    cpu.set_reg(Reg::A0, 0x100000);
    cpu.set_reg(Reg::A2, 4000);
    (cpu, vec![b1, b2], st, bounds)
}

#[test]
fn or_guarded_store_gets_two_sources() {
    let (mut cpu, branches, st, bounds) = or_guard_kernel();
    let mut c = Constructor::new(ConstructionTarget {
        bounds,
        inner: None,
        delinquent: branches.clone(),
    });
    while !cpu.is_halted() {
        c.on_retire(&cpu.step().unwrap());
    }
    let entry = c.finalize(1).expect("eligible");
    let store = entry
        .inner
        .insts
        .iter()
        .find(|i| i.pc == st)
        .expect("store captured via the store-detect queue");
    assert_eq!(store.kind, HtKind::Store);
    match store.pred_src {
        PredSource::GuardedOr { a, b } => {
            // The store executes when b1 is taken OR b2 is not-taken
            // (b2 taken jumps to "skip"), so the recorded enable
            // directions must be taken for guard a and not-taken for b.
            assert!(a.1 && !b.1, "guard directions: {a:?} {b:?}");
            assert_ne!(a.0, b.0, "two distinct predicate registers");
        }
        other => panic!("expected an OR-guard, got {other:?}"),
    }
}

#[test]
fn or_guard_disabled_falls_back_to_single_guard() {
    let (mut cpu, branches, st, bounds) = or_guard_kernel();
    let mut c = Constructor::with_config(
        ConstructionTarget {
            bounds,
            inner: None,
            delinquent: branches,
        },
        ConstructorConfig {
            or_guards: false,
            ..ConstructorConfig::default()
        },
    );
    while !cpu.is_halted() {
        c.on_retire(&cpu.step().unwrap());
    }
    let entry = c.finalize(1).expect("eligible");
    let store = entry
        .inner
        .insts
        .iter()
        .find(|i| i.pc == st)
        .expect("store");
    assert!(
        matches!(store.pred_src, PredSource::Guarded { .. }),
        "paper-evaluated configuration keeps one guard: {:?}",
        store.pred_src
    );
}

/// A consumer whose source register has two different in-loop producers
/// depending on an earlier branch: the alternate-producer hazard.
fn alternate_producer_kernel() -> (Cpu, Vec<u64>, LoopBounds) {
    let mut a = Asm::new(0x1000);
    a.label("loop");
    a.slli(Reg::T0, Reg::A1, 3);
    a.add(Reg::T0, Reg::A0, Reg::T0);
    a.ld(Reg::T1, Reg::T0, 0);
    a.andi(Reg::T2, Reg::T1, 1);
    let b1 = a.here();
    a.beq(Reg::T2, Reg::ZERO, "alt"); // delinquent
    a.addi(Reg::T3, Reg::T1, 7); // producer A of t3
    a.j("join");
    a.label("alt");
    a.slli(Reg::T3, Reg::T1, 2); // producer B of t3
    a.label("join");
    // Control-independent consumer of t3 feeding a second delinquent
    // branch: its value depends on which producer ran.
    a.andi(Reg::T4, Reg::T3, 3);
    let b2 = a.here();
    a.bne(Reg::T4, Reg::ZERO, "skip"); // delinquent, alternate-fed
    a.addi(Reg::A3, Reg::A3, 1);
    a.label("skip");
    a.add(Reg::S8, Reg::S8, Reg::A1);
    a.xor(Reg::S9, Reg::S9, Reg::S8);
    a.slli(Reg::S10, Reg::S8, 2);
    a.add(Reg::S11, Reg::S11, Reg::S10);
    a.addi(Reg::A1, Reg::A1, 1);
    let lb = a.here();
    a.bne(Reg::A1, Reg::A2, "loop");
    a.halt();
    let bounds = LoopBounds {
        branch_pc: lb,
        target_pc: 0x1000,
    };
    let mut cpu = Cpu::new(a.assemble().unwrap());
    let mut x = 17u64;
    for i in 0..4000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        cpu.mem.write_u64(0x100000 + i * 8, x >> 33);
    }
    cpu.set_reg(Reg::A0, 0x100000);
    cpu.set_reg(Reg::A2, 4000);
    (cpu, vec![b1, b2], bounds)
}

#[test]
fn alternate_producers_detected_and_rejected() {
    let (mut cpu, branches, bounds) = alternate_producer_kernel();
    let mut c = Constructor::new(ConstructionTarget {
        bounds,
        inner: None,
        delinquent: branches,
    });
    while !cpu.is_halted() {
        c.on_retire(&cpu.step().unwrap());
    }
    assert_eq!(
        c.finalize(1).unwrap_err(),
        Ineligibility::AlternateProducers
    );
}

#[test]
fn alternate_producer_rejection_can_be_disabled() {
    let (mut cpu, branches, bounds) = alternate_producer_kernel();
    let mut c = Constructor::with_config(
        ConstructionTarget {
            bounds,
            inner: None,
            delinquent: branches,
        },
        ConstructorConfig {
            reject_alternate_producers: false,
            ..ConstructorConfig::default()
        },
    );
    while !cpu.is_halted() {
        c.on_retire(&cpu.step().unwrap());
    }
    assert!(c.finalize(1).is_ok(), "opt-out reproduces the raw behavior");
}

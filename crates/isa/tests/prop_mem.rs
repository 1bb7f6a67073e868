//! Property test: `Memory` against a byte-map reference model.
//!
//! Random sequences of writes and reads at every width, signed and
//! unsigned, on addresses clustered at page edges (so many accesses
//! straddle two pages, and some wrap from the top of the address space
//! into page 0), must agree with a `BTreeMap<u64, u8>` of written bytes:
//! every value read, the set of resident pages (exactly the pages some
//! write touched, zero writes included), and the contents.

use std::collections::{BTreeMap, BTreeSet};

use phelps_isa::{MemWidth, Memory, PAGE_BYTES};
use proptest::prelude::*;

/// Page bases the addresses cluster around: page 0 (reached from below
/// by wrapping past `u64::MAX`), its neighbours, two bases of the graph
/// workloads' array layout, and the top page.
const BASES: [u64; 6] = [
    0,
    0x1000,
    0x2000,
    0x0100_0000,
    0x0400_0000,
    u64::MAX - 0xfff,
];

#[derive(Clone, Copy, Debug)]
enum Op {
    Write(u64, MemWidth, u64),
    Read(u64, MemWidth, bool),
    ReadU8(u64),
}

fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Within 12 bytes of a page edge: straddles and wraps.
        (0..BASES.len(), -12i64..12).prop_map(|(b, d)| BASES[b].wrapping_add(d as u64)),
        // Anywhere in a page.
        (0..BASES.len(), 0..PAGE_BYTES as u64).prop_map(|(b, off)| BASES[b] + off),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let width = (0..MemWidth::ALL.len()).prop_map(|i| MemWidth::ALL[i]);
    let value = prop_oneof![Just(0u64), any::<u64>()];
    (0u8..3, addr(), width, value, any::<bool>()).prop_map(|(kind, a, w, v, signed)| match kind {
        0 => Op::Write(a, w, v),
        1 => Op::Read(a, w, signed),
        _ => Op::ReadU8(a),
    })
}

/// The model's value of a `width` read at `addr`.
fn model_read(bytes: &BTreeMap<u64, u8>, addr: u64, width: MemWidth, signed: bool) -> u64 {
    let mut le = [0u8; 8];
    for (i, b) in le.iter_mut().take(width.bytes() as usize).enumerate() {
        *b = bytes
            .get(&addr.wrapping_add(i as u64))
            .copied()
            .unwrap_or(0);
    }
    let raw = u64::from_le_bytes(le);
    match (width, signed) {
        (MemWidth::B, true) => raw as u8 as i8 as u64,
        (MemWidth::H, true) => raw as u16 as i16 as u64,
        (MemWidth::W, true) => raw as u32 as i32 as u64,
        _ => raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every read matches the model; resident pages are exactly the pages
    /// written; the contents equal a memory rebuilt from the model.
    #[test]
    fn memory_matches_byte_model(ops in prop::collection::vec(op(), 1..200)) {
        let mut mem = Memory::new();
        let mut bytes = BTreeMap::new();
        let mut pages = BTreeSet::new();
        for op in ops {
            match op {
                Op::Write(a, w, v) => {
                    mem.write(a, w, v);
                    for i in 0..w.bytes() {
                        let at = a.wrapping_add(i);
                        bytes.insert(at, (v >> (8 * i)) as u8);
                        pages.insert(at / PAGE_BYTES as u64);
                    }
                }
                Op::Read(a, w, signed) => {
                    prop_assert_eq!(mem.read(a, w, signed), model_read(&bytes, a, w, signed), "{:?}", op);
                }
                Op::ReadU8(a) => {
                    prop_assert_eq!(mem.read_u8(a), bytes.get(&a).copied().unwrap_or(0), "{:?}", op);
                }
            }
        }
        let resident: BTreeSet<u64> = mem.iter_pages().map(|(base, _)| base / PAGE_BYTES as u64).collect();
        prop_assert_eq!(&resident, &pages);
        prop_assert_eq!(mem.resident_pages(), pages.len());
        let mut rebuilt = Memory::new();
        for (&a, &b) in &bytes {
            rebuilt.write_u8(a, b);
        }
        prop_assert_eq!(mem.first_difference(&rebuilt), None);
    }
}

//! Load/store-queue machinery: store-to-load forwarding, load-store
//! ordering-violation detection (with the store-set-style predictor's
//! bookkeeping), and the doubleword extract/merge helpers shared by side
//! loads and the store cache.

use super::{Pipeline, SimContext, Stage};
use crate::sim::types::{PreExecEngine, MT};
use phelps_isa::MemWidth;

impl SimContext {
    /// The youngest older executed store to the same doubleword, if any.
    /// Walks the thread's store index list (SQ-bounded), not the ROB.
    pub(super) fn forwarding_store(&self, tid: usize, seq: u64, addr: u64) -> Option<u64> {
        let t = &self.threads[tid];
        let mut best: Option<u64> = None;
        for &s in &t.stores {
            if s >= seq {
                break;
            }
            if let Some(Stage::Exec { .. } | Stage::Done) = self.insts.stage(s) {
                let di = self.insts.get(s).expect("live store");
                let saddr = if tid == MT {
                    di.rec.mem_addr
                } else {
                    di.mem_addr
                };
                if saddr >> 3 == addr >> 3 {
                    best = Some(s);
                }
            }
        }
        best
    }

    /// Whether every older in-flight store of `tid` has computed its
    /// address (issued to execute).
    pub(super) fn older_stores_resolved(&self, tid: usize, seq: u64) -> bool {
        self.threads[tid].stores.iter().all(|&s| {
            s >= seq
                || self
                    .insts
                    .stage(s)
                    .is_none_or(|st| matches!(st, Stage::Exec { .. } | Stage::Done))
        })
    }
}

impl<E: PreExecEngine> Pipeline<E> {
    /// A store executed: any younger same-address load in this thread that
    /// already issued has a value obtained too early → violation.
    pub(super) fn check_load_violation(&mut self, tid: usize, store_seq: u64, addr: u64) {
        let victim = {
            let t = &self.ctx.threads[tid];
            // Loads list is sorted ascending; start at the first load
            // younger than the store.
            let start = t.loads.partition_point(|&s| s <= store_seq);
            t.loads.range(start..).copied().find(|&s| {
                let executed = matches!(
                    self.ctx.insts.stage(s),
                    Some(Stage::Exec { .. } | Stage::Done)
                );
                executed
                    && self.ctx.insts.get(s).is_some_and(|di| {
                        (if tid == MT {
                            di.rec.mem_addr
                        } else {
                            di.mem_addr
                        }) >> 3
                            == addr >> 3
                    })
            })
        };
        if let Some(load_seq) = victim {
            self.ctx.stats.load_violations += 1;
            if let Some(load) = self.ctx.insts.get(load_seq) {
                self.ctx.violating_loads.insert(load.pc);
            }
            if tid == MT {
                self.squash_mt_from(load_seq);
            }
            // Side threads issue loads conservatively (see `issue`), so a
            // side violation cannot occur; nothing to squash.
        }
    }
}

/// Extracts a `width` access at `addr` from the doubleword containing it.
pub(super) fn extract(dw: u64, addr: u64, width: MemWidth, signed: bool) -> u64 {
    let shift = 8 * (addr & 7);
    let raw = dw >> shift;
    let bits = 8 * width.bytes() as u32;
    if bits >= 64 {
        return raw;
    }
    let mask = (1u64 << bits) - 1;
    let v = raw & mask;
    if signed {
        let s = 64 - bits;
        (((v << s) as i64) >> s) as u64
    } else {
        v
    }
}

/// Merges a `width` store of `value` at `addr` into the containing
/// doubleword `dw`.
pub(super) fn merge(dw: u64, addr: u64, width: MemWidth, value: u64) -> u64 {
    let shift = 8 * (addr & 7);
    let bits = 8 * width.bytes() as u32;
    if bits >= 64 {
        return value;
    }
    let mask = ((1u64 << bits) - 1) << shift;
    (dw & !mask) | ((value << shift) & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_and_merge_roundtrip() {
        let dw = 0x1122_3344_5566_7788u64;
        assert_eq!(extract(dw, 0x100, MemWidth::B, false), 0x88);
        assert_eq!(extract(dw, 0x101, MemWidth::B, false), 0x77);
        assert_eq!(extract(dw, 0x104, MemWidth::W, false), 0x1122_3344);
        assert_eq!(
            extract(dw, 0x104, MemWidth::W, true),
            0x1122_3344,
            "positive word"
        );
        let m = merge(dw, 0x102, MemWidth::H, 0xaabb);
        assert_eq!(extract(m, 0x102, MemWidth::H, false), 0xaabb);
        assert_eq!(
            extract(m, 0x100, MemWidth::H, false),
            0x7788,
            "neighbors kept"
        );
    }

    #[test]
    fn merge_full_doubleword_replaces() {
        assert_eq!(merge(1, 0x0, MemWidth::D, 42), 42);
    }

    #[test]
    fn extract_sign_extends_negative_byte() {
        let dw = 0x0000_0000_0000_0080u64;
        assert_eq!(extract(dw, 0x0, MemWidth::B, true), (-128i64) as u64);
    }
}

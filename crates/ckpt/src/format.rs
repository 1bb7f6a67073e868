//! Versioned, CRC-checked binary encoding of one [`Snapshot`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size   field
//! 0       8      magic  b"PHELPSCK"
//! 8       4      format version (currently 1)
//! 12      16     128-bit region content hash (two u64 halves)
//! 28      8      start_inst — region start this checkpoint serves
//! 36      8      pc
//! 44      8      retired — instructions retired at the snapshot point
//! 52      1      halted flag (0/1)
//! 53      8*32   integer register file x0..x31
//! 309     8      resident page count  N
//! 317     N*     pages: base address (8) + PAGE_BYTES contents each,
//!                strictly ascending base, all-zero pages elided
//! end-4   4      CRC-32 (IEEE) over every preceding byte incl. magic
//! ```
//!
//! Decoding is paranoid: every length, flag, alignment, and ordering is
//! checked, and any violation is a typed [`FormatError`] — callers turn
//! that into a *miss plus warning*, never a panic, mirroring the result
//! cache's corrupt-entry semantics.

use crate::{RegionKey, Snapshot};
use phelps_isa::{CpuState, Memory, NUM_REGS, PAGE_BYTES};

pub(crate) const MAGIC: &[u8; 8] = b"PHELPSCK";
pub(crate) const VERSION: u32 = 1;

/// Why a checkpoint file failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FormatError {
    /// File shorter than a field it promised.
    Truncated,
    /// Leading magic bytes are not `PHELPSCK`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// CRC-32 over the payload does not match the trailer.
    BadCrc,
    /// Embedded content hash differs from the expected key (stale file or
    /// filename-hash collision).
    StaleKey,
    /// A structural invariant failed (named for diagnostics).
    Corrupt(&'static str),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Truncated => f.write_str("truncated"),
            FormatError::BadMagic => f.write_str("bad magic"),
            FormatError::BadVersion(v) => write!(f, "unsupported version {v}"),
            FormatError::BadCrc => f.write_str("CRC mismatch"),
            FormatError::StaleKey => f.write_str("stale content hash"),
            FormatError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

/// Slice-by-8 CRC tables: `CRC_TABLES[0][b]` is the CRC-32 of byte `b`
/// alone, and `CRC_TABLES[k][b]` that of `b` followed by `k` zero bytes,
/// so eight table lookups advance the CRC by eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slice-by-8.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes a snapshot for `key`. All-zero pages are elided: absent
/// pages read as zero, so the restored memory is semantically identical
/// and the file only pays for meaningful residency.
pub fn encode(key: &RegionKey, snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(512 + snap.state.mem.resident_bytes());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, key.hash[0]);
    put_u64(&mut out, key.hash[1]);
    put_u64(&mut out, snap.start_inst);
    put_u64(&mut out, snap.state.pc);
    put_u64(&mut out, snap.state.retired);
    out.push(snap.state.halted as u8);
    for r in snap.state.regs {
        put_u64(&mut out, r);
    }
    let pages: Vec<(u64, &[u8; PAGE_BYTES])> = snap
        .state
        .mem
        .iter_pages()
        .filter(|(_, p)| p.iter().any(|&b| b != 0))
        .collect();
    put_u64(&mut out, pages.len() as u64);
    for (base, contents) in pages {
        put_u64(&mut out, base);
        out.extend_from_slice(&contents[..]);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self.pos.checked_add(n).ok_or(FormatError::Truncated)?;
        if end > self.bytes.len() {
            return Err(FormatError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }
}

/// Decodes and fully validates a snapshot against the expected `key`.
pub fn decode(bytes: &[u8], key: &RegionKey) -> Result<Snapshot, FormatError> {
    // CRC and magic first: a file that fails these tells us nothing
    // trustworthy about its other fields.
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(FormatError::Truncated);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(payload) != stored_crc {
        return Err(FormatError::BadCrc);
    }
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(FormatError::BadVersion(version));
    }
    let hash = [r.u64()?, r.u64()?];
    if hash != key.hash {
        return Err(FormatError::StaleKey);
    }
    let start_inst = r.u64()?;
    if start_inst != key.start_inst {
        return Err(FormatError::StaleKey);
    }
    let pc = r.u64()?;
    let retired = r.u64()?;
    if retired > start_inst {
        return Err(FormatError::Corrupt("retired beyond start_inst"));
    }
    let halted = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(FormatError::Corrupt("halted flag")),
    };
    let mut regs = [0u64; NUM_REGS];
    for reg in &mut regs {
        *reg = r.u64()?;
    }
    if regs[0] != 0 {
        return Err(FormatError::Corrupt("nonzero x0"));
    }
    let page_count = r.u64()?;
    let mut pages = Vec::new();
    let mut prev_base: Option<u64> = None;
    for _ in 0..page_count {
        let base = r.u64()?;
        if base % PAGE_BYTES as u64 != 0 {
            return Err(FormatError::Corrupt("unaligned page base"));
        }
        if prev_base.is_some_and(|p| base <= p) {
            return Err(FormatError::Corrupt("page order"));
        }
        prev_base = Some(base);
        let contents: Box<[u8; PAGE_BYTES]> = Box::new(r.take(PAGE_BYTES)?.try_into().unwrap());
        pages.push((base, contents));
    }
    if r.pos != payload.len() {
        return Err(FormatError::Corrupt("trailing bytes"));
    }
    Ok(Snapshot {
        state: CpuState {
            pc,
            regs,
            mem: Memory::from_pages(pages),
            halted,
            retired,
        },
        start_inst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (RegionKey, Snapshot) {
        let key = RegionKey {
            label: "t".to_string(),
            start_inst: 500,
            hash: [0x1111_2222_3333_4444, 0x5555_6666_7777_8888],
        };
        let mut mem = Memory::new();
        mem.write_u64(0x2008, 0xdead_beef);
        mem.write_u8(0x9000, 0); // touched-but-zero page: elided on encode
        let mut regs = [0u64; NUM_REGS];
        regs[10] = 42;
        let snap = Snapshot {
            state: CpuState {
                pc: 0x1040,
                regs,
                mem,
                halted: false,
                retired: 480,
            },
            start_inst: 500,
        };
        (key, snap)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC loop, the reference for slice-by-8.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn slice_by_8_matches_bytewise_crc() {
        // xorshift64 bytes: every table and every tail length gets hit.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..(1 << 20) + 13)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn roundtrip_preserves_state() {
        let (key, snap) = sample();
        let bytes = encode(&key, &snap);
        let back = decode(&bytes, &key).expect("decodes");
        assert_eq!(back.start_inst, 500);
        assert_eq!(back.state.pc, 0x1040);
        assert_eq!(back.state.retired, 480);
        assert!(!back.state.halted);
        assert_eq!(back.state.regs[10], 42);
        assert_eq!(back.state.mem.first_difference(&snap.state.mem), None);
        // The zero page was elided representationally...
        assert_eq!(back.state.mem.resident_pages(), 1);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let (key, snap) = sample();
        let bytes = encode(&key, &snap);
        for cut in [0, 5, 11, 40, 300, bytes.len() - 1] {
            let err = decode(&bytes[..cut], &key).unwrap_err();
            assert!(
                matches!(err, FormatError::Truncated | FormatError::BadCrc),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn single_flipped_byte_fails_crc() {
        let (key, snap) = sample();
        let bytes = encode(&key, &snap);
        for &pos in &[0usize, 12, 60, 320, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert_eq!(
                decode(&bad, &key).unwrap_err(),
                FormatError::BadCrc,
                "pos {pos}"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (key, snap) = sample();
        let mut bytes = encode(&key, &snap);
        bytes[8] = 99; // version field
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode(&bytes, &key).unwrap_err(),
            FormatError::BadVersion(99)
        );
    }

    #[test]
    fn stale_key_is_rejected() {
        let (key, snap) = sample();
        let bytes = encode(&key, &snap);
        let mut other = key.clone();
        other.hash[1] ^= 1;
        assert_eq!(decode(&bytes, &other).unwrap_err(), FormatError::StaleKey);
        let mut other_start = key.clone();
        other_start.start_inst += 1;
        assert_eq!(
            decode(&bytes, &other_start).unwrap_err(),
            FormatError::StaleKey
        );
    }

    #[test]
    fn corrupt_retired_is_rejected() {
        let (key, mut snap) = sample();
        snap.state.retired = snap.start_inst + 1; // impossible
        let bytes = encode(&key, &snap);
        assert_eq!(
            decode(&bytes, &key).unwrap_err(),
            FormatError::Corrupt("retired beyond start_inst")
        );
    }
}

//! Sparse, paged guest memory.
//!
//! Guest programs address a flat 64-bit byte space. Pages are allocated
//! lazily on first touch and zero-filled, so workloads can scatter data
//! structures anywhere without preallocation. Accesses may straddle page
//! boundaries.
//!
//! An access whose bytes all lie in one page costs one page-table lookup
//! and one little-endian copy; only an access that straddles two pages
//! (including the wrap from the top of the address space into page 0)
//! goes byte by byte. Every emulated load and store, every input a
//! workload builder writes and every pipeline `timing_mem` access runs
//! through here.
//!
//! The page table is keyed by page number with a fixed multiply-and-fold
//! hash (`PageHasher`) in place of the standard library's SipHash.
//! SipHash's per-process random keys defend a map against keys crafted to
//! collide; page numbers come from guest programs built in this repository
//! and from checkpoint files, whose size bounds how many pages they can
//! name, so that defence buys nothing here and costs a SipHash round on
//! every access.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::MemWidth;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Hash of a page number: a multiply by an odd constant, whose high bits
/// depend on every bit of the page number, then the high half folded into
/// the low half. The fold matters: `HashMap` picks buckets by the low bits,
/// which a bare multiply leaves depending only on the page number's low
/// bits, and the workload layouts place arrays at bases that differ only
/// in high bits (`0x0100_0000`, `0x0400_0000`, ...).
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, page: u64) {
        let x = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }
}

/// Size in bytes of one guest memory page.
pub const PAGE_BYTES: usize = PAGE_SIZE;

/// Sparse byte-addressable memory with 4 KiB lazily-allocated pages.
///
/// # Examples
///
/// ```
/// use phelps_isa::{Memory, MemWidth};
///
/// let mut mem = Memory::new();
/// mem.write(0x1000, MemWidth::D, 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read(0x1000, MemWidth::D, false), 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read(0x1000, MemWidth::B, false), 0x0d); // little-endian
/// ```
#[derive(Clone, Default, Debug)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl Memory {
    /// Creates an empty memory; all bytes read as zero until written.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes held by resident pages. This is the footprint a
    /// serialized snapshot of this memory pays, and the unit checkpoint
    /// restore is linear in — not the (sparse) addressed range.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Iterates resident pages as `(base_addr, contents)` in ascending
    /// address order. The order is deterministic so serializers and
    /// content hashes built on top are stable across runs and platforms.
    ///
    /// Touched-but-zero pages are yielded like any other; callers that
    /// want semantic (zeros-elided) output must filter them.
    pub fn iter_pages(&self) -> impl Iterator<Item = (u64, &[u8; PAGE_BYTES])> {
        let mut ids: Vec<u64> = self.pages.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(move |id| (id << PAGE_SHIFT, &**self.pages.get(&id).unwrap()))
    }

    /// Rebuilds a memory from `(base_addr, contents)` pairs as yielded by
    /// [`Memory::iter_pages`]. Base addresses must be page-aligned; later
    /// duplicates overwrite earlier ones.
    ///
    /// # Panics
    ///
    /// Panics if a base address is not a multiple of [`PAGE_BYTES`].
    pub fn from_pages<I>(pages: I) -> Memory
    where
        I: IntoIterator<Item = (u64, Box<[u8; PAGE_BYTES]>)>,
    {
        let mut mem = Memory::new();
        for (base, page) in pages {
            assert_eq!(base & PAGE_MASK, 0, "page base {base:#x} not aligned");
            mem.pages.insert(base >> PAGE_SHIFT, page);
        }
        mem
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// The page holding `addr`, allocated zero-filled if not yet resident.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `width` bytes at `addr` (little-endian), zero- or sign-extending
    /// to 64 bits according to `signed`.
    pub fn read(&self, addr: u64, width: MemWidth, signed: bool) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        let raw = if off + width.bytes() as usize <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => match width {
                    MemWidth::B => u64::from(page[off]),
                    MemWidth::H => u64::from(u16::from_le_bytes(*chunk(page, off))),
                    MemWidth::W => u64::from(u32::from_le_bytes(*chunk(page, off))),
                    MemWidth::D => u64::from_le_bytes(*chunk(page, off)),
                },
                None => 0,
            }
        } else {
            self.read_straddling(addr, width)
        };
        let bits = 8 * width.bytes() as u32;
        if signed && bits < 64 {
            let shift = 64 - bits;
            return (((raw << shift) as i64) >> shift) as u64;
        }
        raw
    }

    /// [`Memory::read`]'s raw bytes for an access that straddles two pages,
    /// one byte at a time.
    #[cold]
    #[inline(never)]
    fn read_straddling(&self, addr: u64, width: MemWidth) -> u64 {
        (0..width.bytes()).fold(0, |raw, i| {
            raw | u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i)
        })
    }

    /// Writes the low `width` bytes of `value` at `addr` (little-endian),
    /// allocating every page the access touches, even when it writes zeros.
    pub fn write(&mut self, addr: u64, width: MemWidth, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off + width.bytes() as usize > PAGE_SIZE {
            self.write_straddling(addr, width, value);
            return;
        }
        let page = self.page_mut(addr);
        match width {
            MemWidth::B => page[off] = value as u8,
            MemWidth::H => *chunk_mut(page, off) = (value as u16).to_le_bytes(),
            MemWidth::W => *chunk_mut(page, off) = (value as u32).to_le_bytes(),
            MemWidth::D => *chunk_mut(page, off) = value.to_le_bytes(),
        }
    }

    /// [`Memory::write`] for an access that straddles two pages, one byte
    /// at a time.
    #[cold]
    #[inline(never)]
    fn write_straddling(&mut self, addr: u64, width: MemWidth, value: u64) {
        for i in 0..width.bytes() {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Convenience: read a 64-bit doubleword.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, MemWidth::D, false)
    }

    /// Convenience: write a 64-bit doubleword.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, MemWidth::D, value);
    }

    /// Address and differing bytes `(addr, self_byte, other_byte)` of the
    /// lowest-addressed difference between two memories, or `None` if they
    /// hold identical contents.
    ///
    /// Pages resident in only one memory compare against zeros, so two
    /// memories differing only in *touched-but-zero* pages are equal —
    /// semantic equality, not representational.
    ///
    /// # Examples
    ///
    /// ```
    /// use phelps_isa::Memory;
    /// let mut a = Memory::new();
    /// let b = Memory::new();
    /// a.write_u8(0x2001, 0); // touched but still zero
    /// assert_eq!(a.first_difference(&b), None);
    /// a.write_u8(0x2001, 7);
    /// assert_eq!(a.first_difference(&b), Some((0x2001, 7, 0)));
    /// ```
    pub fn first_difference(&self, other: &Memory) -> Option<(u64, u8, u8)> {
        let mut page_ids: Vec<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        page_ids.sort_unstable();
        page_ids.dedup();
        const ZEROS: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];
        for id in page_ids {
            let a = self.pages.get(&id).map(|p| &p[..]).unwrap_or(&ZEROS);
            let b = other.pages.get(&id).map(|p| &p[..]).unwrap_or(&ZEROS);
            if let Some(off) = (0..PAGE_SIZE).find(|&i| a[i] != b[i]) {
                return Some(((id << PAGE_SHIFT) + off as u64, a[off], b[off]));
            }
        }
        None
    }
}

/// The `N` bytes of `page` at `off`; the caller has checked they fit.
fn chunk<const N: usize>(page: &[u8; PAGE_SIZE], off: usize) -> &[u8; N] {
    page[off..]
        .first_chunk()
        .expect("access checked to lie in one page")
}

/// Mutable [`chunk`].
fn chunk_mut<const N: usize>(page: &mut [u8; PAGE_SIZE], off: usize) -> &mut [u8; N] {
    page[off..]
        .first_chunk_mut()
        .expect("access checked to lie in one page")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read(0, MemWidth::D, false), 0);
        assert_eq!(mem.read(0xffff_ffff_ffff_fff0, MemWidth::D, false), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut mem = Memory::new();
        mem.write(0x100, MemWidth::B, 0xab);
        mem.write(0x200, MemWidth::H, 0xabcd);
        mem.write(0x300, MemWidth::W, 0xdead_beef);
        mem.write(0x400, MemWidth::D, 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read(0x100, MemWidth::B, false), 0xab);
        assert_eq!(mem.read(0x200, MemWidth::H, false), 0xabcd);
        assert_eq!(mem.read(0x300, MemWidth::W, false), 0xdead_beef);
        assert_eq!(mem.read(0x400, MemWidth::D, false), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn sign_extension() {
        let mut mem = Memory::new();
        mem.write(0x10, MemWidth::B, 0x80);
        assert_eq!(mem.read(0x10, MemWidth::B, true), 0xffff_ffff_ffff_ff80);
        assert_eq!(mem.read(0x10, MemWidth::B, false), 0x80);
        mem.write(0x20, MemWidth::W, 0x8000_0000);
        assert_eq!(mem.read(0x20, MemWidth::W, true), 0xffff_ffff_8000_0000);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new();
        mem.write(0x40, MemWidth::W, 0x0403_0201);
        assert_eq!(mem.read_u8(0x40), 0x01);
        assert_eq!(mem.read_u8(0x41), 0x02);
        assert_eq!(mem.read_u8(0x42), 0x03);
        assert_eq!(mem.read_u8(0x43), 0x04);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = Memory::new();
        let addr = 0x1000 - 4; // straddles page 0 and page 1
        mem.write(addr, MemWidth::D, 0x1122_3344_5566_7788);
        assert_eq!(mem.read(addr, MemWidth::D, false), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn first_difference_finds_lowest_addressed_byte() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.first_difference(&b), None);
        a.write_u64(0x9000, 0x0102_0304_0506_0708);
        b.write_u64(0x9000, 0x0102_0304_0506_0708);
        assert_eq!(a.first_difference(&b), None);
        // Differ in two places; the lower address wins.
        b.write_u8(0x9003, 0xaa);
        a.write_u8(0xf000, 1);
        assert_eq!(a.first_difference(&b), Some((0x9003, 0x05, 0xaa)));
        assert_eq!(b.first_difference(&a), Some((0x9003, 0xaa, 0x05)));
    }

    #[test]
    fn first_difference_treats_absent_pages_as_zero() {
        let mut a = Memory::new();
        let b = Memory::new();
        a.write_u8(0x5000, 0); // resident page, all zeros
        assert_eq!(a.first_difference(&b), None);
        assert_eq!(b.first_difference(&a), None);
        a.write_u8(0x5001, 3);
        assert_eq!(b.first_difference(&a), Some((0x5001, 0, 3)));
    }

    #[test]
    fn iter_pages_is_sorted_and_roundtrips() {
        let mut mem = Memory::new();
        // Touch pages out of address order, including a straddling write.
        mem.write_u64(0x9000, 0xdead_beef);
        mem.write_u8(0x2fff, 0x42); // last byte of page 2
        mem.write(0x4ffc, MemWidth::D, 0x1122_3344_5566_7788); // straddles 4/5
        let bases: Vec<u64> = mem.iter_pages().map(|(b, _)| b).collect();
        assert_eq!(bases, vec![0x2000, 0x4000, 0x5000, 0x9000]);
        assert_eq!(mem.resident_bytes(), 4 * PAGE_BYTES);

        let back = Memory::from_pages(mem.iter_pages().map(|(b, p)| (b, Box::new(*p))));
        assert_eq!(mem.first_difference(&back), None);
        assert_eq!(back.read_u8(0x2fff), 0x42);
        assert_eq!(back.read(0x4ffc, MemWidth::D, false), 0x1122_3344_5566_7788);
        assert_eq!(back.resident_pages(), 4);
    }

    #[test]
    fn zero_page_roundtrip_preserves_semantics() {
        let mut mem = Memory::new();
        mem.write_u8(0x7000, 0); // resident but all-zero
        mem.write_u8(0x8008, 9);
        assert_eq!(mem.resident_pages(), 2);

        // Representational round-trip keeps the zero page resident...
        let full = Memory::from_pages(mem.iter_pages().map(|(b, p)| (b, Box::new(*p))));
        assert_eq!(full.resident_pages(), 2);
        assert_eq!(mem.first_difference(&full), None);

        // ...while a zeros-elided round-trip is still semantically equal.
        let elided = Memory::from_pages(
            mem.iter_pages()
                .filter(|(_, p)| p.iter().any(|&b| b != 0))
                .map(|(b, p)| (b, Box::new(*p))),
        );
        assert_eq!(elided.resident_pages(), 1);
        assert_eq!(mem.first_difference(&elided), None);
        assert_eq!(elided.read_u8(0x8008), 9);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn from_pages_rejects_unaligned_base() {
        let _ = Memory::from_pages([(0x123u64, Box::new([0u8; PAGE_BYTES]))]);
    }

    #[test]
    fn page_hash_spreads_high_bit_strides_over_buckets() {
        // Array bases 16 MiB apart: page numbers differing only above
        // bit 11, which a bare multiply would send to one bucket.
        let buckets: std::collections::HashSet<u64> = (0..64u64)
            .map(|k| {
                let mut h = PageHasher::default();
                h.write_u64(k << 12);
                h.finish() & 0x3f
            })
            .collect();
        assert!(buckets.len() >= 32, "{} of 64 buckets used", buckets.len());
    }

    #[test]
    fn partial_overwrite_preserves_neighbors() {
        let mut mem = Memory::new();
        mem.write(0x600, MemWidth::D, u64::MAX);
        mem.write(0x602, MemWidth::B, 0);
        assert_eq!(mem.read(0x600, MemWidth::D, false), 0xffff_ffff_ff00_ffff);
    }
}

//! # phelps-ckpt
//!
//! Architectural checkpointing for SimPoint region runs.
//!
//! Every region run used to pay a functional fast-forward from
//! instruction 0 to the region's `start_inst` — O(`start_inst`) emulated
//! instructions per cell, and the dominant wall-clock cost of the figure
//! matrix once results themselves are cached. This crate captures the full
//! architectural state of the functional emulator (PC, integer register
//! file, sparse memory pages, retired count) at each `start_inst` during a
//! *single* fast-forward pass, persists it in a versioned, CRC-checked
//! binary file, and restores it later in O(resident pages).
//!
//! ## Keying
//!
//! Checkpoints are pure functions of *architecture*, not of any timing
//! configuration, so one file serves every mode/config combination. A
//! [`RegionKey`] carries a 128-bit content hash over the workload label,
//! the program (its base, length, and each instruction's `Debug`
//! rendering), the CPU's initial architectural state (PC, registers,
//! resident memory image), and `start_inst`. The hash both names the file
//! and is embedded in it; a collision on the file name or a stale file
//! therefore decodes as [`format::FormatError::StaleKey`] and degrades to
//! a miss, never a wrong restore.
//!
//! ## Warmup
//!
//! A checkpoint may be captured `lead = start_inst - state.retired`
//! instructions *before* the region so that [`resume`] can replay the tail
//! through [`phelps_isa::Cpu::step`], handing the last `W` replayed
//! [`ExecRecord`]s to the caller for functional warming of caches and the
//! branch predictor. With `W = 0` the restored CPU is bit-for-bit the CPU
//! the fast-forward path would have produced, and no warming records are
//! emitted — today's behavior exactly.
//!
//! ```
//! use phelps_ckpt::{capture_snapshots, region_key, resume, CheckpointStore};
//! use phelps_isa::{Asm, Cpu, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new(0);
//! a.li(Reg::A0, 0);
//! a.label("loop");
//! a.addi(Reg::A0, Reg::A0, 1);
//! a.j("loop");
//! let prog = a.assemble()?;
//!
//! let key = region_key("spin", &Cpu::new(prog.clone()), 1_000);
//! let snaps = capture_snapshots(&mut Cpu::new(prog.clone()), &[1_000], 0)?;
//! let restored = resume(Cpu::new(prog), &snaps[0], 0)?;
//! assert_eq!(restored.cpu.retired(), 1_000);
//! assert_eq!(key.start_inst, 1_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod format;

use phelps_isa::{Cpu, CpuState, EmuError, ExecRecord};
use std::path::{Path, PathBuf};

pub use format::FormatError;

/// Identifies the checkpoint for one (workload, program+initial state,
/// region start) triple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionKey {
    /// Human-readable workload label (diagnostics only — correctness rests
    /// on the content hash, which covers the label too).
    pub label: String,
    /// Region start in retired instructions.
    pub start_inst: u64,
    /// 128-bit content hash (two independent 64-bit FNV-1a streams).
    pub hash: [u64; 2],
}

/// One captured checkpoint: the architectural state `lead` instructions
/// before `start_inst` (where `lead = start_inst - state.retired`, zero
/// for an exactly-at-the-region capture).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Architectural state at the capture point.
    pub state: CpuState,
    /// The region start this snapshot serves.
    pub start_inst: u64,
}

impl Snapshot {
    /// Instructions between the capture point and the region start —
    /// the replay budget available for functional warming.
    pub fn lead(&self) -> u64 {
        self.start_inst - self.state.retired
    }
}

/// A CPU positioned at a region start, plus the warming trace.
#[derive(Debug)]
pub struct RestoredRegion {
    /// The CPU, architecturally identical to one fast-forwarded to
    /// `start_inst`.
    pub cpu: Cpu,
    /// Records of the last `min(W, lead)` replayed instructions, oldest
    /// first, for functional warming of the timing model.
    pub warm: Vec<ExecRecord>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Two independent FNV-1a streams: the second perturbs each input byte so
/// the halves do not co-collide. 64-bit FNV alone names cache files
/// elsewhere in the workspace, but a checkpoint's content *is* its hash
/// (the raw input is megabytes and not embeddable), so we widen to 128
/// bits instead of embedding a fingerprint string.
#[derive(Clone, Copy)]
struct ContentHasher {
    a: u64,
    b: u64,
}

impl ContentHasher {
    fn new() -> ContentHasher {
        ContentHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ 0x517c_c1b7_2722_0a95,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(x ^ 0xa5)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> [u64; 2] {
        [self.a, self.b]
    }
}

/// Computes the region key for `cpu` in its *current* state. Call with
/// the freshly-built workload CPU (before any fast-forward): the hash
/// covers the label, the program (base, length, and each instruction's
/// `Debug` rendering, which spells out every field), PC, registers, the
/// resident memory image, and `start_inst` itself.
pub fn region_key(label: &str, cpu: &Cpu, start_inst: u64) -> RegionKey {
    let mut h = ContentHasher::new();
    h.write(label.as_bytes());
    h.write_u64(cpu.program().base());
    h.write_u64(cpu.program().len() as u64);
    for (_, inst) in cpu.program().iter() {
        h.write(format!("{inst:?}").as_bytes());
    }
    h.write_u64(cpu.pc());
    h.write_u64(cpu.retired());
    for r in phelps_isa::Reg::all() {
        h.write_u64(cpu.reg(r));
    }
    for (base, page) in cpu.mem.iter_pages() {
        if page.iter().all(|&b| b == 0) {
            continue; // semantic hash: residency of zero pages is noise
        }
        h.write_u64(base);
        h.write(&page[..]);
    }
    h.write_u64(start_inst);
    RegionKey {
        label: label.to_string(),
        start_inst,
        hash: h.finish(),
    }
}

/// Captures snapshots for every start in `starts` (which must be
/// ascending) in one forward pass over `cpu`, each taken `warm_lead`
/// instructions early (clamped at the CPU's current position) so restores
/// can warm-replay up to `warm_lead` instructions.
///
/// If the program halts before a capture point the snapshot records the
/// halted state — restoring it reproduces exactly what fast-forwarding
/// would have seen.
///
/// # Errors
///
/// Propagates [`EmuError::PcOutOfRange`] from the underlying run.
///
/// # Panics
///
/// Panics if `starts` is not ascending or the CPU has already run past
/// the first capture point.
pub fn capture_snapshots(
    cpu: &mut Cpu,
    starts: &[u64],
    warm_lead: u64,
) -> Result<Vec<Snapshot>, EmuError> {
    let mut out = Vec::with_capacity(starts.len());
    let mut prev = None;
    for &start in starts {
        assert!(
            prev.is_none_or(|p| p < start),
            "starts must be strictly ascending"
        );
        prev = Some(start);
        let at = start.saturating_sub(warm_lead).max(cpu.retired());
        assert!(
            at >= cpu.retired(),
            "cpu already ran past capture point {at}"
        );
        cpu.run(at - cpu.retired())?;
        out.push(Snapshot {
            state: cpu.capture_state(),
            start_inst: start,
        });
    }
    Ok(out)
}

/// Restores `snap` into `cpu` (which must be running the same program the
/// snapshot came from — guaranteed when the snapshot was fetched by
/// content-hashed key) and replays up to the region start, returning the
/// last `min(warm_window, lead)` replayed records for functional warming.
///
/// # Errors
///
/// Propagates [`EmuError::PcOutOfRange`] if replay derails — only
/// possible if the caller paired the snapshot with the wrong program.
pub fn resume(mut cpu: Cpu, snap: &Snapshot, warm_window: u64) -> Result<RestoredRegion, EmuError> {
    cpu.restore_state(&snap.state);
    let plain_until = snap.start_inst - warm_window.min(snap.lead());
    while cpu.retired() < plain_until && !cpu.is_halted() {
        cpu.step()?;
    }
    let mut warm = Vec::new();
    while cpu.retired() < snap.start_inst && !cpu.is_halted() {
        warm.push(cpu.step()?);
    }
    Ok(RestoredRegion { cpu, warm })
}

/// On-disk store of checkpoints, one file per [`RegionKey`], named by the
/// key's content hash.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a key maps to.
    pub fn path_of(&self, key: &RegionKey) -> PathBuf {
        self.dir
            .join(format!("{:016x}{:016x}.ckpt", key.hash[0], key.hash[1]))
    }

    /// Cheap existence probe (no validation — `load` still decides).
    pub fn contains(&self, key: &RegionKey) -> bool {
        self.path_of(key).is_file()
    }

    /// Loads and validates the checkpoint for `key`. Every failure —
    /// missing file, truncation, CRC mismatch, version skew, stale hash —
    /// is a miss; anything but a missing file additionally warns, so
    /// silent staleness can't hide (same semantics as the result cache).
    pub fn load(&self, key: &RegionKey) -> Option<Snapshot> {
        let path = self.path_of(key);
        let bytes = std::fs::read(&path).ok()?;
        match format::decode(&bytes, key) {
            Ok(snap) => Some(snap),
            Err(e) => {
                eprintln!(
                    "warning: ignoring checkpoint {} for {}@{}: {e} (treated as a miss)",
                    path.display(),
                    key.label,
                    key.start_inst
                );
                None
            }
        }
    }

    /// Persists a snapshot for `key`. Written to a temporary file and
    /// renamed so concurrent readers never observe a torn write (a torn
    /// temp file would fail CRC anyway). The temp name is unique per
    /// save — pid alone is not enough, since sharded runs save the same
    /// key from multiple worker threads at once and a shared temp path
    /// would let one thread's rename steal another's in-progress write.
    /// Errors are reported but non-fatal — the in-memory snapshot is
    /// still usable.
    pub fn save(&self, key: &RegionKey, snap: &Snapshot) {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        debug_assert_eq!(key.start_inst, snap.start_inst);
        let path = self.path_of(key);
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
            std::fs::write(&tmp, format::encode(key, snap))?;
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = write() {
            eprintln!("warning: cannot write checkpoint {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps_isa::{Asm, Reg};

    fn counting_prog(base: u64) -> phelps_isa::Program {
        let mut a = Asm::new(base);
        a.li(Reg::A0, 0);
        a.li(Reg::A1, 0x8000);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, 1);
        a.sd(Reg::A0, Reg::A1, 0);
        a.ld(Reg::A2, Reg::A1, 0);
        a.j("loop");
        a.assemble().unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("phelps-ckpt-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn restored_cpu_matches_fast_forwarded_cpu() {
        let prog = counting_prog(0x1000);
        let mut ff = Cpu::new(prog.clone());
        ff.run(10_000).unwrap();

        let snaps = capture_snapshots(&mut Cpu::new(prog.clone()), &[10_000], 0).unwrap();
        let restored = resume(Cpu::new(prog), &snaps[0], 0).unwrap();
        assert!(restored.warm.is_empty(), "W=0 emits no warming records");
        assert_eq!(restored.cpu.pc(), ff.pc());
        assert_eq!(restored.cpu.retired(), ff.retired());
        assert_eq!(restored.cpu.reg(Reg::A0), ff.reg(Reg::A0));
        assert_eq!(restored.cpu.mem.first_difference(&ff.mem), None);
    }

    #[test]
    fn warm_replay_covers_the_window_and_lands_on_start() {
        let prog = counting_prog(0x1000);
        let mut ff = Cpu::new(prog.clone());
        ff.run(5_000).unwrap();

        // Capture 1000 early; restore with a 300-instruction warm window.
        let snaps = capture_snapshots(&mut Cpu::new(prog.clone()), &[5_000], 1_000).unwrap();
        assert_eq!(snaps[0].lead(), 1_000);
        let restored = resume(Cpu::new(prog), &snaps[0], 300).unwrap();
        assert_eq!(restored.warm.len(), 300);
        assert_eq!(restored.cpu.retired(), 5_000);
        assert_eq!(restored.cpu.pc(), ff.pc());
        assert_eq!(restored.cpu.mem.first_difference(&ff.mem), None);
        // The window is the *last* 300 instructions before the region.
        let mut tail = Cpu::new(counting_prog(0x1000));
        tail.run(4_700).unwrap();
        assert_eq!(restored.warm[0], tail.step().unwrap());
    }

    #[test]
    fn warm_window_larger_than_lead_is_clamped() {
        let prog = counting_prog(0x1000);
        let snaps = capture_snapshots(&mut Cpu::new(prog.clone()), &[1_000], 50).unwrap();
        let restored = resume(Cpu::new(prog), &snaps[0], 10_000).unwrap();
        assert_eq!(restored.warm.len(), 50);
        assert_eq!(restored.cpu.retired(), 1_000);
    }

    #[test]
    fn multi_point_capture_is_single_pass_and_consistent() {
        let prog = counting_prog(0x1000);
        let mut cpu = Cpu::new(prog.clone());
        let snaps = capture_snapshots(&mut cpu, &[1_000, 2_500, 9_000], 0).unwrap();
        assert_eq!(cpu.retired(), 9_000, "pass stopped at the last point");
        for (snap, want) in snaps.iter().zip([1_000u64, 2_500, 9_000]) {
            let mut ff = Cpu::new(prog.clone());
            ff.run(want).unwrap();
            let r = resume(Cpu::new(prog.clone()), snap, 0).unwrap();
            assert_eq!(r.cpu.retired(), want);
            assert_eq!(r.cpu.pc(), ff.pc());
            assert_eq!(r.cpu.reg(Reg::A0), ff.reg(Reg::A0));
            assert_eq!(r.cpu.mem.first_difference(&ff.mem), None);
        }
    }

    #[test]
    fn halting_program_checkpoints_like_fast_forward() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 3);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::ZERO, "loop");
        a.halt();
        let prog = a.assemble().unwrap();
        // Program retires 8 instructions then halts; ask for start 100.
        let snaps = capture_snapshots(&mut Cpu::new(prog.clone()), &[100], 0).unwrap();
        assert!(snaps[0].state.halted);
        let r = resume(Cpu::new(prog.clone()), &snaps[0], 0).unwrap();
        assert!(r.cpu.is_halted());
        let mut ff = Cpu::new(prog);
        ff.run(100).unwrap();
        assert_eq!(r.cpu.retired(), ff.retired());
        assert_eq!(r.cpu.pc(), ff.pc());
    }

    #[test]
    fn store_roundtrip_and_sharing_by_content() {
        let dir = tmpdir("store");
        let store = CheckpointStore::new(&dir);
        let prog = counting_prog(0x1000);
        let key = region_key("count", &Cpu::new(prog.clone()), 2_000);
        assert!(!store.contains(&key));
        assert!(store.load(&key).is_none(), "missing file is a silent miss");

        let snaps = capture_snapshots(&mut Cpu::new(prog.clone()), &[2_000], 0).unwrap();
        store.save(&key, &snaps[0]);
        assert!(store.contains(&key));
        let loaded = store.load(&key).expect("hit");
        assert_eq!(loaded.start_inst, 2_000);
        let r = resume(Cpu::new(prog.clone()), &loaded, 0).unwrap();
        assert_eq!(r.cpu.retired(), 2_000);

        // The same workload rebuilt from scratch maps to the same key —
        // that is what shares checkpoints across configs and modes.
        let again = region_key("count", &Cpu::new(prog.clone()), 2_000);
        assert_eq!(again, key);
        // A different label, start, or program does not.
        assert_ne!(
            region_key("other", &Cpu::new(prog.clone()), 2_000).hash,
            key.hash
        );
        assert_ne!(
            region_key("count", &Cpu::new(prog.clone()), 2_001).hash,
            key.hash
        );
        assert_ne!(
            region_key("count", &Cpu::new(counting_prog(0x2000)), 2_000).hash,
            key.hash
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_covers_initial_memory_and_registers() {
        let prog = counting_prog(0x1000);
        let base = region_key("w", &Cpu::new(prog.clone()), 100);
        let mut with_mem = Cpu::new(prog.clone());
        with_mem.mem.write_u64(0x9000, 7);
        assert_ne!(region_key("w", &with_mem, 100).hash, base.hash);
        let mut with_reg = Cpu::new(prog.clone());
        with_reg.set_reg(Reg::A5, 9);
        assert_ne!(region_key("w", &with_reg, 100).hash, base.hash);
        // Touched-but-zero memory is semantic noise and does not change it.
        let mut zero_touch = Cpu::new(prog);
        zero_touch.mem.write_u8(0xf000, 0);
        assert_eq!(region_key("w", &zero_touch, 100).hash, base.hash);
    }

    #[test]
    fn key_covers_every_instruction() {
        // Same base and length; only the instruction `edit` emits differs.
        fn key(edit: impl FnOnce(&mut Asm) -> &mut Asm) -> [u64; 2] {
            let mut a = Asm::new(0x1000);
            a.li(Reg::A0, 0);
            a.label("top");
            edit(&mut a);
            a.label("next");
            a.addi(Reg::A0, Reg::A0, 1);
            a.j("top");
            region_key("w", &Cpu::new(a.assemble().unwrap()), 100).hash
        }
        let addi5 = key(|a| a.addi(Reg::A1, Reg::A1, 5));
        assert_eq!(addi5, key(|a| a.addi(Reg::A1, Reg::A1, 5)), "rebuilt");
        assert_ne!(addi5, key(|a| a.addi(Reg::A1, Reg::A1, 6)), "immediate");
        assert_ne!(
            key(|a| a.li(Reg::A1, 1 << 40)),
            key(|a| a.li(Reg::A1, (1 << 40) + 1)),
            "li constant wider than 20 bits"
        );
        assert_ne!(
            key(|a| a.beq(Reg::A0, Reg::A1, "top")),
            key(|a| a.beq(Reg::A0, Reg::A1, "next")),
            "branch target"
        );
    }

    #[test]
    fn corrupt_files_degrade_to_miss_without_panic() {
        let dir = tmpdir("corrupt");
        let store = CheckpointStore::new(&dir);
        let prog = counting_prog(0x1000);
        let key = region_key("count", &Cpu::new(prog.clone()), 1_500);
        let snaps = capture_snapshots(&mut Cpu::new(prog), &[1_500], 0).unwrap();
        store.save(&key, &snaps[0]);
        let path = store.path_of(&key);
        let good = std::fs::read(&path).unwrap();

        // Truncated.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(store.load(&key).is_none());
        // Bad CRC.
        let mut bad = good.clone();
        bad[100] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(store.load(&key).is_none());
        // Wrong version (CRC re-sealed so only the version check fires).
        let mut wrongver = good.clone();
        wrongver[8] = 9;
        let n = wrongver.len();
        let crc = format::crc32(&wrongver[..n - 4]);
        wrongver[n - 4..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &wrongver).unwrap();
        assert!(store.load(&key).is_none());
        // Stale content hash: a file saved under a different key placed at
        // this key's path.
        let other_prog = counting_prog(0x4000);
        let other_key = region_key("count", &Cpu::new(other_prog.clone()), 1_500);
        let other_snap = capture_snapshots(&mut Cpu::new(other_prog), &[1_500], 0).unwrap();
        std::fs::write(&path, format::encode(&other_key, &other_snap[0])).unwrap();
        assert!(store.load(&key).is_none());
        // And the original bytes still load.
        std::fs::write(&path, &good).unwrap();
        assert!(store.load(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

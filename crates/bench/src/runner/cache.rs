//! On-disk result cache for experiment cells.
//!
//! Each cell is fingerprinted by its experiment name, workload name,
//! configuration label, the `Debug` rendering of its full [`RunConfig`]
//! (which folds in `PHELPS_REGION`/`PHELPS_EPOCH` and every core
//! parameter), and the crate version. The FNV-1a hash of that string
//! names a JSON file under the cache directory holding the run's
//! [`SimStats`]. On load the embedded fingerprint is compared against
//! the full expected string, and every counter must be present, so a
//! hash collision or a stale schema degrades to a miss, never a wrong
//! result.
//!
//! # Concurrency
//!
//! The cache directory is shared: parallel runner workers, multiple
//! figure binaries, and every tenant of the `phelps-serve` daemon read
//! and write it concurrently. Two mechanisms keep that safe:
//!
//! * [`store`] writes to a unique temporary file and renames it into
//!   place (the same pattern as `phelps-ckpt`'s `CheckpointStore`), so a
//!   concurrent [`load`] never observes a torn write — it sees either
//!   the old complete file or the new complete file.
//! * [`key_locks`] is a process-wide per-fingerprint lock table. Callers
//!   computing a cell hold its key lock across the load → simulate →
//!   store sequence, so two threads racing on the *same* cell produce
//!   one simulation, one write, and one cache hit instead of duplicate
//!   work (`phelps_bench::exec` wires this up for both front doors).
//!
//! Telemetry reports are *not* cached: they are large and only wanted
//! under `PHELPS_TRACE`, which disables cache reads entirely.
//!
//! [`RunConfig`]: phelps::sim::RunConfig

use phelps::sim::SimResult;
use phelps_telemetry::{parse_json, JsonValue, JsonWriter};
use phelps_uarch::stats::SimStats;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// 64-bit FNV-1a; stable across platforms and good enough to name files
/// (correctness never depends on it thanks to the embedded fingerprint).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cache file path for a fingerprint string.
pub fn cell_path(dir: &Path, fingerprint: &str) -> PathBuf {
    dir.join(format!("{:016x}.json", fnv1a(fingerprint)))
}

/// Serializes one cell result: its fingerprint and its [`SimStats`]
/// (no telemetry).
pub(super) fn to_json(fingerprint: &str, r: &SimResult) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("fingerprint");
    w.string(fingerprint);
    w.key("stats");
    r.stats.write_json(&mut w);
    w.end_object();
    w.finish()
}

/// Reconstructs a [`SimResult`] from a parsed JSON object whose
/// `"stats"` member was written by [`SimStats::write_json`]. Shared by
/// the cache loader and the `phelps-serve` `result` frame, so a cached
/// cell and a streamed result decode the same way.
pub fn result_from_body(v: &JsonValue) -> Option<SimResult> {
    Some(SimResult {
        stats: SimStats::from_json(v.get("stats")?)?,
        telemetry: None,
        retire_log: None,
        final_state: None,
    })
}

fn parse_cell(text: &str, fingerprint: &str) -> Option<SimResult> {
    let v = parse_json(text).ok()?;
    if v.get("fingerprint")?.as_str()? != fingerprint {
        return None; // hash collision or stale schema
    }
    result_from_body(&v)
}

/// Attempts to load a cached result. Any failure — missing file, corrupt
/// JSON, fingerprint mismatch — is a miss; corruption additionally warns
/// so silent staleness can't hide.
pub fn load(dir: &Path, fingerprint: &str) -> Option<SimResult> {
    let path = cell_path(dir, fingerprint);
    let text = std::fs::read_to_string(&path).ok()?;
    let r = parse_cell(&text, fingerprint);
    if r.is_none() {
        eprintln!(
            "warning: ignoring corrupt or stale cache file {} (treated as a miss)",
            path.display()
        );
    }
    r
}

/// Persists one cell result; errors are reported but non-fatal (the
/// in-memory result is still used). The write goes to a unique temporary
/// file first and is renamed into place, so concurrent readers — other
/// runner workers, other processes, daemon tenants — never see a torn
/// file.
pub fn store(dir: &Path, fingerprint: &str, r: &SimResult) {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let path = cell_path(dir, fingerprint);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let res = std::fs::write(&tmp, to_json(fingerprint, r)).and_then(|()| {
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    });
    if let Err(e) = res {
        eprintln!("warning: cannot write cache file {}: {e}", path.display());
    }
}

/// A process-wide per-key lock table: at most one thread holds any given
/// key at a time; others block until it is released. Keys are cell
/// fingerprints, so two tenants racing to compute the same cell
/// serialize — the loser re-checks the cache after the winner's store
/// and hits instead of re-simulating (see `phelps_bench::exec`).
#[derive(Debug, Default)]
pub struct KeyLocks {
    held: Mutex<HashSet<String>>,
    released: Condvar,
}

impl KeyLocks {
    /// An empty lock table.
    pub fn new() -> KeyLocks {
        KeyLocks::default()
    }

    /// Acquires `key`, blocking while another thread holds it. The key is
    /// released when the returned guard drops.
    pub fn lock(&self, key: &str) -> KeyGuard<'_> {
        let mut held = self.held.lock().unwrap_or_else(|e| e.into_inner());
        while held.contains(key) {
            held = self.released.wait(held).unwrap_or_else(|e| e.into_inner());
        }
        held.insert(key.to_string());
        KeyGuard {
            locks: self,
            key: key.to_string(),
        }
    }
}

/// Holds one key in a [`KeyLocks`] table; releases (and wakes waiters) on
/// drop.
#[derive(Debug)]
pub struct KeyGuard<'a> {
    locks: &'a KeyLocks,
    key: String,
}

impl Drop for KeyGuard<'_> {
    fn drop(&mut self) {
        self.locks
            .held
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key);
        self.locks.released.notify_all();
    }
}

/// The process-global lock table guarding cache cells. Every front door
/// (the parallel runner, the `phelps-serve` worker pool) routes cell
/// execution through these locks, so identical cells never compute twice
/// within one process regardless of which API submitted them.
pub fn key_locks() -> &'static KeyLocks {
    static LOCKS: OnceLock<KeyLocks> = OnceLock::new();
    LOCKS.get_or_init(KeyLocks::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            stats: SimStats {
                cycles: 12_345,
                mt_retired: 1_000_000,
                l3_misses: 7,
                misp_eliminated: 42,
                misp_not_delinquent: 3,
                ..SimStats::default()
            },
            telemetry: None,
            retire_log: None,
            final_state: None,
        }
    }

    #[test]
    fn roundtrip_preserves_stats() {
        let r = sample();
        let text = to_json("fp", &r);
        assert!(text.starts_with(r#"{"fingerprint":"fp","stats":{"cycles":12345,"#));
        let back = parse_cell(&text, "fp").expect("parses");
        assert_eq!(back.stats, r.stats);
        assert!(back.telemetry.is_none());
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let text = to_json("fp-a", &sample());
        assert!(parse_cell(&text, "fp-b").is_none());
    }

    #[test]
    fn corrupt_text_is_a_miss() {
        assert!(parse_cell("{not json", "fp").is_none());
        assert!(parse_cell("{\"fingerprint\":\"fp\"}", "fp").is_none());
        assert!(parse_cell(&"[".repeat(10_000), "fp").is_none());
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: cache file names must not change across builds.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a("a"), fnv1a("b"));
    }

    #[test]
    fn store_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("phelps-cache-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        store(&dir, "fp", &sample());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "exactly the renamed file: {names:?}");
        assert!(names[0].ends_with(".json"));
        assert!(load(&dir, "fp").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_locks_serialize_same_key() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let locks = KeyLocks::new();
        let inside = AtomicUsize::new(0);
        let max_inside = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _g = locks.lock("same-key");
                        let n = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        max_inside.fetch_max(n, Ordering::SeqCst);
                        std::thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(
            max_inside.load(Ordering::SeqCst),
            1,
            "mutual exclusion per key"
        );
    }

    #[test]
    fn key_locks_distinct_keys_do_not_block() {
        let locks = KeyLocks::new();
        let _a = locks.lock("a");
        // Same thread: would deadlock if "b" contended with "a".
        let _b = locks.lock("b");
    }
}

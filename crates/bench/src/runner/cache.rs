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
//! The cache directory is shared by parallel runner workers and by
//! figure binaries running at once. [`store`] writes to a unique
//! temporary file and renames it into place (the same pattern as
//! `phelps-ckpt`'s `CheckpointStore`), so a concurrent [`load`] never
//! observes a torn write: it sees either the old complete file or the
//! new complete file. Nothing locks a fingerprint. Each figure binary
//! runs one matrix and no two of its cells share a name, so no two
//! threads of one process compute the same cell.
//!
//! Telemetry reports are *not* cached: they are large and only wanted
//! under `PHELPS_TRACE`, which disables cache reads entirely.
//!
//! [`RunConfig`]: phelps::sim::RunConfig

use phelps::sim::SimResult;
use phelps_telemetry::{parse_json, JsonWriter};
use phelps_uarch::stats::SimStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Reads a body [`to_json`] wrote for `fingerprint`; `None` when the
/// text is not JSON, names another fingerprint, or lacks a counter.
fn parse_cell(text: &str, fingerprint: &str) -> Option<SimResult> {
    let v = parse_json(text).ok()?;
    if v.get("fingerprint")?.as_str()? != fingerprint {
        return None; // hash collision or stale schema
    }
    Some(SimResult {
        stats: SimStats::from_json(v.get("stats")?)?,
        telemetry: None,
        retire_log: None,
        final_state: None,
    })
}

/// Why a [`lookup`] missed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miss {
    /// No file: the cell was never stored.
    Absent,
    /// A file that cannot be read or is not a body [`store`] wrote for
    /// this fingerprint: not UTF-8, not JSON, another fingerprint, or a
    /// missing counter.
    Corrupt,
}

/// Looks a fingerprint up without side effects; see [`load`].
pub fn lookup(dir: &Path, fingerprint: &str) -> Result<SimResult, Miss> {
    match std::fs::read(cell_path(dir, fingerprint)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(Miss::Absent),
        read => read
            .ok()
            .and_then(|bytes| parse_cell(std::str::from_utf8(&bytes).ok()?, fingerprint))
            .ok_or(Miss::Corrupt),
    }
}

/// Attempts to load a cached result. Any failure is a miss: an absent
/// file silently, and a present one that does not decode with a warning,
/// so silent staleness can't hide.
pub fn load(dir: &Path, fingerprint: &str) -> Option<SimResult> {
    let r = lookup(dir, fingerprint);
    if r.as_ref().err() == Some(&Miss::Corrupt) {
        eprintln!(
            "warning: ignoring corrupt or stale cache file {} (treated as a miss)",
            cell_path(dir, fingerprint).display()
        );
    }
    r.ok()
}

/// Persists one cell result; errors are reported but non-fatal (the
/// in-memory result is still used). The write goes to a unique temporary
/// file first and is renamed into place, so concurrent readers (other
/// runner workers, other processes) never see a torn file.
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
}

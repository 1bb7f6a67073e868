//! Mutation sweeps over the harness's decoders of untrusted bytes: the
//! result cache's cell files and the checkpoint files. Every prefix and
//! every single-byte flip of a valid file must decode to a miss or error
//! or to a value, never panic, and a cache file that is present but
//! does not decode is a warned miss, never a silent one.

use phelps::sim::SimResult;
use phelps_bench::runner::cache::{self, Miss};
use phelps_ckpt::{format, FormatError, RegionKey, Snapshot};
use phelps_isa::{CpuState, Memory, NUM_REGS};
use phelps_uarch::stats::SimStats;

fn result() -> SimResult {
    SimResult {
        stats: SimStats {
            cycles: 51_326,
            mt_retired: 50_000,
            mt_cond_branches: 9_100,
            mt_mispredicts: 1,
            misp_eliminated: 1,
            misp_not_delinquent: 1,
            ..SimStats::default()
        },
        telemetry: None,
        retire_log: None,
        final_state: None,
    }
}

/// Every prefix of `frame`, then every single-byte flip of it under
/// four masks (low bit, ASCII case bit, high bit, all bits).
fn mutations(frame: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..frame.len()).map(|n| frame[..n].to_vec());
    let flips = (0..frame.len()).flat_map(move |i| {
        [0x01u8, 0x20, 0x80, 0xff].into_iter().map(move |mask| {
            let mut f = frame.to_vec();
            f[i] ^= mask;
            f
        })
    });
    prefixes.chain(flips)
}

/// The result cache treats every mutated body as a valid result or a
/// corrupt file, never a panic; only a file that is not there reads as
/// absent, the one miss [`cache::load`] does not warn about.
#[test]
fn mutated_cache_bodies_load_as_a_miss_or_a_result() {
    let dir = std::env::temp_dir().join(format!("phelps-decoders-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fingerprint = "decoders|bfs|phelps|sweep";
    assert_eq!(cache::lookup(&dir, fingerprint).err(), Some(Miss::Absent));
    cache::store(&dir, fingerprint, &result());
    let path = cache::cell_path(&dir, fingerprint);
    let golden = std::fs::read(&path).unwrap();
    assert!(
        cache::lookup(&dir, fingerprint).is_ok(),
        "the stored body loads"
    );
    let (mut hits, mut corrupt, mut absent) = (0, 0, Vec::new());
    for (i, m) in mutations(&golden).enumerate() {
        std::fs::write(&path, &m).unwrap();
        match cache::lookup(&dir, fingerprint) {
            Ok(_) => hits += 1,
            Err(Miss::Corrupt) => corrupt += 1,
            Err(Miss::Absent) => absent.push(i),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(hits > 0 && corrupt > 0, "hits {hits}, corrupt {corrupt}");
    assert!(
        absent.is_empty(),
        "mutations {absent:?} of a present file read as absent (a silent miss)"
    );
}

/// The `"stats"` and `"breakdown"` members of [`result`] as the
/// simulator wrote them before the Fig. 14 bins became `SimStats`
/// counters: 29 counters, then the bins in an object of their own.
const STALE_BODY: &str = concat!(
    r#""stats":{"cycles":51326,"mt_retired":50000,"ht_retired":0,"mt_cond_branches":9100,"#,
    r#""mt_mispredicts":1,"mispredicts_from_queue":0,"preds_from_queue":0,"#,
    r#""queue_untimely":0,"load_violations":0,"triggers":0,"terminations":0,"#,
    r#""l1i_accesses":0,"l1i_misses":0,"l1d_accesses":0,"l1d_misses":0,"#,
    r#""l1d_store_accesses":0,"l1d_store_misses":0,"l2_misses":0,"l3_misses":0,"#,
    r#""prefetches_issued":0,"prefetch_hits":0,"mt_fetch_stall_mispredict":0,"#,
    r#""mt_fetch_stall_trigger":0,"mt_fetch_stall_ifetch":0,"l1i_port_stalls":0,"#,
    r#""l1d_port_stalls":0,"l2_port_stalls":0,"l3_port_stalls":0,"#,
    r#""dram_queue_stalls":0},"#,
    r#""breakdown":{"retired":50000,"counts":{"eliminated misp.":1,"not delinquent":1}}"#
);

/// A cache file in the old shape has no value for the bin counters, so
/// it reads as corrupt (a miss `cache::load` warns about) rather than as
/// a result whose bins read zero. The same cell in the current shape hits.
#[test]
fn stale_cache_body_loads_as_a_miss() {
    let dir = std::env::temp_dir().join(format!("phelps-decoders-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fingerprint = "decoders|bfs|phelps|stale";
    let path = cache::cell_path(&dir, fingerprint);
    std::fs::write(
        &path,
        format!(r#"{{"fingerprint":"{fingerprint}",{STALE_BODY}}}"#),
    )
    .unwrap();
    let stale = cache::lookup(&dir, fingerprint);
    cache::store(&dir, fingerprint, &result());
    let fresh = cache::load(&dir, fingerprint);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(stale.err(), Some(Miss::Corrupt), "stale body loaded");
    assert_eq!(fresh.expect("current body loads").stats, result().stats);
}

/// A one-page checkpoint file and the key it was written for.
fn checkpoint() -> (RegionKey, Vec<u8>) {
    let key = RegionKey {
        label: "sweep".to_string(),
        start_inst: 500,
        hash: [0x1111_2222_3333_4444, 0x5555_6666_7777_8888],
    };
    let mut mem = Memory::new();
    mem.write_u64(0x2008, 0xdead_beef);
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
    let file = format::encode(&key, &snap);
    (key, file)
}

/// `payload` followed by its CRC-32, as [`format::encode`] ends a file.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut file = payload.to_vec();
    file.extend_from_slice(&format::crc32(payload).to_le_bytes());
    file
}

/// Every prefix and byte flip of a checkpoint's payload, re-sealed with
/// a matching CRC so that the corruption reaches the field checks,
/// decodes to an error or to a snapshot that encodes back to the same
/// file.
#[test]
fn mutated_checkpoints_decode_to_an_error_or_a_snapshot() {
    let (key, golden) = checkpoint();
    let payload = &golden[..golden.len() - 4];
    assert_eq!(sealed(payload), golden);
    let (mut snapshots, mut errors) = (0, 0);
    for m in mutations(payload) {
        let file = sealed(&m);
        match format::decode(&file, &key) {
            Ok(snap) => {
                assert_eq!(
                    format::encode(&key, &snap),
                    file,
                    "a decoded file re-encodes"
                );
                snapshots += 1;
            }
            Err(_) => errors += 1,
        }
    }
    assert!(
        snapshots > 0 && errors > 0,
        "snapshots {snapshots}, errors {errors}"
    );
}

/// A page count of `u64::MAX` under a valid CRC fails at the first page
/// the file does not hold. The decoder sizes nothing from the count, so
/// this is `Truncated` and not an allocation of 2^64 pages.
#[test]
fn huge_page_count_is_truncated() {
    const PAGE_COUNT: std::ops::Range<usize> = 309..317;
    let (key, golden) = checkpoint();
    let mut payload = golden[..golden.len() - 4].to_vec();
    assert_eq!(payload[PAGE_COUNT], 1u64.to_le_bytes(), "one resident page");
    payload[PAGE_COUNT].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(
        format::decode(&sealed(&payload), &key).unwrap_err(),
        FormatError::Truncated
    );
}

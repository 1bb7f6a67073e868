//! End-to-end daemon tests over real localhost TCP: concurrent clients
//! with overlapping cell matrices, backpressure under a saturated
//! queue, malformed-frame survival, disconnect-mid-stream durability,
//! and clean drain-on-shutdown.

use phelps_serve::{server, Client, Dedup, JobOutcome, Request, Response, ServeConfig, Submit};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Generous bound so a wedged daemon fails the test instead of hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(300);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phelps-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn daemon(workers: usize, queue_capacity: usize, cache_dir: &Path) -> server::ServerHandle {
    server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        cache_dir: Some(cache_dir.to_path_buf()),
        retry_after_ms: 50,
        session_capacity: 32,
        quiet: true,
    })
    .expect("bind daemon")
}

fn client(handle: &server::ServerHandle) -> Client {
    let c = Client::connect_local(handle.port()).expect("connect");
    c.set_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    c
}

fn cell(id: &str, workload: &str, mode: &str, region: u64, epoch: u64) -> Submit {
    Submit {
        id: id.to_string(),
        workload: workload.to_string(),
        mode: mode.to_string(),
        region: Some(region),
        epoch: Some(epoch),
        corun: None,
    }
}

/// Requests shutdown, waits for the drain, and asserts nothing leaked.
fn shutdown(handle: server::ServerHandle) -> server::ServeReport {
    let mut c = client(&handle);
    match c.request(&Request::Shutdown).expect("shutdown rpc") {
        Response::ShutdownAck => {}
        other => panic!("expected shutdown_ack, got {other:?}"),
    }
    let report = handle.join().expect("clean shutdown");
    assert_eq!(report.stats.queue_depth, 0, "queue drained");
    assert_eq!(report.stats.in_flight, 0, "no leaked jobs");
    report
}

/// The acceptance scenario: four concurrent clients submit overlapping
/// 4-cell matrices (in rotated order, to force every dedup path);
/// identical cells execute exactly once, every client sees live epoch
/// samples before its final result, and all clients agree on both the
/// epoch series and the final stats of each cell.
#[test]
fn four_clients_share_one_simulation_per_cell() {
    let dir = scratch("matrix");
    let handle = daemon(3, 64, &dir);
    let cells = [
        ("bfs", "baseline"),
        ("bfs", "phelps"),
        ("astar", "baseline"),
        ("astar", "phelps"),
    ];

    let outcomes: Vec<Vec<(usize, JobOutcome)>> = std::thread::scope(|s| {
        let handle = &handle;
        let threads: Vec<_> = (0..4)
            .map(|c| {
                s.spawn(move || {
                    let mut cl = client(handle);
                    (0..cells.len())
                        .map(|k| {
                            let idx = (c + k) % cells.len();
                            let (w, m) = cells[idx];
                            let out = cl
                                .submit(cell(&format!("c{c}-{idx}"), w, m, 12_000, 2_000))
                                .expect("submit");
                            (idx, out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let mut per_cell: Vec<Vec<&JobOutcome>> = vec![Vec::new(); cells.len()];
    for client_outcomes in &outcomes {
        for (idx, out) in client_outcomes {
            assert!(
                out.busy.is_none() && out.error.is_none(),
                "cell {idx}: busy={:?} error={:?}",
                out.busy,
                out.error
            );
            assert!(out.result.is_some(), "cell {idx}: missing result");
            assert!(
                !out.epochs.is_empty(),
                "cell {idx}: every client must receive epoch samples before its result"
            );
            per_cell[*idx].push(out);
        }
    }
    for (idx, outs) in per_cell.iter().enumerate() {
        assert_eq!(outs.len(), 4, "cell {idx} answered for every client");
        let stats0 = format!("{:?}", outs[0].result.as_ref().unwrap().1.stats);
        let epochs0: Vec<_> = outs[0].epochs.iter().map(|(_, s)| s.clone()).collect();
        for out in outs {
            assert_eq!(
                format!("{:?}", out.result.as_ref().unwrap().1.stats),
                stats0,
                "cell {idx}: all clients see identical stats"
            );
            let series: Vec<_> = out.epochs.iter().map(|(_, s)| s.clone()).collect();
            assert_eq!(
                series, epochs0,
                "cell {idx}: all clients see the same epoch series"
            );
        }
    }

    let mut c = client(&handle);
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.simulated, 4,
        "each distinct cell simulated exactly once"
    );
    assert_eq!(stats.accepted, 4);
    assert_eq!(
        stats.dedup_in_flight + stats.session_hits,
        12,
        "the other 12 submissions deduplicated"
    );
    assert_eq!(stats.disk_hits, 0, "fresh cache dir: no disk hits");
    assert_eq!(stats.busy_rejections, 0);
    drop(c);

    let report = shutdown(handle);
    assert_eq!(report.stats.simulated, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With one worker and a one-slot queue, a burst of distinct cells gets
/// explicit `busy` rejections — and the accept loop keeps answering new
/// connections while the worker is saturated.
#[test]
fn saturated_queue_answers_busy_without_stalling_the_daemon() {
    let dir = scratch("busy");
    let handle = daemon(1, 1, &dir);
    let mut submitter = client(&handle);
    for i in 0..4u64 {
        submitter
            .send(&Request::Submit(cell(
                &format!("b{i}"),
                "bfs",
                "baseline",
                600_000 + i,
                500_000,
            )))
            .unwrap();
    }
    // First verdict per id (accepted or busy), skipping interleaved
    // epoch/result frames from the jobs that were admitted.
    let mut verdicts: HashMap<String, &'static str> = HashMap::new();
    while verdicts.len() < 4 {
        match submitter.recv().unwrap() {
            Response::Accepted { id, .. } => {
                verdicts.entry(id).or_insert("accepted");
            }
            Response::Busy { id, retry_after_ms } => {
                assert_eq!(retry_after_ms, 50, "configured backoff hint");
                verdicts.entry(id).or_insert("busy");
            }
            Response::Error { id, reason } => panic!("unexpected error for {id:?}: {reason}"),
            _ => {}
        }
    }
    let busy = verdicts.values().filter(|v| **v == "busy").count();
    assert!(
        (1..=3).contains(&busy),
        "queue_cap=1 must reject part of the burst: {verdicts:?}"
    );

    // Fresh connection while saturated: control plane still answers.
    let mut prober = client(&handle);
    match prober.request(&Request::Ping).unwrap() {
        Response::Pong => {}
        other => panic!("expected pong, got {other:?}"),
    }
    assert!(prober.stats().unwrap().busy_rejections >= 1);
    drop(prober);

    let report = shutdown(handle);
    assert!(report.stats.busy_rejections >= 1);
    assert_eq!(
        report.stats.simulated as usize,
        4 - busy,
        "admitted jobs drained through shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed frames get an error response and the connection (and
/// daemon) keep working.
#[test]
fn malformed_frames_are_rejected_and_the_connection_survives() {
    let dir = scratch("malformed");
    let handle = daemon(1, 4, &dir);
    let mut cl = client(&handle);
    // Nested far deeper than the JSON parser's cap, yet well under the
    // frame size cap: it must be an error frame, not a stack overflow
    // on the connection thread.
    let nested = "[".repeat(10_000);
    for (raw, expect_id) in [
        ("this is not json", ""),
        (nested.as_str(), ""),
        (
            r#"{"type":"submit","id":"w1","workload":"not_a_workload","mode":"baseline"}"#,
            "w1",
        ),
        (
            r#"{"type":"submit","id":"w2","workload":"bfs","mode":"warp"}"#,
            "w2",
        ),
    ] {
        cl.send_raw(raw).unwrap();
        match cl.recv().unwrap() {
            Response::Error { id, reason } => {
                assert_eq!(id, expect_id, "for frame {raw:?}");
                assert!(!reason.is_empty());
            }
            other => panic!("expected error for {raw:?}, got {other:?}"),
        }
    }
    match cl.request(&Request::Ping).unwrap() {
        Response::Pong => {}
        other => panic!("connection must survive malformed frames, got {other:?}"),
    }
    let stats = cl.stats().unwrap();
    assert_eq!(stats.malformed, 4);
    assert_eq!(stats.simulated, 0);
    drop(cl);
    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A submission whose region/epoch ratio asks for more than
/// `MAX_EPOCHS_PER_JOB` epochs is refused with an error frame before it
/// queues; the connection and the next submission are unaffected.
#[test]
fn oversized_epoch_count_is_rejected_before_queueing() {
    let dir = scratch("epoch-bound");
    let handle = daemon(1, 4, &dir);
    let mut cl = client(&handle);
    let flood = cl
        .submit(cell("flood", "bfs", "baseline", 2_000_000, 1))
        .expect("submit");
    let reason = flood.error.expect("too many epochs rejects");
    assert!(
        reason.contains("epochs"),
        "reason names the bound: {reason}"
    );
    assert!(flood.result.is_none() && flood.epochs.is_empty());
    let limit = server::MAX_EPOCHS_PER_JOB;
    let edge = cl
        .submit(cell("edge", "bfs", "baseline", limit + 1, 1))
        .expect("submit");
    assert!(edge.error.is_some(), "⌈region/epoch⌉ = limit + 1 rejects");

    let ok = cl
        .submit(cell("after", "bfs", "baseline", 4_000, 2_000))
        .expect("the connection survives");
    assert!(ok.error.is_none() && ok.result.is_some());
    let stats = cl.stats().unwrap();
    assert_eq!((stats.accepted, stats.simulated), (1, 1));
    assert_eq!(stats.malformed, 2);
    drop(cl);
    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that vanishes mid-stream costs nothing but its own copy:
/// the job completes, the result lands in the shared on-disk cache, and
/// a later client gets it without a second simulation.
#[test]
fn disconnect_mid_stream_still_completes_and_caches() {
    let dir = scratch("disconnect");
    let handle = daemon(1, 8, &dir);
    let fingerprint = {
        let mut cl = client(&handle);
        cl.send(&Request::Submit(cell(
            "gone", "bfs", "baseline", 600_000, 30_000,
        )))
        .unwrap();
        let fp = match cl.recv().unwrap() {
            Response::Accepted { fingerprint, .. } => fingerprint,
            other => panic!("expected accepted, got {other:?}"),
        };
        // Wait for one *live* epoch so the disconnect is genuinely
        // mid-stream, then drop the connection.
        match cl.recv().unwrap() {
            Response::Epoch { replay, .. } => assert!(!replay),
            Response::Result { .. } => panic!("result arrived before any epoch"),
            other => panic!("unexpected frame {other:?}"),
        }
        fp
    };

    let path = phelps_bench::runner::cache::cell_path(&dir, &fingerprint);
    let deadline = std::time::Instant::now() + Duration::from_secs(240);
    while !path.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned job never reached the cache at {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut cl = client(&handle);
    let out = cl
        .submit(cell("again", "bfs", "baseline", 600_000, 30_000))
        .unwrap();
    let (_, result) = out.result.as_ref().expect("second client gets the result");
    assert!(result.stats.mt_retired >= 600_000);
    assert!(
        !out.epochs.is_empty(),
        "epoch series replays for the second client"
    );
    let stats = cl.stats().unwrap();
    assert_eq!(stats.simulated, 1, "no second simulation");
    assert_eq!(stats.dedup_in_flight + stats.session_hits, 1);
    drop(cl);
    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Repeat submissions replay the recorded epoch series from session
/// memory, and a daemon restart serves the same cell from the on-disk
/// cache instead of re-simulating.
#[test]
fn repeat_submissions_hit_session_memory_then_disk_cache() {
    let dir = scratch("session");
    let handle = daemon(1, 4, &dir);
    let mut cl = client(&handle);

    let first = cl
        .submit(cell("one", "astar", "phelps", 12_000, 2_000))
        .unwrap();
    let (d1, r1) = first.result.as_ref().expect("first result");
    assert_eq!(*d1, Dedup::Simulated);
    assert!(first.live_epochs() >= 1, "first submission streams live");
    assert!(first.epochs.iter().all(|(replay, _)| !replay));

    let second = cl
        .submit(cell("two", "astar", "phelps", 12_000, 2_000))
        .unwrap();
    let (d2, r2) = second.result.as_ref().expect("second result");
    assert_eq!(*d2, Dedup::Session);
    assert!(second.epochs.iter().all(|(replay, _)| *replay));
    let live: Vec<_> = first.epochs.iter().map(|(_, s)| s.clone()).collect();
    let replayed: Vec<_> = second.epochs.iter().map(|(_, s)| s.clone()).collect();
    assert_eq!(live, replayed, "replay matches the live series exactly");
    assert_eq!(format!("{:?}", r1.stats), format!("{:?}", r2.stats));
    let stats = cl.stats().unwrap();
    assert_eq!(stats.simulated, 1);
    assert_eq!(stats.session_hits, 1);
    drop(cl);
    shutdown(handle);

    // New daemon, same cache dir: the cell is a disk hit.
    let handle = daemon(1, 4, &dir);
    let mut cl = client(&handle);
    let third = cl
        .submit(cell("three", "astar", "phelps", 12_000, 2_000))
        .unwrap();
    let (d3, r3) = third.result.as_ref().expect("third result");
    assert_eq!(*d3, Dedup::Cached);
    assert_eq!(format!("{:?}", r3.stats), format!("{:?}", r1.stats));
    let stats = cl.stats().unwrap();
    assert_eq!(stats.simulated, 0);
    assert_eq!(stats.disk_hits, 1);
    drop(cl);
    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Co-run submissions: a cell with a `corun` neighbor fingerprints
/// separately from its solo twin, simulates for real (through the
/// two-tenant shared-uncore engine), can only lose cycles to the
/// contending neighbor, and an unknown neighbor is rejected up front.
#[test]
fn corun_submissions_simulate_against_a_neighbor() {
    const REGION: u64 = 12_000;
    const EPOCH: u64 = 2_000;
    let dir = scratch("corun");
    let handle = daemon(1, 8, &dir);
    let mut cl = client(&handle);

    let solo = cl
        .submit(cell("solo", "bfs", "baseline", REGION, EPOCH))
        .unwrap();
    let (_, solo_result) = solo.result.as_ref().expect("solo result");

    let mut corun_cell = cell("pair", "bfs", "baseline", REGION, EPOCH);
    corun_cell.corun = Some("bfs_uniform".to_string());
    let corun = cl.submit(corun_cell.clone()).unwrap();
    let (dedup, corun_result) = corun.result.as_ref().expect("corun result");
    assert_eq!(*dedup, Dedup::Simulated);
    assert_ne!(
        solo.fingerprint, corun.fingerprint,
        "the neighbor is part of the cell's identity"
    );
    assert_eq!(corun_result.stats.mt_retired, solo_result.stats.mt_retired);
    assert!(
        corun_result.stats.cycles >= solo_result.stats.cycles,
        "a contending neighbor cannot speed the primary tenant up: \
         corun {} vs solo {} cycles",
        corun_result.stats.cycles,
        solo_result.stats.cycles
    );
    // The streamed epochs describe the primary tenant alone: their
    // deltas sum, counter by counter, to the result frame's stats.
    let mut sum = phelps_uarch::stats::SimStats::default();
    for (_, e) in &corun.epochs {
        sum.merge(&e.stats);
    }
    assert_eq!(sum, corun_result.stats);

    // Identical resubmission replays from session memory.
    corun_cell.id = "pair-2".to_string();
    let again = cl.submit(corun_cell).unwrap();
    assert_eq!(again.result.as_ref().unwrap().0, Dedup::Session);

    // An unknown neighbor is rejected before anything queues.
    let mut bad = cell("bad", "bfs", "baseline", REGION, EPOCH);
    bad.corun = Some("not_a_workload".to_string());
    let rejected = cl.submit(bad).unwrap();
    let reason = rejected.error.expect("unknown corun workload rejects");
    assert!(
        reason.contains("corun"),
        "reason names the corun field: {reason}"
    );

    let stats = cl.stats().unwrap();
    assert_eq!(stats.simulated, 2, "solo + corun each simulated once");
    assert_eq!(stats.session_hits, 1);
    drop(cl);
    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

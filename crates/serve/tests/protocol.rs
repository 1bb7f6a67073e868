//! Wire-protocol coverage: golden frame encodings, round-trips through
//! the real encoder/decoder pair, malformed-frame rejection, and a
//! mutation sweep over every golden frame and one result-cache body.

use phelps::sim::SimResult;
use phelps_bench::runner::cache;
use phelps_serve::protocol::{
    encode_request, encode_response, parse_mode, parse_request, parse_response, Dedup, Request,
    Response, ServerStats, Submit,
};
use phelps_telemetry::EpochSample;
use phelps_uarch::stats::SimStats;

fn sample() -> EpochSample {
    EpochSample {
        epoch: 3,
        end_cycle: 40_000,
        stats: SimStats {
            cycles: 10_000,
            mt_retired: 8_000,
            mt_mispredicts: 90,
            triggers: 7,
            preds_from_queue: 5,
            l3_misses: 42,
            mt_fetch_stall_ifetch: 120,
            ..SimStats::default()
        },
    }
}

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

/// Every request frame pinned byte for byte.
fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Submit(Submit {
                id: "job-1".to_string(),
                workload: "bfs".to_string(),
                mode: "phelps".to_string(),
                region: Some(20_000),
                epoch: Some(2_000),
                corun: None,
            }),
            r#"{"type":"submit","id":"job-1","workload":"bfs","mode":"phelps","region":20000,"epoch":2000}"#,
        ),
        (
            Request::Submit(Submit {
                id: "job-2".to_string(),
                workload: "bfs".to_string(),
                mode: "phelps".to_string(),
                region: Some(20_000),
                epoch: Some(2_000),
                corun: Some("bfs_uniform".to_string()),
            }),
            r#"{"type":"submit","id":"job-2","workload":"bfs","mode":"phelps","region":20000,"epoch":2000,"corun":"bfs_uniform"}"#,
        ),
        (Request::Ping, r#"{"type":"ping"}"#),
        (Request::Stats, r#"{"type":"stats"}"#),
        (Request::Shutdown, r#"{"type":"shutdown"}"#),
    ]
}

fn server_stats() -> ServerStats {
    ServerStats {
        accepted: 4,
        simulated: 4,
        dedup_in_flight: 5,
        session_hits: 7,
        disk_hits: 1,
        busy_rejections: 2,
        malformed: 3,
        queue_depth: 1,
        in_flight: 2,
    }
}

/// The response frames pinned byte for byte. The epoch frame carries
/// the sample's counter deltas as the `SimStats` object the result cache
/// also writes.
fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Stats(server_stats()),
            r#"{"type":"stats","accepted":4,"simulated":4,"dedup_in_flight":5,"session_hits":7,"disk_hits":1,"busy_rejections":2,"malformed":3,"queue_depth":1,"in_flight":2}"#,
        ),
        (
            Response::Epoch {
                id: "e".to_string(),
                replay: false,
                sample: Box::new(sample()),
            },
            concat!(
                r#"{"type":"epoch","id":"e","replay":false,"epoch":3,"end_cycle":40000,"stats":{"#,
                r#""cycles":10000,"mt_retired":8000,"ht_retired":0,"mt_cond_branches":0,"#,
                r#""mt_mispredicts":90,"mispredicts_from_queue":0,"preds_from_queue":5,"#,
                r#""queue_untimely":0,"load_violations":0,"triggers":7,"terminations":0,"#,
                r#""l1i_accesses":0,"l1i_misses":0,"l1d_accesses":0,"l1d_misses":0,"#,
                r#""l1d_store_accesses":0,"l1d_store_misses":0,"l2_misses":0,"l3_misses":42,"#,
                r#""prefetches_issued":0,"prefetch_hits":0,"mt_fetch_stall_mispredict":0,"#,
                r#""mt_fetch_stall_trigger":0,"mt_fetch_stall_ifetch":120,"l1i_port_stalls":0,"#,
                r#""l1d_port_stalls":0,"l2_port_stalls":0,"l3_port_stalls":0,"#,
                r#""dram_queue_stalls":0,"misp_eliminated":0,"misp_gathering_delinquency":0,"#,
                r#""misp_ht_being_constructed":0,"misp_ht_not_constructed":0,"#,
                r#""misp_ht_too_big":0,"misp_not_in_loop":0,"misp_not_iterating_enough":0,"#,
                r#""misp_not_delinquent":0,"misp_ht_untimely":0}}"#
            ),
        ),
    ]
}

#[test]
fn golden_request_encodings() {
    for (req, golden) in golden_requests() {
        assert_eq!(encode_request(&req), golden);
    }
}

#[test]
fn golden_response_encodings() {
    for (resp, golden) in golden_responses() {
        assert_eq!(encode_response(&resp), golden);
    }
}

#[test]
fn requests_round_trip() {
    let originals = [
        Request::Submit(Submit {
            id: "weird \"id\" \\ with escapes".to_string(),
            workload: "astar".to_string(),
            mode: "phelps:b1b2".to_string(),
            region: None,
            epoch: Some(1),
            corun: None,
        }),
        Request::Submit(Submit {
            id: "corun".to_string(),
            workload: "bc".to_string(),
            mode: "baseline".to_string(),
            region: Some(5_000),
            epoch: None,
            corun: Some("bfs_uniform".to_string()),
        }),
        Request::Stats,
        Request::Ping,
        Request::Shutdown,
    ];
    for req in originals {
        let line = encode_request(&req);
        assert_eq!(parse_request(&line).unwrap(), req, "frame: {line}");
    }
}

#[test]
fn epoch_response_round_trips() {
    let resp = Response::Epoch {
        id: "e".to_string(),
        replay: true,
        sample: Box::new(sample()),
    };
    let line = encode_response(&resp);
    match parse_response(&line).unwrap() {
        Response::Epoch {
            id,
            replay,
            sample: s,
        } => {
            assert_eq!(id, "e");
            assert!(replay);
            assert_eq!(*s, sample());
        }
        other => panic!("expected epoch, got {other:?}"),
    }
}

#[test]
fn result_response_round_trips_via_cache_body() {
    let original = result();
    let line = encode_response(&Response::Result {
        id: "r".to_string(),
        dedup: Dedup::Session,
        result: Box::new(original.clone()),
    });
    assert!(line.starts_with(r#"{"type":"result","id":"r","dedup":"session","stats":{"#));
    assert!(line.ends_with(r#","misp_ht_untimely":0}}"#), "{line}");
    match parse_response(&line).unwrap() {
        Response::Result { id, dedup, result } => {
            assert_eq!(id, "r");
            assert_eq!(dedup, Dedup::Session);
            assert_eq!(result.stats, original.stats);
        }
        other => panic!("expected result, got {other:?}"),
    }
}

/// Every other response frame the tests encode.
fn control_responses() -> Vec<Response> {
    vec![
        Response::Accepted {
            id: "a".to_string(),
            fingerprint: "fp|x|v0".to_string(),
        },
        Response::Busy {
            id: "b".to_string(),
            retry_after_ms: 150,
        },
        Response::Error {
            id: String::new(),
            reason: "nope".to_string(),
        },
        Response::Pong,
        Response::ShutdownAck,
        Response::Result {
            id: "r".to_string(),
            dedup: Dedup::Session,
            result: Box::new(result()),
        },
    ]
}

#[test]
fn control_responses_round_trip() {
    let stats = server_stats();
    for (line, check) in [
        (
            encode_response(&Response::Accepted {
                id: "a".to_string(),
                fingerprint: "fp|x|v0".to_string(),
            }),
            "accepted",
        ),
        (
            encode_response(&Response::Busy {
                id: "b".to_string(),
                retry_after_ms: 150,
            }),
            "busy",
        ),
        (
            encode_response(&Response::Error {
                id: String::new(),
                reason: "nope".to_string(),
            }),
            "error",
        ),
        (encode_response(&Response::Pong), "pong"),
        (encode_response(&Response::Stats(stats)), "stats"),
        (encode_response(&Response::ShutdownAck), "shutdown_ack"),
    ] {
        let parsed = parse_response(&line).unwrap();
        match (&parsed, check) {
            (Response::Accepted { id, fingerprint }, "accepted") => {
                assert_eq!(id, "a");
                assert_eq!(fingerprint, "fp|x|v0");
            }
            (Response::Busy { retry_after_ms, .. }, "busy") => assert_eq!(*retry_after_ms, 150),
            (Response::Error { id, reason }, "error") => {
                assert!(id.is_empty());
                assert_eq!(reason, "nope");
            }
            (Response::Pong, "pong") | (Response::ShutdownAck, "shutdown_ack") => {}
            (Response::Stats(s), "stats") => assert_eq!(*s, stats),
            (got, want) => panic!("expected {want}, got {got:?}"),
        }
    }
}

#[test]
fn malformed_requests_are_rejected_with_reasons() {
    for (line, needle) in [
        ("not json at all", "invalid JSON"),
        ("{\"no\":\"type\"}", "\"type\""),
        ("{\"type\":\"warp\"}", "unknown request type"),
        ("{\"type\":\"submit\"}", "missing or non-string \"id\""),
        (
            "{\"type\":\"submit\",\"id\":\"x\",\"workload\":\"bfs\",\"mode\":\"phelps\",\"region\":-4}",
            "\"region\"",
        ),
        (
            "{\"type\":\"submit\",\"id\":\"x\",\"workload\":\"bfs\",\"mode\":\"phelps\",\"corun\":7}",
            "\"corun\" must be a string",
        ),
        ("[1,2,3]", "\"type\""),
    ] {
        let err = parse_request(line).unwrap_err();
        assert!(
            err.contains(needle),
            "for {line:?}: expected {needle:?} in {err:?}"
        );
    }
}

#[test]
fn mode_vocabulary_is_complete() {
    for name in phelps_serve::protocol::mode_names() {
        assert!(parse_mode(name).is_some(), "mode {name} must parse");
    }
    assert!(parse_mode("warp_drive").is_none());
    assert_eq!(Dedup::parse("cached"), Some(Dedup::Cached));
    assert_eq!(Dedup::parse("bogus"), None);
    for d in [
        Dedup::Simulated,
        Dedup::InFlight,
        Dedup::Session,
        Dedup::Cached,
    ] {
        assert_eq!(Dedup::parse(d.label()), Some(d));
    }
}

#[test]
fn predicted_result_frame_is_rejected() {
    // Every result is a simulation or a cache hit of one; a frame that
    // claims otherwise decodes to an error, not a panic.
    let line = encode_response(&Response::Result {
        id: "p".to_string(),
        dedup: Dedup::Cached,
        result: Box::new(result()),
    })
    .replacen(r#""dedup":"cached""#, r#""dedup":"predicted""#, 1);
    assert!(line.contains(r#""dedup":"predicted""#));
    let err = parse_response(&line).unwrap_err();
    assert!(err.contains("unknown dedup label"), "{err}");
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

/// Decoders of untrusted bytes never panic: each mutated golden frame
/// decodes to an error or to a value that re-encodes to a frame decoding
/// to the same value. Non-UTF-8 bytes never reach the decoders (the
/// frame reader rejects them), so they are decoded lossily here.
#[test]
fn mutated_frames_decode_to_an_error_or_a_value() {
    let mut decoded = 0;
    for (_, golden) in golden_requests() {
        for m in mutations(golden.as_bytes()) {
            if let Ok(req) = parse_request(&String::from_utf8_lossy(&m)) {
                assert_eq!(parse_request(&encode_request(&req)), Ok(req));
                decoded += 1;
            }
        }
    }
    let responses = golden_responses()
        .into_iter()
        .map(|(resp, _)| resp)
        .chain(control_responses());
    for resp in responses {
        let golden = encode_response(&resp);
        for m in mutations(golden.as_bytes()) {
            if let Ok(resp) = parse_response(&String::from_utf8_lossy(&m)) {
                let again = parse_response(&encode_response(&resp)).expect("re-encoded frame");
                assert_eq!(format!("{again:?}"), format!("{resp:?}"));
                decoded += 1;
            }
        }
    }
    assert!(decoded > 0, "some flips (digits, id letters) still decode");
}

/// The result cache treats every mutated body as a miss or a valid
/// result, never a panic.
#[test]
fn mutated_cache_bodies_load_as_a_miss_or_a_result() {
    let dir = std::env::temp_dir().join(format!("phelps-protocol-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fingerprint = "serve|bfs|phelps|sweep";
    cache::store(&dir, fingerprint, &result());
    let path = cache::cell_path(&dir, fingerprint);
    let golden = std::fs::read(&path).unwrap();
    assert!(
        cache::load(&dir, fingerprint).is_some(),
        "the stored body loads"
    );
    let (mut hits, mut misses) = (0, 0);
    for m in mutations(&golden) {
        std::fs::write(&path, &m).unwrap();
        match cache::load(&dir, fingerprint) {
            Some(_) => hits += 1,
            None => misses += 1,
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(hits > 0 && misses > 0, "hits {hits}, misses {misses}");
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
/// it loads as a miss (which `cache::load` warns about) rather than as a
/// result whose bins read zero. The same cell in the current shape hits.
#[test]
fn stale_cache_body_loads_as_a_miss() {
    let dir = std::env::temp_dir().join(format!("phelps-protocol-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fingerprint = "serve|bfs|phelps|stale";
    let path = cache::cell_path(&dir, fingerprint);
    std::fs::write(
        &path,
        format!(r#"{{"fingerprint":"{fingerprint}",{STALE_BODY}}}"#),
    )
    .unwrap();
    let stale = cache::load(&dir, fingerprint);
    cache::store(&dir, fingerprint, &result());
    let fresh = cache::load(&dir, fingerprint);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stale.is_none(), "stale body loaded: {stale:?}");
    assert_eq!(fresh.expect("current body loads").stats, result().stats);
}

/// A `result` frame in the old shape decodes to an error, not a panic
/// and not a result whose bins read zero.
#[test]
fn stale_result_frame_decodes_to_an_error() {
    let line = format!(r#"{{"type":"result","id":"r","dedup":"cached",{STALE_BODY}}}"#);
    let err = parse_response(&line).unwrap_err();
    assert!(err.contains("bad or missing stats"), "{err}");
}

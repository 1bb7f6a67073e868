//! Wire-protocol coverage: golden frame encodings, round-trips through
//! the real encoder/decoder pair, and malformed-frame rejection.

use phelps::classify::{MispredictBreakdown, MispredictClass};
use phelps::sim::SimResult;
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
        cycles: 10_000,
        retired: 8_000,
        ipc: 0.8,
        mispredicts: 90,
        mpki: 11.25,
        triggers: 7,
        pred_hits: 5,
        dram_accesses: 42,
        ifetch_stalls: 120,
        avg_rob: 96.5,
        avg_pred_queue: 3.25,
    }
}

fn result() -> SimResult {
    let stats = SimStats {
        cycles: 51_326,
        mt_retired: 50_000,
        mt_cond_branches: 9_100,
        ..SimStats::default()
    };
    let mut breakdown = MispredictBreakdown::new();
    breakdown.retired = 50_000;
    breakdown.record(MispredictClass::Eliminated);
    breakdown.record(MispredictClass::NotDelinquent);
    SimResult {
        stats,
        breakdown,
        telemetry: None,
        retire_log: None,
        final_state: None,
    }
}

#[test]
fn golden_request_encodings() {
    let submit = Request::Submit(Submit {
        id: "job-1".to_string(),
        workload: "bfs".to_string(),
        mode: "phelps".to_string(),
        region: Some(20_000),
        epoch: Some(2_000),
        corun: None,
    });
    assert_eq!(
        encode_request(&submit),
        r#"{"type":"submit","id":"job-1","workload":"bfs","mode":"phelps","region":20000,"epoch":2000}"#
    );
    let corun = Request::Submit(Submit {
        id: "job-2".to_string(),
        workload: "bfs".to_string(),
        mode: "phelps".to_string(),
        region: Some(20_000),
        epoch: Some(2_000),
        corun: Some("bfs_uniform".to_string()),
    });
    assert_eq!(
        encode_request(&corun),
        r#"{"type":"submit","id":"job-2","workload":"bfs","mode":"phelps","region":20000,"epoch":2000,"corun":"bfs_uniform"}"#
    );
    assert_eq!(encode_request(&Request::Ping), r#"{"type":"ping"}"#);
    assert_eq!(encode_request(&Request::Stats), r#"{"type":"stats"}"#);
    assert_eq!(encode_request(&Request::Shutdown), r#"{"type":"shutdown"}"#);
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
        sample: sample(),
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
            assert_eq!(s, sample());
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
    match parse_response(&line).unwrap() {
        Response::Result { id, dedup, result } => {
            assert_eq!(id, "r");
            assert_eq!(dedup, Dedup::Session);
            assert_eq!(result.stats, original.stats);
            assert_eq!(
                result.breakdown.count(MispredictClass::Eliminated),
                original.breakdown.count(MispredictClass::Eliminated)
            );
        }
        other => panic!("expected result, got {other:?}"),
    }
}

#[test]
fn control_responses_round_trip() {
    let stats = ServerStats {
        accepted: 4,
        simulated: 4,
        dedup_in_flight: 5,
        session_hits: 7,
        disk_hits: 1,
        busy_rejections: 2,
        malformed: 3,
        queue_depth: 1,
        in_flight: 2,
    };
    assert_eq!(
        encode_response(&Response::Stats(stats)),
        r#"{"type":"stats","accepted":4,"simulated":4,"dedup_in_flight":5,"session_hits":7,"disk_hits":1,"busy_rejections":2,"malformed":3,"queue_depth":1,"in_flight":2}"#
    );
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

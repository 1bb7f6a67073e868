//! The phelps-serve wire protocol: newline-delimited JSON.
//!
//! One JSON object per line in both directions, encoded with the
//! workspace's hand-rolled [`JsonWriter`] and decoded with
//! [`parse_json`] — no external serialization dependency, matching the
//! vendored-offline build. Requests are [`Request`]; the daemon answers
//! with a stream of [`Response`] frames:
//!
//! * `submit` → `accepted` (or `busy`/`error`), then zero or more
//!   `epoch` frames streamed live as the simulation closes telemetry
//!   epochs, then exactly one `result` frame.
//! * `stats` → one `stats` frame of daemon counters.
//! * `ping` → `pong`; `shutdown` → `shutdown_ack`.
//!
//! The `result` frame embeds the same `"stats"`/`"breakdown"` body the
//! on-disk result cache stores ([`cache::result_body_json`]), so the
//! wire format and the cache format can never drift apart.
//!
//! [`cache::result_body_json`]: phelps_bench::runner::cache::result_body_json

use phelps::sim::{Mode, PhelpsFeatures, SimResult};
use phelps_bench::runner::cache;
use phelps_telemetry::{parse_json, EpochSample, JsonValue, JsonWriter};

/// Client → daemon messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run (or dedup) one experiment cell and stream its telemetry.
    Submit(Submit),
    /// Ask for the daemon's counter snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Drain in-flight jobs and exit.
    Shutdown,
}

/// One experiment cell: the same (workload × configuration) shape the
/// batch runner executes.
#[derive(Clone, Debug, PartialEq)]
pub struct Submit {
    /// Client-chosen correlation id, echoed on every frame of the job.
    pub id: String,
    /// Workload name (`suite::gap_names()` / `suite::spec_names()`).
    pub workload: String,
    /// Configuration label; see [`parse_mode`] for the vocabulary.
    pub mode: String,
    /// Region length in retired instructions (daemon default when absent).
    pub region: Option<u64>,
    /// Telemetry/construction epoch length (daemon default when absent).
    pub epoch: Option<u64>,
    /// Co-run neighbor workload: when present, the cell runs tenant 0 of
    /// a deterministic two-tenant co-schedule against this workload
    /// (baseline mode, same region/epoch) on a shared uncore, and the
    /// streamed result is the primary tenant's. Absent = solo.
    pub corun: Option<String>,
}

/// How the daemon satisfied a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dedup {
    /// Freshly simulated by a worker.
    Simulated,
    /// Attached to an identical job already executing.
    InFlight,
    /// Replayed from the daemon's completed-job session memory.
    Session,
    /// Served from the shared on-disk result cache.
    Cached,
}

impl Dedup {
    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            Dedup::Simulated => "simulated",
            Dedup::InFlight => "in_flight",
            Dedup::Session => "session",
            Dedup::Cached => "cached",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<Dedup> {
        Some(match s {
            "simulated" => Dedup::Simulated,
            "in_flight" => Dedup::InFlight,
            "session" => Dedup::Session,
            "cached" => Dedup::Cached,
            _ => return None,
        })
    }
}

/// Daemon counter snapshot (the `stats` response).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Submissions enqueued for fresh simulation.
    pub accepted: u64,
    /// Cells actually simulated by a worker.
    pub simulated: u64,
    /// Submissions attached to an already-executing identical cell.
    pub dedup_in_flight: u64,
    /// Submissions replayed from completed-job session memory.
    pub session_hits: u64,
    /// Submissions served from the on-disk result cache.
    pub disk_hits: u64,
    /// Submissions rejected because the queue was full.
    pub busy_rejections: u64,
    /// Frames that failed to parse or validate.
    pub malformed: u64,
    /// Jobs currently waiting in the submission queue.
    pub queue_depth: u64,
    /// Jobs currently executing or queued (open job-table entries).
    pub in_flight: u64,
}

/// Daemon → client messages.
#[derive(Clone, Debug)]
pub enum Response {
    /// The submission was admitted; frames for `id` follow.
    Accepted {
        /// Echo of the submission id.
        id: String,
        /// The cell's cache fingerprint (also its dedup key).
        fingerprint: String,
    },
    /// The submission queue is full; retry later.
    Busy {
        /// Echo of the submission id.
        id: String,
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// The request failed (echoes the id when one was parsed).
    Error {
        /// Offending submission id, or `""` for unattributable frames.
        id: String,
        /// Human-readable cause.
        reason: String,
    },
    /// One telemetry epoch of the job, streamed as it closes.
    Epoch {
        /// Echo of the submission id.
        id: String,
        /// `true` when replayed from a backlog (late subscriber),
        /// `false` when delivered live from the running simulation.
        replay: bool,
        /// The sample itself.
        sample: EpochSample,
    },
    /// The job's final result; last frame for `id`.
    Result {
        /// Echo of the submission id.
        id: String,
        /// How the result was obtained.
        dedup: Dedup,
        /// Stats + misprediction breakdown (telemetry rides separately
        /// in the epoch stream and is not repeated here). Boxed to keep
        /// the enum small — every other frame type is a few words.
        result: Box<SimResult>,
    },
    /// Liveness reply.
    Pong,
    /// Counter snapshot.
    Stats(ServerStats),
    /// Shutdown acknowledged; the daemon drains and exits.
    ShutdownAck,
}

/// Maps a wire mode label to a simulation [`Mode`].
pub fn parse_mode(s: &str) -> Option<Mode> {
    Some(match s {
        "baseline" => Mode::Baseline,
        "perfect_bp" => Mode::PerfectBp,
        "partition_only" => Mode::PartitionOnly,
        "phelps" => Mode::Phelps(PhelpsFeatures::full()),
        "phelps:b1" => Mode::Phelps(PhelpsFeatures::b1_only()),
        "phelps:b1b2" => Mode::Phelps(PhelpsFeatures::no_stores()),
        "phelps:b1s1" => Mode::Phelps(PhelpsFeatures::b1_with_stores()),
        _ => return None,
    })
}

/// The accepted mode labels, for error messages and CLI help.
pub fn mode_names() -> &'static [&'static str] {
    &[
        "baseline",
        "perfect_bp",
        "partition_only",
        "phelps",
        "phelps:b1",
        "phelps:b1b2",
        "phelps:b1s1",
    ]
}

/// Encodes one request as a single JSON line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("type");
    match req {
        Request::Submit(s) => {
            j.string("submit");
            j.key("id");
            j.string(&s.id);
            j.key("workload");
            j.string(&s.workload);
            j.key("mode");
            j.string(&s.mode);
            if let Some(r) = s.region {
                j.key("region");
                j.uint(r);
            }
            if let Some(e) = s.epoch {
                j.key("epoch");
                j.uint(e);
            }
            if let Some(p) = &s.corun {
                j.key("corun");
                j.string(p);
            }
        }
        Request::Stats => j.string("stats"),
        Request::Ping => j.string("ping"),
        Request::Shutdown => j.string("shutdown"),
    }
    j.end_object();
    j.finish()
}

fn req_str<'v>(v: &'v JsonValue, key: &str, ty: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{ty}: missing or non-string \"{key}\""))
}

fn opt_u64(v: &JsonValue, key: &str, ty: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{ty}: \"{key}\" must be a non-negative integer")),
    }
}

fn opt_str(v: &JsonValue, key: &str, ty: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{ty}: \"{key}\" must be a string")),
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let ty = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("missing or non-string \"type\"")?;
    match ty {
        "submit" => Ok(Request::Submit(Submit {
            id: req_str(&v, "id", "submit")?.to_string(),
            workload: req_str(&v, "workload", "submit")?.to_string(),
            mode: req_str(&v, "mode", "submit")?.to_string(),
            region: opt_u64(&v, "region", "submit")?,
            epoch: opt_u64(&v, "epoch", "submit")?,
            corun: opt_str(&v, "corun", "submit")?,
        })),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type {other:?}")),
    }
}

/// The epoch-sample wire fields, in emission order. Kept in one place
/// so the encoder, the decoder, and the golden tests agree.
const SAMPLE_U64_FIELDS: [&str; 8] = [
    "epoch",
    "end_cycle",
    "cycles",
    "retired",
    "mispredicts",
    "triggers",
    "pred_hits",
    "dram_accesses",
];

fn sample_u64(s: &EpochSample, key: &str) -> u64 {
    match key {
        "epoch" => s.epoch,
        "end_cycle" => s.end_cycle,
        "cycles" => s.cycles,
        "retired" => s.retired,
        "mispredicts" => s.mispredicts,
        "triggers" => s.triggers,
        "pred_hits" => s.pred_hits,
        "dram_accesses" => s.dram_accesses,
        _ => unreachable!("unknown sample field {key}"),
    }
}

fn encode_sample(j: &mut JsonWriter, s: &EpochSample) {
    for key in SAMPLE_U64_FIELDS {
        j.key(key);
        j.uint(sample_u64(s, key));
    }
    j.key("ifetch_stalls");
    j.uint(s.ifetch_stalls);
    j.key("ipc");
    j.float(s.ipc);
    j.key("mpki");
    j.float(s.mpki);
    j.key("avg_rob");
    j.float(s.avg_rob);
    j.key("avg_pred_queue");
    j.float(s.avg_pred_queue);
}

fn sample_from_json(v: &JsonValue) -> Option<EpochSample> {
    let u = |k: &str| v.get(k).and_then(JsonValue::as_u64);
    let f = |k: &str| v.get(k).and_then(JsonValue::as_f64);
    Some(EpochSample {
        epoch: u("epoch")?,
        end_cycle: u("end_cycle")?,
        cycles: u("cycles")?,
        retired: u("retired")?,
        ipc: f("ipc")?,
        mispredicts: u("mispredicts")?,
        mpki: f("mpki")?,
        triggers: u("triggers")?,
        pred_hits: u("pred_hits")?,
        dram_accesses: u("dram_accesses")?,
        ifetch_stalls: u("ifetch_stalls")?,
        avg_rob: f("avg_rob")?,
        avg_pred_queue: f("avg_pred_queue")?,
    })
}

/// Encodes one response as a single JSON line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let mut j = JsonWriter::new();
    j.begin_object();
    j.key("type");
    match resp {
        Response::Accepted { id, fingerprint } => {
            j.string("accepted");
            j.key("id");
            j.string(id);
            j.key("fingerprint");
            j.string(fingerprint);
        }
        Response::Busy { id, retry_after_ms } => {
            j.string("busy");
            j.key("id");
            j.string(id);
            j.key("retry_after_ms");
            j.uint(*retry_after_ms);
        }
        Response::Error { id, reason } => {
            j.string("error");
            j.key("id");
            j.string(id);
            j.key("reason");
            j.string(reason);
        }
        Response::Epoch { id, replay, sample } => {
            j.string("epoch");
            j.key("id");
            j.string(id);
            j.key("replay");
            j.bool(*replay);
            encode_sample(&mut j, sample);
        }
        Response::Result { id, dedup, result } => {
            j.string("result");
            j.key("id");
            j.string(id);
            j.key("dedup");
            j.string(dedup.label());
            j.end_object();
            // Splice in the cache body fragment ("stats":{...},
            // "breakdown":{...}) so the wire result and the on-disk
            // cache entry share one codec.
            let mut text = j.finish();
            text.pop();
            text.push(',');
            text.push_str(&cache::result_body_json(result));
            text.push('}');
            return text;
        }
        Response::Pong => j.string("pong"),
        Response::Stats(s) => {
            j.string("stats");
            for (key, value) in stats_fields(s) {
                j.key(key);
                j.uint(value);
            }
        }
        Response::ShutdownAck => j.string("shutdown_ack"),
    }
    j.end_object();
    j.finish()
}

fn stats_fields(s: &ServerStats) -> [(&'static str, u64); 9] {
    [
        ("accepted", s.accepted),
        ("simulated", s.simulated),
        ("dedup_in_flight", s.dedup_in_flight),
        ("session_hits", s.session_hits),
        ("disk_hits", s.disk_hits),
        ("busy_rejections", s.busy_rejections),
        ("malformed", s.malformed),
        ("queue_depth", s.queue_depth),
        ("in_flight", s.in_flight),
    ]
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = parse_json(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let ty = v
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or("missing or non-string \"type\"")?;
    let id = || req_str(&v, "id", ty).map(str::to_string);
    match ty {
        "accepted" => Ok(Response::Accepted {
            id: id()?,
            fingerprint: req_str(&v, "fingerprint", ty)?.to_string(),
        }),
        "busy" => Ok(Response::Busy {
            id: id()?,
            retry_after_ms: opt_u64(&v, "retry_after_ms", ty)?.unwrap_or(0),
        }),
        "error" => Ok(Response::Error {
            id: id()?,
            reason: req_str(&v, "reason", ty)?.to_string(),
        }),
        "epoch" => Ok(Response::Epoch {
            id: id()?,
            replay: matches!(v.get("replay"), Some(JsonValue::Bool(true))),
            sample: sample_from_json(&v).ok_or("epoch: bad or missing sample fields")?,
        }),
        "result" => Ok(Response::Result {
            id: id()?,
            dedup: Dedup::parse(req_str(&v, "dedup", ty)?).ok_or("result: unknown dedup label")?,
            result: Box::new(
                cache::result_from_body(&v).ok_or("result: bad stats/breakdown body")?,
            ),
        }),
        "pong" => Ok(Response::Pong),
        "stats" => {
            let u = |k: &str| {
                v.get(k)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("stats: missing counter \"{k}\""))
            };
            Ok(Response::Stats(ServerStats {
                accepted: u("accepted")?,
                simulated: u("simulated")?,
                dedup_in_flight: u("dedup_in_flight")?,
                session_hits: u("session_hits")?,
                disk_hits: u("disk_hits")?,
                busy_rejections: u("busy_rejections")?,
                malformed: u("malformed")?,
                queue_depth: u("queue_depth")?,
                in_flight: u("in_flight")?,
            }))
        }
        "shutdown_ack" => Ok(Response::ShutdownAck),
        other => Err(format!("unknown response type {other:?}")),
    }
}

//! The daemon: accept loop, per-connection reader/writer threads, the
//! bounded submission queue, and the worker pool.
//!
//! ## Job life cycle
//!
//! A `submit` frame is resolved against the job table in order:
//!
//! 1. **session** — an identical cell completed earlier in this daemon's
//!    lifetime: its epoch samples are replayed (`"replay":true`) and the
//!    result frame answers immediately.
//! 2. **in-flight** — an identical cell is executing right now: the
//!    epochs streamed so far are replayed, then the subscriber rides the
//!    live stream to the shared result.
//! 3. **cached** — the shared on-disk result cache (the same files the
//!    batch runner reads/writes) already holds the cell.
//! 4. **fresh** — the cell is pushed onto the bounded submission queue;
//!    a full queue answers `busy` instead of stalling the accept loop.
//!
//! Workers pop the queue and execute through the same
//! [`execute_cell_prepared`] entry point as the batch runner, with a
//! telemetry [`SampleSink`] that broadcasts each closing epoch to every
//! subscriber. A client that disconnects mid-stream loses nothing but
//! its own copy: the job runs to completion and the result still lands
//! in the cache and the session table.
//!
//! ## Shutdown
//!
//! `shutdown` sets a flag, wakes the queue and the accept loop (via a
//! self-connection), and then *drains*: queued and executing jobs
//! complete and their frames are delivered. Every thread — workers,
//! readers, writers — lives inside one [`std::thread::scope`], so the
//! daemon cannot exit with a leaked thread; a non-empty queue or job
//! table after the scope joins is reported as an error.
//!
//! [`SampleSink`]: phelps_telemetry::SampleSink

use crate::codec::{self, FrameReader};
use crate::protocol::{
    encode_response, parse_mode, parse_request, Dedup, Request, Response, ServerStats, Submit,
};
use phelps::sim::{simulate_corun_pair, Mode, RunConfig};
use phelps_bench::ckpt_support::CkptPolicy;
use phelps_bench::exec::{execute_cell_prepared, CellOutcome, CellRequest, ExecPolicy};
use phelps_bench::runner::cache;
use phelps_bench::shard;
use phelps_bench::trace;
use phelps_telemetry as tlm;
use phelps_workloads::suite;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// How often blocked reads re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Most telemetry epochs (⌈region / epoch⌉) one submission may ask for.
/// Every sample is kept in the job backlog, the registry's report and
/// session memory, so an unbounded ratio would let one line pin millions
/// of them; the defaults ask for 14.
pub const MAX_EPOCHS_PER_JOB: u64 = 10_000;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker-pool size; 0 = `PHELPS_JOBS` or available parallelism.
    pub workers: usize,
    /// Bounded submission-queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Shared result cache; `None` disables read-through/write-through.
    pub cache_dir: Option<PathBuf>,
    /// Backoff hint carried on `busy` responses.
    pub retry_after_ms: u64,
    /// Completed jobs kept in session memory for epoch replay.
    pub session_capacity: usize,
    /// Suppress the listening/shutdown log lines.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_dir: phelps_bench::cache_dir_from_env(),
            retry_after_ms: 100,
            session_capacity: 256,
            quiet: false,
        }
    }
}

/// What the daemon reports after a clean shutdown.
#[derive(Clone, Copy, Debug)]
pub struct ServeReport {
    /// Final counter snapshot.
    pub stats: ServerStats,
    /// Worker-pool size that ran.
    pub workers: usize,
}

/// A daemon running on a background thread (tests and embedding).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<io::Result<ServeReport>>,
}

impl ServerHandle {
    /// The bound address (the ephemeral port is resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Waits for the daemon to exit (something must send `shutdown`).
    pub fn join(self) -> io::Result<ServeReport> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

/// Binds `cfg.addr` and runs the daemon on a background thread.
pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let thread = thread::Builder::new()
        .name("phelps-serve".to_string())
        .spawn(move || serve_on(listener, cfg))?;
    Ok(ServerHandle { addr, thread })
}

/// One queued cell.
struct Job {
    fingerprint: String,
    request: CellRequest,
    run_cfg: RunConfig,
    workload: String,
    mode_label: String,
    /// Shard decomposition captured at submit time (`PHELPS_SHARDS`),
    /// so a mid-session environment change can't split one fingerprint
    /// across two decompositions.
    shards: usize,
    /// Co-run neighbor workload; `Some` routes execution through the
    /// two-tenant shared-uncore engine (monolithic — co-run timing is a
    /// cross-tenant interleaving and cannot be checkpoint-sharded).
    corun: Option<String>,
}

/// A client subscribed to one job's frame stream.
struct Sub {
    id: String,
    tx: mpsc::Sender<String>,
}

/// A completed job kept in session memory for replay.
struct DoneRecord {
    epochs: Vec<tlm::EpochSample>,
    result: phelps::sim::SimResult,
}

enum JobEntry {
    InFlight {
        backlog: Vec<tlm::EpochSample>,
        subs: Vec<Sub>,
    },
    Done(Box<DoneRecord>),
}

#[derive(Default)]
struct JobTable {
    entries: HashMap<String, JobEntry>,
    /// Completion order of `Done` entries, for session eviction.
    done_order: VecDeque<String>,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    jobs: Mutex<JobTable>,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    simulated: AtomicU64,
    dedup_in_flight: AtomicU64,
    session_hits: AtomicU64,
    disk_hits: AtomicU64,
    busy_rejections: AtomicU64,
    malformed: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn new(cfg: ServeConfig, addr: SocketAddr) -> Shared {
        Shared {
            cfg,
            addr,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            dedup_in_flight: AtomicU64::new(0),
            session_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sets the shutdown flag, wakes idle workers, and unblocks the
    /// accept loop with a throwaway self-connection.
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
    }

    fn snapshot(&self) -> ServerStats {
        let queue_depth = lock(&self.queue).len() as u64;
        let in_flight = lock(&self.jobs)
            .entries
            .values()
            .filter(|e| matches!(e, JobEntry::InFlight { .. }))
            .count() as u64;
        ServerStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            simulated: self.simulated.load(Ordering::SeqCst),
            dedup_in_flight: self.dedup_in_flight.load(Ordering::SeqCst),
            session_hits: self.session_hits.load(Ordering::SeqCst),
            disk_hits: self.disk_hits.load(Ordering::SeqCst),
            busy_rejections: self.busy_rejections.load(Ordering::SeqCst),
            malformed: self.malformed.load(Ordering::SeqCst),
            queue_depth,
            in_flight,
        }
    }
}

/// Runs the daemon on an already-bound listener until a `shutdown`
/// request drains it. This is the blocking entry point; [`spawn`] wraps
/// it for embedding.
pub fn serve_on(listener: TcpListener, cfg: ServeConfig) -> io::Result<ServeReport> {
    let addr = listener.local_addr()?;
    let workers = if cfg.workers > 0 {
        cfg.workers
    } else {
        phelps_bench::resolved_jobs()
    };
    let quiet = cfg.quiet;
    let shared = Arc::new(Shared::new(cfg, addr));
    if !quiet {
        println!("[serve] listening on {addr} ({workers} workers)");
        use std::io::Write;
        let _ = io::stdout().flush();
    }

    thread::scope(|s| {
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            s.spawn(move || worker_loop(&shared));
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if shared.shutting_down() {
                        break; // the self-connection (or a straggler)
                    }
                    let shared = Arc::clone(&shared);
                    s.spawn(move || connection(s, &shared, stream));
                }
                Err(_) => {
                    if shared.shutting_down() {
                        break;
                    }
                }
            }
        }
    });

    // Every worker, reader, and writer has joined. Anything left in the
    // queue or the job table means the drain logic is broken.
    let leftover = lock(&shared.queue).len();
    let open = lock(&shared.jobs)
        .entries
        .values()
        .filter(|e| matches!(e, JobEntry::InFlight { .. }))
        .count();
    if leftover > 0 || open > 0 {
        return Err(io::Error::other(format!(
            "unclean shutdown: {leftover} queued, {open} in-flight jobs leaked"
        )));
    }
    if !quiet {
        println!("[serve] shutdown clean");
    }
    Ok(ServeReport {
        stats: shared.snapshot(),
        workers,
    })
}

/// One client connection: a polling reader (this thread) plus a writer
/// thread draining an unbounded frame channel. Job broadcasts clone the
/// channel sender, so result frames outlive the reader if the client is
/// merely slow — and are dropped harmlessly if it disconnected.
fn connection<'scope>(
    s: &'scope thread::Scope<'scope, '_>,
    shared: &Arc<Shared>,
    stream: TcpStream,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    s.spawn(move || {
        for frame in rx {
            if codec::write_frame(&mut write_half, &frame).is_err() {
                break; // peer gone; remaining frames drop with the channel
            }
        }
    });

    let mut reader = FrameReader::new(stream);
    loop {
        match reader.read_frame() {
            Ok(None) => break, // client EOF
            Ok(Some(line)) => handle_frame(shared, &line, &tx),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized or non-UTF-8 frame: the rest of the stream
                // is unframeable, so answer and hang up.
                shared.malformed.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(encode_response(&Response::Error {
                    id: String::new(),
                    reason: e.to_string(),
                }));
                break;
            }
            Err(_) => break,
        }
    }
}

fn handle_frame(shared: &Arc<Shared>, line: &str, tx: &mpsc::Sender<String>) {
    let send = |resp: &Response| {
        let _ = tx.send(encode_response(resp));
    };
    match parse_request(line) {
        Err(reason) => {
            // Malformed JSON on an intact framing layer: report and keep
            // the connection alive.
            shared.malformed.fetch_add(1, Ordering::SeqCst);
            send(&Response::Error {
                id: String::new(),
                reason,
            });
        }
        Ok(Request::Ping) => send(&Response::Pong),
        Ok(Request::Stats) => send(&Response::Stats(shared.snapshot())),
        Ok(Request::Shutdown) => {
            send(&Response::ShutdownAck);
            shared.initiate_shutdown();
        }
        Ok(Request::Submit(sub)) => handle_submit(shared, sub, tx),
    }
}

fn reject(shared: &Shared, tx: &mpsc::Sender<String>, id: &str, reason: String) {
    shared.malformed.fetch_add(1, Ordering::SeqCst);
    let _ = tx.send(encode_response(&Response::Error {
        id: id.to_string(),
        reason,
    }));
}

fn known_workload(name: &str) -> bool {
    // The name lists cover the figure sweeps; the factory probe also
    // admits extras like `bfs_uniform` (the co-run neighbor input).
    suite::gap_names().contains(&name)
        || suite::spec_names().contains(&name)
        || suite::gap_workload(name).is_some()
}

fn handle_submit(shared: &Arc<Shared>, sub: Submit, tx: &mpsc::Sender<String>) {
    let send = |resp: &Response| {
        let _ = tx.send(encode_response(resp));
    };
    if shared.shutting_down() {
        let _ = tx.send(encode_response(&Response::Error {
            id: sub.id,
            reason: "daemon is shutting down".to_string(),
        }));
        return;
    }
    let Some(mode) = parse_mode(&sub.mode) else {
        reject(
            shared,
            tx,
            &sub.id,
            format!(
                "unknown mode {:?} (expected one of {})",
                sub.mode,
                crate::protocol::mode_names().join(", ")
            ),
        );
        return;
    };
    if !known_workload(&sub.workload) {
        reject(
            shared,
            tx,
            &sub.id,
            format!("unknown workload {:?}", sub.workload),
        );
        return;
    }
    if let Some(peer) = &sub.corun {
        if !known_workload(peer) {
            reject(
                shared,
                tx,
                &sub.id,
                format!("unknown corun workload {peer:?}"),
            );
            return;
        }
    }
    let region = sub.region.unwrap_or_else(phelps_bench::region_len).max(1);
    let epoch = sub.epoch.unwrap_or_else(phelps_bench::epoch_len).max(1);
    let epochs = region.div_ceil(epoch);
    if epochs > MAX_EPOCHS_PER_JOB {
        reject(
            shared,
            tx,
            &sub.id,
            format!(
                "region {region} / epoch {epoch} asks for {epochs} epochs \
                 (at most {MAX_EPOCHS_PER_JOB})"
            ),
        );
        return;
    }
    let run_cfg = RunConfig::quick(mode, region, epoch);
    // The shard decomposition is part of the result's identity (an
    // N-shard run is a sampling approximation of the monolithic run),
    // so it joins the fingerprint — but only when sharding is actually
    // on, keeping historical unsharded cache entries valid. Co-run cells
    // instead carry the neighbor's identity (the batch runner's
    // `corun_cell` key shape) and always run monolithic.
    let shards = shard::shard_count();
    let key = if let Some(peer) = &sub.corun {
        let peer_cfg = RunConfig::quick(Mode::Baseline, region, epoch);
        format!("{run_cfg:?}|peer={peer_cfg:?}|corun={peer}")
    } else if shards > 1 {
        format!("{run_cfg:?}|shards={shards}")
    } else {
        format!("{run_cfg:?}")
    };
    let request = CellRequest {
        experiment: "serve".to_string(),
        workload: sub.workload.clone(),
        config: sub.mode.clone(),
        key,
    };
    let fingerprint = request.fingerprint();
    let accepted = Response::Accepted {
        id: sub.id.clone(),
        fingerprint: fingerprint.clone(),
    };

    let mut jobs = lock(&shared.jobs);
    match jobs.entries.get_mut(&fingerprint) {
        Some(JobEntry::Done(rec)) => {
            shared.session_hits.fetch_add(1, Ordering::SeqCst);
            send(&accepted);
            for sample in &rec.epochs {
                send(&Response::Epoch {
                    id: sub.id.clone(),
                    replay: true,
                    sample: Box::new(sample.clone()),
                });
            }
            send(&Response::Result {
                id: sub.id,
                dedup: Dedup::Session,
                result: Box::new(rec.result.clone()),
            });
        }
        Some(JobEntry::InFlight { backlog, subs }) => {
            shared.dedup_in_flight.fetch_add(1, Ordering::SeqCst);
            send(&accepted);
            // Late subscriber: replay what the simulation already
            // streamed, then ride the live stream with everyone else.
            for sample in backlog.iter() {
                send(&Response::Epoch {
                    id: sub.id.clone(),
                    replay: true,
                    sample: Box::new(sample.clone()),
                });
            }
            subs.push(Sub {
                id: sub.id,
                tx: tx.clone(),
            });
        }
        None => {
            if let Some(dir) = &shared.cfg.cache_dir {
                if let Some(result) = cache::load(dir, &fingerprint) {
                    shared.disk_hits.fetch_add(1, Ordering::SeqCst);
                    send(&accepted);
                    send(&Response::Result {
                        id: sub.id,
                        dedup: Dedup::Cached,
                        result: Box::new(result),
                    });
                    return;
                }
            }
            // Fresh cell: admit it only if the bounded queue has room.
            // The job-table entry is created under the same `jobs` lock
            // that workers take to publish epochs/results, so a worker
            // cannot observe the job before its entry exists.
            let mut queue = lock(&shared.queue);
            if queue.len() >= shared.cfg.queue_capacity {
                shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
                send(&Response::Busy {
                    id: sub.id,
                    retry_after_ms: shared.cfg.retry_after_ms,
                });
                return;
            }
            queue.push_back(Job {
                fingerprint: fingerprint.clone(),
                request,
                run_cfg,
                workload: sub.workload,
                mode_label: sub.mode,
                shards,
                corun: sub.corun,
            });
            shared.queue_cv.notify_one();
            drop(queue);
            jobs.entries.insert(
                fingerprint,
                JobEntry::InFlight {
                    backlog: Vec::new(),
                    subs: vec![Sub {
                        id: sub.id,
                        tx: tx.clone(),
                    }],
                },
            );
            shared.accepted.fetch_add(1, Ordering::SeqCst);
            send(&accepted);
        }
    }
}

/// Worker: pop → execute → publish, until shutdown *and* an empty queue
/// (queued jobs drain; nothing admitted after the flag is set).
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let popped = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    // Reserve the trace ticket under the queue lock so
                    // PHELPS_TRACE output stays in submission order no
                    // matter which worker finishes first.
                    let ticket = trace::global().map(|sink| sink.reserve());
                    break Some((job, ticket));
                }
                if shared.shutting_down() {
                    break None;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some((job, ticket)) = popped else {
            return;
        };
        run_job(shared, job, ticket);
    }
}

fn run_job(shared: &Arc<Shared>, job: Job, ticket: Option<u64>) {
    let sink = {
        let shared = Arc::clone(shared);
        let fingerprint = job.fingerprint.clone();
        // Runs inside `close_epoch` on this worker thread; it only
        // encodes and channel-sends (no telemetry re-entry).
        tlm::SampleSink::new(move |sample| broadcast_epoch(&shared, &fingerprint, sample))
    };
    let policy = ExecPolicy {
        cache_dir: shared.cfg.cache_dir.clone(),
        read_cache: true,
        write_cache: true,
        telemetry: Some(tlm::Config {
            epoch_len: job.run_cfg.epoch_len,
            label: format!("serve/{}/{}", job.workload, job.mode_label),
            epoch_sink: Some(sink),
            ..tlm::Config::default()
        }),
    };
    // Route through the sharded engine: with `shards <= 1` it degrades
    // to the historical install-then-simulate path on this thread; with
    // more it fans the run out over the `PHELPS_JOBS` pool, each shard
    // installing its own registry clone — the shared `SampleSink` then
    // interleaves per-shard epochs into the live stream.
    let outcome = execute_cell_prepared(&job.request, &policy, {
        let workload = job.workload.clone();
        let run_cfg = job.run_cfg.clone();
        let shards = job.shards;
        let corun = job.corun.clone();
        move |tlm_cfg| {
            let w = suite::gap_workload(&workload).or_else(|| suite::spec_workload(&workload))?;
            if let Some(peer) = &corun {
                // Two-tenant co-schedule on a shared uncore: monolithic
                // on this worker thread (the interleaving cannot be
                // sharded), streaming the machine-wide telemetry the
                // primary tenant harvests. The neighbor always runs
                // baseline — it is load, not an experiment arm.
                let p = suite::gap_workload(peer).or_else(|| suite::spec_workload(peer))?;
                let peer_cfg =
                    RunConfig::quick(Mode::Baseline, run_cfg.max_mt_insts, run_cfg.epoch_len);
                if let Some(t) = tlm_cfg.as_ref() {
                    tlm::install(t.clone());
                }
                let [primary, _] = simulate_corun_pair(w.cpu, &run_cfg, p.cpu, &peer_cfg);
                return Some(primary);
            }
            shard::run_sharded_with(
                &CkptPolicy::from_env(),
                phelps_bench::resolved_jobs(),
                shards,
                &workload,
                w.cpu,
                &run_cfg,
                tlm_cfg.as_ref(),
            )
        }
    });

    if let Some(sink) = trace::global() {
        if let Some(seq) = ticket {
            match outcome.result.as_ref().and_then(|r| r.telemetry.as_deref()) {
                Some(report) if !outcome.from_cache => sink.submit(seq, report.clone()),
                _ => sink.skip(seq),
            }
        }
    }
    if outcome.from_cache {
        // Lost a key-lock race against another process writing the same
        // cell (the runner, or another daemon) — still a disk hit.
        shared.disk_hits.fetch_add(1, Ordering::SeqCst);
    } else if outcome.result.is_some() {
        shared.simulated.fetch_add(1, Ordering::SeqCst);
    }
    complete(shared, &job.fingerprint, outcome);
}

/// Streams one closing epoch to every subscriber and appends it to the
/// backlog replayed to late subscribers.
fn broadcast_epoch(shared: &Shared, fingerprint: &str, sample: &tlm::EpochSample) {
    let mut jobs = lock(&shared.jobs);
    if let Some(JobEntry::InFlight { backlog, subs }) = jobs.entries.get_mut(fingerprint) {
        backlog.push(sample.clone());
        for sub in subs.iter() {
            let _ = sub.tx.send(encode_response(&Response::Epoch {
                id: sub.id.clone(),
                replay: false,
                sample: Box::new(sample.clone()),
            }));
        }
    }
}

/// Publishes a finished job: result frames to every subscriber, then a
/// session-memory record so identical future submissions replay instead
/// of re-simulating.
fn complete(shared: &Shared, fingerprint: &str, outcome: CellOutcome) {
    let mut jobs = lock(&shared.jobs);
    let (backlog, subs) = match jobs.entries.remove(fingerprint) {
        Some(JobEntry::InFlight { backlog, subs }) => (backlog, subs),
        other => {
            // Unreachable by construction; restore whatever was there.
            if let Some(entry) = other {
                jobs.entries.insert(fingerprint.to_string(), entry);
            }
            (Vec::new(), Vec::new())
        }
    };
    match outcome.result {
        Some(mut result) => {
            // Telemetry already streamed epoch-by-epoch; the bulky
            // payloads have no business in session memory or on the wire.
            result.telemetry = None;
            result.retire_log = None;
            result.final_state = None;
            let dedup = if outcome.from_cache {
                Dedup::Cached
            } else {
                Dedup::Simulated
            };
            for sub in &subs {
                let _ = sub.tx.send(encode_response(&Response::Result {
                    id: sub.id.clone(),
                    dedup,
                    result: Box::new(result.clone()),
                }));
            }
            jobs.entries.insert(
                fingerprint.to_string(),
                JobEntry::Done(Box::new(DoneRecord {
                    epochs: backlog,
                    result,
                })),
            );
            jobs.done_order.push_back(fingerprint.to_string());
            while jobs.done_order.len() > shared.cfg.session_capacity {
                if let Some(old) = jobs.done_order.pop_front() {
                    jobs.entries.remove(&old);
                }
            }
        }
        None => {
            for sub in &subs {
                let _ = sub.tx.send(encode_response(&Response::Error {
                    id: sub.id.clone(),
                    reason: "simulation failed".to_string(),
                }));
            }
        }
    }
}

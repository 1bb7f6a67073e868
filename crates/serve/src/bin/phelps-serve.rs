//! CLI front end: `phelps-serve serve|submit|stats|ping|shutdown`.
//!
//! `serve` runs the daemon in the foreground until a `shutdown` request
//! drains it. The other subcommands are thin clients; `submit` prints
//! every received frame as a raw JSON line (greppable by scripts) and
//! exits 0 on a result, 3 on busy, 1 on error.

use phelps_serve::{protocol, Client, Request, ServeConfig, Submit};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

/// Prints one frame line; `false` means stdout is gone (e.g. piped to
/// `head`), which a stream-printing CLI must treat as a normal exit,
/// not a panic.
fn print_frame(line: &str) -> bool {
    writeln!(std::io::stdout(), "{line}").is_ok()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: phelps-serve <command> [options]\n\
         \n\
         commands:\n\
         \x20 serve     [--addr=HOST:PORT] [--workers=N] [--queue-cap=N]\n\
         \x20           [--cache-dir=PATH] [--no-cache] [--session-cap=N]\n\
         \x20 submit    --port=N --workload=NAME [--mode=LABEL]\n\
         \x20           [--region=N] [--epoch=N] [--id=STRING]\n\
         \x20           [--corun=NAME]  (co-schedule against a baseline neighbor)\n\
         \x20 stats     --port=N\n\
         \x20 ping      --port=N\n\
         \x20 shutdown  --port=N\n\
         \n\
         modes: {}",
        protocol::mode_names().join(", ")
    );
    ExitCode::from(2)
}

struct Opts {
    flags: Vec<(String, String)>,
}

impl Opts {
    fn parse(args: &[String]) -> Option<Opts> {
        let mut flags = Vec::new();
        for a in args {
            let body = a.strip_prefix("--")?;
            match body.split_once('=') {
                Some((k, v)) => flags.push((k.to_string(), v.to_string())),
                None => flags.push((body.to_string(), String::new())),
            }
        }
        Some(Opts { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} must be a non-negative integer")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(opts) = Opts::parse(rest) else {
        return usage();
    };
    let run = match cmd.as_str() {
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "stats" => cmd_simple(&opts, Request::Stats),
        "ping" => cmd_simple(&opts, Request::Ping),
        "shutdown" => cmd_simple(&opts, Request::Shutdown),
        _ => return usage(),
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(opts: &Opts) -> Result<ExitCode, String> {
    let mut cfg = ServeConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        ..ServeConfig::default()
    };
    if let Some(w) = opts.get_u64("workers")? {
        cfg.workers = w as usize;
    }
    if let Some(q) = opts.get_u64("queue-cap")? {
        cfg.queue_capacity = (q as usize).max(1);
    }
    if let Some(s) = opts.get_u64("session-cap")? {
        cfg.session_capacity = s as usize;
    }
    if opts.get("no-cache").is_some() {
        cfg.cache_dir = None;
    } else if let Some(dir) = opts.get("cache-dir") {
        cfg.cache_dir = Some(PathBuf::from(dir));
    }
    if let Some(dir) = &cfg.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
    }
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let report = phelps_serve::serve_on(listener, cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "[serve] {} simulated, {} dedup (in-flight {}, session {}, disk {}), {} busy",
        report.stats.simulated,
        report.stats.dedup_in_flight + report.stats.session_hits + report.stats.disk_hits,
        report.stats.dedup_in_flight,
        report.stats.session_hits,
        report.stats.disk_hits,
        report.stats.busy_rejections,
    );
    Ok(ExitCode::SUCCESS)
}

fn connect(opts: &Opts) -> Result<Client, String> {
    let port = opts
        .get_u64("port")?
        .ok_or("missing --port=N")?
        .try_into()
        .map_err(|_| "--port out of range".to_string())?;
    Client::connect_local(port).map_err(|e| format!("cannot connect to 127.0.0.1:{port}: {e}"))
}

fn cmd_simple(opts: &Opts, req: Request) -> Result<ExitCode, String> {
    let mut client = connect(opts)?;
    client.send(&req).map_err(|e| e.to_string())?;
    let resp = client.recv().map_err(|e| e.to_string())?;
    print_frame(&protocol::encode_response(&resp));
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(opts: &Opts) -> Result<ExitCode, String> {
    let workload = opts.get("workload").ok_or("missing --workload=NAME")?;
    let submit = Submit {
        id: opts.get("id").unwrap_or("cli").to_string(),
        workload: workload.to_string(),
        mode: opts.get("mode").unwrap_or("baseline").to_string(),
        region: opts.get_u64("region")?,
        epoch: opts.get_u64("epoch")?,
        corun: opts.get("corun").map(str::to_string),
    };
    let id = submit.id.clone();
    let mut client = connect(opts)?;
    client
        .send(&Request::Submit(submit))
        .map_err(|e| e.to_string())?;
    // Print raw frames as they stream so callers can watch/grep live.
    loop {
        let resp = client.recv().map_err(|e| e.to_string())?;
        if !print_frame(&protocol::encode_response(&resp)) {
            return Ok(ExitCode::SUCCESS);
        }
        match &resp {
            phelps_serve::Response::Result { id: rid, .. } if *rid == id => {
                return Ok(ExitCode::SUCCESS)
            }
            phelps_serve::Response::Busy { id: rid, .. } if *rid == id => {
                return Ok(ExitCode::from(3))
            }
            phelps_serve::Response::Error { id: rid, .. } if *rid == id || rid.is_empty() => {
                return Ok(ExitCode::FAILURE)
            }
            _ => {}
        }
    }
}

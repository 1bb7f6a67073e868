//! Blocking client for the daemon, used by the CLI subcommands and the
//! integration tests.

use crate::codec::{self, FrameReader};
use crate::protocol::{
    encode_request, parse_response, Dedup, Request, Response, ServerStats, Submit,
};
use phelps::sim::SimResult;
use phelps_telemetry::EpochSample;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a phelps-serve daemon.
#[derive(Debug)]
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
}

/// Everything a `submit` produced, in arrival order. Exactly one of
/// `result`, `busy`, `error` is set.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// The cell's cache fingerprint (from the `accepted` frame).
    pub fingerprint: Option<String>,
    /// Epoch samples in arrival order, `(replayed, sample)`.
    pub epochs: Vec<(bool, EpochSample)>,
    /// Final result and how the daemon obtained it.
    pub result: Option<(Dedup, SimResult)>,
    /// Backoff hint, when the queue was full.
    pub busy: Option<u64>,
    /// Failure reason, when the submission was rejected.
    pub error: Option<String>,
}

impl JobOutcome {
    /// Samples streamed live (not replayed from a backlog).
    pub fn live_epochs(&self) -> usize {
        self.epochs.iter().filter(|(replay, _)| !replay).count()
    }
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = FrameReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Connects to a daemon on localhost.
    pub fn connect_local(port: u16) -> io::Result<Client> {
        Client::connect(("127.0.0.1", port))
    }

    /// Bounds every subsequent `recv` (`None` blocks indefinitely).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        codec::write_frame(&mut self.writer, &encode_request(req))
    }

    /// Sends one raw line, bypassing the encoder (protocol tests).
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        codec::write_frame(&mut self.writer, line)
    }

    /// Receives one response frame.
    pub fn recv(&mut self) -> io::Result<Response> {
        match self.reader.read_frame()? {
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Some(line) => {
                parse_response(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            }
        }
    }

    /// Sends a request and returns the next frame (single-frame calls:
    /// ping, stats, shutdown).
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Fetches the daemon's counter snapshot.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Submits one cell and collects its whole frame stream: accepted,
    /// streamed/replayed epochs, and the final result (or busy/error).
    /// Frames for other ids (interleaved jobs) are ignored.
    pub fn submit(&mut self, submit: Submit) -> io::Result<JobOutcome> {
        let id = submit.id.clone();
        self.send(&Request::Submit(submit))?;
        let mut outcome = JobOutcome::default();
        loop {
            match self.recv()? {
                Response::Accepted {
                    id: rid,
                    fingerprint,
                } if rid == id => {
                    outcome.fingerprint = Some(fingerprint);
                }
                Response::Busy {
                    id: rid,
                    retry_after_ms,
                } if rid == id => {
                    outcome.busy = Some(retry_after_ms);
                    return Ok(outcome);
                }
                Response::Error { id: rid, reason } if rid == id || rid.is_empty() => {
                    outcome.error = Some(reason);
                    return Ok(outcome);
                }
                Response::Epoch {
                    id: rid,
                    replay,
                    sample,
                } if rid == id => {
                    outcome.epochs.push((replay, *sample));
                }
                Response::Result {
                    id: rid,
                    dedup,
                    result,
                } if rid == id => {
                    outcome.result = Some((dedup, *result));
                    return Ok(outcome);
                }
                _ => {}
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected a {wanted} frame, got {got:?}"),
    )
}

//! phelps-serve: simulation-as-a-service for the Phelps reproduction.
//!
//! A std-only TCP daemon that accepts experiment cells — the same
//! (workload × `RunConfig`) shape the batch runner executes — over a
//! newline-delimited JSON protocol, runs them on a bounded worker pool,
//! and streams per-epoch telemetry ([`EpochSample`] IPC/MPKI/stall
//! series) to the submitting client *while the simulation runs*,
//! followed by the final `SimStats`, Fig. 14 bins included.
//!
//! Identical cells are deduplicated at three levels (in-flight
//! subscription, daemon session memory, the shared on-disk result
//! cache), so N clients asking for the same cell cost one simulation.
//! See [`server`] for the life cycle and shutdown-drain semantics,
//! [`protocol`] for the wire format, and [`client`] for the blocking
//! client the CLI and tests use.
//!
//! [`EpochSample`]: phelps_telemetry::EpochSample

pub mod client;
pub mod codec;
pub mod protocol;
pub mod server;

pub use client::{Client, JobOutcome};
pub use protocol::{Dedup, Request, Response, ServerStats, Submit};
pub use server::{serve_on, spawn, ServeConfig, ServeReport, ServerHandle};

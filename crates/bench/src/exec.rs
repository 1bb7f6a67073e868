//! The single cell-execution entry point shared by every front door.
//!
//! A *cell* — one (workload, configuration) pair with a content
//! fingerprint — can arrive from the batch experiment [`runner`] or from
//! the `phelps-serve` daemon's worker pool. Both paths converge here, so
//! cache-read policy, the per-key dedup lock, telemetry installation,
//! and the atomic cache write behave identically no matter who asked
//! for the simulation.
//!
//! The sequence for one cell:
//!
//! 1. acquire the cell's fingerprint lock ([`cache::key_locks`]) so a
//!    concurrent identical cell serializes behind us,
//! 2. re-check the on-disk cache (the thread that raced us may have just
//!    stored the result — this turns the race into a hit),
//! 3. install a thread-local telemetry registry when requested (with an
//!    optional live [`SampleSink`] for streaming consumers),
//! 4. run the simulation thunk,
//! 5. store the result atomically (tmp + rename) and release the lock.
//!
//! [`runner`]: crate::runner
//! [`SampleSink`]: phelps_telemetry::SampleSink

use crate::runner::cache;
use phelps::sim::SimResult;
use phelps_telemetry as tlm;
use std::path::PathBuf;

/// Identity of one cell: the four components of its cache fingerprint.
#[derive(Clone, Debug)]
pub struct CellRequest {
    /// Experiment (figure/table or service) name.
    pub experiment: String,
    /// Row (workload) label.
    pub workload: String,
    /// Column (configuration) label.
    pub config: String,
    /// Everything else that determines the result (typically the `Debug`
    /// rendering of the full `RunConfig`).
    pub key: String,
}

impl CellRequest {
    /// The full content fingerprint embedded in (and verified against)
    /// the cell's cache file.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{}|{}|{}|v{}",
            self.experiment,
            self.workload,
            self.config,
            self.key,
            env!("CARGO_PKG_VERSION")
        )
    }
}

/// Execution policy for one cell: where the cache lives and whether to
/// consult it, plus an optional telemetry registry to install.
#[derive(Clone, Debug, Default)]
pub struct ExecPolicy {
    /// Cache directory; `None` disables both reads and writes.
    pub cache_dir: Option<PathBuf>,
    /// Serve the cell from the cache when present.
    pub read_cache: bool,
    /// Persist a fresh result into the cache.
    pub write_cache: bool,
    /// Telemetry registry to install on this thread before simulating
    /// (the harvested report rides back on the [`SimResult`]).
    pub telemetry: Option<tlm::Config>,
}

/// The outcome of one cell execution.
#[derive(Debug)]
pub struct CellOutcome {
    /// The result; `None` when the thunk failed (it has already warned).
    pub result: Option<SimResult>,
    /// Whether the result was served from the on-disk cache.
    pub from_cache: bool,
}

/// Executes one cell under `policy`. See the module docs for the exact
/// sequence; this is the only place in the workspace that pairs a cache
/// lookup with a simulation, so dedup semantics cannot drift between
/// the batch runner and the daemon.
///
/// The job receives the policy's telemetry config and decides where and
/// when to install it: a single-threaded simulation installs it on the
/// calling thread, a sharded one installs a registry per shard thread
/// *after* checkpoint positioning (so each registry covers only the
/// timed region).
pub fn execute_cell_prepared(
    req: &CellRequest,
    policy: &ExecPolicy,
    job: impl FnOnce(Option<tlm::Config>) -> Option<SimResult>,
) -> CellOutcome {
    let fingerprint = req.fingerprint();
    let dir = policy
        .cache_dir
        .as_deref()
        .filter(|_| policy.read_cache || policy.write_cache);
    // Hold the cell's key for the whole load → simulate → store span:
    // an identical concurrent cell blocks here and then finds our write.
    let _guard = dir.map(|_| cache::key_locks().lock(&fingerprint));
    if policy.read_cache {
        if let Some(dir) = dir {
            if let Some(result) = cache::load(dir, &fingerprint) {
                return CellOutcome {
                    result: Some(result),
                    from_cache: true,
                };
            }
        }
    }
    let result = job(policy.telemetry.clone());
    if policy.write_cache {
        if let (Some(dir), Some(r)) = (dir, result.as_ref()) {
            cache::store(dir, &fingerprint, r);
        }
    }
    CellOutcome {
        result,
        from_cache: false,
    }
}

/// Runs `job(0..n)` on a pool of `workers` scoped threads and returns
/// the results in index order — the one worker pool behind the runner's
/// cell matrix, sharded single runs and the SimPoint driver.
///
/// Work is claimed from an atomic index, so any worker count yields the
/// same index→result mapping; with `workers == 1` the indices execute
/// strictly in order. Each worker is a fresh thread, so thread-local
/// telemetry registries installed by one shard can never leak into
/// another (or into the caller).
pub fn run_indexed<T: Send>(n: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = job(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phelps::sim::{simulate, Mode, RunConfig};
    use phelps_isa::{Asm, Cpu, Reg};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_loop() -> Cpu {
        let mut a = Asm::new(0x1000);
        a.li(Reg::A0, 2_000);
        a.label("loop");
        a.addi(Reg::A0, Reg::A0, -1);
        a.bne(Reg::A0, Reg::ZERO, "loop");
        a.halt();
        Cpu::new(a.assemble().unwrap())
    }

    fn req(tag: &str) -> CellRequest {
        CellRequest {
            experiment: "exec-test".into(),
            workload: tag.into(),
            config: "baseline".into(),
            key: "k".into(),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phelps-exec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn concurrent_identical_cells_simulate_once() {
        let dir = scratch("dedup");
        let runs = AtomicUsize::new(0);
        let policy = ExecPolicy {
            cache_dir: Some(dir.clone()),
            read_cache: true,
            write_cache: true,
            telemetry: None,
        };
        let outcomes: Vec<CellOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        execute_cell_prepared(&req("dedup"), &policy, |_| {
                            runs.fetch_add(1, Ordering::SeqCst);
                            let cfg = RunConfig::quick(Mode::Baseline, 5_000, 1_000);
                            Some(simulate(tiny_loop(), &cfg))
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one simulation");
        assert_eq!(
            outcomes.iter().filter(|o| o.from_cache).count(),
            3,
            "the other three are cache hits"
        );
        let stats: Vec<String> = outcomes
            .iter()
            .map(|o| format!("{:?}", o.result.as_ref().unwrap().stats))
            .collect();
        assert!(stats.iter().all(|s| s == &stats[0]), "identical results");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_dir_always_simulates() {
        let runs = AtomicUsize::new(0);
        let policy = ExecPolicy::default();
        for _ in 0..2 {
            let o = execute_cell_prepared(&req("nocache"), &policy, |_| {
                runs.fetch_add(1, Ordering::SeqCst);
                let cfg = RunConfig::quick(Mode::Baseline, 5_000, 1_000);
                Some(simulate(tiny_loop(), &cfg))
            });
            assert!(!o.from_cache);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }
}

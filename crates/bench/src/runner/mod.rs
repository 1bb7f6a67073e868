//! Declarative experiment matrix with a parallel, cached executor.
//!
//! Every figure binary declares its experiment as a set of *cells* —
//! (workload, configuration) pairs bound to a simulation thunk — and
//! hands them to [`Experiment::run`]. The runner then:
//!
//! * filters cells against `--only=<substr>` / `PHELPS_ONLY` (and lists
//!   them under `--list`),
//! * skips cells whose result is already in the on-disk cache
//!   (`results/cache/` or `PHELPS_CACHE_DIR`, keyed by a content
//!   fingerprint of the workload name, configuration label and full
//!   `RunConfig`; `PHELPS_NO_CACHE=1` bypasses it),
//! * executes the remaining cells on a scoped-thread work queue
//!   (`PHELPS_JOBS` workers, default = available parallelism), and
//! * collects results in submission order, so output tables and
//!   `PHELPS_TRACE` telemetry files are byte-identical regardless of the
//!   worker count.
//!
//! [`Experiment::run`] is the one place a cell is loaded from the cache,
//! simulated, stored and traced.
//!
//! A traced cell's job hands its recording request to the pipeline it
//! builds ([`Pipeline::record_epochs`]), so each report describes its own
//! run whatever thread ran it. The reports ride back on each
//! [`SimResult`], and once the pool drains the `PHELPS_TRACE` files are
//! written once, in submission order.

pub mod cache;

use crate::exec::run_indexed;
use crate::{exp_config, recording, trace};
use phelps::sim::{run_corun_pair, Mode, Pipeline, RunConfig, SimResult};
use phelps_isa::Cpu;
use phelps_runahead::{runahead_pipeline, BrVariant};
use phelps_telemetry as tlm;
use std::path::PathBuf;
use std::sync::Mutex;

/// Options every figure binary accepts.
#[derive(Clone, Debug, Default)]
pub struct CliOptions {
    /// Case-insensitive substring filter over `workload/config` cell
    /// names (`--only=<substr>`, falling back to `PHELPS_ONLY`).
    pub only: Option<String>,
    /// Print the cell names and exit without simulating (`--list`).
    pub list: bool,
}

/// Parses the process arguments (ignoring unknown ones, so binaries can
/// layer their own flags) and the `PHELPS_ONLY` fallback.
pub fn parse_cli() -> CliOptions {
    let mut opts = CliOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--list" {
            opts.list = true;
        } else if let Some(v) = a.strip_prefix("--only=") {
            opts.only = Some(v.to_string());
        } else if a == "--only" {
            opts.only = args.next();
        }
    }
    if opts.only.is_none() {
        opts.only = std::env::var("PHELPS_ONLY").ok().filter(|s| !s.is_empty());
    }
    opts
}

/// One unit of work: a (workload, configuration) pair bound to a
/// simulation thunk and a content fingerprint for caching. The thunk
/// receives the cell's recording request (`Some` when the cell traces)
/// and hands it to the pipeline it builds.
struct Cell {
    workload: String,
    config: String,
    key: String,
    job: Box<dyn FnOnce(Option<tlm::Config>) -> Option<SimResult> + Send>,
}

/// The outcome of one cell.
#[derive(Debug)]
pub struct CellResult {
    /// Row (workload) label.
    pub workload: String,
    /// Column (configuration) label.
    pub config: String,
    /// The simulation result; `None` when the thunk failed (it has
    /// already warned) or the user filtered the cell away mid-run.
    pub result: Option<SimResult>,
    /// Whether the result was served from the on-disk cache.
    pub from_cache: bool,
}

/// All cell outcomes of one experiment, in submission order.
#[derive(Debug)]
pub struct MatrixResults {
    /// Per-cell outcomes, in the order the cells were declared.
    pub cells: Vec<CellResult>,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells actually simulated.
    pub simulated: usize,
    /// Cells removed by the `--only` filter.
    pub filtered: usize,
}

impl MatrixResults {
    /// The result for one (workload, configuration) cell, if it ran.
    pub fn get(&self, workload: &str, config: &str) -> Option<&SimResult> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.config == config)
            .and_then(|c| c.result.as_ref())
    }

    /// All distinct workload labels that produced at least one result,
    /// in submission order (the row set after filtering).
    pub fn workloads(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for c in &self.cells {
            if c.result.is_some() && !out.contains(&c.workload.as_str()) {
                out.push(&c.workload);
            }
        }
        out
    }
}

/// A declarative experiment: named cells plus execution policy.
///
/// Policy defaults come from the environment (`PHELPS_JOBS`,
/// `PHELPS_ONLY`, `PHELPS_NO_CACHE`, `PHELPS_CACHE_DIR`,
/// `PHELPS_TRACE`); the builder
/// methods override them explicitly, which the tests use to avoid
/// process-global env-var races.
pub struct Experiment {
    name: String,
    cells: Vec<Cell>,
    jobs: Option<usize>,
    filter: Option<String>,
    list: bool,
    cache_dir: Option<PathBuf>,
    use_cache: bool,
    force_telemetry: bool,
    quiet: bool,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("cells", &self.cells.len())
            .finish_non_exhaustive()
    }
}

impl Experiment {
    /// An empty experiment named after its figure/table.
    pub fn new(name: &str) -> Experiment {
        let cache_dir = crate::cache_dir_from_env();
        Experiment {
            name: name.to_string(),
            cells: Vec::new(),
            jobs: None,
            filter: None,
            list: false,
            use_cache: cache_dir.is_some(),
            cache_dir,
            force_telemetry: false,
            quiet: false,
        }
    }

    /// Applies parsed command-line options (filter + list mode).
    pub fn with_cli(mut self, opts: &CliOptions) -> Experiment {
        self.filter = opts.only.clone();
        self.list = opts.list;
        self
    }

    /// Overrides the worker count (tests; normally `PHELPS_JOBS`).
    pub fn jobs(mut self, n: usize) -> Experiment {
        self.jobs = Some(n.max(1));
        self
    }

    /// Overrides the cell filter.
    pub fn filter(mut self, f: Option<&str>) -> Experiment {
        self.filter = f.map(str::to_string);
        self
    }

    /// Overrides the cache directory; `None` disables caching. A
    /// `PHELPS_NO_CACHE=1` environment keeps the cache disabled even
    /// when a directory is supplied.
    pub fn cache_dir(mut self, dir: Option<PathBuf>) -> Experiment {
        if dir.is_none() {
            self.use_cache = false;
        }
        self.cache_dir = dir;
        self
    }

    /// Records every simulated cell's epoch series even without
    /// `PHELPS_TRACE` (the reports ride on the results; no trace file is
    /// written).
    pub fn telemetry(mut self, on: bool) -> Experiment {
        self.force_telemetry = on;
        self
    }

    /// Suppresses the `[runner]` summary line (tests).
    pub fn quiet(mut self, q: bool) -> Experiment {
        self.quiet = q;
        self
    }

    /// Adds a fully custom cell. `key` must capture everything that
    /// determines the result beyond the workload and config labels
    /// (typically `format!("{run_config:?}")` plus any extras). `job`
    /// receives the cell's recording request, `Some` when the cell
    /// traces, and passes it to [`Pipeline::record_epochs`] on the
    /// pipeline it runs.
    pub fn cell(
        &mut self,
        workload: &str,
        config: &str,
        key: String,
        job: impl FnOnce(Option<tlm::Config>) -> Option<SimResult> + Send + 'static,
    ) {
        self.cells.push(Cell {
            workload: workload.to_string(),
            config: config.to_string(),
            key,
            job: Box::new(job),
        });
    }

    /// Adds a plain simulation cell: `make()` under `mode` with the
    /// standard scaled [`RunConfig`].
    pub fn sim_cell(
        &mut self,
        workload: &str,
        config: &str,
        mode: Mode,
        make: impl FnOnce() -> Cpu + Send + 'static,
    ) {
        let cfg = exp_config(mode);
        self.cfg_cell(workload, config, cfg, make);
    }

    /// Adds a simulation cell with an explicit, fully-formed [`RunConfig`].
    ///
    /// With `PHELPS_SHARDS=N` (N > 1) the cell runs through
    /// [`crate::shard::run_sharded_with`]: the run splits into N
    /// checkpoint shards simulated on their own `PHELPS_JOBS` pool and
    /// merges deterministically. The shard count changes the result (a
    /// sharded run is a sampling approximation of the monolithic one),
    /// so it is part of the cache key. Every figure binary's simulation
    /// cells inherit sharding through this path; Branch Runahead cells
    /// ([`Experiment::br_cell`]) use a different engine entry point and
    /// stay unsharded.
    pub fn cfg_cell(
        &mut self,
        workload: &str,
        config: &str,
        cfg: RunConfig,
        make: impl FnOnce() -> Cpu + Send + 'static,
    ) {
        let shards = crate::shard::shard_count();
        if shards > 1 {
            let label = workload.to_string();
            self.cell(
                workload,
                config,
                format!("{cfg:?}|shards={shards}"),
                move |telemetry| {
                    crate::shard::run_sharded_with(
                        &crate::ckpt_support::CkptPolicy::from_env(),
                        crate::resolved_jobs(),
                        shards,
                        &label,
                        make(),
                        &cfg,
                        telemetry.as_ref(),
                    )
                },
            );
        } else {
            self.cell(workload, config, format!("{cfg:?}"), move |telemetry| {
                Some(recording(Pipeline::from_config(make(), &cfg), telemetry).run())
            });
        }
    }

    /// Adds a co-run cell: `make()` under `cfg` co-scheduled against a
    /// contending `peer` workload (tenant 1, `make_peer()` under
    /// `peer_cfg`) on one shared uncore via [`run_corun_pair`]. The
    /// cell's result is the primary tenant's co-run outcome with its
    /// attributed share of the uncore contention, and only the primary
    /// records its epoch series; pair it with a plain solo cell of the
    /// same (workload, cfg) to read off the interference. The cache key gains
    /// a `|corun=<peer>` suffix (plus the peer's full config) — a
    /// different neighbor is a different machine, while the solo cell's
    /// key stays untouched.
    #[allow(clippy::too_many_arguments)]
    pub fn corun_cell(
        &mut self,
        workload: &str,
        config: &str,
        cfg: RunConfig,
        make: impl FnOnce() -> Cpu + Send + 'static,
        peer: &str,
        peer_cfg: RunConfig,
        make_peer: impl FnOnce() -> Cpu + Send + 'static,
    ) {
        let key = format!("{cfg:?}|peer={peer_cfg:?}|corun={peer}");
        self.cell(workload, config, key, move |telemetry| {
            let [primary, _] = run_corun_pair(
                &cfg.core,
                recording(Pipeline::from_config(make(), &cfg), telemetry),
                Pipeline::from_config(make_peer(), &peer_cfg),
            );
            Some(primary)
        });
    }

    /// Adds a Branch Runahead cell.
    pub fn br_cell(
        &mut self,
        workload: &str,
        config: &str,
        variant: BrVariant,
        make: impl FnOnce() -> Cpu + Send + 'static,
    ) {
        let cfg = exp_config(Mode::Baseline);
        self.cell(
            workload,
            config,
            format!("{cfg:?}|{variant:?}"),
            move |telemetry| {
                Some(recording(runahead_pipeline(make(), &cfg, variant), telemetry).run())
            },
        );
    }

    fn resolved_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(crate::resolved_jobs)
    }

    /// Executes the matrix and collects results in submission order.
    pub fn run(mut self) -> MatrixResults {
        let total = self.cells.len();
        let all_cells = std::mem::take(&mut self.cells);
        if self.list {
            for c in &all_cells {
                println!("{}/{}", c.workload, c.config);
            }
            return MatrixResults {
                cells: Vec::new(),
                hits: 0,
                simulated: 0,
                filtered: total,
            };
        }

        // Filter.
        let needle = self.filter.as_deref().map(str::to_lowercase);
        let (kept, dropped): (Vec<Cell>, Vec<Cell>) =
            all_cells.into_iter().partition(|c| match &needle {
                Some(n) => format!("{}/{}", c.workload, c.config)
                    .to_lowercase()
                    .contains(n),
                None => true,
            });
        let filtered = dropped.len();
        if let Some(f) = &self.filter {
            if kept.is_empty() && total > 0 {
                eprintln!(
                    "warning: --only={f:?} matched none of the {total} cells \
                     (run with --list to see their names)"
                );
            }
        }

        let trace_path = trace::path();
        let want_telemetry = self.force_telemetry || trace_path.is_some();
        let cache_dir = self.cache_dir.as_deref().filter(|_| self.use_cache);
        if let Some(dir) = cache_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
            }
        }

        let jobs = self.resolved_jobs().min(kept.len().max(1));
        let slots: Vec<Mutex<Option<Cell>>> =
            kept.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let epoch_len = crate::epoch_len();

        // Each kept cell is loaded from the cache, or simulated and
        // stored. The pool returns the outcomes in index order,
        // independent of the worker count.
        let cells: Vec<CellResult> = run_indexed(slots.len(), jobs, |i| {
            let cell = slots[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each cell is taken exactly once");
            let fingerprint = format!(
                "{}|{}|{}|{}|v{}",
                self.name,
                cell.workload,
                cell.config,
                cell.key,
                env!("CARGO_PKG_VERSION")
            );
            // Telemetry reports are never cached, so a traced run must
            // simulate every cell; it still refreshes the cache on the way.
            let cached = cache_dir
                .filter(|_| !want_telemetry)
                .and_then(|dir| cache::load(dir, &fingerprint));
            let from_cache = cached.is_some();
            let result = cached.or_else(|| {
                let telemetry = want_telemetry.then(|| tlm::Config {
                    epoch_len,
                    label: format!("{}/{}", cell.workload, cell.config),
                });
                let result = (cell.job)(telemetry);
                if let (Some(dir), Some(r)) = (cache_dir, result.as_ref()) {
                    cache::store(dir, &fingerprint, r);
                }
                result
            });
            CellResult {
                workload: cell.workload,
                config: cell.config,
                result,
                from_cache,
            }
        });
        // Submission-ordered trace output: identical files for any
        // PHELPS_JOBS value. A failed cell carries no report.
        if let Some(path) = trace_path {
            let runs: Vec<&tlm::Report> = cells
                .iter()
                .filter_map(|c| c.result.as_ref()?.telemetry.as_deref())
                .collect();
            if !runs.is_empty() {
                trace::write(&path, &runs);
            }
        }
        let hits = cells.iter().filter(|c| c.from_cache).count();
        let simulated = cells
            .iter()
            .filter(|c| !c.from_cache && c.result.is_some())
            .count();
        if !self.quiet {
            println!(
                "[runner] {}: cells={} hits={} simulated={} filtered={} jobs={}",
                self.name,
                cells.len(),
                hits,
                simulated,
                filtered,
                jobs
            );
        }
        MatrixResults {
            cells,
            hits,
            simulated,
            filtered,
        }
    }
}

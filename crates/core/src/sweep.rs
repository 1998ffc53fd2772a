//! Thread-parallel sweep engine for the evaluation pipeline.
//!
//! Every evaluation artifact used to re-implement the same loop: run
//! [`Platform::run`] once per `(policy, seed)` pair, sequentially, on one
//! core. This module centralizes that loop behind a worker pool:
//!
//! * [`parallel_map_indexed`] — the deterministic, order-preserving
//!   executor: scoped worker threads claim items through a shared atomic
//!   cursor and results are put back in item order, so the output order
//!   never depends on thread scheduling.
//! * [`SweepSpec`] — a matrix of policies × placements × elasticities ×
//!   seeds × scenario variants, expanded into [`SweepJob`]s and executed
//!   by the pool.
//! * [`SweepReport`] — per-run [`RunMetrics`], one query that aggregates
//!   the runs a predicate selects ([`SweepReport::aggregate`]: pooled
//!   CDFs, means, and 95 % confidence intervals — [`SweepAggregate`]),
//!   and persistence of the full records ([`SweepReport::write_json`]).
//!
//! A sweep runs in one process, on the pool: the largest study this
//! repository commits (72 runs of the 17.5-hour excerpt) simulates in
//! 0.13–0.2 s on two cores, so there is no split across processes, no
//! checkpoint and no resume — a killed sweep is run again. Writes go through a `.tmp`
//! sibling plus rename, so a process killed mid-write cannot leave a
//! truncated report behind.
//!
//! # Determinism
//!
//! [`Platform::run`] is a pure function of `(config, trace)`; workers share
//! nothing but the job cursor. A sweep-produced [`RunMetrics`] is therefore
//! identical to the record a sequential `Platform::run` with the same
//! inputs produces, whatever the worker count — the
//! `sweep_runs_equal_sequential_runs` property test in `tests/properties.rs`
//! locks this in, and `tests/golden_determinism.rs` holds the bytes
//! [`SweepReport::write_json`] writes for two small sweeps to committed
//! files.
//!
//! # Example
//!
//! ```
//! use notebookos_core::sweep::{Scenario, SweepSpec};
//! use notebookos_core::PolicyKind;
//! use notebookos_trace::SyntheticConfig;
//!
//! let report = SweepSpec::new()
//!     .policies(vec![PolicyKind::NotebookOs])
//!     .seeds(vec![1, 2])
//!     .scenarios(vec![Scenario::new("smoke", SyntheticConfig::smoke())])
//!     .workers(2)
//!     .run();
//! assert_eq!(report.runs.len(), 2);
//! let agg = report.aggregate(|run| run.scenario == "smoke").unwrap();
//! assert_eq!(agg.interactivity_p50_ms.n, 2);
//! ```

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use notebookos_cluster::ResourceBundle;
use notebookos_jupyter::json::encode_string;
use notebookos_metrics::{Cdf, MeanCi};
use notebookos_trace::{generate_with_profile, SyntheticConfig, TraceProfile, WorkloadTrace};

use crate::config::{ElasticityKind, PlacementKind, PlatformConfig, PolicyKind};
use crate::latency_breakdown::Step;
use crate::platform::Platform;
use crate::results::RunMetrics;

/// Worker count used when a spec asks for `0`: the machine's available
/// parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` over `items` on a pool of `workers` threads (0 = automatic,
/// see [`default_workers`]), returning results in item order regardless of
/// completion order.
///
/// The pool is `std::thread::scope`: each worker claims the next item
/// index from a shared atomic cursor and keeps its `(index, result)`
/// pairs in a vector of its own; the pairs are sorted back into item
/// order once every worker has joined.
pub fn parallel_map_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .min(items.len());
    if workers <= 1 {
        // Degenerate pool: run inline, sparing thread setup.
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // `Relaxed` suffices: the cursor publishes no data.
                        // The items were written before the spawn, and the
                        // results come back through `join`.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(i, item)));
                    }
                })
            })
            .collect();
        pool.into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// One cell of a sweep matrix: a fully resolved `(config, trace)` pair
/// plus the axis labels it came from.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Scenario label (for aggregation grouping).
    pub scenario: String,
    /// The scheduling policy under evaluation.
    pub policy: PolicyKind,
    /// The replica-placement policy for this run.
    pub placement: PlacementKind,
    /// The elasticity policy driving scale-out/scale-in for this run.
    pub elasticity: ElasticityKind,
    /// The run's seed (both trace generation and platform RNG).
    pub seed: u64,
    /// The resolved platform configuration.
    pub config: PlatformConfig,
    /// The workload to replay, shared so a large job matrix holds one
    /// copy per `(scenario, seed)` rather than one per job; the private
    /// copy [`Platform::run`] needs is made inside the worker, capping
    /// extra copies at the pool size.
    pub trace: Arc<WorkloadTrace>,
}

impl SweepJob {
    /// Builds a job from an explicit `(config, trace)` pair, stamping
    /// `policy` and `seed` into the config. Accepts a plain trace or an
    /// `Arc` shared across jobs.
    pub fn new(
        policy: PolicyKind,
        seed: u64,
        mut config: PlatformConfig,
        trace: impl Into<Arc<WorkloadTrace>>,
    ) -> Self {
        config.policy = policy;
        config.seed = seed;
        SweepJob {
            scenario: "default".into(),
            policy,
            placement: config.placement,
            elasticity: config.autoscale.elasticity,
            seed,
            config,
            trace: trace.into(),
        }
    }

    /// Executes the job — exactly [`Platform::run`] on copies of its
    /// inputs.
    pub fn run(&self) -> RunMetrics {
        Platform::run(self.config.clone(), (*self.trace).clone())
    }
}

/// Runs explicit jobs on the pool (0 workers = automatic), returning
/// metrics in job order. The building block the figure binaries use when
/// they already hold a trace.
pub fn run_jobs(jobs: Vec<SweepJob>, workers: usize) -> Vec<RunMetrics> {
    parallel_map_indexed(&jobs, workers, |_, job| job.run())
}

/// One workload scenario a sweep ranges over: a synthetic-workload shape,
/// a trace profile, and optionally a heterogeneous host fleet.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label used in reports and aggregation keys.
    pub name: String,
    /// Workload generator configuration.
    pub workload: SyntheticConfig,
    /// Duration/IAT profile events are drawn from.
    pub profile: TraceProfile,
    /// Heterogeneous initial fleet override; empty keeps the config's
    /// homogeneous `initial_hosts` × p3.16xlarge fleet.
    pub host_mix: Vec<(ResourceBundle, u32)>,
}

impl Scenario {
    /// A scenario over the AdobeTrace profile with a homogeneous fleet.
    pub fn new(name: impl Into<String>, workload: SyntheticConfig) -> Self {
        Scenario {
            name: name.into(),
            workload,
            profile: TraceProfile::adobe(),
            host_mix: Vec::new(),
        }
    }

    /// Overrides the initial fleet with a heterogeneous `(shape, count)`
    /// mix.
    pub fn with_host_mix(mut self, mix: Vec<(ResourceBundle, u32)>) -> Self {
        self.host_mix = mix;
        self
    }

    /// The 17.5-hour evaluation excerpt (§5.2) — the default scenario.
    pub fn excerpt() -> Self {
        Scenario::new("excerpt-17.5h", SyntheticConfig::excerpt_17_5h())
    }

    /// Flash-crowd arrivals: the excerpt's population compressed into
    /// three bursts, stressing scale-out and pre-warm provisioning.
    pub fn flash_crowd() -> Self {
        Scenario::new("flash-crowd", SyntheticConfig::flash_crowd_17_5h())
    }

    /// Diurnal arrivals at excerpt scale: ~3 day/night cycles with 4×
    /// peak-to-trough contrast and half the sessions short-lived, so the
    /// fleet repeatedly grows and shrinks — the scenario that separates
    /// hysteresis elasticity from plain threshold scaling.
    pub fn diurnal() -> Self {
        Scenario::new("diurnal", SyntheticConfig::diurnal_17_5h())
    }

    /// The excerpt workload on a mixed-generation fleet: 8-GPU trainers
    /// alongside half-size 4-GPU boxes (same CPU:GPU ratio).
    pub fn heterogeneous_hosts() -> Self {
        Scenario::new("heterogeneous-hosts", SyntheticConfig::excerpt_17_5h()).with_host_mix(vec![
            (ResourceBundle::p3_16xlarge(), 5),
            (ResourceBundle::new(32_000, 249_856, 4), 6),
        ])
    }

    /// Generates this scenario's workload for `seed` (deterministic).
    pub fn trace(&self, seed: u64) -> WorkloadTrace {
        generate_with_profile(&self.workload, &self.profile, seed)
    }

    /// Applies the scenario's platform-side overrides to `config`.
    pub fn apply(&self, config: &mut PlatformConfig) {
        if !self.host_mix.is_empty() {
            config.host_mix = self.host_mix.clone();
        }
    }
}

/// A matrix of policies × placements × elasticities × seeds × scenarios,
/// executed by the worker pool.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Scheduling policies to evaluate.
    pub policies: Vec<PolicyKind>,
    /// Replica-placement policies to range over. The default
    /// single-element `[LeastLoaded]` is the paper's placement, the one
    /// [`PlatformConfig::evaluation`] picks.
    pub placements: Vec<PlacementKind>,
    /// Elasticity policies to range over (the control-plane axis). The
    /// default single-element `[Threshold]` reproduces pre-elasticity
    /// sweeps exactly.
    pub elasticities: Vec<ElasticityKind>,
    /// Seeds each `(policy, scenario)` pair runs under.
    pub seeds: Vec<u64>,
    /// Workload scenarios to range over.
    pub scenarios: Vec<Scenario>,
    /// Maps a policy to its base configuration (seed and scenario
    /// overrides are applied on top). Defaults to
    /// [`PlatformConfig::evaluation`].
    pub configure: fn(PolicyKind) -> PlatformConfig,
    /// Worker threads; 0 picks [`default_workers`].
    pub workers: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new()
    }
}

impl SweepSpec {
    /// A single-policy, single-seed sweep over the evaluation excerpt.
    pub fn new() -> Self {
        SweepSpec {
            policies: vec![PolicyKind::NotebookOs],
            placements: vec![PlacementKind::LeastLoaded],
            elasticities: vec![ElasticityKind::Threshold],
            seeds: vec![PlatformConfig::evaluation(PolicyKind::NotebookOs).seed],
            scenarios: vec![Scenario::excerpt()],
            configure: PlatformConfig::evaluation,
            workers: 0,
        }
    }

    /// Sets the policy axis.
    pub fn policies(mut self, policies: Vec<PolicyKind>) -> Self {
        self.policies = policies;
        self
    }

    /// Sets the placement axis.
    pub fn placements(mut self, placements: Vec<PlacementKind>) -> Self {
        self.placements = placements;
        self
    }

    /// Ranges over all four bundled placement policies — the
    /// `placement × elasticity` interaction study's row axis.
    pub fn all_placements(self) -> Self {
        self.placements(PlacementKind::ALL.to_vec())
    }

    /// Sets the elasticity axis.
    pub fn elasticities(mut self, elasticities: Vec<ElasticityKind>) -> Self {
        self.elasticities = elasticities;
        self
    }

    /// Ranges over all three bundled elasticity policies.
    pub fn all_elasticities(self) -> Self {
        self.elasticities(ElasticityKind::ALL.to_vec())
    }

    /// Sets the seed axis.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the scenario axis.
    pub fn scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Sets the per-policy base-configuration function.
    pub fn configure(mut self, f: fn(PolicyKind) -> PlatformConfig) -> Self {
        self.configure = f;
        self
    }

    /// Sets the worker count (0 = automatic).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Expands the matrix into jobs: scenario-major, then seed, then
    /// policy, then placement, then elasticity. All runs of a
    /// `(scenario, seed)` share one generated trace.
    pub fn jobs(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::new();
        for scenario in &self.scenarios {
            for &seed in &self.seeds {
                let trace = Arc::new(scenario.trace(seed));
                for &policy in &self.policies {
                    for &placement in &self.placements {
                        for &elasticity in &self.elasticities {
                            let mut config = (self.configure)(policy);
                            config.policy = policy;
                            config.seed = seed;
                            config.autoscale.elasticity = elasticity;
                            config.placement = placement;
                            scenario.apply(&mut config);
                            jobs.push(SweepJob {
                                scenario: scenario.name.clone(),
                                policy,
                                placement,
                                elasticity,
                                seed,
                                config,
                                trace: Arc::clone(&trace),
                            });
                        }
                    }
                }
            }
        }
        jobs
    }

    /// Executes the matrix on the pool and collects the runs in job order.
    pub fn run(&self) -> SweepReport {
        let runs = parallel_map_indexed(&self.jobs(), self.workers, |_, job| SweepRun {
            scenario: job.scenario.clone(),
            policy: job.policy,
            placement: job.placement,
            elasticity: job.elasticity,
            seed: job.seed,
            metrics: job.run(),
        });
        SweepReport { runs }
    }
}

/// One completed run inside a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Scenario label.
    pub scenario: String,
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// Replica-placement policy the run placed under.
    pub placement: PlacementKind,
    /// Elasticity policy the run scaled under.
    pub elasticity: ElasticityKind,
    /// Seed used for trace generation and platform RNG.
    pub seed: u64,
    /// The run's full measurement record.
    pub metrics: RunMetrics,
}

/// The collected output of a sweep, in job order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-run records, in the deterministic job order of
    /// [`SweepSpec::jobs`].
    pub runs: Vec<SweepRun>,
}

impl SweepReport {
    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the sweep produced no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Aggregates the runs `select` picks across their seeds — one
    /// `(scenario, policy, placement, elasticity)` cell, or any coarser
    /// pooling the predicate asks for — or `None` when it picks no run.
    pub fn aggregate(&self, select: impl Fn(&SweepRun) -> bool) -> Option<SweepAggregate> {
        let runs: Vec<&SweepRun> = self.runs.iter().filter(|run| select(run)).collect();
        (!runs.is_empty()).then(|| SweepAggregate::from_runs(&runs))
    }

    // ------------------------------------------------------------------
    // Persistence: per-run records are serialized so a study's numbers
    // can be read outside this process. The writer stages into a `.tmp`
    // sibling and renames, so a killed sweep never leaves a truncated
    // file behind.
    // ------------------------------------------------------------------

    /// Writes the full per-run records — every CDF histogram, timeline
    /// point, breakdown step, and counter — as JSON, runs in job order.
    /// The serialization is deterministic — each CDF as its exact parts
    /// `{n, sum, min, max, zeros, pos, neg}` with buckets as ascending
    /// `[index, count]` pairs, floats in shortest round-trip `{:?}` form —
    /// so equal reports produce byte-identical files and equal files mean
    /// equal records (`tests/golden_determinism.rs` compares these bytes
    /// with committed reports; CI `cmp`s the reports of two pool sizes).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_atomic(path.as_ref(), |out| self.emit_json(out))
    }

    fn emit_json<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        writeln!(out, "{{")?;
        writeln!(out, "  \"runs\": [")?;
        for (i, run) in self.runs.iter().enumerate() {
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            write_run_json(out, run)?;
            writeln!(out, "{comma}")?;
        }
        writeln!(out, "  ]")?;
        writeln!(out, "}}")
    }
}

/// Writes a file atomically: `emit` streams into a buffered `.tmp`
/// sibling in the same directory, which is then renamed over the target
/// (and removed when staging fails). Missing parent directories are
/// created — an `--out results/study/report.json` into a directory that
/// does not exist yet must not fail *after* the sweep has run. A process
/// killed mid-write leaves at worst a stale `.tmp`, never a truncated
/// file, and full-scale reports never buffer whole in memory.
fn write_atomic(
    path: &Path,
    emit: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("report path {} has no file name", path.display()),
        )
    })?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
    let staged = (|| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        emit(&mut out)?;
        out.flush()
    })();
    if let Err(e) = staged {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    std::fs::rename(&tmp, path)
}

/// Median of a CDF behind a shared reference (`percentile` takes
/// `&mut self`, so a clone is queried); empty CDFs report `0.0`.
fn p50(cdf: &Cdf) -> f64 {
    if cdf.is_empty() {
        0.0
    } else {
        cdf.clone().percentile(50.0)
    }
}

/// A JSON number: f64 `{:?}` is shortest-round-trip and always parses
/// back bit-identically; non-finite values (never produced by a run)
/// degrade to null. Not `jupyter::json`'s `encode_number`: that writes an
/// integral value as `12`, and `12.0` is what the committed reports hold.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(json_num).collect();
    format!("[{}]", items.join(","))
}

fn json_pairs_array(points: impl IntoIterator<Item = (f64, f64)>) -> String {
    let items: Vec<String> = points
        .into_iter()
        .map(|(a, b)| format!("[{},{}]", json_num(a), json_num(b)))
        .collect();
    format!("[{}]", items.join(","))
}

/// A histogram CDF as its exact parts: `{n, sum, min, max, zeros, pos,
/// neg}`, each of `pos` and `neg` its occupied buckets as `[index, count]`
/// pairs (`min` and `max` are null while it is empty).
fn json_cdf(cdf: &Cdf) -> String {
    let (min, max) = cdf.range().unwrap_or((f64::NAN, f64::NAN));
    let buckets = |pairs: &mut dyn Iterator<Item = (u32, u64)>| {
        let items: Vec<String> = pairs.map(|(i, c)| format!("[{i},{c}]")).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        "{{\"n\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"zeros\": {}, \"pos\": {}, \"neg\": {}}}",
        cdf.len(),
        json_num(cdf.sum()),
        json_num(min),
        json_num(max),
        cdf.zeros(),
        buckets(&mut cdf.positive_buckets()),
        buckets(&mut cdf.negative_buckets()),
    )
}

/// Writes one run object. The layout is this function's own (one line per
/// collector, pinned byte for byte by the golden reports); the
/// labels go through `jupyter::json`'s string escaper. The escaper this
/// module used to carry differed from it only in spelling `\n`, `\r` and
/// `\t` as `\u000a`-style escapes — both parse back equal — and no
/// scenario, policy, placement or elasticity label holds a control
/// character, so the switch moved no byte of any report.
fn write_run_json<W: Write>(out: &mut W, run: &SweepRun) -> std::io::Result<()> {
    let json_string = |label: &str| {
        let mut quoted = String::with_capacity(label.len() + 2);
        encode_string(label, &mut quoted);
        quoted
    };
    let m = &run.metrics;
    writeln!(out, "    {{")?;
    writeln!(out, "      \"scenario\": {},", json_string(&run.scenario))?;
    writeln!(
        out,
        "      \"policy\": {},",
        json_string(&run.policy.to_string())
    )?;
    writeln!(
        out,
        "      \"placement\": {},",
        json_string(&run.placement.to_string())
    )?;
    writeln!(
        out,
        "      \"elasticity\": {},",
        json_string(&run.elasticity.to_string())
    )?;
    writeln!(out, "      \"seed\": {},", run.seed)?;
    writeln!(out, "      \"end_s\": {},", json_num(m.end_s))?;
    let c = &m.counters;
    writeln!(
        out,
        "      \"counters\": {{\"executions\": {}, \"aborted\": {}, \"immediate_commits\": {}, \
         \"executor_reuse\": {}, \"kernel_creations\": {}, \"migrations\": {}, \
         \"scale_outs\": {}, \"scale_ins\": {}, \"cold_starts\": {}, \"warm_hits\": {}, \
         \"replica_failures\": {}, \"prewarms_discarded\": {}, \"prewarms_reconciled\": {}}},",
        c.executions,
        c.aborted,
        c.immediate_commits,
        c.executor_reuse,
        c.kernel_creations,
        c.migrations,
        c.scale_outs,
        c.scale_ins,
        c.cold_starts,
        c.warm_hits,
        c.replica_failures,
        c.prewarms_discarded,
        c.prewarms_reconciled,
    )?;
    let shapes = |counters: &[(ResourceBundle, u64)]| {
        let items: Vec<String> = counters
            .iter()
            .map(|(s, n)| {
                format!(
                    "{{\"gpus\": {}, \"millicpus\": {}, \"memory_mb\": {}, \"hosts\": {}}}",
                    s.gpus, s.millicpus, s.memory_mb, n
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    };
    writeln!(
        out,
        "      \"hosts_provisioned_by_shape\": {},",
        shapes(&m.hosts_provisioned_by_shape)
    )?;
    writeln!(
        out,
        "      \"hosts_retired_by_shape\": {},",
        shapes(&m.hosts_retired_by_shape)
    )?;
    writeln!(out, "      \"cdfs\": {{")?;
    let cdfs = [
        ("interactivity_ms", &m.interactivity_ms),
        ("tct_ms", &m.tct_ms),
        ("sync_ms", &m.sync_ms),
        ("read_ms", &m.read_ms),
        ("write_ms", &m.write_ms),
    ];
    for (i, (name, cdf)) in cdfs.iter().enumerate() {
        let comma = if i + 1 < cdfs.len() { "," } else { "" };
        writeln!(
            out,
            "        {}: {}{comma}",
            json_string(name),
            json_cdf(cdf)
        )?;
    }
    writeln!(out, "      }},")?;
    writeln!(out, "      \"timelines\": {{")?;
    let timelines = [
        ("provisioned_gpus", &m.provisioned_gpus),
        ("committed_gpus", &m.committed_gpus),
        ("reserved_gpus", &m.reserved_gpus),
        ("subscription_ratio", &m.subscription_ratio),
    ];
    for (i, (name, tl)) in timelines.iter().enumerate() {
        let comma = if i + 1 < timelines.len() { "," } else { "" };
        writeln!(
            out,
            "        {}: {}{comma}",
            json_string(name),
            json_pairs_array(tl.points())
        )?;
    }
    writeln!(out, "      }},")?;
    writeln!(
        out,
        "      \"kernel_creation_times_s\": {},",
        json_f64_array(m.kernel_creation_times_s.iter().copied())
    )?;
    writeln!(
        out,
        "      \"migration_times_s\": {},",
        json_f64_array(m.migration_times_s.iter().copied())
    )?;
    writeln!(
        out,
        "      \"scale_out_times_s\": {},",
        json_f64_array(m.scale_out_times_s.iter().copied())
    )?;
    let billing: Vec<String> = m
        .billing_samples
        .iter()
        .map(|&(t, cost, revenue)| {
            format!("[{},{},{}]", json_num(t), json_num(cost), json_num(revenue))
        })
        .collect();
    writeln!(out, "      \"billing_samples\": [{}],", billing.join(","))?;
    writeln!(out, "      \"breakdown\": {{")?;
    for step in Step::ALL {
        writeln!(
            out,
            "        {}: {},",
            json_string(step.label()),
            json_cdf(m.breakdown.step_cdf(step))
        )?;
    }
    writeln!(
        out,
        "        \"end_to_end_ms\": {}",
        json_cdf(m.breakdown.end_to_end_cdf())
    )?;
    writeln!(out, "      }}")?;
    write!(out, "    }}")?;
    Ok(())
}

/// Cross-seed aggregate of the runs a [`SweepReport::aggregate`] query
/// selects: pooled latency distributions plus mean ± 95 % CI of the
/// headline scalars.
#[derive(Debug, Clone)]
pub struct SweepAggregate {
    /// Seeds that contributed, in run order.
    pub seeds: Vec<u64>,
    /// All seeds' interactivity samples pooled into one distribution.
    pub interactivity_ms: Cdf,
    /// All seeds' task-completion-time samples pooled.
    pub tct_ms: Cdf,
    /// Per-seed median interactivity delay (ms).
    pub interactivity_p50_ms: MeanCi,
    /// Per-seed median task completion time (ms).
    pub tct_p50_ms: MeanCi,
    /// Per-seed GPU-hours saved vs Reservation.
    pub gpu_hours_saved: MeanCi,
    /// Per-seed immediate-GPU-commit rate, percent.
    pub immediate_commit_pct: MeanCi,
    /// Per-seed migration counts.
    pub migrations: MeanCi,
    /// Per-seed final provider cost, USD (the elasticity policies trade
    /// this against interactivity).
    pub provider_cost_usd: MeanCi,
    /// Per-seed scale-out operation counts.
    pub scale_outs: MeanCi,
    /// Per-seed scale-in operation counts.
    pub scale_ins: MeanCi,
    /// Total executions completed across all seeds.
    pub executions: u64,
    /// Total executions aborted across all seeds.
    pub aborted: u64,
}

impl SweepAggregate {
    fn from_runs(runs: &[&SweepRun]) -> Self {
        let mut interactivity_p50 = Vec::with_capacity(runs.len());
        let mut tct_p50 = Vec::with_capacity(runs.len());
        let mut saved = Vec::with_capacity(runs.len());
        let mut immediate = Vec::with_capacity(runs.len());
        let mut migrations = Vec::with_capacity(runs.len());
        let mut costs = Vec::with_capacity(runs.len());
        let mut scale_outs = Vec::with_capacity(runs.len());
        let mut scale_ins = Vec::with_capacity(runs.len());
        for run in runs {
            let m = &run.metrics;
            interactivity_p50.push(p50(&m.interactivity_ms));
            tct_p50.push(p50(&m.tct_ms));
            saved.push(m.gpu_hours_saved_vs_reservation());
            immediate.push(m.counters.immediate_commit_rate() * 100.0);
            migrations.push(m.counters.migrations as f64);
            costs.push(m.final_billing().map_or(0.0, |(cost, _)| cost));
            scale_outs.push(m.counters.scale_outs as f64);
            scale_ins.push(m.counters.scale_ins as f64);
        }
        SweepAggregate {
            seeds: runs.iter().map(|r| r.seed).collect(),
            interactivity_ms: Cdf::merged(
                "interactivity-ms",
                runs.iter().map(|r| &r.metrics.interactivity_ms),
            ),
            tct_ms: Cdf::merged("tct-ms", runs.iter().map(|r| &r.metrics.tct_ms)),
            interactivity_p50_ms: MeanCi::from_samples(&interactivity_p50),
            tct_p50_ms: MeanCi::from_samples(&tct_p50),
            gpu_hours_saved: MeanCi::from_samples(&saved),
            immediate_commit_pct: MeanCi::from_samples(&immediate),
            migrations: MeanCi::from_samples(&migrations),
            provider_cost_usd: MeanCi::from_samples(&costs),
            scale_outs: MeanCi::from_samples(&scale_outs),
            scale_ins: MeanCi::from_samples(&scale_ins),
            executions: runs.iter().map(|r| r.metrics.counters.executions).sum(),
            aborted: runs.iter().map(|r| r.metrics.counters.aborted).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map_indexed(&items, 4, |idx, &v| {
            assert_eq!(idx as u64, v);
            v * v
        });
        assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());

        // Item 0 finishes only after the last item has, so a pool that
        // kept results in completion order would put it last. Item 0
        // holds one worker; the others run everything else.
        for workers in [2, 4] {
            let last_done = std::sync::atomic::AtomicBool::new(false);
            let last = items.len() - 1;
            let out = parallel_map_indexed(&items, workers, |idx, &v| {
                if idx == 0 {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                    while !last_done.load(Ordering::Acquire) {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "the last item never ran while item 0 waited"
                        );
                        std::thread::yield_now();
                    }
                } else if idx == last {
                    last_done.store(true, Ordering::Release);
                }
                v * v
            });
            assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single_worker() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map_indexed(&empty, 4, |_, &v| v).is_empty());
        let out = parallel_map_indexed(&[1, 2, 3], 1, |_, v| v + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn spec_expands_scenario_seed_policy_matrix() {
        let spec = SweepSpec::new()
            .policies(vec![PolicyKind::Reservation, PolicyKind::NotebookOs])
            .seeds(vec![7, 8])
            .scenarios(vec![
                Scenario::new("a", SyntheticConfig::smoke()),
                Scenario::new("b", SyntheticConfig::smoke()),
            ]);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].scenario, "a");
        assert_eq!(jobs[0].policy, PolicyKind::Reservation);
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[1].policy, PolicyKind::NotebookOs);
        // Policies of one (scenario, seed) share the same trace.
        assert_eq!(jobs[0].trace, jobs[1].trace);
        assert_eq!(jobs[7].scenario, "b");
        assert_eq!(jobs[7].seed, 8);
        // Seeds are stamped into both trace and config.
        assert_eq!(jobs[2].config.seed, 8);
    }

    #[test]
    fn heterogeneous_scenario_overrides_fleet() {
        let scenario = Scenario::heterogeneous_hosts();
        let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        scenario.apply(&mut config);
        assert!(!config.host_mix.is_empty());
        config.validate().expect("valid heterogeneous config");
    }

    #[test]
    fn report_aggregates_across_seeds() {
        let report = SweepSpec::new()
            .policies(vec![PolicyKind::NotebookOs])
            .seeds(vec![1, 2, 3])
            .scenarios(vec![Scenario::new("smoke", SyntheticConfig::smoke())])
            .workers(2)
            .run();
        assert_eq!(report.len(), 3);
        assert!(!report.is_empty());
        let agg = report
            .aggregate(|run| run.scenario == "smoke" && run.policy == PolicyKind::NotebookOs)
            .expect("cell exists");
        assert_eq!(agg.seeds, vec![1, 2, 3]);
        assert_eq!(agg.interactivity_p50_ms.n, 3);
        let pooled: usize = report
            .runs
            .iter()
            .map(|r| r.metrics.interactivity_ms.len())
            .sum();
        assert_eq!(agg.interactivity_ms.len(), pooled);
        assert_eq!(
            agg.executions,
            report
                .runs
                .iter()
                .map(|r| r.metrics.counters.executions)
                .sum::<u64>()
        );
        assert!(report
            .aggregate(|run| run.policy == PolicyKind::Batch)
            .is_none());
    }

    #[test]
    fn elasticity_axis_expands_and_aggregates_per_cell() {
        let spec = SweepSpec::new()
            .policies(vec![PolicyKind::NotebookOs])
            .all_elasticities()
            .seeds(vec![1])
            .scenarios(vec![Scenario::new("smoke", SyntheticConfig::smoke())])
            .workers(2);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].elasticity, ElasticityKind::Threshold);
        assert_eq!(
            jobs[0].config.autoscale.elasticity,
            ElasticityKind::Threshold
        );
        assert_eq!(jobs[1].elasticity, ElasticityKind::ShapeAware);
        assert_eq!(
            jobs[1].config.autoscale.elasticity,
            ElasticityKind::ShapeAware
        );
        let report = spec.run();
        for kind in ElasticityKind::ALL {
            let cell = report
                .aggregate(|run| run.elasticity == kind)
                .expect("one aggregate per cell");
            assert_eq!(cell.seeds, vec![1]);
            let run = report
                .runs
                .iter()
                .find(|run| run.elasticity == kind)
                .expect("the cell's run");
            assert_eq!(cell.executions, run.metrics.counters.executions);
        }
    }

    #[test]
    fn report_persists_json() {
        let report = SweepSpec::new()
            .policies(vec![PolicyKind::NotebookOs])
            .elasticities(vec![ElasticityKind::Threshold, ElasticityKind::Hysteresis])
            .seeds(vec![1, 2])
            .scenarios(vec![Scenario::new("smoke", SyntheticConfig::smoke())])
            .workers(2)
            .run();
        let dir = std::env::temp_dir().join(format!("notebookos-sweep-{}", std::process::id()));
        let json_path = dir.join("report.json");
        report.write_json(&json_path).expect("json written");
        // No staging file may survive an atomic write.
        assert!(!dir.join("report.json.tmp").exists());

        let json = std::fs::read_to_string(&json_path).expect("json readable");
        assert_eq!(json.matches("\"seed\":").count(), 4, "one object per run");
        assert!(json.contains("\"hysteresis(cooldown=120s,surplus=4)\""));
        for key in [
            "\"interactivity_ms\"",
            "\"provisioned_gpus\"",
            "\"billing_samples\"",
            "\"end_to_end_ms\"",
            "\"counters\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // Structural sanity: brackets and braces balance.
        let balance = |open: char, close: char| {
            json.matches(open).count() as i64 - json.matches(close).count() as i64
        };
        assert_eq!(balance('{', '}'), 0);
        assert_eq!(balance('[', ']'), 0);
        // Every run's whole interactivity histogram survives serialization,
        // led by its sample count.
        let lines: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"interactivity_ms\""))
            .collect();
        assert_eq!(lines.len(), report.runs.len());
        for (line, run) in lines.iter().zip(&report.runs) {
            let cdf = &run.metrics.interactivity_ms;
            let persisted = json_cdf(cdf);
            assert!(persisted.starts_with(&format!("{{\"n\": {},", cdf.len())));
            assert!(cdf.positive_buckets().count() > 1, "{persisted}");
            assert!(line.contains(&persisted), "{line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn placement_axis_expands_and_stamps_configs() {
        let spec = SweepSpec::new()
            .policies(vec![PolicyKind::NotebookOs])
            .all_placements()
            .seeds(vec![1])
            .scenarios(vec![Scenario::new("smoke", SyntheticConfig::smoke())]);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 4);
        for (job, kind) in jobs.iter().zip(PlacementKind::ALL) {
            assert_eq!(job.placement, kind);
            assert_eq!(job.config.placement, kind);
        }
        // The default axis is the paper's placement.
        let default_jobs = SweepSpec::new()
            .policies(vec![PolicyKind::NotebookOs])
            .seeds(vec![1])
            .scenarios(vec![Scenario::new("smoke", SyntheticConfig::smoke())])
            .jobs();
        assert_eq!(default_jobs.len(), 1);
        assert_eq!(default_jobs[0].placement, PlacementKind::LeastLoaded);
        assert_eq!(default_jobs[0].config.placement, PlacementKind::LeastLoaded);
    }
}

//! The NotebookOS platform simulation: Global/Local Scheduler behaviour,
//! distributed kernels with dynamic GPU binding, migration, auto-scaling,
//! and the three baselines, all driven through the discrete-event core.
//!
//! One [`Platform`] instance replays one [`WorkloadTrace`] under one
//! [`PolicyKind`] and produces the [`RunMetrics`] every evaluation figure
//! consumes. The protocol-heavy pieces (Raft, executor elections) run for
//! real in [`crate::smr`]; inside this trace-scale simulation their latency
//! comes from the calibrated [`ElectionModel`] (see that module's docs for
//! why).

use std::collections::VecDeque;

use notebookos_cluster::{
    Cluster, Host, HostId, PrewarmPool, ProvisioningModel, ResourceBundle, ResourceRequest,
};
use notebookos_datastore::{BackendKind, DataStore};
use notebookos_des::time::{f64_to_u64, u64_to_f64};
use notebookos_des::{DesScheduler, Ranked, Scheduler, SimRng, SimTime, DYNAMIC_RANK};
use notebookos_trace::{Arrival, Arrivals, WorkloadTrace};

use crate::billing::BillingMeter;
use crate::config::{PlacementKind, PlatformConfig, PolicyKind};
use crate::elasticity::{self, DemandShortfall, Elasticity, ElasticityAction, ElasticityContext};
use crate::election::{Designation, ElectionModel};
use crate::latency_breakdown::Step;
use crate::policy::{
    place_replicas, BinPacking, LeastLoaded, PlacementPolicy, RandomPlacement, RoundRobin,
};
use crate::results::RunMetrics;
use crate::types::ReplicaId;

/// Replicas per distributed kernel (§3.1: R = 3 — Raft cannot run R = 2,
/// and R = 5 costs too much).
pub const REPLICATION_FACTOR: u32 = 3;

/// Seconds between two auto-scaler evaluations (§3.4.2).
const AUTOSCALE_INTERVAL_S: f64 = 30.0;

/// Migration retry spacing in seconds (§3.2.3: "periodically retried,
/// several times if necessary, before ultimately being aborted").
const MIGRATION_RETRY_INTERVAL_S: f64 = 15.0;

/// Migration retries before the execution aborts with an error reply.
const MIGRATION_MAX_RETRIES: u32 = 8;

/// Events driving the platform.
///
/// Session starts, session ends and the trace's own cell submissions are
/// *arrivals*, fed from the trace one at a time; they rank by
/// [`Ranked::rank`] ahead of every other event due at the same instant
/// (see [`Platform`]).
///
/// A cell is `(s, e)`: cell `e` of session `s`, both `u32` (the trace
/// fits, [`Platform::new`] checks). An event carries only what the trace
/// and the platform do not hold, so a cell's submission instant and
/// running time are read from the trace and a new host's shape from the
/// platform's shape table, never copied into the queue (24 bytes an
/// event).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on each variant
pub enum Ev {
    /// A user session (notebook) starts.
    SessionStart(u32),
    /// A user session terminates.
    SessionEnd(u32),
    /// The client submits cell `e` of session `s`. `retry` is set on every
    /// submission the platform re-issues (a retry, a queued cell, a wait
    /// for replication or a kernel), which is not an arrival.
    CellSubmit { s: u32, e: u32, retry: bool },
    /// Cell `e` of session `s` finishes executing on `host`.
    ExecFinish { s: u32, e: u32, host: HostId },
    /// Retry a failed migration of cell `e` of session `s` (§3.2.3).
    MigrationRetry { s: u32, e: u32 },
    /// A scale-out completes: one new host joins, of the shape at this
    /// index of the platform's shape table.
    HostReady(u32),
    /// Periodic auto-scaler evaluation (§3.4.2).
    AutoscaleTick,
    /// Periodic pre-warm deficit reconciliation (opt-in via
    /// [`crate::config::AutoscaleConfig::prewarm_reconcile_interval_s`]):
    /// pools self-heal after a flash crowd drains them instead of waiting
    /// for the next host arrival.
    PrewarmReconcileTick,
    /// Periodic billing/metrics snapshot.
    MetricsTick,
    /// An injected fail-stop failure of one kernel replica (§3.2.5).
    ReplicaFailure,
    /// One pre-warm container provisioning finished on `host` (§3.2.3).
    PrewarmReady(HostId),
}

impl Ranked for Ev {
    fn rank(&self) -> u64 {
        match *self {
            Ev::SessionStart(s) => Arrival::Start(s as usize).rank(),
            Ev::SessionEnd(s) => Arrival::End(s as usize).rank(),
            Ev::CellSubmit {
                s, e, retry: false, ..
            } => Arrival::Cell(s as usize, e as usize).rank(),
            _ => DYNAMIC_RANK,
        }
    }
}

/// Cell `e` of session `s` as the platform re-issues it (not a trace
/// arrival).
fn resubmit(s: usize, e: usize) -> Ev {
    Ev::CellSubmit {
        s: ix(s),
        e: ix(e),
        retry: true,
    }
}

/// The retry of a failed migration of cell `e` of session `s`.
fn migration_retry(s: usize, e: usize) -> Ev {
    Ev::MigrationRetry { s: ix(s), e: ix(e) }
}

/// A session or cell index as an event carries it: lossless, since
/// [`Platform::new`] refuses a trace whose indices do not fit a `u32`.
fn ix(i: usize) -> u32 {
    i as u32
}

/// A GPU count as the billing meter takes it.
fn gpus(count: u64) -> u32 {
    u32::try_from(count).expect("GPU count fits u32")
}

/// Runtime state of one session.
#[derive(Debug, Clone)]
struct SessionRt {
    req: ResourceRequest,
    checkpoint_bytes: u64,
    dataset_bytes: u64,
    /// This session's record of its inputs object in the data store, so
    /// no read looks a key up: `None` until the first read writes it, then
    /// whether it holds the dataset beside the parameters, which with the
    /// two sizes above gives its size.
    inputs_with_dataset: Option<bool>,
    active: bool,
    /// Reservation baseline: the host exclusively holding this session's
    /// resources for its whole lifetime.
    reserved_host: Option<HostId>,
    /// NotebookOS: hosts of the kernel's replicas (length R once created).
    replica_hosts: Vec<HostId>,
    /// When the distributed kernel finished bootstrapping.
    kernel_ready_us: u64,
    /// The replica that executed the previous cell.
    last_executor: Option<usize>,
    /// Post-execution state replication in flight until this instant;
    /// §3.2.4: submissions during replication are enqueued.
    replicating_until_us: u64,
    /// Whether a cell is currently executing (or being placed).
    busy: bool,
    /// Cells waiting because the session was busy.
    waiting: VecDeque<usize>,
    /// Migration retries consumed by the currently pending execution.
    migration_retries: u32,
}

/// The platform world.
///
/// # Event order
///
/// [`Platform::run_with_scheduler`] feeds the trace to the scheduler one
/// arrival at a time: a run keeps exactly one trace arrival pending, and
/// when one pops, the run loop schedules the next before handling it
/// ([`notebookos_trace::Arrivals`], which the serve replay shares). The queue's
/// rank rule keeps the result what loading the whole trace up front gave:
///
/// * at an equal [`SimTime`], a trace arrival pops before anything the
///   platform scheduled (ticks, completions, retries);
/// * trace arrivals pop among themselves by `(time, session, k)`, where
///   `k = 0` is the session's start, `k = 1` its end and `k = 2 + e` its
///   cell `e`;
/// * everything else pops by `(time, schedule order)`.
///
/// A re-issued `CellSubmit` (`retry: true`) is not an arrival. So pending
/// events stay proportional to live state — open sessions, running
/// executions, hosts — not to the trace.
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    trace: WorkloadTrace,
    /// The trace's arrivals not yet scheduled.
    arrivals: Arrivals,
    cluster: Cluster,
    pool: PrewarmPool,
    store: DataStore,
    provisioning: ProvisioningModel,
    election: ElectionModel,
    rng: SimRng,
    sessions: Vec<SessionRt>,
    /// GPUs requested by `active` sessions — what the reserved gauge reads.
    /// Kept where `active` flips: re-summing every session made each
    /// session start and end O(sessions).
    active_gpus: u64,
    /// GPUs requested by sessions holding a `reserved_host` (all of them
    /// active) — the Reservation arm of the provisioned gauge.
    reserved_host_gpus: u64,
    /// FCFS queue of (session, cell) for the Batch baseline.
    batch_queue: VecDeque<(usize, usize)>,
    /// Sessions whose kernel creation awaits capacity.
    pending_kernels: VecDeque<usize>,
    /// Hosts currently being provisioned by scale-out.
    hosts_in_flight: u32,
    /// GPUs aboard the in-flight hosts (shape-aware fleets provision
    /// mixed shapes, so a host count alone no longer measures capacity).
    gpus_in_flight: u64,
    /// The auto-scaler deciding scale-out and scale-in.
    elasticity: Elasticity,
    /// Shapes scale-out may provision, ascending by GPU count (the
    /// auto-scaler's catalog), then any other shape it provisioned (the
    /// reference shape, when a mixed fleet's catalog lacks it). An
    /// [`Ev::HostReady`] names its shape by index here.
    shape_catalog: Vec<ResourceBundle>,
    /// How many of `shape_catalog`'s shapes are the catalog.
    catalog_len: usize,
    placement: Box<dyn PlacementPolicy + Send>,
    billing: BillingMeter,
    standby_replicas: i64,
    /// GPUs belonging to cells that are actively executing right now — the
    /// "utilized" series of Figs. 2(d) and 14(b). Differs from the
    /// cluster's committed GPUs under Reservation, where commitments span
    /// whole sessions.
    training_gpus: i64,
    metrics: RunMetrics,
    horizon_us: u64,
    /// Simulation events dispatched by the completed run (stamped by
    /// [`Platform::run_for_inspection`]); the numerator of the events/sec
    /// throughput benchmarks.
    events_processed: u64,
    // ------------------------------------------------------------------
    // Reusable scratch buffers: the per-event steady state ranks, commits,
    // and releases without heap allocation (ROADMAP: "as fast as the
    // hardware allows").
    // ------------------------------------------------------------------
    /// Placement ranking output, refilled per kernel creation.
    rank_buf: Vec<HostId>,
    /// GPU device ids bound by the latest commit.
    devices_buf: Vec<u32>,
    /// Copy of a kernel's replica hosts for the migration target scan.
    replica_scratch: Vec<HostId>,
}

impl Platform {
    /// Builds a platform for `config` over `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, if a session's cells are
    /// not sorted by submission time or precede its start (the order
    /// [`SessionTrace::events`](notebookos_trace::SessionTrace::events)
    /// documents), or if the trace holds 2^32 sessions or a session 2^32
    /// cells (an [`Ev`] carries both indices as `u32`).
    pub fn new(config: PlatformConfig, trace: WorkloadTrace) -> Self {
        config.validate().expect("invalid platform config");
        let fits = |n: usize| u32::try_from(n).is_ok();
        assert!(
            fits(trace.sessions.len()) && trace.sessions.iter().all(|s| fits(s.events.len())),
            "session and cell indices must fit u32"
        );
        let arrivals = Arrivals::new(&trace, 1.0);
        let cluster = if config.host_mix.is_empty() {
            Cluster::with_hosts(config.initial_hosts as usize, ResourceBundle::p3_16xlarge())
        } else {
            Cluster::with_host_mix(&config.host_mix)
        };
        let mut rng = SimRng::seed(config.seed);
        let policy_name = config.policy.to_string();
        let sessions = trace
            .sessions
            .iter()
            .map(|s| SessionRt {
                req: ResourceRequest::new(s.millicpus, s.memory_mb, s.gpus, s.vram_gb),
                checkpoint_bytes: s.profile.checkpoint_bytes(),
                dataset_bytes: s.profile.dataset.size_bytes,
                inputs_with_dataset: None,
                active: false,
                reserved_host: None,
                replica_hosts: Vec::new(),
                kernel_ready_us: 0,
                last_executor: None,
                replicating_until_us: 0,
                busy: false,
                waiting: VecDeque::new(),
                migration_retries: 0,
            })
            .collect();
        let horizon_us = f64_to_u64(trace.span_s() * 1e6);
        let billing = BillingMeter::new(ResourceBundle::p3_16xlarge().gpus);
        let placement: Box<dyn PlacementPolicy + Send> = match config.placement {
            PlacementKind::LeastLoaded => Box::new(LeastLoaded::default()),
            PlacementKind::RoundRobin => Box::new(RoundRobin::default()),
            PlacementKind::BinPacking => Box::new(BinPacking::default()),
            PlacementKind::Random => Box::new(RandomPlacement::new(config.seed ^ 0xFACE)),
        };
        // Distinct shapes scale-out may provision: the initial fleet's
        // census for heterogeneous fleets (ascending by GPU count, so
        // "first covering" is "cheapest covering"), or just p3.16xlarge.
        let shape_catalog: Vec<ResourceBundle> = if config.host_mix.is_empty() {
            vec![ResourceBundle::p3_16xlarge()]
        } else {
            cluster
                .shape_census()
                .into_iter()
                .map(|(shape, _)| shape)
                .collect()
        };
        let elasticity = Elasticity::new(config.autoscale.elasticity);
        let mut platform = Platform {
            placement,
            pool: PrewarmPool::new(),
            // §5.1.2: the evaluation's Distributed Data Store is S3-backed.
            store: DataStore::new(BackendKind::S3),
            provisioning: ProvisioningModel::new(),
            election: ElectionModel::new(),
            rng: rng.fork(0),
            sessions,
            active_gpus: 0,
            reserved_host_gpus: 0,
            batch_queue: VecDeque::new(),
            pending_kernels: VecDeque::new(),
            hosts_in_flight: 0,
            gpus_in_flight: 0,
            elasticity,
            catalog_len: shape_catalog.len(),
            shape_catalog,
            billing,
            standby_replicas: 0,
            training_gpus: 0,
            metrics: RunMetrics::new(&policy_name),
            horizon_us,
            events_processed: 0,
            rank_buf: Vec::new(),
            devices_buf: Vec::new(),
            replica_scratch: Vec::new(),
            cluster,
            config,
            trace,
            arrivals,
        };
        platform.refresh_fleet_billing(0.0);
        platform.refresh_provisioned_gauge(0.0);
        elasticity::seed_prewarm_pool(
            &mut platform.pool,
            &platform.cluster,
            platform.config.policy.prewarm_min_per_host(),
        );
        platform
    }

    /// Runs the full trace and returns the collected metrics.
    pub fn run(config: PlatformConfig, trace: WorkloadTrace) -> RunMetrics {
        let world = Platform::run_for_inspection(config, trace);
        world.metrics
    }

    /// Runs the full trace but returns the whole sealed world, so tests
    /// and tools can inspect end-of-run state ([`Platform::cluster`],
    /// [`Platform::pool`]) alongside [`Platform::metrics`] — the metrics
    /// are identical to what [`Platform::run`] returns.
    pub fn run_for_inspection(config: PlatformConfig, trace: WorkloadTrace) -> Platform {
        let mut sched = DesScheduler::new();
        Platform::run_with_scheduler(config, trace, &mut sched)
    }

    /// [`Platform::run_for_inspection`] with a caller-supplied scheduler:
    /// seeds the trace into `sched`, drives every event through the
    /// [`Scheduler`] trait, and seals the world at the scheduler's final
    /// logical time.
    ///
    /// This is the seam the live service mode hangs off: a
    /// [`DesScheduler`] makes it bit-identical to [`Platform::run`] (the
    /// golden determinism tests pin this), while a
    /// [`RealTimeScheduler`](notebookos_des::RealTimeScheduler) dispatches
    /// the *same* events, in the same order, at their wall-clock
    /// deadlines — under a manual clock that still finishes instantly,
    /// which is how the trait-equivalence tests drive it.
    pub fn run_with_scheduler(
        config: PlatformConfig,
        trace: WorkloadTrace,
        sched: &mut dyn Scheduler<Ev>,
    ) -> Platform {
        let mut platform = Platform::new(config, trace);
        platform.schedule_initial(sched);
        let horizon = SimTime::from_micros(platform.horizon_us + 60_000_000);
        let steps = platform.drive(sched, horizon);
        platform.events_processed = steps;
        let end = sched.now();
        platform.seal(end);
        platform
    }

    /// Dispatches events through `sched` until the queue drains or the
    /// next deadline lies strictly beyond `horizon` (events exactly at
    /// the horizon fire). Returns the number of events dispatched.
    ///
    /// This is the engine behind both execution modes: simulated studies
    /// drive it with a [`DesScheduler`] (instant virtual time) and the
    /// live service with a real-time scheduler — the same handlers, the
    /// same RNG streams, the same event order either way. It feeds the
    /// trace as it goes, so it runs a world [`Platform::schedule_initial`]
    /// started.
    fn drive(&mut self, sched: &mut dyn Scheduler<Ev>, horizon: SimTime) -> u64 {
        let mut steps = 0;
        while let Some((now, event)) = sched.pop_next_until(horizon) {
            steps += 1;
            self.dispatch(now, event, sched);
        }
        steps
    }

    /// Handles one popped event; a trace arrival first schedules the
    /// trace's next arrival (see [`Platform`]'s event order).
    fn dispatch(&mut self, now: SimTime, event: Ev, sched: &mut dyn Scheduler<Ev>) {
        if event.rank() != DYNAMIC_RANK {
            self.feed_arrival(sched);
        }
        self.handle_event(now, event, sched);
    }

    /// Schedules the first trace arrival and the periodic events.
    fn schedule_initial(&mut self, sched: &mut dyn Scheduler<Ev>) {
        self.feed_arrival(sched);
        self.schedule_ticks(sched);
    }

    /// Schedules the trace's next arrival, if any is left.
    fn feed_arrival(&mut self, sched: &mut dyn Scheduler<Ev>) {
        let Some((at, arrival)) = self.arrivals.next(&self.trace) else {
            return;
        };
        let event = match arrival {
            Arrival::Start(s) => Ev::SessionStart(ix(s)),
            Arrival::End(s) => Ev::SessionEnd(ix(s)),
            Arrival::Cell(s, e) => Ev::CellSubmit {
                s: ix(s),
                e: ix(e),
                retry: false,
            },
        };
        sched.schedule(at, event);
    }

    /// When the client submitted cell `e` of session `s`: the trace's own
    /// instant, however often the platform re-issued the cell — the
    /// instant its arrival fired at, rounded as [`Arrivals`] rounds it.
    fn submitted(&self, s: usize, e: usize) -> SimTime {
        SimTime::from_secs_f64(self.trace.sessions[s].events[e].submit_s)
    }

    fn schedule_ticks(&mut self, sched: &mut dyn Scheduler<Ev>) {
        if self.config.policy.autoscales() {
            sched.schedule(
                SimTime::from_secs_f64(AUTOSCALE_INTERVAL_S),
                Ev::AutoscaleTick,
            );
        }
        if let Some(interval_s) = self.config.autoscale.prewarm_reconcile_interval_s {
            if self.config.policy.prewarm_min_per_host() > 0 {
                sched.schedule(SimTime::from_secs_f64(interval_s), Ev::PrewarmReconcileTick);
            }
        }
        sched.schedule(SimTime::from_secs(3600), Ev::MetricsTick);
        if self.config.replica_mtbf_hours.is_some() {
            let delay = self.next_failure_delay();
            sched.schedule(delay, Ev::ReplicaFailure);
        }
    }

    /// An exponentially distributed inter-failure time with the configured
    /// MTBF as its mean.
    fn next_failure_delay(&mut self) -> SimTime {
        let mtbf_h = self.config.replica_mtbf_hours.expect("injection enabled");
        let hours = -self.rng.next_f64_open().ln() * mtbf_h;
        SimTime::from_secs_f64(hours * 3600.0)
    }

    /// Injected fail-stop failure of one random kernel replica (§3.2.5).
    ///
    /// With quorum intact (single failure of an R = 3 kernel), the Global
    /// Scheduler recreates the replica on the same host and it rejoins by
    /// replaying the Raft log from its peers — all off any execution's
    /// critical path, so the only observable cost is a container start.
    fn on_replica_failure(&mut self, now: SimTime, sched: &mut dyn Scheduler<Ev>) {
        let candidates: Vec<usize> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active && !s.replica_hosts.is_empty())
            .map(|(i, _)| i)
            .collect();
        if !candidates.is_empty() {
            let s = candidates[self.rng.index(candidates.len())];
            let replica = self.rng.index(self.sessions[s].replica_hosts.len());
            let host = self.sessions[s].replica_hosts[replica];
            let failed = crate::types::ReplicaId::new(s as u64, replica as u32);
            match crate::failure::recovery_action(&[failed], REPLICATION_FACTOR) {
                crate::failure::RecoveryAction::RecreateReplica(_) => {
                    // Container restart (pre-warmed if available) + log
                    // replay; the subscription stays on the host.
                    if self.pool.acquire(host) {
                        self.metrics.counters.warm_hits += 1;
                    } else {
                        self.metrics.counters.cold_starts += 1;
                    }
                    let replay = self.election.sync_latency(&mut self.rng);
                    self.metrics.sync_ms.record(replay.as_millis_f64());
                    self.metrics.counters.replica_failures += 1;
                }
                _ => {
                    // Quorum loss cannot happen from a single injected
                    // failure at R >= 3; with R = 1 the kernel rebuilds
                    // from the data store.
                    let _ = self.data_read(s, false);
                    self.metrics.counters.replica_failures += 1;
                }
            }
        }
        if now.as_micros() < self.horizon_us {
            let delay = self.next_failure_delay();
            sched.schedule_in(delay, Ev::ReplicaFailure);
        }
    }

    /// Stamps the final time and billing sample into the metrics.
    fn seal(&mut self, end: SimTime) {
        let end_s = end.as_secs_f64();
        self.metrics.end_s = end_s;
        let (cost, revenue) = self.billing.totals(end_s);
        self.metrics.billing_samples.push((end_s, cost, revenue));
    }

    // ------------------------------------------------------------------
    // Gauges and shared bookkeeping
    // ------------------------------------------------------------------

    /// The fleet in host-equivalents (total GPUs / reference host's GPUs):
    /// equals the host count for homogeneous fleets and bills mixed fleets
    /// in proportion to their capacity. Autoscaler scale-out targets are
    /// computed in the same unit (it always adds p3.16xlarge hosts).
    fn host_equivalents(&self) -> f64 {
        u64_to_f64(self.cluster.total_gpus()) / f64::from(ResourceBundle::p3_16xlarge().gpus)
    }

    fn refresh_fleet_billing(&mut self, now_s: f64) {
        let equivalents = self.host_equivalents();
        self.billing.set_host_equivalents(now_s, equivalents);
    }

    fn refresh_provisioned_gauge(&mut self, now_s: f64) {
        let provisioned = match self.config.policy {
            PolicyKind::Reservation => u64_to_f64(self.reserved_host_gpus),
            PolicyKind::Batch => u64_to_f64(self.cluster.total_committed_gpus()),
            PolicyKind::NotebookOs | PolicyKind::NotebookOsLcp => {
                u64_to_f64(self.cluster.total_gpus())
            }
        };
        self.metrics.provisioned_gpus.set(now_s, provisioned);
    }

    fn refresh_committed_gauge(&mut self, now_s: f64) {
        let committed = self.cluster.total_committed_gpus();
        self.metrics
            .committed_gpus
            .set(now_s, self.training_gpus.max(0) as f64);
        // Under Reservation the cluster's commitments *are* the lifetime
        // reservations, which the reserved-GPU meter already bills.
        if self.config.policy != PolicyKind::Reservation {
            self.billing.set_active_gpus(now_s, gpus(committed));
        }
        if self.config.policy == PolicyKind::Batch {
            self.refresh_provisioned_gauge(now_s);
        }
    }

    fn refresh_sr_gauge(&mut self, now_s: f64) {
        let sr = self.cluster.sr_limit(REPLICATION_FACTOR);
        if sr.is_finite() {
            self.metrics.subscription_ratio.set(now_s, sr);
        }
    }

    fn refresh_reserved_gauge(&mut self, now_s: f64) {
        // An integer total is exact in `f64`: the same bit pattern as
        // summing `f64::from(gpus)` over the active sessions, in any order.
        let reserved = gpus(self.active_gpus);
        self.metrics.reserved_gpus.set(now_s, f64::from(reserved));
        if self.config.policy == PolicyKind::Reservation {
            self.billing.set_reserved_gpus(now_s, reserved);
        }
    }

    fn set_standby(&mut self, now_s: f64, delta: i64) {
        self.standby_replicas = (self.standby_replicas + delta).max(0);
        self.billing
            .set_standby_replicas(now_s, self.standby_replicas as u32);
    }

    fn route_hops(&mut self, hops: u32) -> SimTime {
        let mut total = SimTime::ZERO;
        for _ in 0..hops {
            total += self.provisioning.network_hop(&mut self.rng);
        }
        total
    }

    /// Commits `req` on `host` for `owner`, updating gauges. The bound
    /// device ids land in the reusable `devices_buf` scratch.
    fn commit_on(&mut self, now_s: f64, host: HostId, owner: u64, req: &ResourceRequest) -> bool {
        if !self
            .cluster
            .try_commit(host, owner, req, &mut self.devices_buf)
        {
            return false;
        }
        self.refresh_committed_gauge(now_s);
        true
    }

    fn release_on(&mut self, now_s: f64, host: HostId, owner: u64) {
        self.cluster.release(host, owner);
        self.refresh_committed_gauge(now_s);
    }

    // ------------------------------------------------------------------
    // Session lifecycle
    // ------------------------------------------------------------------

    fn on_session_start(&mut self, now: SimTime, s: usize, sched: &mut dyn Scheduler<Ev>) {
        let now_s = now.as_secs_f64();
        self.sessions[s].active = true;
        self.active_gpus += u64::from(self.sessions[s].req.gpus);
        self.refresh_reserved_gauge(now_s);
        match self.config.policy {
            PolicyKind::Reservation => self.reservation_reserve(now, s),
            PolicyKind::Batch | PolicyKind::NotebookOsLcp => {}
            PolicyKind::NotebookOs => self.create_distributed_kernel(now, s, sched),
        }
        self.refresh_provisioned_gauge(now_s);
    }

    fn on_session_end(&mut self, now: SimTime, s: usize) {
        let now_s = now.as_secs_f64();
        let session = &mut self.sessions[s];
        if !session.active {
            return;
        }
        session.active = false;
        let gpus = u64::from(session.req.gpus);
        self.active_gpus -= gpus;
        if let Some(host) = session.reserved_host.take() {
            self.reserved_host_gpus -= gpus;
            let owner = reservation_owner(s);
            self.release_on(now_s, host, owner);
        }
        let replica_hosts = std::mem::take(&mut self.sessions[s].replica_hosts);
        if !replica_hosts.is_empty() {
            let req = self.sessions[s].req;
            for host in replica_hosts {
                // `unsubscribe` is a no-op for hosts that already left.
                self.cluster.unsubscribe(host, &req);
            }
            let executing = self.sessions[s].busy;
            let r = i64::from(REPLICATION_FACTOR);
            self.set_standby(now_s, -(r - i64::from(executing)));
            self.refresh_sr_gauge(now_s);
        }
        self.refresh_reserved_gauge(now_s);
        self.refresh_provisioned_gauge(now_s);
    }

    /// Reservation baseline: exclusively commit for the session's lifetime,
    /// growing the cluster if the fixed fleet is full (the provider must
    /// provision to meet reservations).
    fn reservation_reserve(&mut self, now: SimTime, s: usize) {
        let now_s = now.as_secs_f64();
        let req = self.sessions[s].req;
        let owner = reservation_owner(s);
        let host = self.cluster.best_commit_host(&req).unwrap_or_else(|| {
            let id = self.cluster.add_host(ResourceBundle::p3_16xlarge());
            self.refresh_fleet_billing(now_s);
            id
        });
        let committed = self.commit_on(now_s, host, owner, &req);
        debug_assert!(committed, "fresh host must fit a session reservation");
        self.sessions[s].reserved_host = Some(host);
        self.reserved_host_gpus += u64::from(req.gpus);
    }

    /// NotebookOS: place R replica subscriptions (§3.2.1); on shortfall,
    /// trigger scale-out and park the creation (§3.4.2).
    fn create_distributed_kernel(&mut self, now: SimTime, s: usize, sched: &mut dyn Scheduler<Ev>) {
        let now_s = now.as_secs_f64();
        let req = self.sessions[s].req;
        let r = REPLICATION_FACTOR;
        // The ranking, the consumed prefix, and the replica-host record
        // below all reuse one buffer: a kernel creation performs no
        // transient allocation.
        let mut rank_buf = std::mem::take(&mut self.rank_buf);
        if let Err(total) = place_replicas(
            &mut *self.placement,
            &mut self.cluster,
            &req,
            r,
            &mut rank_buf,
        ) {
            let shortfall = r - total as u32;
            self.rank_buf = rank_buf;
            self.pending_kernels.push_back(s);
            self.trigger_scale_out(now, shortfall, req, sched);
            return;
        }
        let chosen = rank_buf;
        // Kernel bootstrap: container provisioning (prefer pre-warmed) +
        // registration + Raft cluster establishment — off the critical path
        // of any cell, but the first cell waits if it arrives earlier.
        let mut boot = SimTime::ZERO;
        for &host in &chosen {
            boot = boot.max(self.start_container(host));
        }
        boot += self.provisioning.registration(&mut self.rng);
        boot += self.election.sync_latency(&mut self.rng); // Raft group formation
        let session = &mut self.sessions[s];
        session.replica_hosts.clear();
        session.replica_hosts.extend_from_slice(&chosen);
        self.rank_buf = chosen;
        let session = &mut self.sessions[s];
        session.kernel_ready_us = now.as_micros() + boot.as_micros();
        self.metrics.counters.kernel_creations += 1;
        self.metrics.kernel_creation_times_s.push(now_s);
        self.set_standby(now_s, i64::from(r));
        self.refresh_sr_gauge(now_s);
    }

    // ------------------------------------------------------------------
    // Cell submission
    // ------------------------------------------------------------------

    fn on_cell_submit(&mut self, now: SimTime, s: usize, e: usize, sched: &mut dyn Scheduler<Ev>) {
        if !self.sessions[s].active {
            return; // session ended before the queued cell ran
        }
        if self.sessions[s].busy {
            self.sessions[s].waiting.push_back(e);
            return;
        }
        // §3.2.4: requests during state replication wait for it to finish.
        let repl_until = self.sessions[s].replicating_until_us;
        if now.as_micros() < repl_until {
            sched.schedule(SimTime::from_micros(repl_until), resubmit(s, e));
            return;
        }
        self.sessions[s].busy = true;
        self.sessions[s].migration_retries = 0;
        match self.config.policy {
            PolicyKind::Reservation => self.submit_reservation(now, s, e, sched),
            PolicyKind::Batch => {
                self.batch_queue.push_back((s, e));
                self.serve_batch_queue(now, sched);
            }
            PolicyKind::NotebookOs => self.submit_notebookos(now, s, e, sched),
            PolicyKind::NotebookOsLcp => self.submit_lcp(now, s, e, sched),
        }
    }

    fn schedule_exec(
        &mut self,
        now: SimTime,
        s: usize,
        e: usize,
        host: HostId,
        pre_exec_delay: SimTime,
        sched: &mut dyn Scheduler<Ev>,
    ) {
        let start = now + pre_exec_delay;
        let interactivity_ms = start.saturating_sub(self.submitted(s, e)).as_millis_f64();
        self.metrics.interactivity_ms.record(interactivity_ms);
        self.training_gpus += i64::from(self.sessions[s].req.gpus);
        self.refresh_committed_gauge(now.as_secs_f64());
        let duration = SimTime::from_secs_f64(self.trace.sessions[s].events[e].duration_s);
        let finish = Ev::ExecFinish {
            s: ix(s),
            e: ix(e),
            host,
        };
        sched.schedule(start + duration, finish);
        self.metrics
            .breakdown
            .record_step(Step::Execute, duration.as_millis_f64());
    }

    /// Reservation: GPUs are already bound; only routing and preprocessing
    /// sit before execution.
    fn submit_reservation(
        &mut self,
        now: SimTime,
        s: usize,
        e: usize,
        sched: &mut dyn Scheduler<Ev>,
    ) {
        let host = self.sessions[s].reserved_host.expect("reserved at start");
        let gs = self.route_hops(2);
        let pre = self.route_hops(2) + SimTime::from_millis(1);
        let load = self.provisioning.gpu_model_load(&mut self.rng);
        self.metrics
            .breakdown
            .record_step(Step::GlobalSchedulerRequest, gs.as_millis_f64());
        self.metrics
            .breakdown
            .record_step(Step::KernelPreprocess, pre.as_millis_f64());
        self.metrics
            .breakdown
            .record_step(Step::IntermediaryInterval, load.as_millis_f64());
        self.schedule_exec(now, s, e, host, gs + pre + load, sched);
    }

    /// Batch (FCFS): serve the queue head whenever capacity exists.
    fn serve_batch_queue(&mut self, now: SimTime, sched: &mut dyn Scheduler<Ev>) {
        let now_s = now.as_secs_f64();
        while let Some(&(s, e)) = self.batch_queue.front() {
            let req = self.sessions[s].req;
            let owner = batch_owner(s);
            let Some(host) = self.cluster.best_commit_host(&req) else {
                break;
            };
            if !self.commit_on(now_s, host, owner, &req) {
                break;
            }
            self.batch_queue.pop_front();
            // Cold container + mandatory input fetch, all on the critical
            // path (§5.3.3).
            let pre = self.route_hops(2) + SimTime::from_millis(1);
            self.metrics
                .breakdown
                .record_step(Step::KernelPreprocess, pre.as_millis_f64());
            let cold = self.provisioning.cold_container_start(&mut self.rng);
            self.metrics.counters.cold_starts += 1;
            let queue_wait_ms = now.saturating_sub(self.submitted(s, e)).as_millis_f64();
            self.metrics.breakdown.record_step(
                Step::GlobalSchedulerRequest,
                queue_wait_ms + cold.as_millis_f64(),
            );
            let fetch = self.data_read(s, true);
            let load = self.provisioning.gpu_model_load(&mut self.rng);
            self.metrics
                .breakdown
                .record_step(Step::IntermediaryInterval, (fetch + load).as_millis_f64());
            self.schedule_exec(now, s, e, host, pre + cold + fetch + load, sched);
        }
    }

    /// NotebookOS: the Global Scheduler designates an executor replica if
    /// any replica host can commit the GPUs right now; otherwise every
    /// replica yields and a migration begins (§3.2.2–§3.2.3).
    fn submit_notebookos(
        &mut self,
        now: SimTime,
        s: usize,
        e: usize,
        sched: &mut dyn Scheduler<Ev>,
    ) {
        // Wait for kernel bootstrap if the first cell beat it.
        let ready = self.sessions[s].kernel_ready_us;
        if self.sessions[s].replica_hosts.is_empty() {
            // Kernel creation is waiting on scale-out; retry shortly.
            self.sessions[s].busy = false;
            sched.schedule_in(SimTime::from_secs(5), resubmit(s, e));
            return;
        }
        if now.as_micros() < ready {
            self.sessions[s].busy = false;
            sched.schedule(SimTime::from_micros(ready), resubmit(s, e));
            return;
        }

        let gs = self.route_hops(2);
        let pre = self.route_hops(2) + SimTime::from_millis(1);
        self.metrics
            .breakdown
            .record_step(Step::GlobalSchedulerRequest, gs.as_millis_f64());
        self.metrics
            .breakdown
            .record_step(Step::KernelPreprocess, pre.as_millis_f64());

        let req = self.sessions[s].req;
        let now_s = now.as_secs_f64();
        let session = &self.sessions[s];
        let chosen = choose_executor(
            &self.cluster,
            &session.replica_hosts,
            session.last_executor,
            &req,
        );

        match chosen {
            Some((replica_idx, host)) => {
                let owner = ReplicaId::new(s as u64, replica_idx as u32).owner_token();
                let ok = self.commit_on(now_s, host, owner, &req);
                debug_assert!(ok, "can_commit checked above");
                if self.sessions[s].last_executor == Some(replica_idx) {
                    self.metrics.counters.executor_reuse += 1;
                } else if self.sessions[s].last_executor.is_some() {
                    // Executor switch: the new executor prefetches the
                    // checkpointed large objects from the data store —
                    // asynchronously, off the critical path (§3.2.4), but
                    // the read latency is part of Fig. 11's "Reads" series.
                    let _ = self.data_read(s, false);
                }
                self.sessions[s].last_executor = Some(replica_idx);
                self.set_standby(now_s, -1);

                // §3.2.2: with sufficient resource information the GS
                // bypasses the Raft LEAD/YIELD phase and commits GPUs
                // immediately at routing time; otherwise the replicas run
                // the two-round election and the commit lands after it. The
                // GS's view is fresh except around concurrent placements,
                // matching the paper's 89.6 % immediate-commit rate.
                let designation = if self.rng.chance(0.9) {
                    self.metrics.counters.immediate_commits += 1;
                    Designation::Bypassed
                } else {
                    Designation::Elected
                };
                let election = self
                    .election
                    .designation_latency(designation, &mut self.rng);
                self.metrics
                    .breakdown
                    .record_step(Step::PrimaryReplicaProtocol, election.as_millis_f64());
                let load = self.provisioning.gpu_model_load(&mut self.rng);
                self.metrics
                    .breakdown
                    .record_step(Step::IntermediaryInterval, load.as_millis_f64());
                self.schedule_exec(now, s, e, host, gs + pre + election + load, sched);
            }
            None => {
                // Failed election: all replicas yield (one sync round), then
                // migrate (§3.2.3).
                let yield_round = self
                    .election
                    .designation_latency(Designation::AllYielded, &mut self.rng);
                self.metrics
                    .breakdown
                    .record_step(Step::PrimaryReplicaProtocol, yield_round.as_millis_f64());
                // The migration starts once the all-yield round commits;
                // route through the queue so virtual time stays monotone.
                sched.schedule(now + yield_round, migration_retry(s, e));
            }
        }
    }

    /// Migration of one kernel replica to a host with idle resources
    /// (§3.2.3), retried periodically and aborted after the configured
    /// number of attempts.
    fn start_migration(&mut self, now: SimTime, s: usize, e: usize, sched: &mut dyn Scheduler<Ev>) {
        let now_s = now.as_secs_f64();
        let req = self.sessions[s].req;
        // Reusable copy of the kernel's replica hosts (the target scan
        // needs it while iterating the cluster).
        self.replica_scratch.clear();
        self.replica_scratch
            .extend_from_slice(&self.sessions[s].replica_hosts);
        // Target: any host (not already hosting a replica of this kernel)
        // that can immediately and exclusively bind the required GPUs.
        let target = self
            .cluster
            .best_commit_host_excluding(&req, &self.replica_scratch);

        let Some(target) = target else {
            self.sessions[s].migration_retries += 1;
            if self.sessions[s].migration_retries > MIGRATION_MAX_RETRIES {
                // Aborted: an execute_reply with an error goes back (§3.2.3).
                self.metrics.counters.aborted += 1;
                self.finish_cell(s, sched);
                return;
            }
            // Placement failure triggers scale-out (§3.4.2).
            self.trigger_scale_out(now, 1, req, sched);
            sched.schedule_in(
                SimTime::from_secs_f64(MIGRATION_RETRY_INTERVAL_S),
                migration_retry(s, e),
            );
            return;
        };

        // Pick the replica to move: the one on the host with the fewest
        // idle GPUs (most contended).
        let victim = {
            let hosts = &self.replica_scratch;
            (0..hosts.len())
                .min_by_key(|&i| {
                    self.cluster
                        .host(hosts[i])
                        .map(|h| h.idle_gpus())
                        .unwrap_or(u32::MAX)
                })
                .expect("kernel has replicas")
        };
        let old_host = self.replica_scratch[victim];

        // Costs on this execution's critical path: persist state, start the
        // replacement container (pre-warmed if possible), reconfigure Raft,
        // replay the log / read state back, then re-submit.
        let persist = self.persist_state(s);
        let container = self.start_container(target);
        let reconfig =
            self.election.sync_latency(&mut self.rng) + self.election.sync_latency(&mut self.rng);
        let read_back = self.data_read(s, false);
        let resubmit = self.route_hops(2);

        // Re-home the subscription (`unsubscribe` is a no-op for hosts
        // that already left).
        self.cluster.unsubscribe(old_host, &req);
        let subscribed = self.cluster.subscribe(target, &req);
        assert!(subscribed, "target exists");
        self.sessions[s].replica_hosts[victim] = target;
        self.sessions[s].last_executor = Some(victim);
        self.metrics.counters.migrations += 1;
        self.metrics.migration_times_s.push(now_s);
        self.refresh_sr_gauge(now_s);

        let owner = ReplicaId::new(s as u64, victim as u32).owner_token();
        let delay = persist + container + reconfig + read_back + resubmit;
        // Commit now (the target's idle GPUs are held for exactly this
        // migration); execution starts after the migration delay.
        let ok = self.commit_on(now_s, target, owner, &req);
        if !ok {
            // The window closed while we migrated; retry.
            sched.schedule_in(
                SimTime::from_secs_f64(MIGRATION_RETRY_INTERVAL_S),
                migration_retry(s, e),
            );
            return;
        }
        self.set_standby(now_s, -1);
        let load = self.provisioning.gpu_model_load(&mut self.rng);
        self.metrics
            .breakdown
            .record_step(Step::IntermediaryInterval, (delay + load).as_millis_f64());
        self.schedule_exec(now, s, e, target, delay + load, sched);
    }

    /// NotebookOS (LCP): a warm container from the pool serves the request
    /// directly; inputs are fetched on the critical path (§5.3.3).
    fn submit_lcp(&mut self, now: SimTime, s: usize, e: usize, sched: &mut dyn Scheduler<Ev>) {
        let now_s = now.as_secs_f64();
        let req = self.sessions[s].req;
        let owner = batch_owner(s);
        let host = self
            .cluster
            .best_warm_commit_host(&req, |id| self.pool.warm_on(id));
        let Some(host) = host else {
            // No capacity: queue like a batch system and trigger scale-out.
            self.trigger_scale_out(now, 1, req, sched);
            self.sessions[s].busy = false;
            sched.schedule_in(SimTime::from_secs(10), resubmit(s, e));
            return;
        };
        let ok = self.commit_on(now_s, host, owner, &req);
        debug_assert!(ok);
        let container = self.start_container(host);
        self.metrics
            .breakdown
            .record_step(Step::GlobalSchedulerRequest, container.as_millis_f64());
        // Warm-up: download model parameters and dataset (§5.3.3: "a
        // submitted cell request triggered a warming-up operation").
        let fetch = self.data_read(s, true);
        let load = self.provisioning.gpu_model_load(&mut self.rng);
        self.metrics
            .breakdown
            .record_step(Step::IntermediaryInterval, (fetch + load).as_millis_f64());
        self.schedule_exec(now, s, e, host, container + fetch + load, sched);
    }

    /// Starts a kernel container on `host`: a pre-warmed one from the pool
    /// if the host has one, else a cold start. Returns its start latency.
    fn start_container(&mut self, host: HostId) -> SimTime {
        if self.pool.acquire(host) {
            self.metrics.counters.warm_hits += 1;
            self.provisioning.warm_container_start(&mut self.rng)
        } else {
            self.metrics.counters.cold_starts += 1;
            self.provisioning.cold_container_start(&mut self.rng)
        }
    }

    /// Persists session `s`'s checkpointed state to the data store. Returns
    /// the write latency, which Fig. 11's "Writes" series records.
    fn persist_state(&mut self, s: usize) -> SimTime {
        let bytes = self.sessions[s].checkpoint_bytes;
        let latency = self.store.write_sized(bytes, &mut self.rng);
        self.metrics.write_ms.record(latency.as_millis_f64());
        latency
    }

    /// Reads this session's inputs from the data store: parameters, plus
    /// the dataset when `with_dataset`. The first read writes the object
    /// as it asks for it, and every later read reads what was written then.
    fn data_read(&mut self, s: usize, with_dataset: bool) -> SimTime {
        let session = &mut self.sessions[s];
        let written = session.inputs_with_dataset.is_some();
        let with_dataset = *session.inputs_with_dataset.get_or_insert(with_dataset);
        let bytes = session.checkpoint_bytes
            + if with_dataset {
                session.dataset_bytes
            } else {
                0
            };
        if !written {
            let _ = self.store.write_sized(bytes, &mut self.rng);
        }
        let latency = self.store.read_sized(bytes, &mut self.rng);
        self.metrics.read_ms.record(latency.as_millis_f64());
        latency
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    fn on_exec_finish(
        &mut self,
        now: SimTime,
        s: usize,
        e: usize,
        host: HostId,
        sched: &mut dyn Scheduler<Ev>,
    ) {
        let now_s = now.as_secs_f64();
        self.training_gpus -= i64::from(self.sessions[s].req.gpus);
        self.refresh_committed_gauge(now_s);
        match self.config.policy {
            PolicyKind::Reservation => {
                // GPUs stay bound; persist state on the critical path.
                let persist = self.persist_state(s);
                self.metrics
                    .breakdown
                    .record_step(Step::KernelPostprocess, persist.as_millis_f64());
                let reply = self.route_hops(1);
                self.metrics
                    .breakdown
                    .record_step(Step::ReplyToLocalScheduler, reply.as_millis_f64());
                let done = now + persist + reply;
                self.record_tct(s, e, done);
            }
            PolicyKind::Batch => {
                // Write results back, then tear the container down.
                let persist = self.persist_state(s);
                self.metrics
                    .breakdown
                    .record_step(Step::KernelPostprocess, persist.as_millis_f64());
                let reply = self.route_hops(1);
                self.metrics
                    .breakdown
                    .record_step(Step::ReplyToLocalScheduler, reply.as_millis_f64());
                let done = now + persist + reply;
                self.record_tct(s, e, done);
                self.release_on(now_s, host, batch_owner(s));
                self.serve_batch_queue(now, sched);
            }
            PolicyKind::NotebookOs => {
                // GPUs release immediately; state replication is
                // asynchronous (§3.2.4) — it only delays *future* submits.
                let reply = self.route_hops(1);
                self.metrics
                    .breakdown
                    .record_step(Step::ReplyToLocalScheduler, reply.as_millis_f64());
                let replica = self.sessions[s].last_executor.unwrap_or(0);
                self.release_on(
                    now_s,
                    host,
                    ReplicaId::new(s as u64, replica as u32).owner_token(),
                );
                self.set_standby(now_s, 1);
                let done = now + reply;
                self.record_tct(s, e, done);

                let sync = self.election.sync_latency(&mut self.rng);
                self.metrics.sync_ms.record(sync.as_millis_f64());
                let write = self.persist_state(s);
                self.metrics
                    .breakdown
                    .record_step(Step::KernelPostprocess, (sync + write).as_millis_f64());
                self.sessions[s].replicating_until_us = (now + sync + write).as_micros();
            }
            PolicyKind::NotebookOsLcp => {
                let reply = self.route_hops(1);
                self.metrics
                    .breakdown
                    .record_step(Step::ReplyToLocalScheduler, reply.as_millis_f64());
                let persist = self.persist_state(s);
                self.metrics
                    .breakdown
                    .record_step(Step::KernelPostprocess, persist.as_millis_f64());
                let done = now + persist + reply;
                self.record_tct(s, e, done);
                self.release_on(now_s, host, batch_owner(s));
                // The container returns to the pool instead of terminating.
                self.pool.put(host);
            }
        }
        self.metrics.counters.executions += 1;
        self.finish_cell(s, sched);
    }

    fn record_tct(&mut self, s: usize, e: usize, done: SimTime) {
        let tct_ms = done.saturating_sub(self.submitted(s, e)).as_millis_f64();
        self.metrics.tct_ms.record(tct_ms);
        self.metrics.breakdown.record_end_to_end(tct_ms);
    }

    /// Marks the session idle and serves any queued submission.
    fn finish_cell(&mut self, s: usize, sched: &mut dyn Scheduler<Ev>) {
        self.sessions[s].busy = false;
        if let Some(e) = self.sessions[s].waiting.pop_front() {
            sched.schedule_in(SimTime::from_millis(1), resubmit(s, e));
        }
    }

    // ------------------------------------------------------------------
    // Elasticity: the platform consults the auto-scaler
    // (crate::elasticity) and applies the actions it returns.
    // ------------------------------------------------------------------

    /// Consults the auto-scaler with a read-only fleet snapshot that
    /// carries the parked kernels' resource requests: a periodic tick, or
    /// the demand `shortfall` a placement hit.
    fn consult_elasticity(
        &mut self,
        now: SimTime,
        shortfall: Option<DemandShortfall>,
    ) -> Vec<ElasticityAction> {
        let queued_demand: Vec<ResourceRequest> = self
            .pending_kernels
            .iter()
            .map(|&s| self.sessions[s].req)
            .collect();
        let ctx = ElasticityContext {
            cluster: &self.cluster,
            autoscale: &self.config.autoscale,
            sr_target: self.config.policy.sr_target(),
            shape_catalog: &self.shape_catalog[..self.catalog_len],
            hosts_in_flight: self.hosts_in_flight,
            gpus_in_flight: self.gpus_in_flight,
            queued_demand: &queued_demand,
            now_s: now.as_secs_f64(),
        };
        match shortfall {
            None => self.elasticity.on_tick(&ctx),
            Some(shortfall) => self.elasticity.on_shortfall(&ctx, shortfall),
        }
    }

    /// Applies elasticity actions: charges provisioning latencies,
    /// retires idle hosts, and refreshes the fleet gauges — all the
    /// mechanics the decisions are forbidden to touch.
    fn apply_elasticity(
        &mut self,
        now: SimTime,
        actions: Vec<ElasticityAction>,
        sched: &mut dyn Scheduler<Ev>,
    ) {
        let now_s = now.as_secs_f64();
        let mut retired_any = false;
        let mut provisioned_any = false;
        for action in actions {
            match action {
                ElasticityAction::ProvisionHosts { shape, count } => {
                    if count == 0 {
                        continue;
                    }
                    // One scaling *decision* counts once, however many
                    // shapes it spans — a shape-aware tick that plans two
                    // shapes must compare 1:1 against a threshold tick.
                    if !provisioned_any {
                        provisioned_any = true;
                        self.metrics.counters.scale_outs += 1;
                        self.metrics.scale_out_times_s.push(now_s);
                    }
                    self.metrics
                        .record_hosts_provisioned(shape, u64::from(count));
                    for _ in 0..count {
                        self.hosts_in_flight += 1;
                        self.gpus_in_flight += u64::from(shape.gpus);
                        let latency = self.provisioning.vm_scale_out_for(
                            &mut self.rng,
                            shape.gpus,
                            ResourceBundle::p3_16xlarge().gpus,
                        );
                        let shape = self.shape_index(shape);
                        sched.schedule_in(latency, Ev::HostReady(shape));
                    }
                }
                ElasticityAction::RetireHost { host } => {
                    // §3.4.2 releases *idle* servers only (no kernel
                    // replicas at all): withdrawing hosts that still hold
                    // replica subscriptions would block placements and
                    // ratchet the fleet upward. The decision was made on a
                    // snapshot, so re-check before removing.
                    let Some(h) = self.cluster.host(host) else {
                        continue;
                    };
                    if h.replica_count() != 0 || h.active_commitments() != 0 {
                        continue;
                    }
                    let shape = h.capacity();
                    // Reconcile the pool: warm containers vanish with the
                    // host and in-flight provisions are discarded on
                    // arrival.
                    let dropped = self.pool.forget_host(host);
                    self.metrics.counters.prewarms_discarded += u64::from(dropped.total());
                    self.cluster.remove_host(host);
                    self.metrics.counters.scale_ins += 1;
                    self.metrics.record_host_retired(shape);
                    retired_any = true;
                }
            }
        }
        if retired_any {
            self.refresh_fleet_billing(now_s);
            self.refresh_provisioned_gauge(now_s);
            self.refresh_sr_gauge(now_s);
        }
    }

    /// Demand found no viable host: route the shortfall to the auto-scaler
    /// (§3.4.2's scale-out trigger).
    fn trigger_scale_out(
        &mut self,
        now: SimTime,
        replicas: u32,
        request: ResourceRequest,
        sched: &mut dyn Scheduler<Ev>,
    ) {
        if !self.config.policy.autoscales() {
            return;
        }
        let shortfall = DemandShortfall { replicas, request };
        let actions = self.consult_elasticity(now, Some(shortfall));
        self.apply_elasticity(now, actions, sched);
    }

    /// `shape`'s index in the shape table, which it joins if scale-out
    /// never provisioned it before and the catalog lacks it.
    fn shape_index(&mut self, shape: ResourceBundle) -> u32 {
        let i = self
            .shape_catalog
            .iter()
            .position(|&known| known == shape)
            .unwrap_or_else(|| {
                self.shape_catalog.push(shape);
                self.shape_catalog.len() - 1
            });
        ix(i)
    }

    fn on_host_ready(&mut self, now: SimTime, shape: u32, sched: &mut dyn Scheduler<Ev>) {
        let shape = self.shape_catalog[shape as usize];
        let now_s = now.as_secs_f64();
        self.hosts_in_flight = self.hosts_in_flight.saturating_sub(1);
        self.gpus_in_flight = self.gpus_in_flight.saturating_sub(u64::from(shape.gpus));
        let id = self.cluster.add_host(shape);
        // Pre-warm containers provision asynchronously (§3.2.3): the pool
        // tracks them as in flight until each start completes, so a host
        // scaled back in before then reconciles instead of leaking counts.
        let deficit = self.config.policy.prewarm_min_per_host();
        self.pool.begin_provision(id, deficit);
        for _ in 0..deficit {
            let warm = self.provisioning.warm_container_start(&mut self.rng);
            sched.schedule_in(warm, Ev::PrewarmReady(id));
        }
        self.refresh_fleet_billing(now_s);
        self.refresh_provisioned_gauge(now_s);
        self.refresh_sr_gauge(now_s);
        // Resume parked kernel creations (§3.4.2: "resources are
        // immediately reserved for the paused kernel replicas").
        let parked: Vec<usize> = self.pending_kernels.drain(..).collect();
        for s in parked {
            if self.sessions[s].active {
                self.create_distributed_kernel(now, s, sched);
            }
        }
    }

    fn on_autoscale_tick(&mut self, now: SimTime, sched: &mut dyn Scheduler<Ev>) {
        let actions = self.consult_elasticity(now, None);
        self.apply_elasticity(now, actions, sched);
        if now.as_micros() < self.horizon_us {
            sched.schedule_in(
                SimTime::from_secs_f64(AUTOSCALE_INTERVAL_S),
                Ev::AutoscaleTick,
            );
        }
    }

    /// Provisions whatever the pre-warm pool is missing under the
    /// configured per-host minimum. Driven by the periodic
    /// [`Ev::PrewarmReconcileTick`], so pools recover after a
    /// flash crowd instead of waiting for the next host arrival.
    fn reconcile_prewarm(&mut self, sched: &mut dyn Scheduler<Ev>) {
        let minimum = self.config.policy.prewarm_min_per_host();
        let hosts = self.cluster.hosts().iter().map(Host::id);
        for (host, missing) in self.pool.deficits(hosts, minimum) {
            self.pool.begin_provision(host, missing);
            self.metrics.counters.prewarms_reconciled += u64::from(missing);
            for _ in 0..missing {
                let warm = self.provisioning.warm_container_start(&mut self.rng);
                sched.schedule_in(warm, Ev::PrewarmReady(host));
            }
        }
    }

    fn on_prewarm_reconcile_tick(&mut self, now: SimTime, sched: &mut dyn Scheduler<Ev>) {
        self.reconcile_prewarm(sched);
        if let Some(interval_s) = self.config.autoscale.prewarm_reconcile_interval_s {
            if now.as_micros() < self.horizon_us {
                sched.schedule_in(SimTime::from_secs_f64(interval_s), Ev::PrewarmReconcileTick);
            }
        }
    }

    fn on_metrics_tick(&mut self, now: SimTime, sched: &mut dyn Scheduler<Ev>) {
        let now_s = now.as_secs_f64();
        let (cost, revenue) = self.billing.totals(now_s);
        self.metrics.billing_samples.push((now_s, cost, revenue));
        if now.as_micros() < self.horizon_us {
            sched.schedule_in(SimTime::from_secs(3600), Ev::MetricsTick);
        }
    }

    /// Read access to the collected metrics (for inspection mid-run).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Read access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Read access to the pre-warm container pool.
    pub fn pool(&self) -> &PrewarmPool {
        &self.pool
    }

    /// Simulation events dispatched by the completed run — populated by
    /// [`Platform::run_for_inspection`]; the numerator of the ledger's
    /// events/sec rows (`benchmark/`, `sim-summer` and `sim-fleet`).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

/// NotebookOS's executor for a cell, as `(replica index, host)`: among the
/// replicas whose host exists and can commit `req` right now, the one with
/// the highest `(reuse bonus, idle GPUs)` — the last executor first
/// (§5.3.2 reports 89.45 % executor reuse), then the most-idle host — and
/// the first replica on a tie. `None` when no replica host can commit.
fn choose_executor(
    cluster: &Cluster,
    replica_hosts: &[HostId],
    last_executor: Option<usize>,
    req: &ResourceRequest,
) -> Option<(usize, HostId)> {
    let mut best: Option<((bool, u32), usize, HostId)> = None;
    for (i, &host) in replica_hosts.iter().enumerate() {
        let Some(h) = cluster.host(host).filter(|h| h.can_commit(req)) else {
            continue;
        };
        let key = (Some(i) == last_executor, h.idle_gpus());
        if best.map_or(true, |(top, _, _)| key > top) {
            best = Some((key, i, host));
        }
    }
    best.map(|(_, i, host)| (i, host))
}

/// Owner token for a session-lifetime reservation.
fn reservation_owner(s: usize) -> u64 {
    0x4000_0000_0000_0000 + s as u64
}

/// Owner token for a per-cell container (Batch / LCP).
fn batch_owner(s: usize) -> u64 {
    0x2000_0000_0000_0000 + s as u64
}

impl Platform {
    /// Reacts to one event at `now`, scheduling any follow-ups through
    /// `sched`; [`Platform::dispatch`] feeds the trace around it.
    fn handle_event(&mut self, now: SimTime, event: Ev, sched: &mut dyn Scheduler<Ev>) {
        match event {
            Ev::SessionStart(s) => self.on_session_start(now, s as usize, sched),
            Ev::SessionEnd(s) => self.on_session_end(now, s as usize),
            Ev::CellSubmit { s, e, .. } => self.on_cell_submit(now, s as usize, e as usize, sched),
            Ev::ExecFinish { s, e, host } => {
                self.on_exec_finish(now, s as usize, e as usize, host, sched)
            }
            Ev::MigrationRetry { s, e } => {
                let s = s as usize;
                if self.sessions[s].active {
                    self.start_migration(now, s, e as usize, sched)
                }
            }
            Ev::HostReady(shape) => self.on_host_ready(now, shape, sched),
            Ev::AutoscaleTick => self.on_autoscale_tick(now, sched),
            Ev::PrewarmReconcileTick => self.on_prewarm_reconcile_tick(now, sched),
            Ev::MetricsTick => self.on_metrics_tick(now, sched),
            Ev::ReplicaFailure => self.on_replica_failure(now, sched),
            Ev::PrewarmReady(host) => {
                // A completion for a host that was scaled in mid-provision
                // is dropped by the pool. The discard was already counted
                // when forget_host reconciled the host (which also covers
                // completions that would land past the horizon), so no
                // second increment here.
                let _ = self.pool.provision_complete(host);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_trace::{generate, SessionTrace, SyntheticConfig, TrainingEvent};

    fn smoke_trace(seed: u64) -> WorkloadTrace {
        generate(&SyntheticConfig::smoke(), seed)
    }

    fn run(policy: PolicyKind, seed: u64) -> RunMetrics {
        let mut config = PlatformConfig::evaluation(policy);
        config.seed = seed;
        Platform::run(config, smoke_trace(seed))
    }

    #[test]
    fn all_policies_complete_the_smoke_trace() {
        let trace = smoke_trace(1);
        let expected = trace.total_events() as u64;
        for policy in PolicyKind::ALL {
            let m = run(policy, 1);
            assert!(
                m.counters.executions + m.counters.aborted >= expected.saturating_sub(2),
                "{policy}: {} of {expected} executions",
                m.counters.executions
            );
            assert!(m.end_s > 0.0);
        }
    }

    #[test]
    fn reservation_has_best_interactivity() {
        let mut res = run(PolicyKind::Reservation, 2);
        let mut batch = run(PolicyKind::Batch, 2);
        assert!(
            res.interactivity_ms.percentile(50.0) < batch.interactivity_ms.percentile(50.0) / 10.0,
            "reservation {} vs batch {}",
            res.interactivity_ms.percentile(50.0),
            batch.interactivity_ms.percentile(50.0)
        );
    }

    #[test]
    fn notebookos_interactivity_is_sub_second_at_median() {
        let mut m = run(PolicyKind::NotebookOs, 3);
        let p50 = m.interactivity_ms.percentile(50.0);
        assert!(p50 < 2_000.0, "median interactivity {p50} ms");
        assert!(m.counters.immediate_commit_rate() > 0.6);
    }

    #[test]
    fn batch_pays_cold_starts() {
        let m = run(PolicyKind::Batch, 4);
        assert!(m.counters.cold_starts >= m.counters.executions);
        let mut m = m;
        assert!(m.interactivity_ms.percentile(50.0) > 10_000.0);
    }

    #[test]
    fn notebookos_provisions_fewer_gpu_hours_than_reservation() {
        // The smoke trace is tiny, so shrink the floor the auto-scaler
        // keeps; at evaluation scale (90 sessions) the default floor is
        // negligible — see the fig08 integration test.
        let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        config.seed = 5;
        config.initial_hosts = 2;
        config.autoscale.min_hosts = 2;
        config.autoscale.scaling_buffer_hosts = 0;
        let workload = SyntheticConfig {
            sessions: 40,
            span_s: 4.0 * 3600.0,
            gpu_active_fraction: 0.3,
            long_lived_fraction: 0.95,
            gpu_demand: vec![(2, 1.0)],
            arrival: notebookos_trace::ArrivalPattern::FrontLoaded,
        };
        let m = Platform::run(config, generate(&workload, 5));
        assert!(
            m.gpu_hours_saved_vs_reservation() > 0.0,
            "saved {}",
            m.gpu_hours_saved_vs_reservation()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(PolicyKind::NotebookOs, 6);
        let b = run(PolicyKind::NotebookOs, 6);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.end_s, b.end_s);
        assert_eq!(a.provisioned_gpus, b.provisioned_gpus);
    }

    #[test]
    fn injected_replica_failures_are_recovered() {
        let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        config.seed = 9;
        config.replica_mtbf_hours = Some(0.05); // ~20 failures/hour
        let m = Platform::run(config, smoke_trace(9));
        assert!(m.counters.replica_failures > 0, "failures were injected");
        // Recovery is off the critical path: every cell still completes.
        let expected = smoke_trace(9).total_events() as u64;
        assert_eq!(m.counters.executions + m.counters.aborted, expected);
    }

    /// An event holds a cell as `(s, e)` in two `u32`s and reads the rest
    /// from the trace, and a new host's shape by its index in the shape
    /// table, so neither a submission instant nor a 24-byte bundle rides
    /// in the queue. With `des::queue`'s
    /// `a_dynamic_entry_of_a_24_byte_event_is_at_most_40_bytes`, a queue
    /// entry is then at most 40 bytes.
    #[test]
    fn an_event_is_at_most_24_bytes() {
        assert!(
            std::mem::size_of::<Ev>() <= 24,
            "{}",
            std::mem::size_of::<Ev>()
        );
    }

    /// A fleet whose catalog lacks the reference shape still provisions
    /// it (the threshold controller always asks for p3.16xlarge): the
    /// shape joins the table after the catalog, and the auto-scaler's
    /// catalog is unchanged.
    #[test]
    fn a_shape_outside_the_catalog_joins_the_shape_table() {
        let small = ResourceBundle::new(32_000, 249_856, 4);
        let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        config.host_mix = vec![(small, 2)];
        let world = Platform::run_for_inspection(config, smoke_trace(3));
        let p3 = ResourceBundle::p3_16xlarge();
        assert_eq!(world.shape_catalog, [small, p3]);
        assert_eq!(world.catalog_len, 1);
        let of_p3 = |counts: &[(ResourceBundle, u64)]| -> u64 {
            counts.iter().filter(|c| c.0 == p3).map(|c| c.1).sum()
        };
        let requested = of_p3(&world.metrics.hosts_provisioned_by_shape);
        let retired = of_p3(&world.metrics.hosts_retired_by_shape);
        let joined = world.cluster.hosts().iter().filter(|h| h.capacity() == p3);
        let joined = joined.count() as u64;
        // Every p3 host that joined (and is still here or was retired) was
        // a requested one; a request can still be in flight at the end.
        assert!(
            joined + retired > 0 && joined + retired <= requested,
            "{joined} + {retired} of {requested}"
        );
    }

    /// A [`Scheduler`] over a bare `BinaryHeap` of `(time, seq)`: the
    /// queue as it was before it grew a sorted run or ranks.
    #[derive(Default)]
    struct HeapScheduler {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>,
        events: std::collections::HashMap<u64, Ev>,
        seq: u64,
        now: SimTime,
    }

    impl Scheduler<Ev> for HeapScheduler {
        fn now(&self) -> SimTime {
            self.now
        }
        fn schedule(&mut self, at: SimTime, event: Ev) {
            self.heap.push(std::cmp::Reverse((at, self.seq)));
            self.events.insert(self.seq, event);
            self.seq += 1;
        }
        fn schedule_in(&mut self, delay: SimTime, event: Ev) {
            self.schedule(self.now.saturating_add(delay), event);
        }
        fn pop_next(&mut self) -> Option<(SimTime, Ev)> {
            let std::cmp::Reverse((at, seq)) = self.heap.pop()?;
            self.now = at;
            Some((at, self.events.remove(&seq).expect("scheduled")))
        }
        fn peek_deadline(&self) -> Option<SimTime> {
            self.heap.peek().map(|r| r.0 .0)
        }
        fn pending(&self) -> usize {
            self.heap.len()
        }
        fn scheduled_total(&self) -> u64 {
            self.seq
        }
    }

    /// The trace loaded whole before the first pop — session by session,
    /// `k` by `k`, then the periodic events — as the platform loaded it
    /// before it fed arrivals one at a time: the reference the lazy feed
    /// is held to.
    fn run_bulk(
        config: PlatformConfig,
        trace: WorkloadTrace,
        sched: &mut dyn Scheduler<Ev>,
    ) -> Platform {
        let mut platform = Platform::new(config, trace);
        for (s, session) in platform.trace.sessions.iter().enumerate() {
            let start = Ev::SessionStart(ix(s));
            sched.schedule(SimTime::from_secs_f64(session.start_s), start);
            sched.schedule(SimTime::from_secs_f64(session.end_s), Ev::SessionEnd(ix(s)));
            for (e, event) in session.events.iter().enumerate() {
                let cell = Ev::CellSubmit {
                    s: ix(s),
                    e: ix(e),
                    retry: false,
                };
                sched.schedule(SimTime::from_secs_f64(event.submit_s), cell);
            }
        }
        platform.schedule_ticks(sched);
        // `handle_event` alone: the trace is already loaded.
        let horizon = SimTime::from_micros(platform.horizon_us + 60_000_000);
        while let Some((now, event)) = sched.pop_next_until(horizon) {
            platform.events_processed += 1;
            platform.handle_event(now, event, sched);
        }
        platform.seal(sched.now());
        platform
    }

    /// A [`Scheduler`] that records every event scheduled and popped
    /// through it, in call order.
    struct Recorder<S> {
        inner: S,
        scheduled: Vec<(SimTime, Ev)>,
        popped: Vec<(SimTime, Ev)>,
    }

    impl<S> Recorder<S> {
        fn new(inner: S) -> Self {
            Recorder {
                inner,
                scheduled: Vec::new(),
                popped: Vec::new(),
            }
        }
    }

    impl<S: Scheduler<Ev>> Scheduler<Ev> for Recorder<S> {
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn schedule(&mut self, at: SimTime, event: Ev) {
            self.scheduled.push((at, event.clone()));
            self.inner.schedule(at, event);
        }
        fn schedule_in(&mut self, delay: SimTime, event: Ev) {
            self.schedule(self.now().saturating_add(delay), event);
        }
        fn pop_next(&mut self) -> Option<(SimTime, Ev)> {
            let popped = self.inner.pop_next()?;
            self.popped.push(popped.clone());
            Some(popped)
        }
        fn peek_deadline(&self) -> Option<SimTime> {
            self.inner.peek_deadline()
        }
        fn pending(&self) -> usize {
            self.inner.pending()
        }
        fn scheduled_total(&self) -> u64 {
            self.inner.scheduled_total()
        }
    }

    /// The first pop at which two recorded runs differ, if any.
    fn first_difference(a: &[(SimTime, Ev)], b: &[(SimTime, Ev)]) -> Option<usize> {
        let common = a.iter().zip(b).position(|(x, y)| x != y);
        common.or((a.len() != b.len()).then(|| a.len().min(b.len())))
    }

    /// The order oracle: every policy, on the smoke and excerpt traces of
    /// three seeds, pops the same `(time, event)` sequence and ends with
    /// the same metrics whether the trace is fed one arrival at a time
    /// through the ranked queue or loaded whole into a bare `(time, seq)`
    /// heap, as before the feed existed. Without the rank rule the feed
    /// would not be exact: fed into the bare heap, some run diverges.
    #[test]
    fn lazy_arrivals_pop_exactly_what_the_bulk_load_popped() {
        let mut rankless_diverged = 0;
        for (name, workload) in [
            ("smoke", SyntheticConfig::smoke()),
            ("excerpt", SyntheticConfig::excerpt_17_5h()),
        ] {
            for seed in 1..=3 {
                let trace = generate(&workload, seed);
                for policy in PolicyKind::ALL {
                    let mut config = PlatformConfig::evaluation(policy);
                    config.seed = seed;
                    let at = format!("{name} seed {seed} {policy}");
                    let mut bulk = Recorder::new(HeapScheduler::default());
                    let reference = run_bulk(config.clone(), trace.clone(), &mut bulk);
                    let mut lazy = Recorder::new(DesScheduler::new());
                    let world =
                        Platform::run_with_scheduler(config.clone(), trace.clone(), &mut lazy);
                    if let Some(i) = first_difference(&lazy.popped, &bulk.popped) {
                        panic!(
                            "{at}: pop {i} is {:?}, the bulk load popped {:?}",
                            lazy.popped.get(i),
                            bulk.popped.get(i)
                        );
                    }
                    assert_eq!(world.metrics(), reference.metrics(), "{at}");
                    assert_eq!(
                        world.events_processed(),
                        reference.events_processed(),
                        "{at}"
                    );
                    assert_eq!(lazy.scheduled.len(), bulk.scheduled.len(), "{at}");

                    let mut rankless = Recorder::new(HeapScheduler::default());
                    Platform::run_with_scheduler(config, trace.clone(), &mut rankless);
                    rankless_diverged +=
                        usize::from(first_difference(&rankless.popped, &bulk.popped).is_some());
                }
            }
        }
        assert!(rankless_diverged > 0, "no run here needs the rank rule");
    }

    fn hand_session(start_s: f64, end_s: f64, cells: &[f64]) -> SessionTrace {
        let profile = notebookos_trace::assign_profile(&mut SimRng::seed(0));
        SessionTrace {
            id: 0,
            start_s,
            end_s,
            gpus: 1,
            vram_gb: 16,
            millicpus: 4_000,
            memory_mb: 16_384,
            profile,
            events: cells
                .iter()
                .map(|&submit_s| TrainingEvent {
                    submit_s,
                    duration_s: 30.0,
                })
                .collect(),
        }
    }

    /// Two ties the rank rule decides against schedule order, pinned on a
    /// hand-built trace. On a 2-host fleet no kernel can place its 3
    /// replicas, so session 0's cell at 100 s is retried every 5 s; that
    /// retry is scheduled at 100 s, before session 1's start (101 s) feeds
    /// session 1's cell at 105 s, yet the trace's cell pops first. The
    /// first `MetricsTick` is scheduled before any arrival, yet session
    /// 0's end at 3 600 s pops before it.
    #[test]
    fn trace_arrivals_pop_before_platform_events_at_the_same_instant() {
        let trace = WorkloadTrace {
            sessions: vec![
                hand_session(99.0, 3_600.0, &[100.0]),
                hand_session(101.0, 7_200.0, &[105.0]),
            ],
        };
        let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        config.initial_hosts = 2;
        config.autoscale.min_hosts = 2;
        let mut lazy = Recorder::new(DesScheduler::new());
        let world = Platform::run_with_scheduler(config.clone(), trace.clone(), &mut lazy);

        let cell = |s, retry| Ev::CellSubmit { s, e: 0, retry };
        let at = |secs| {
            let t = SimTime::from_secs(secs);
            let popped = lazy.popped.iter().filter(|(at, _)| *at == t);
            popped.map(|(_, e)| e.clone()).collect::<Vec<_>>()
        };
        assert_eq!(at(105)[..2], [cell(1, false), cell(0, true)]);
        let scheduled = |e: &Ev| lazy.scheduled.iter().position(|(_, x)| x == e);
        assert!(scheduled(&cell(0, true)) < scheduled(&cell(1, false)));
        let at_3600 = at(3_600);
        let end = at_3600.iter().position(|e| *e == Ev::SessionEnd(0));
        let tick = at_3600.iter().position(|e| *e == Ev::MetricsTick);
        assert_eq!(
            (end, tick.map(|t| t > 0)),
            (Some(0), Some(true)),
            "{at_3600:?}"
        );
        assert!(scheduled(&Ev::MetricsTick) < scheduled(&Ev::SessionEnd(0)));

        let mut bulk = Recorder::new(HeapScheduler::default());
        let reference = run_bulk(config, trace, &mut bulk);
        assert_eq!(first_difference(&lazy.popped, &bulk.popped), None);
        assert_eq!(world.metrics(), reference.metrics());
    }

    /// The lazy feed keeps the queue proportional to live state: after
    /// every pop of the excerpt run, the pending events number at most the
    /// open sessions plus the running executions plus the hosts (live or
    /// provisioning), plus the periodic ticks and the one pending arrival.
    /// Loading the trace up front breaks this by thousands.
    #[test]
    fn pending_events_stay_within_live_state() {
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 2026);
        for policy in PolicyKind::ALL {
            let mut platform = Platform::new(PlatformConfig::evaluation(policy), trace.clone());
            let mut sched = DesScheduler::new();
            platform.schedule_initial(&mut sched);
            let mut worst = i64::MIN;
            while let Some((now, event)) = sched.pop_next() {
                let open = platform.sessions.iter().filter(|s| s.active).count();
                let running = platform.sessions.iter().filter(|s| s.busy).count();
                let hosts = platform.cluster.len() + platform.hosts_in_flight as usize;
                let live = (open + running + hosts) as i64;
                worst = worst.max(sched.pending() as i64 - live);
                platform.dispatch(now, event, &mut sched);
            }
            assert!(worst <= 5, "{policy}: {worst} events beyond live state");
        }
    }

    /// `committed_gpus` changes at whole microseconds by whole GPUs, so its
    /// compact timeline stores a change point in a few bytes: one for the
    /// GPU step, three or four for the microseconds since the last change
    /// (4.957 a point on this run, 4.78 on the 90-day study, against 16
    /// for an `(f64, f64)` pair).
    #[test]
    fn committed_gpus_encode_in_at_most_5_bytes_a_point() {
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 2026);
        let m = Platform::run(PlatformConfig::evaluation(PolicyKind::NotebookOs), trace);
        let points = m.committed_gpus.points().len();
        let per_point = m.committed_gpus.encoded_bytes() as f64 / points as f64;
        assert!(points > 1_000, "{points}");
        assert!(
            per_point <= 5.0,
            "{per_point:.3} bytes a point over {points}"
        );
    }

    /// The goldens run 8 sessions; this is the ledger's `sim-fleet
    /// --smoke` shape, 3 000 trace events, which the bulk reference loads
    /// into a bare heap up front.
    #[test]
    fn fleet_run_is_identical_under_a_bare_heap_scheduler() {
        let workload = SyntheticConfig {
            sessions: 400,
            span_s: 86_400.0,
            long_lived_fraction: 0.1,
            ..SyntheticConfig::summer_90d()
        };
        let trace = generate(&workload, 22);
        assert!(trace.total_events() > 2000, "{}", trace.total_events());
        let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        config.seed = 22;
        config.initial_hosts = 82;
        config.autoscale.min_hosts = 82;
        let des = Platform::run_for_inspection(config.clone(), trace.clone());
        let mut heap = HeapScheduler::default();
        let bare = run_bulk(config, trace, &mut heap);
        assert_eq!(des.metrics(), bare.metrics());
        assert_eq!(des.events_processed(), bare.events_processed());
        assert!(des.events_processed() > 3000);
    }

    #[test]
    fn running_gauge_totals_equal_a_resum_after_every_event() {
        for policy in PolicyKind::ALL {
            let mut config = PlatformConfig::evaluation(policy);
            config.seed = 8;
            let mut platform = Platform::new(config, smoke_trace(8));
            let mut sched = DesScheduler::new();
            platform.schedule_initial(&mut sched);
            let mut reserved_seen = 0;
            while let Some((now, event)) = sched.pop_next() {
                platform.dispatch(now, event, &mut sched);
                let gpus = |keep: fn(&SessionRt) -> bool| -> u64 {
                    let kept = platform.sessions.iter().filter(|s| keep(s));
                    kept.map(|s| u64::from(s.req.gpus)).sum()
                };
                assert_eq!(platform.active_gpus, gpus(|s| s.active), "{policy}");
                let reserved = gpus(|s| s.active && s.reserved_host.is_some());
                assert_eq!(platform.reserved_host_gpus, reserved, "{policy}");
                reserved_seen = reserved_seen.max(reserved);
            }
            assert_eq!(platform.active_gpus, 0, "{policy}: every session ended");
            assert_eq!(reserved_seen > 0, policy == PolicyKind::Reservation);
        }
    }

    #[test]
    fn billing_accumulates() {
        let m = run(PolicyKind::Reservation, 7);
        let (cost, revenue) = m.final_billing().expect("billing samples");
        assert!(cost > 0.0);
        assert!(revenue > 0.0);
    }

    /// The executor choice as a decorated stable sort by descending
    /// `(reuse bonus, idle GPUs)` — a missing host ranks with 0 idle GPUs —
    /// then the first replica whose host can commit.
    fn choose_executor_by_sort(
        cluster: &Cluster,
        replica_hosts: &[HostId],
        last_executor: Option<usize>,
        req: &ResourceRequest,
    ) -> Option<(usize, HostId)> {
        let mut rank: Vec<(u32, u32, usize, HostId)> = Vec::new();
        for (i, &host) in replica_hosts.iter().enumerate() {
            let idle = cluster.host(host).map(|h| h.idle_gpus()).unwrap_or(0);
            rank.push((u32::from(Some(i) == last_executor), idle, i, host));
        }
        rank.sort_by_key(|&(reuse_bonus, idle, _, _)| std::cmp::Reverse((reuse_bonus, idle)));
        rank.iter()
            .find(|&&(_, _, _, host)| {
                cluster
                    .host(host)
                    .map(|h| h.can_commit(req))
                    .unwrap_or(false)
            })
            .map(|&(_, _, i, host)| (i, host))
    }

    #[test]
    fn one_pass_executor_choice_equals_the_sorted_choice() {
        let small = ResourceBundle::new(32_000, 249_856, 4);
        let mut rng = SimRng::seed(29);
        // Which situations the cases reached: a missing replica host, a
        // tie in idle GPUs among committable replicas, a last executor
        // that can commit, one that cannot, and no executor at all.
        let mut seen = [0u32; 5];
        for case in 0..4_000u64 {
            let mut cluster =
                Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 4), (small, 3)]);
            let mut devices = Vec::new();
            for owner in 0..rng.below(12) {
                let host = rng.below(7);
                let gpus = 1 + rng.below(4) as u32;
                let commit = ResourceRequest::new(1000, 1024, gpus, 0);
                cluster.try_commit(host, owner, &commit, &mut devices);
            }
            for _ in 0..rng.below(3) {
                cluster.remove_host(rng.below(7));
            }
            let replicas: Vec<HostId> = (0..1 + rng.below(4)).map(|_| rng.below(8)).collect();
            let last = rng.chance(0.8).then(|| rng.index(replicas.len()));
            let req = ResourceRequest::new(1000, 1024, rng.below(9) as u32, 0);

            let chosen = choose_executor(&cluster, &replicas, last, &req);
            assert_eq!(
                chosen,
                choose_executor_by_sort(&cluster, &replicas, last, &req),
                "case {case}: replicas {replicas:?}, last {last:?}, {req:?}"
            );

            let committable: Vec<u32> = replicas
                .iter()
                .filter_map(|&h| cluster.host(h).filter(|h| h.can_commit(&req)))
                .map(|h| h.idle_gpus())
                .collect();
            let mut idle = committable.clone();
            idle.sort_unstable();
            idle.dedup();
            let last_can = last.map(|i| {
                cluster
                    .host(replicas[i])
                    .is_some_and(|h| h.can_commit(&req))
            });
            seen[0] += u32::from(replicas.iter().any(|&h| cluster.host(h).is_none()));
            seen[1] += u32::from(idle.len() < committable.len());
            seen[2] += u32::from(last_can == Some(true));
            seen[3] += u32::from(last_can == Some(false));
            seen[4] += u32::from(chosen.is_none());
        }
        assert!(seen.iter().all(|&n| n > 100), "{seen:?}");
    }
}

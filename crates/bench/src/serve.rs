//! The live-service load generator: replays a time-compressed synthetic
//! trace against the [`LiveGateway`] through whichever
//! [`Scheduler`] the caller supplies.
//!
//! The serving loop is scheduler-agnostic by construction: every session
//! start/end and cell submission becomes a [`ServeEv`] with a deadline,
//! and [`run_serve`] reacts to events as they pop. Under a
//! [`DesScheduler`](notebookos_des::DesScheduler) the whole run completes
//! in microseconds of wall time (how the tests drive it); under a
//! [`RealTimeScheduler`](notebookos_des::RealTimeScheduler) the same loop
//! serves actual wall-clock Jupyter wire traffic (how the `serve` bin
//! drives it). The only difference is which scheduler the caller passes.
//!
//! Traffic comes from the calibrated [`notebookos_trace`] generators: an
//! AdobeTrace-shaped workload for `--users` sessions is generated over
//! its natural hour-scale window, then compressed onto the requested
//! serving window, with per-cell running times capped so executions
//! complete within the run.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use notebookos_core::placement_service::{
    drain_bucket_label, PlacementService, PlacementServiceStats,
};
use notebookos_core::serve::{client_request, GatewayStats, LiveGateway};
use notebookos_des::{Scheduler, SimTime};
use notebookos_jupyter::wire::fnv1a;
use notebookos_jupyter::{Json, KernelResourceSpec, MsgIdGen, WireEndpoint};
use notebookos_metrics::Cdf;
use notebookos_trace::{generate, Popularity, SyntheticConfig, WorkloadTrace};

/// Events of the serving loop. The trace pre-schedules session lifecycles
/// and submissions; completions and gauge ticks are scheduled as the run
/// unfolds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEv {
    /// A user's session begins (kernel launch through the control plane).
    SessionStart(usize),
    /// A user's session ends (deferred while a cell is still running).
    SessionEnd(usize),
    /// A user submits a cell with the given (compressed) running time.
    Submit {
        /// The submitting user.
        user: usize,
        /// Compressed cell running time.
        duration: SimTime,
    },
    /// A fanned-out execution reaches its completion deadline.
    ExecDone {
        /// The user whose cell completes.
        user: usize,
        /// The request's message id ([`LiveGateway::finish_execution`]).
        msg_id: String,
    },
    /// Periodic gauge sample (sessions, in-flight, viable hosts).
    ProgressTick,
}

/// Configuration for one serving run.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Concurrent users (one session each).
    pub users: usize,
    /// Serving window the trace is compressed onto.
    pub duration: SimTime,
    /// GPU servers in the fleet.
    pub hosts: usize,
    /// Replicas per kernel.
    pub replication_factor: u32,
    /// Trace-generation seed.
    pub seed: u64,
    /// Cap on a compressed cell's running time, so executions finish
    /// within the window.
    pub max_cell: SimTime,
    /// Gauge sampling interval.
    pub tick: SimTime,
    /// Zipf exponent for per-user popularity skew (`None` = uniform, the
    /// calibrated default; `Some(theta)` makes low-rank users hot).
    pub skew: Option<f64>,
}

impl ServeOpts {
    /// Defaults: 8 users over 10 s on 8 hosts, R = 3, 250 ms cell cap.
    pub fn new(users: usize, duration: SimTime) -> Self {
        ServeOpts {
            users,
            duration,
            hosts: 8,
            replication_factor: 3,
            seed: crate::EVAL_SEED,
            max_cell: SimTime::from_millis(250),
            tick: SimTime::from_millis(500),
            skew: None,
        }
    }

    /// CI-speed smoke run: 4 users over 3 s on 6 hosts.
    pub fn smoke() -> Self {
        let mut opts = ServeOpts::new(4, SimTime::from_secs(3));
        opts.hosts = 6;
        opts
    }
}

/// What a serving run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Configured users.
    pub users: usize,
    /// Sessions whose kernel launched.
    pub sessions_started: u64,
    /// Sessions ended (their kernels shut down).
    pub sessions_ended: u64,
    /// Peak concurrently live sessions.
    pub peak_sessions: usize,
    /// Cell executions completed (merged reply received).
    pub executions: u64,
    /// Completed executions per logical second.
    pub execs_per_sec: f64,
    /// p50 end-to-end request latency (submit → merged reply), ms.
    pub latency_p50_ms: f64,
    /// p99 end-to-end request latency, ms.
    pub latency_p99_ms: f64,
    /// Mean end-to-end request latency, ms.
    pub latency_mean_ms: f64,
    /// Session starts refused for lack of viable hosts.
    pub shortfalls: u64,
    /// Submissions dropped (inactive session or gateway rejection).
    pub dropped: u64,
    /// Logical time the run spanned (last event), seconds.
    pub logical_secs: f64,
    /// The gateway's wire counters.
    pub gateway: GatewayStats,
    /// Wire messages the client side sent / received.
    pub client_sent: u64,
    /// Wire messages the client side received and verified.
    pub client_received: u64,
    /// Smallest viable-host gauge sample observed (one-GPU request).
    pub min_viable_hosts: usize,
    /// Gauge samples taken.
    pub gauge_samples: u64,
    /// Every end-to-end request latency, ms. Percentile fields above are
    /// derived from this; keeping the full distribution lets sharded runs
    /// merge per-shard reports losslessly via [`Cdf::merge`] and lets the
    /// determinism tests compare latency *multisets*, not just summaries.
    pub latency: Cdf,
}

impl ServeReport {
    /// Serializes the report for the `--out` artifact.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("users", self.users as u64)
            .with("sessions_started", self.sessions_started)
            .with("sessions_ended", self.sessions_ended)
            .with("peak_sessions", self.peak_sessions as u64)
            .with("executions", self.executions)
            .with("execs_per_sec", self.execs_per_sec)
            .with("latency_p50_ms", self.latency_p50_ms)
            .with("latency_p99_ms", self.latency_p99_ms)
            .with("latency_mean_ms", self.latency_mean_ms)
            .with("shortfalls", self.shortfalls)
            .with("dropped", self.dropped)
            .with("logical_secs", self.logical_secs)
            .with("wire_accepted", self.gateway.accepted)
            .with("wire_rejected", self.gateway.rejected)
            .with("wire_replies", self.gateway.replies)
            .with("wire_fan_out_copies", self.gateway.fan_out_copies)
            .with("client_sent", self.client_sent)
            .with("client_received", self.client_received)
            .with("min_viable_hosts", self.min_viable_hosts as u64)
            .with("gauge_samples", self.gauge_samples)
            .with(
                "latency_ms",
                self.latency
                    .canonical_samples()
                    .into_iter()
                    .map(Json::from)
                    .collect::<Vec<Json>>(),
            )
    }

    /// The fields the determinism contract says must be invariant under
    /// the shard count: everything except `peak_sessions` (per-shard
    /// peaks sum to an upper bound, not the true global peak) and
    /// `gauge_samples` (each shard runs its own tick chain), which are
    /// zeroed. Compare these views to prove `--shards N` ≡ `--shards 1`.
    pub fn shard_invariant_view(&self) -> ServeReport {
        let mut view = self.clone();
        view.peak_sessions = 0;
        view.gauge_samples = 0;
        view
    }

    /// A zeroed report covering `owned_users` users — the accumulator
    /// [`run_loop`] starts from.
    fn empty(owned_users: usize) -> ServeReport {
        ServeReport {
            users: owned_users,
            sessions_started: 0,
            sessions_ended: 0,
            peak_sessions: 0,
            executions: 0,
            execs_per_sec: 0.0,
            latency_p50_ms: 0.0,
            latency_p99_ms: 0.0,
            latency_mean_ms: 0.0,
            shortfalls: 0,
            dropped: 0,
            logical_secs: 0.0,
            gateway: GatewayStats::default(),
            client_sent: 0,
            client_received: 0,
            min_viable_hosts: usize::MAX,
            gauge_samples: 0,
            latency: Cdf::new("request-latency-ms"),
        }
    }

    /// Finalizes derived fields: resolves the never-sampled gauge
    /// sentinel, computes percentiles from the latency multiset, and the
    /// throughput rate from the logical span.
    fn finish(&mut self) {
        if self.min_viable_hosts == usize::MAX {
            self.min_viable_hosts = 0;
        }
        if !self.latency.is_empty() {
            self.latency_p50_ms = self.latency.percentile(50.0);
            self.latency_p99_ms = self.latency.percentile(99.0);
            self.latency_mean_ms = self.latency.mean();
        }
        if self.logical_secs > 0.0 {
            self.execs_per_sec = self.executions as f64 / self.logical_secs;
        }
    }

    /// Renders the human-readable summary the `serve` bin prints.
    pub fn render(&self) -> String {
        format!(
            "sessions: {} started, {} ended, peak {} concurrent\n\
             executions: {} completed ({:.1}/s over {:.2}s logical)\n\
             latency: p50 {:.1} ms, p99 {:.1} ms, mean {:.1} ms\n\
             wire: {} accepted, {} fan-out copies, {} replies, {} rejected\n\
             capacity: min {} viable hosts across {} samples; \
             {} shortfalls, {} dropped",
            self.sessions_started,
            self.sessions_ended,
            self.peak_sessions,
            self.executions,
            self.execs_per_sec,
            self.logical_secs,
            self.latency_p50_ms,
            self.latency_p99_ms,
            self.latency_mean_ms,
            self.gateway.accepted,
            self.gateway.fan_out_copies,
            self.gateway.replies,
            self.gateway.rejected,
            self.min_viable_hosts,
            self.gauge_samples,
            self.shortfalls,
            self.dropped,
        )
    }
}

/// Per-user client state.
#[derive(Debug, Default)]
struct UserState {
    kernel_id: String,
    active: bool,
    busy: bool,
    queued: VecDeque<SimTime>,
    end_requested: bool,
}

/// The compressed per-user workload plus the resource spec of each
/// session, derived from one generated trace.
#[derive(Debug)]
struct CompressedTrace {
    specs: Vec<KernelResourceSpec>,
    /// Each user's `(deadline, event)` pairs to pre-schedule, by user id.
    events: Vec<Vec<(SimTime, ServeEv)>>,
}

fn compress(trace: &WorkloadTrace, opts: &ServeOpts) -> CompressedTrace {
    let span_s = trace.span_s().max(1.0);
    let factor = opts.duration.as_secs_f64() / span_s;
    let mut specs = Vec::with_capacity(trace.sessions.len());
    let mut events = Vec::with_capacity(trace.sessions.len());
    for (user, session) in trace.sessions.iter().enumerate() {
        specs.push(KernelResourceSpec {
            millicpus: session.millicpus as u32,
            memory_mb: session.memory_mb as u32,
            gpus: session.gpus,
            vram_gb: session.vram_gb,
        });
        let start = SimTime::from_secs_f64(session.start_s * factor);
        let end = SimTime::from_secs_f64(session.end_s * factor).max(start);
        let mut own = Vec::with_capacity(session.events.len() + 2);
        own.push((start, ServeEv::SessionStart(user)));
        own.push((end, ServeEv::SessionEnd(user)));
        for event in &session.events {
            let submit = SimTime::from_secs_f64(event.submit_s * factor);
            let duration = SimTime::from_secs_f64(event.duration_s * factor)
                .min(opts.max_cell)
                .max(SimTime::from_millis(1));
            own.push((submit, ServeEv::Submit { user, duration }));
        }
        events.push(own);
    }
    CompressedTrace { specs, events }
}

/// Generates the workload once: one AdobeTrace-shaped hour, compressed
/// onto the serving window. Every user submits (gpu_active_fraction 1.0):
/// a load generator that mostly idles would make smoke runs flaky.
fn compressed_trace(opts: &ServeOpts) -> CompressedTrace {
    let config = SyntheticConfig {
        sessions: opts.users,
        span_s: 3_600.0,
        gpu_active_fraction: 1.0,
        long_lived_fraction: 0.9,
        popularity: match opts.skew {
            Some(theta) => Popularity::Zipf { theta },
            None => Popularity::Uniform,
        },
        ..SyntheticConfig::smoke()
    };
    let trace = generate(&config, opts.seed);
    compress(&trace, opts)
}

/// Runs the serving loop to completion under the supplied scheduler.
///
/// The run ends when the event queue drains: all sessions have started,
/// every accepted execution has completed, and gauge ticks have stopped
/// (they are not scheduled past the serving window). Identical inputs
/// produce identical reports under any scheduler, because all timing
/// flows through `sched`.
pub fn run_serve(opts: &ServeOpts, sched: &mut dyn Scheduler<ServeEv>) -> ServeReport {
    let compressed = compressed_trace(opts);
    let (mut gateway, mut client) = LiveGateway::new(
        opts.hosts,
        notebookos_cluster::ResourceBundle::p3_16xlarge(),
        opts.replication_factor,
    );
    run_loop(
        opts,
        &compressed.specs,
        compressed.events.into_iter().flatten(),
        opts.users,
        &mut gateway,
        &mut client,
        sched,
    )
}

/// One gateway's serving loop: the single-threaded core that both
/// [`run_serve`] (one gateway over everything) and [`run_serve_sharded`]
/// (one gateway per shard, each over its own session partition) drive.
/// `events` are this gateway's pre-scheduled trace events; `owned_users`
/// is how many of the trace's users they cover (reported as `users`).
/// No locks anywhere: the loop owns its gateway, wire, scheduler, and
/// latency accumulator outright.
fn run_loop(
    opts: &ServeOpts,
    specs: &[KernelResourceSpec],
    events: impl IntoIterator<Item = (SimTime, ServeEv)>,
    owned_users: usize,
    gateway: &mut LiveGateway,
    client: &mut WireEndpoint,
    sched: &mut dyn Scheduler<ServeEv>,
) -> ServeReport {
    // Indexed by global user id, so shard partitions need no remapping.
    let mut users: Vec<UserState> = (0..opts.users).map(|_| UserState::default()).collect();
    let mut ids = MsgIdGen::new("cell");
    let mut in_flight: HashMap<String, (usize, SimTime)> = HashMap::new();

    let mut report = ServeReport::empty(owned_users);
    let gauge_spec = gauge_probe_spec();

    for (deadline, event) in events {
        sched.schedule(deadline, event);
    }
    sched.schedule(SimTime::ZERO, ServeEv::ProgressTick);

    while let Some((now, event)) = sched.pop_next() {
        // Stamped before dispatch, so no arm can leave the span short.
        report.logical_secs = now.as_secs_f64();
        match event {
            ServeEv::SessionStart(user) => {
                let session_id = format!("user-{user}");
                match gateway.start_session(&session_id, specs[user], now) {
                    Ok(info) => {
                        users[user].kernel_id = info.kernel_id;
                        users[user].active = true;
                        report.sessions_started += 1;
                        report.peak_sessions = report.peak_sessions.max(gateway.session_count());
                    }
                    Err(_) => report.shortfalls += 1,
                }
            }
            ServeEv::SessionEnd(user) => {
                let state = &mut users[user];
                // A session that never started (shortfall) has nothing to end.
                if state.active {
                    if state.busy || !state.queued.is_empty() {
                        state.end_requested = true;
                    } else {
                        state.active = false;
                        gateway.end_session(&format!("user-{user}"));
                        report.sessions_ended += 1;
                    }
                }
            }
            ServeEv::Submit { user, duration } => {
                if !users[user].active {
                    report.dropped += 1;
                } else if users[user].busy {
                    // §2.3.2: a user's cells never overlap — queue behind
                    // the running one.
                    users[user].queued.push_back(duration);
                } else {
                    submit_cell(
                        user,
                        duration,
                        now,
                        &mut users,
                        &mut ids,
                        client,
                        gateway,
                        &mut in_flight,
                        &mut report,
                        sched,
                    );
                }
            }
            ServeEv::ExecDone { user, msg_id } => {
                gateway.finish_execution(&msg_id, now);
                let (replies, bad) = client.drain();
                report.dropped += bad as u64;
                for (_, reply) in replies {
                    let Some(parent) = reply.parent.as_ref() else {
                        continue;
                    };
                    let Some((owner, submitted)) = in_flight.remove(&parent.msg_id) else {
                        continue;
                    };
                    report.executions += 1;
                    report
                        .latency
                        .record(now.saturating_sub(submitted).as_millis_f64());
                    users[owner].busy = false;
                }
                // The user is free again: drain their queue, then honor a
                // deferred session end.
                if !users[user].busy {
                    if let Some(duration) = users[user].queued.pop_front() {
                        submit_cell(
                            user,
                            duration,
                            now,
                            &mut users,
                            &mut ids,
                            client,
                            gateway,
                            &mut in_flight,
                            &mut report,
                            sched,
                        );
                    } else if users[user].end_requested {
                        users[user].active = false;
                        gateway.end_session(&format!("user-{user}"));
                        report.sessions_ended += 1;
                    }
                }
            }
            ServeEv::ProgressTick => {
                report.gauge_samples += 1;
                report.min_viable_hosts = report
                    .min_viable_hosts
                    .min(gateway.viable_count(gauge_spec));
                report.peak_sessions = report.peak_sessions.max(gateway.session_count());
                if now + opts.tick <= opts.duration {
                    sched.schedule_in(opts.tick, ServeEv::ProgressTick);
                }
            }
        }
    }

    report.finish();
    report.gateway = gateway.stats();
    report.client_sent = client.sent();
    report.client_received = client.received();
    report
}

/// The one-GPU probe request the viable-host gauge samples.
fn gauge_probe_spec() -> KernelResourceSpec {
    KernelResourceSpec {
        millicpus: 4_000,
        memory_mb: 16_384,
        gpus: 1,
        vram_gb: 16,
    }
}

/// Sends one cell over the wire and schedules its completion deadline.
#[allow(clippy::too_many_arguments)]
fn submit_cell(
    user: usize,
    duration: SimTime,
    now: SimTime,
    users: &mut [UserState],
    ids: &mut MsgIdGen,
    client: &mut WireEndpoint,
    gateway: &mut LiveGateway,
    in_flight: &mut HashMap<String, (usize, SimTime)>,
    report: &mut ServeReport,
    sched: &mut dyn Scheduler<ServeEv>,
) {
    let msg_id = ids.next_id();
    let session_id = format!("user-{user}");
    let request = client_request(
        &msg_id,
        &session_id,
        &users[user].kernel_id,
        "model.fit()",
        duration,
        now,
    );
    client.send(&[], &request);
    in_flight.insert(msg_id.clone(), (user, now));
    users[user].busy = true;
    let accepted = gateway.pump(now);
    let mut ours = false;
    for execution in accepted {
        sched.schedule_in(
            execution.duration,
            ServeEv::ExecDone {
                user,
                msg_id: execution.msg_id.clone(),
            },
        );
        ours |= execution.msg_id == msg_id;
    }
    if !ours {
        in_flight.remove(&msg_id);
        users[user].busy = false;
        report.dropped += 1;
    }
}

/// FNV-1a over a user id's little-endian bytes — the numeric partition
/// key. Stable across processes and platforms, so a router in front of the
/// shards and the shards themselves always agree — and deterministic, so
/// the same trace partitions identically on every run. The integer id is
/// hashed directly instead of formatting `"kernel-user-{user}"` per event
/// (the string render + 16-plus-digit hash dominated partitioning cost in
/// >1M-event scale-out runs).
pub fn shard_key_of_user(user: usize) -> u64 {
    fnv1a(&(user as u64).to_le_bytes())
}

/// Maps a numeric user id onto one of `shards` shards (static partition).
pub fn shard_of_user(user: usize, shards: usize) -> usize {
    (shard_key_of_user(user) % shards as u64) as usize
}

/// One shard's coordination footprint in a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCoordination {
    /// Shard index.
    pub shard: usize,
    /// Users (sessions) partitioned onto this shard.
    pub sessions: usize,
    /// Wall time this shard spent blocked on the placement channel.
    pub placement_wait: Duration,
    /// Placement round trips awaited (launches + gauge queries).
    pub placement_calls: u64,
    /// Wall time of the shard thread, end to end.
    pub wall: Duration,
}

/// Where a sharded run's wall time went — the roofline-style
/// decomposition the scaling curve is read against: compute (per-shard
/// loops), coordination (placement channel + owner busy time), and the
/// sequential merge tail.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinationStats {
    /// Wall time of the parallel serving phase (spawn → last shard join).
    pub wall: Duration,
    /// Wall time of the sequential report merge.
    pub merge: Duration,
    /// Per-shard footprints, in shard order.
    pub shards: Vec<ShardCoordination>,
    /// The placement owner's side of the story.
    pub service: PlacementServiceStats,
}

impl CoordinationStats {
    /// Total wall time all shards spent blocked on the placement channel.
    pub fn placement_wait(&self) -> Duration {
        self.shards.iter().map(|s| s.placement_wait).sum()
    }

    /// Total placement round trips across shards.
    pub fn placement_calls(&self) -> u64 {
        self.shards.iter().map(|s| s.placement_calls).sum()
    }
}

/// A sharded run: the merged deterministic [`ServeReport`] plus the
/// per-shard reports and the coordination breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedServeReport {
    /// Gateway shards the run used.
    pub shards: usize,
    /// The merged report (counters summed, latency CDFs merged in shard
    /// order, percentiles recomputed over the union).
    pub report: ServeReport,
    /// Each shard's own report, in shard order.
    pub per_shard: Vec<ServeReport>,
    /// The wall-clock decomposition.
    pub coordination: CoordinationStats,
}

impl ShardedServeReport {
    /// Serializes the merged report plus the sharding decomposition.
    pub fn to_json(&self) -> Json {
        let per_shard: Vec<Json> = self
            .coordination
            .shards
            .iter()
            .map(|s| {
                Json::object()
                    .with("shard", s.shard as u64)
                    .with("sessions", s.sessions as u64)
                    .with("placement_wait_s", s.placement_wait.as_secs_f64())
                    .with("placement_calls", s.placement_calls)
                    .with("wall_s", s.wall.as_secs_f64())
            })
            .collect();
        self.report
            .to_json()
            .with("shards", self.shards as u64)
            .with(
                "coordination",
                Json::object()
                    .with("wall_s", self.coordination.wall.as_secs_f64())
                    .with("merge_s", self.coordination.merge.as_secs_f64())
                    .with(
                        "placement_wait_s",
                        self.coordination.placement_wait().as_secs_f64(),
                    )
                    .with("placement_calls", self.coordination.placement_calls())
                    .with(
                        "service_busy_s",
                        self.coordination.service.busy.as_secs_f64(),
                    )
                    .with("service_launches", self.coordination.service.launches)
                    .with("service_wakeups", self.coordination.service.wakeups)
                    .with(
                        "service_mean_drained_per_wakeup",
                        self.coordination.service.mean_drained_per_wakeup(),
                    )
                    .with("service_drained_per_wakeup", {
                        let hist: Vec<Json> = self
                            .coordination
                            .service
                            .drained_per_wakeup
                            .iter()
                            .enumerate()
                            .map(|(i, &wakeups)| {
                                Json::object()
                                    .with("batch", drain_bucket_label(i))
                                    .with("wakeups", wakeups)
                            })
                            .collect();
                        hist
                    })
                    .with("per_shard", per_shard),
            )
    }
}

/// Runs the serving loop across `shards` gateway shards, one OS thread
/// each.
///
/// Sessions are partitioned by [`shard_of_user`] over their user id; each
/// shard owns its own scheduler (built by `make_sched`, called *on* the
/// shard thread so non-`Send` schedulers work), [`LiveGateway`], wire
/// endpoints, and latency accumulator — no locks on the per-execution
/// hot path. The one shared resource is placement: every shard's gateway
/// provisions through a [`PlacementClient`] into the single
/// [`PlacementService`] owner thread, keeping the capacity-bucketed host
/// index single-writer. Per-shard reports merge at shutdown in shard
/// order via [`Cdf::merge`].
///
/// Determinism contract: because viability is capacity-based (a fleet
/// that can place R replicas does so regardless of load order) and each
/// user's submit/queue/complete dynamics involve only their own session,
/// the merged report's [`ServeReport::shard_invariant_view`] is identical
/// for every shard count — and with one shard it equals [`run_serve`]'s
/// report exactly.
///
/// [`PlacementClient`]: notebookos_core::placement_service::PlacementClient
pub fn run_serve_sharded(
    opts: &ServeOpts,
    shards: usize,
    make_sched: &(dyn Fn(usize) -> Box<dyn Scheduler<ServeEv>> + Sync),
) -> ShardedServeReport {
    assert!(shards > 0, "at least one shard");
    let compressed = compressed_trace(opts);
    let mut shard_events: Vec<Vec<(SimTime, ServeEv)>> = vec![Vec::new(); shards];
    let mut shard_users = vec![0usize; shards];
    // Stable partition: within a shard, events keep global trace order,
    // so a one-shard run schedules exactly what `run_serve` schedules.
    for (user, events) in compressed.events.into_iter().enumerate() {
        let shard = shard_of_user(user, shards);
        shard_users[shard] += 1;
        shard_events[shard].extend(events);
    }

    let service = PlacementService::spawn(
        opts.hosts,
        notebookos_cluster::ResourceBundle::p3_16xlarge(),
        opts.replication_factor,
    );
    let specs = &compressed.specs;
    let start = Instant::now();
    let results: Vec<(ServeReport, ShardCoordination)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_events
            .into_iter()
            .enumerate()
            .map(|(shard, events)| {
                let backend = service.client();
                let sessions = shard_users[shard];
                scope.spawn(move || {
                    let shard_start = Instant::now();
                    let (mut gateway, mut wire) =
                        LiveGateway::with_backend(Box::new(backend), opts.replication_factor);
                    let mut sched = make_sched(shard);
                    let report = run_loop(
                        opts,
                        specs,
                        events,
                        sessions,
                        &mut gateway,
                        &mut wire,
                        sched.as_mut(),
                    );
                    let (placement_wait, placement_calls) = gateway.coordination_wait();
                    (
                        report,
                        ShardCoordination {
                            shard,
                            sessions,
                            placement_wait,
                            placement_calls,
                            wall: shard_start.elapsed(),
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("shard thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    // All clients dropped with their gateways; the owner loop has exited.
    let service_stats = service.join();

    let merge_start = Instant::now();
    let (per_shard, coord): (Vec<ServeReport>, Vec<ShardCoordination>) =
        results.into_iter().unzip();
    let report = merge_reports(&per_shard);
    let merge = merge_start.elapsed();

    ShardedServeReport {
        shards,
        report,
        per_shard,
        coordination: CoordinationStats {
            wall,
            merge,
            shards: coord,
            service: service_stats,
        },
    }
}

/// Merges per-shard reports into one deterministic report: counters sum,
/// `min_viable_hosts` takes the min, `logical_secs` the max (the global
/// last event), and the latency distributions merge in shard order with
/// percentiles recomputed over the union — so the merged report depends
/// only on the partition contents, not on thread interleaving.
fn merge_reports(parts: &[ServeReport]) -> ServeReport {
    let mut report = ServeReport {
        users: parts.iter().map(|p| p.users).sum(),
        sessions_started: parts.iter().map(|p| p.sessions_started).sum(),
        sessions_ended: parts.iter().map(|p| p.sessions_ended).sum(),
        peak_sessions: parts.iter().map(|p| p.peak_sessions).sum(),
        executions: parts.iter().map(|p| p.executions).sum(),
        execs_per_sec: 0.0,
        latency_p50_ms: 0.0,
        latency_p99_ms: 0.0,
        latency_mean_ms: 0.0,
        shortfalls: parts.iter().map(|p| p.shortfalls).sum(),
        dropped: parts.iter().map(|p| p.dropped).sum(),
        logical_secs: parts.iter().map(|p| p.logical_secs).fold(0.0, f64::max),
        gateway: GatewayStats {
            accepted: parts.iter().map(|p| p.gateway.accepted).sum(),
            rejected: parts.iter().map(|p| p.gateway.rejected).sum(),
            replies: parts.iter().map(|p| p.gateway.replies).sum(),
            fan_out_copies: parts.iter().map(|p| p.gateway.fan_out_copies).sum(),
        },
        client_sent: parts.iter().map(|p| p.client_sent).sum(),
        client_received: parts.iter().map(|p| p.client_received).sum(),
        min_viable_hosts: parts.iter().map(|p| p.min_viable_hosts).min().unwrap_or(0),
        gauge_samples: parts.iter().map(|p| p.gauge_samples).sum(),
        latency: Cdf::merged("request-latency-ms", parts.iter().map(|p| &p.latency)),
    };
    report.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_des::DesScheduler;

    #[test]
    fn smoke_run_completes_executions_under_virtual_time() {
        let opts = ServeOpts::smoke();
        let mut sched = DesScheduler::new();
        let report = run_serve(&opts, &mut sched);
        assert!(report.executions > 0, "smoke run must execute cells");
        assert_eq!(report.sessions_started, opts.users as u64);
        assert_eq!(report.shortfalls, 0);
        assert_eq!(
            report.gateway.replies, report.executions,
            "one merged reply per completed execution"
        );
        assert_eq!(
            report.gateway.fan_out_copies,
            report.gateway.accepted * u64::from(opts.replication_factor)
        );
        assert_eq!(sched.pending(), 0, "clean shutdown drains the queue");
        assert!(report.latency_p99_ms >= report.latency_p50_ms);
        assert!(report.min_viable_hosts > 0, "fleet never exhausted");
    }

    #[test]
    fn identical_inputs_give_identical_reports() {
        let opts = ServeOpts::smoke();
        let a = run_serve(&opts, &mut DesScheduler::new());
        let b = run_serve(&opts, &mut DesScheduler::new());
        assert_eq!(a, b, "serving loop is deterministic under DES");
    }

    #[test]
    fn busy_sessions_queue_rather_than_overlap() {
        // Compress hard enough that submissions outpace the cell cap:
        // the queue must absorb them and every accepted execution still
        // completes.
        let mut opts = ServeOpts::new(3, SimTime::from_millis(800));
        opts.hosts = 6;
        opts.max_cell = SimTime::from_millis(200);
        let report = run_serve(&opts, &mut DesScheduler::new());
        assert_eq!(report.gateway.replies, report.executions);
        assert_eq!(report.gateway.accepted, report.executions);
        assert!(report.latency_p99_ms >= report.latency_p50_ms);
    }

    #[test]
    fn shortfall_fleets_are_reported_not_fatal() {
        let mut opts = ServeOpts::smoke();
        opts.hosts = 2; // R = 3 cannot place
        let report = run_serve(&opts, &mut DesScheduler::new());
        assert_eq!(report.sessions_started, 0);
        assert_eq!(report.shortfalls, opts.users as u64);
        assert_eq!(report.executions, 0);
        assert!(report.dropped > 0, "their submissions drop");
    }

    #[test]
    fn one_shard_equals_the_unsharded_loop_exactly() {
        let opts = ServeOpts::smoke();
        let unsharded = run_serve(&opts, &mut DesScheduler::new());
        let sharded = run_serve_sharded(&opts, 1, &|_| Box::new(DesScheduler::new()));
        assert_eq!(sharded.per_shard.len(), 1);
        assert_eq!(
            sharded.report, unsharded,
            "every field, including the latency multiset, matches"
        );
    }

    #[test]
    fn merged_report_is_invariant_under_shard_count() {
        let mut opts = ServeOpts::smoke();
        opts.users = 8; // enough sessions to spread across shards
        let baseline = run_serve_sharded(&opts, 1, &|_| Box::new(DesScheduler::new()))
            .report
            .shard_invariant_view();
        assert!(baseline.executions > 0);
        for shards in [2usize, 3, 5] {
            let run = run_serve_sharded(&opts, shards, &|_| Box::new(DesScheduler::new()));
            assert_eq!(run.per_shard.len(), shards);
            assert_eq!(
                run.report.shard_invariant_view(),
                baseline,
                "{shards} shards must serve the same latencies as one"
            );
        }
    }

    #[test]
    fn coordination_stats_account_for_every_placement_round_trip() {
        let opts = ServeOpts::smoke();
        let run = run_serve_sharded(&opts, 2, &|_| Box::new(DesScheduler::new()));
        let coord = &run.coordination;
        assert_eq!(coord.shards.len(), 2);
        assert_eq!(
            coord.service.launches,
            run.report.sessions_started + run.report.shortfalls,
            "every session start hit the placement owner exactly once"
        );
        assert_eq!(
            coord.placement_calls(),
            coord.service.launches + coord.service.gauge_queries,
            "client round trips are launches plus gauge queries"
        );
        assert!(coord.placement_wait() > Duration::ZERO);
        assert_eq!(
            coord.shards.iter().map(|s| s.sessions).sum::<usize>(),
            opts.users,
            "the session partition is an exact cover"
        );
    }

    #[test]
    fn manual_clock_shards_match_des_with_zero_wall_sleeps() {
        use notebookos_des::{ManualClock, RealTimeScheduler};
        let opts = ServeOpts::smoke(); // 3 s serving window
        let started = Instant::now();
        let real_time = run_serve_sharded(&opts, 3, &|_| {
            Box::new(RealTimeScheduler::with_clock(Box::new(ManualClock::new())))
        });
        let wall = started.elapsed();
        let des = run_serve_sharded(&opts, 3, &|_| Box::new(DesScheduler::new()));
        assert_eq!(
            real_time.report.shard_invariant_view(),
            des.report.shard_invariant_view(),
            "real-time shards on a manual clock replay the DES run"
        );
        assert!(
            wall < Duration::from_secs(3),
            "a manual clock must not wall-sleep the 3 s serving window (took {wall:?})"
        );
    }

    #[test]
    fn shard_of_is_a_total_stable_partition() {
        for shards in 1..=8usize {
            for user in 0..64 {
                let a = shard_of_user(user, shards);
                assert!(a < shards);
                assert_eq!(a, shard_of_user(user, shards), "stable");
            }
        }
        // The hash actually spreads: 64 users over 4 shards leave none
        // empty — and the counts are the partition the engine ran with.
        let mut counts = [0usize; 4];
        for user in 0..64 {
            counts[shard_of_user(user, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        let mut opts = ServeOpts::smoke();
        opts.users = 64;
        opts.hosts = 64;
        let run = run_serve_sharded(&opts, 4, &|_| Box::new(DesScheduler::new()));
        let ran: Vec<usize> = run.coordination.shards.iter().map(|s| s.sessions).collect();
        assert_eq!(ran, counts, "the engine partitions with `shard_of_user`");
    }

    #[test]
    fn refused_session_ends_still_advance_logical_time() {
        // Every session is refused (R = 3 on 2 hosts), so the run's last
        // event is a `SessionEnd` for a session that never started; the
        // 800 ms window keeps the final gauge tick (500 ms) from hiding it.
        let mut opts = ServeOpts::new(3, SimTime::from_millis(800));
        opts.hosts = 2;
        let last_deadline = compressed_trace(&opts)
            .events
            .iter()
            .flatten()
            .map(|&(deadline, _)| deadline)
            .max()
            .expect("trace has events");
        let report = run_serve(&opts, &mut DesScheduler::new());
        assert_eq!(report.shortfalls, 3);
        assert!(
            last_deadline > SimTime::from_millis(500),
            "past the last tick"
        );
        assert_eq!(report.logical_secs, last_deadline.as_secs_f64());
    }
}

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
//! complete within the run. The trace reaches the scheduler one arrival at
//! a time through the merge the platform simulation uses
//! ([`notebookos_trace::Arrivals`]), so the queue holds the in-flight
//! executions, one arrival and one gauge tick, whatever the trace's size.

use std::collections::{HashMap, VecDeque};

use notebookos_core::platform::REPLICATION_FACTOR;
use notebookos_core::serve::{client_request, GatewayStats, LiveGateway};
use notebookos_des::{Ranked, Scheduler, SimTime, DYNAMIC_RANK};
use notebookos_jupyter::{
    kernel_id_of, Json, KernelResourceSpec, MsgIdGen, ProvisionError, WireEndpoint,
};
use notebookos_metrics::Cdf;
use notebookos_trace::{generate, Arrival, Arrivals, SyntheticConfig, WorkloadTrace};

/// Gauge sampling interval.
const TICK: SimTime = SimTime::from_millis(500);

/// Events of the serving loop. Session lifecycles and submissions are the
/// trace's arrivals, fed one at a time; completions and gauge ticks are
/// scheduled as the run unfolds. A cell is `(user, cell)`: its running
/// time is read from the trace, never carried in the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEv {
    /// A user's session begins (kernel launch through the control plane).
    SessionStart(usize),
    /// A user's session ends (deferred while a cell is still running).
    SessionEnd(usize),
    /// A user submits a cell.
    Submit {
        /// The submitting user.
        user: usize,
        /// The cell's index within the user's session.
        cell: usize,
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

/// Arrivals rank by [`Arrival::rank`], ahead of every completion and tick
/// due at the same instant, and among themselves by `(user, k)`: the
/// order loading the whole trace before the first pop gave.
impl Ranked for ServeEv {
    fn rank(&self) -> u64 {
        match *self {
            ServeEv::SessionStart(user) => Arrival::Start(user).rank(),
            ServeEv::SessionEnd(user) => Arrival::End(user).rank(),
            ServeEv::Submit { user, cell } => Arrival::Cell(user, cell).rank(),
            ServeEv::ExecDone { .. } | ServeEv::ProgressTick => DYNAMIC_RANK,
        }
    }
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
    /// Trace-generation seed.
    pub seed: u64,
    /// Cap on a compressed cell's running time, so executions finish
    /// within the window.
    pub max_cell: SimTime,
}

impl ServeOpts {
    /// Defaults: 8 users over 10 s on 8 hosts, 250 ms cell cap.
    pub fn new(users: usize, duration: SimTime) -> Self {
        ServeOpts {
            users,
            duration,
            hosts: 8,
            seed: crate::EVAL_SEED,
            max_cell: SimTime::from_millis(250),
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
    /// Every end-to-end request latency, ms. The percentile fields above
    /// are derived from it; the `--out` artifact carries it whole
    /// (`latency_ms`), so two runs compare as latency *multisets*, not
    /// just as summaries.
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
            .with("latency_ms", cdf_json(&self.latency))
    }

    /// A zeroed report for `users` users — the accumulator [`run_serve`]
    /// starts from.
    fn empty(users: usize) -> ServeReport {
        ServeReport {
            users,
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

/// A histogram CDF as its exact parts, the form the sweep reports persist:
/// `{n, sum, min, max, zeros, pos, neg}`, each of `pos` and `neg` its
/// occupied buckets as `[index, count]` pairs.
fn cdf_json(cdf: &Cdf) -> Json {
    let (min, max) = cdf.range().unwrap_or((f64::NAN, f64::NAN));
    let buckets = |pairs: &mut dyn Iterator<Item = (u32, u64)>| {
        pairs
            .map(|(i, c)| Json::from(vec![Json::from(i), Json::from(c)]))
            .collect::<Vec<Json>>()
    };
    Json::object()
        .with("n", cdf.len() as u64)
        .with("sum", cdf.sum())
        .with("min", min)
        .with("max", max)
        .with("zeros", cdf.zeros())
        .with("pos", buckets(&mut cdf.positive_buckets()))
        .with("neg", buckets(&mut cdf.negative_buckets()))
}

/// Per-user client state. A user's session id is `user-{user}`, and its
/// kernel's id is derived from that ([`kernel_id_of`]) when a request is
/// built.
#[derive(Debug, Default)]
struct UserState {
    active: bool,
    busy: bool,
    /// Cells submitted while one ran, by index.
    queued: VecDeque<usize>,
    end_requested: bool,
}

/// The generated workload, the factor that compresses it onto the
/// serving window, and the cap on a compressed cell.
#[derive(Debug)]
struct ServeTrace {
    trace: WorkloadTrace,
    /// Serving seconds per trace second.
    factor: f64,
    /// [`ServeOpts::max_cell`].
    max_cell: SimTime,
}

impl ServeTrace {
    /// Generates the workload once: one AdobeTrace-shaped hour, compressed
    /// onto the serving window. Every user submits (gpu_active_fraction
    /// 1.0): a load generator that mostly idles would make smoke runs
    /// flaky.
    fn new(opts: &ServeOpts) -> Self {
        let config = SyntheticConfig {
            sessions: opts.users,
            span_s: 3_600.0,
            gpu_active_fraction: 1.0,
            long_lived_fraction: 0.9,
            ..SyntheticConfig::smoke()
        };
        let trace = generate(&config, opts.seed);
        let factor = opts.duration.as_secs_f64() / trace.span_s().max(1.0);
        ServeTrace {
            trace,
            factor,
            max_cell: opts.max_cell,
        }
    }

    /// The compressed running time of `user`'s cell `cell`, between 1 ms
    /// and the cap.
    fn duration(&self, user: usize, cell: usize) -> SimTime {
        let run = self.trace.sessions[user].events[cell].duration_s;
        SimTime::from_secs_f64(run * self.factor)
            .min(self.max_cell)
            .max(SimTime::from_millis(1))
    }

    /// The resource spec of `user`'s session.
    fn spec(&self, user: usize) -> KernelResourceSpec {
        let session = &self.trace.sessions[user];
        KernelResourceSpec {
            millicpus: session.millicpus as u32,
            memory_mb: session.memory_mb as u32,
            gpus: session.gpus,
            vram_gb: session.vram_gb,
        }
    }
}

/// Runs the serving loop to completion under the supplied scheduler.
///
/// The run ends when the event queue drains: all sessions have started,
/// every accepted execution has completed, and gauge ticks have stopped
/// (they are not scheduled past the serving window). Identical inputs
/// produce identical reports under any scheduler, because all timing
/// flows through `sched`. One thread and no locks: the loop owns its
/// gateway, wire, scheduler and latency accumulator outright.
pub fn run_serve(opts: &ServeOpts, sched: &mut dyn Scheduler<ServeEv>) -> ServeReport {
    let trace = ServeTrace::new(opts);
    let mut arrivals = Arrivals::new(&trace.trace, trace.factor);
    let mut feed = |sched: &mut dyn Scheduler<ServeEv>| {
        let Some((at, arrival)) = arrivals.next(&trace.trace) else {
            return;
        };
        let event = match arrival {
            Arrival::Start(user) => ServeEv::SessionStart(user),
            Arrival::End(user) => ServeEv::SessionEnd(user),
            Arrival::Cell(user, cell) => ServeEv::Submit { user, cell },
        };
        sched.schedule(at, event);
    };
    feed(sched);
    serve_loop(opts, &trace, sched, feed)
}

/// The serving loop over `trace`, whose arrivals `sched` holds or `feed`
/// schedules: `feed` runs each time an arrival pops.
fn serve_loop(
    opts: &ServeOpts,
    trace: &ServeTrace,
    sched: &mut dyn Scheduler<ServeEv>,
    mut feed: impl FnMut(&mut dyn Scheduler<ServeEv>),
) -> ServeReport {
    let (mut gateway, mut client) = LiveGateway::new(
        opts.hosts,
        notebookos_cluster::ResourceBundle::p3_16xlarge(),
        REPLICATION_FACTOR,
    );
    let mut users: Vec<UserState> = (0..opts.users).map(|_| UserState::default()).collect();
    let mut ids = MsgIdGen::new("cell");
    let mut in_flight: HashMap<String, (usize, SimTime)> = HashMap::new();

    let mut report = ServeReport::empty(opts.users);
    let gauge_spec = gauge_probe_spec();

    sched.schedule(SimTime::ZERO, ServeEv::ProgressTick);
    while let Some((now, event)) = sched.pop_next() {
        // Stamped before dispatch, so no arm can leave the span short.
        report.logical_secs = now.as_secs_f64();
        // An arrival pops: the trace's next one is due no earlier.
        if event.rank() != DYNAMIC_RANK {
            feed(sched);
        }
        match event {
            ServeEv::SessionStart(user) => {
                let session_id = format!("user-{user}");
                match gateway.start_session(&session_id, trace.spec(user), now) {
                    Ok(_) => {
                        users[user].active = true;
                        report.sessions_started += 1;
                        report.peak_sessions = report.peak_sessions.max(gateway.session_count());
                    }
                    Err(ProvisionError::InsufficientResources(_)) => report.shortfalls += 1,
                    // The trace starts each user's session once, under a
                    // session id no other user has.
                    Err(e) => panic!("user {user}'s one session start failed: {e}"),
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
            ServeEv::Submit { user, cell } => {
                if !users[user].active {
                    report.dropped += 1;
                } else if users[user].busy {
                    // §2.3.2: a user's cells never overlap — queue behind
                    // the running one.
                    users[user].queued.push_back(cell);
                } else {
                    submit_cell(
                        user,
                        trace.duration(user, cell),
                        now,
                        &mut users,
                        &mut ids,
                        &mut client,
                        &mut gateway,
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
                    if let Some(cell) = users[user].queued.pop_front() {
                        submit_cell(
                            user,
                            trace.duration(user, cell),
                            now,
                            &mut users,
                            &mut ids,
                            &mut client,
                            &mut gateway,
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
                if now + TICK <= opts.duration {
                    sched.schedule_in(TICK, ServeEv::ProgressTick);
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
        &kernel_id_of(&session_id),
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
            report.gateway.accepted * u64::from(REPLICATION_FACTOR)
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
    fn refused_session_ends_still_advance_logical_time() {
        // Every session is refused (R = 3 on 2 hosts), so the run's last
        // event is a `SessionEnd` for a session that never started; the
        // 800 ms window keeps the final gauge tick (500 ms) from hiding it.
        let mut opts = ServeOpts::new(3, SimTime::from_millis(800));
        opts.hosts = 2;
        let trace = ServeTrace::new(&opts);
        let mut arrivals = Arrivals::new(&trace.trace, trace.factor);
        let last_deadline = std::iter::from_fn(|| arrivals.next(&trace.trace))
            .map(|(at, _)| at)
            .last()
            .expect("trace has events");
        let report = run_serve(&opts, &mut DesScheduler::new());
        assert_eq!(report.shortfalls, 3);
        assert!(
            last_deadline > SimTime::from_millis(500),
            "past the last tick"
        );
        assert_eq!(report.logical_secs, last_deadline.as_secs_f64());
    }

    /// The trace loaded whole before the first pop, user by user — start,
    /// end, then each cell — and then the first gauge tick, as the replay
    /// loaded it before it fed arrivals one at a time: the reference the
    /// lazy feed is held to.
    fn run_serve_bulk(opts: &ServeOpts, sched: &mut dyn Scheduler<ServeEv>) -> ServeReport {
        let trace = ServeTrace::new(opts);
        let factor = trace.factor;
        for (user, session) in trace.trace.sessions.iter().enumerate() {
            let start = SimTime::from_secs_f64(session.start_s * factor);
            let end = SimTime::from_secs_f64(session.end_s * factor).max(start);
            sched.schedule(start, ServeEv::SessionStart(user));
            sched.schedule(end, ServeEv::SessionEnd(user));
            for (cell, event) in session.events.iter().enumerate() {
                let submit = SimTime::from_secs_f64(event.submit_s * factor);
                sched.schedule(submit, ServeEv::Submit { user, cell });
            }
        }
        serve_loop(opts, &trace, sched, |_| {})
    }

    /// A [`DesScheduler`] that, after every pop, demands the queue hold no
    /// more than the executions in flight, one arrival and one tick.
    struct Bounded {
        inner: DesScheduler<ServeEv>,
        /// `ExecDone` events scheduled and not yet popped.
        in_flight: usize,
    }

    impl Scheduler<ServeEv> for Bounded {
        fn now(&self) -> SimTime {
            self.inner.now()
        }

        fn schedule(&mut self, at: SimTime, event: ServeEv) {
            self.in_flight += usize::from(matches!(event, ServeEv::ExecDone { .. }));
            self.inner.schedule(at, event);
        }

        fn schedule_in(&mut self, delay: SimTime, event: ServeEv) {
            self.in_flight += usize::from(matches!(event, ServeEv::ExecDone { .. }));
            self.inner.schedule_in(delay, event);
        }

        fn pop_next(&mut self) -> Option<(SimTime, ServeEv)> {
            let popped = self.inner.pop_next();
            if let Some((_, ServeEv::ExecDone { .. })) = popped {
                self.in_flight -= 1;
            }
            let pending = self.inner.pending();
            assert!(
                pending <= self.in_flight + 2,
                "{pending} pending with {} executions in flight",
                self.in_flight
            );
            popped
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

    /// Over 8 to 512 users, two a host, and three seeds, the lazy feed
    /// reports what the bulk load reported, and its queue never holds
    /// more than the executions in flight, one arrival and one tick.
    #[test]
    fn the_lazy_feed_reports_what_the_bulk_load_reported() {
        for users in [8, 64, 512] {
            for seed in 1..=3 {
                let mut opts = ServeOpts::new(users, SimTime::from_secs(10));
                opts.hosts = (users / 2).max(8);
                opts.seed = seed;
                let mut bounded = Bounded {
                    inner: DesScheduler::new(),
                    in_flight: 0,
                };
                let lazy = run_serve(&opts, &mut bounded);
                let bulk = run_serve_bulk(&opts, &mut DesScheduler::new());
                assert!(lazy.executions > 0, "{users} users, seed {seed}");
                assert_eq!(lazy, bulk, "{users} users, seed {seed}");
                assert_eq!(bounded.in_flight, 0);
            }
        }
    }
}

//! `serve-small` and `serve-large`: one client in a closed loop against a
//! `LiveGateway`, one execute round trip at a time. The gateway has no
//! queue or thread of its own, so an open loop would only time the
//! generator's queue.

use std::time::Instant;

use notebookos_core::{client_request, LiveGateway};
use notebookos_des::SimTime;
use notebookos_jupyter::WireEndpoint;

use crate::harness::{
    chunk_walls, measure, set_end_to_end, write_trace, Off, Opts, PassReport, Passes, Probe,
};
use crate::inputs::{self, size, ServeKind};
use crate::probes;
use crate::report::Outcome;
use crate::span::{Op, Tracer};
use crate::stats::{median, supports};

/// A gateway with its sessions started, and the client's end of the wire.
pub struct Fixture {
    gateway: LiveGateway,
    client: WireEndpoint,
    session_ids: Vec<String>,
    kernel_ids: Vec<String>,
}

/// Builds the gateway and starts the sessions; refused starts are returned
/// as a count (none are expected: 64 × 8 GPUs hold 512 one-GPU kernels).
pub fn setup(sessions: usize, probe: &mut impl Probe) -> (Fixture, u64) {
    let (mut gateway, client) = LiveGateway::new(size::SERVE_HOSTS, inputs::host_shape(), 3);
    let session_ids: Vec<String> = (0..sessions).map(|s| format!("s{s}")).collect();
    let kernel_ids = session_ids.iter().map(|s| format!("kernel-{s}")).collect();
    let mut refused = 0;
    for id in &session_ids {
        probe.enter(Op::ServeStartSession);
        let started = gateway.start_session(id, inputs::serve_spec(), SimTime::ZERO);
        probe.exit();
        refused += u64::from(started.is_err());
    }
    (
        Fixture {
            gateway,
            client,
            session_ids,
            kernel_ids,
        },
        refused,
    )
}

/// Ends every session (the traced run's `end_session` samples); returns
/// how many the gateway did not know.
fn tear_down(fixture: &mut Fixture, probe: &mut impl Probe) -> u64 {
    let mut unknown = 0;
    for id in &fixture.session_ids {
        probe.enter(Op::ServeEndSession);
        let ended = fixture.gateway.end_session(id);
        probe.exit();
        unknown += u64::from(!ended);
    }
    unknown
}

/// Everything the conservation check needs from one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Round trips the client attempted.
    pub sent: u64,
    /// Requests the gateway accepted.
    pub accepted: u64,
    /// Traffic the gateway rejected.
    pub rejected: u64,
    /// Merged replies the gateway sent.
    pub replies: u64,
    /// Replica copies fanned out.
    pub fan_out_copies: u64,
    /// Replies the client received and verified.
    pub client_received: u64,
    /// Replies that were `ok` and named the request just sent as parent.
    pub matched: u64,
    /// Executions still pending in the gateway afterwards.
    pub in_flight: u64,
}

/// The serve output check: requests, acceptances, replies and receipts
/// all conserve, every request fanned out to three replicas, and every
/// reply answered the request that was sent.
pub fn check_conservation(c: &Counters) -> Vec<String> {
    let mut violations = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            violations.push(format!("{what}: {got}, expected {want}"));
        }
    };
    expect("accepted", c.accepted, c.sent);
    expect("rejected", c.rejected, 0);
    expect("replies", c.replies, c.accepted);
    expect("client received", c.client_received, c.replies);
    expect("replies matching their request", c.matched, c.sent);
    expect("fan-out copies", c.fan_out_copies, 3 * c.accepted);
    expect("in flight", c.in_flight, 0);
    violations
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct PassStats {
    /// Wall seconds of each chunk of `chunk` round trips.
    pub chunk_walls: Vec<f64>,
    /// Latency of each round trip, in order, ns.
    pub latencies_ns: Vec<u32>,
    /// The pass's counters, for the conservation check.
    pub counters: Counters,
}

/// One pass: `trips` round trips over the sessions in `order`, each timed
/// with one `Instant` pair, stamped every `chunk` trips.
pub fn pass(
    fixture: &mut Fixture,
    cell: &str,
    order: &[u32],
    (trips, chunk): (usize, usize),
    probe: &mut impl Probe,
) -> PassStats {
    let mut latencies_ns = Vec::with_capacity(trips);
    let mut stamps = Vec::with_capacity(trips / chunk + 2);
    let mut matched = 0;
    let mut now = SimTime::ZERO;
    let step = SimTime::from_micros(size::SERVE_STEP_US);
    for trip in 0..trips {
        let s = order[trip % order.len()] as usize;
        let t = Instant::now();
        if trip % chunk == 0 {
            stamps.push(t);
        }
        probe.enter(Op::ServeRoundTrip);
        probe.enter(Op::ServeRequestBuild);
        let msg_id = format!("m{trip}");
        let request = client_request(
            msg_id.as_str(),
            &fixture.session_ids[s],
            &fixture.kernel_ids[s],
            cell,
            step,
            now,
        );
        probe.exit();
        probe.enter(Op::ServeClientSend);
        fixture.client.send(&[], &request);
        probe.exit();
        probe.enter(Op::ServePump);
        let accepted = fixture.gateway.pump(now);
        probe.exit();
        now += step;
        probe.enter(Op::ServeFinish);
        for execution in &accepted {
            fixture.gateway.finish_execution(&execution.msg_id, now);
        }
        probe.exit();
        probe.enter(Op::ServeClientDrain);
        let (replies, _) = fixture.client.drain();
        probe.exit();
        probe.exit();
        latencies_ns.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        matched += u64::from(
            replies.len() == 1
                && replies[0].1.is_ok_reply()
                && replies[0]
                    .1
                    .parent
                    .as_ref()
                    .is_some_and(|p| p.msg_id == msg_id),
        );
    }
    stamps.push(Instant::now());
    let stats = fixture.gateway.stats();
    PassStats {
        chunk_walls: chunk_walls(&stamps),
        latencies_ns,
        counters: Counters {
            sent: trips as u64,
            accepted: stats.accepted,
            rejected: stats.rejected,
            replies: stats.replies,
            fan_out_copies: stats.fan_out_copies,
            client_received: fixture.client.received(),
            matched,
            in_flight: fixture.gateway.in_flight() as u64,
        },
    }
}

/// Round trips per pass and per chunk (a chunk is about 2 ms; its stamp is
/// the one every round trip takes anyway).
fn trips_per_pass(kind: ServeKind, smoke: bool) -> (usize, usize) {
    let (full, chunk) = match kind {
        ServeKind::Small => (size::SERVE_SMALL_TRIPS, 100),
        ServeKind::Large => (size::SERVE_LARGE_TRIPS, 20),
    };
    (inputs::scaled(full, smoke, 100), chunk)
}

/// The inputs of a run, made from the seed.
struct Load {
    cell: String,
    order: Vec<u32>,
    /// Round trips per pass and per chunk.
    trips: (usize, usize),
}

/// One phase of a run: set-up → pass for `budget_s`, and, when `probe`
/// traces, a tear-down that gives the `end_session` samples. The unmatched
/// round trips of a pass are its failures; broken conservation, a refused
/// start or an unknown end are violations. Returns the passes and the
/// `(fan-out copies, accepted requests)` they summed to.
fn passes(
    load: &Load,
    budget_s: f64,
    warm_up: bool,
    probe: &mut impl Probe,
    outcome: &mut Outcome,
) -> (Passes, (u64, u64)) {
    let mut fan_out = (0, 0);
    let passes = measure(
        probe,
        budget_s,
        warm_up,
        outcome,
        |probe| match setup(load.order.len(), probe) {
            (fixture, 0) => Ok(fixture),
            (_, refused) => Err(format!("{refused} session starts refused")),
        },
        |mut fixture, probe| {
            let stats = pass(&mut fixture, &load.cell, &load.order, load.trips, probe);
            let c = stats.counters;
            fan_out = (fan_out.0 + c.fan_out_copies, fan_out.1 + c.accepted);
            let mut violations = check_conservation(&c);
            if probe.tracer().is_some() {
                let unknown = tear_down(&mut fixture, probe);
                if unknown > 0 {
                    violations.push(format!("{unknown} session ends unknown to the gateway"));
                }
            }
            PassReport {
                ops: c.sent,
                failed: c.sent - c.matched.min(c.sent),
                violations,
                chunk_walls: stats.chunk_walls,
                latencies_ns: stats.latencies_ns,
                setup_left_out_s: 0.0,
            }
        },
    );
    (passes, fan_out)
}

/// Runs the workload: end to end (untraced), or layer by layer (traced).
pub fn run(kind: ServeKind, name: &'static str, traced: bool, opts: &Opts) -> Outcome {
    let sessions = inputs::scaled(size::SERVE_SESSIONS, opts.smoke, 8);
    let load = Load {
        cell: inputs::serve_cell(kind, opts.seed),
        order: inputs::serve_session_order(sessions, opts.seed),
        trips: trips_per_pass(kind, opts.smoke),
    };
    if traced {
        return run_traced(&load, name, opts);
    }
    let mut outcome = Outcome::new(name, false);
    let (p, _) = passes(&load, opts.seconds, !opts.smoke, &mut Off, &mut outcome);
    set_end_to_end(&mut outcome, load.trips.0 as u64, &p);
    outcome.notes.push(format!(
        "op = one execute round trip, {}-byte cell, 1 client closed loop, {sessions} sessions; {} trips per pass",
        load.cell.len(),
        load.trips.0
    ));
    outcome
}

/// The per-layer run: untraced reference passes, traced passes on the same
/// inputs, then the batched probes of the layers under the gateway.
fn run_traced(load: &Load, name: &'static str, opts: &Opts) -> Outcome {
    let mut outcome = Outcome::new(name, true);
    probes::machine(&mut outcome);
    let trips = load.trips.0;
    let third = opts.seconds / 3.0;
    let (untraced, _) = passes(load, third, !opts.smoke, &mut Off, &mut outcome);
    if !supports(trips, 99.0) {
        outcome.notes.push(format!(
            "serve.exec_p99_ns: {trips} samples per pass leave fewer than ten beyond p99"
        ));
    }
    outcome.set(
        "serve.exec_p99_ns",
        median(&untraced.p99_ns),
        (untraced.p99_ns.len() * trips) as u64,
    );

    let mut tracer = Tracer::new();
    let (traced, fan_out) = passes(load, third, false, &mut tracer, &mut outcome);
    outcome.set(
        "trace_overhead_share",
        traced.best_wall() / untraced.best_wall() - 1.0,
        traced.chunks.len() as u64,
    );
    for (metric, op) in [
        ("core.serve.request_build_ns", Op::ServeRequestBuild),
        ("core.serve.client_send_ns", Op::ServeClientSend),
        ("core.serve.pump_ns", Op::ServePump),
        ("core.serve.finish_ns", Op::ServeFinish),
        ("core.serve.client_drain_ns", Op::ServeClientDrain),
        ("core.serve.start_session_ns", Op::ServeStartSession),
        ("core.serve.end_session_ns", Op::ServeEndSession),
    ] {
        let calls = tracer.calls(op);
        outcome.set(metric, tracer.median_self_ns(op), calls);
    }
    let round_trip = tracer.agg(Op::ServeRoundTrip);
    outcome.set(
        "core.serve.attributed_share",
        (round_trip.total_ns - round_trip.self_ns) as f64 / round_trip.total_ns.max(1) as f64,
        round_trip.calls,
    );
    outcome.set(
        "core.serve.fan_out_per_exec",
        fan_out.0 as f64 / fan_out.1.max(1) as f64,
        fan_out.1,
    );

    probes::serve_layers(&load.cell, opts.smoke, &mut outcome);

    write_trace(&tracer, opts, &mut outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pass(probe: &mut impl Probe) -> (Vec<u32>, Counters) {
        let (mut fixture, refused) = setup(8, probe);
        assert_eq!(refused, 0);
        let order = inputs::serve_session_order(8, 1);
        let cell = inputs::serve_cell(ServeKind::Large, 1);
        let stats = pass(&mut fixture, &cell, &order, (50, 20), probe);
        assert_eq!(stats.chunk_walls.len(), 3, "chunks of 20, 20 and 10 trips");
        assert!(stats.latencies_ns.iter().all(|&ns| ns > 0));
        (stats.latencies_ns, stats.counters)
    }

    #[test]
    fn a_clean_pass_conserves_every_counter() {
        let (latencies, counters) = small_pass(&mut Off);
        assert_eq!(latencies.len(), 50);
        assert_eq!(counters.sent, 50);
        assert_eq!(check_conservation(&counters), Vec::<String>::new());
    }

    #[test]
    fn a_dropped_reply_is_a_violation() {
        let (_, mut counters) = small_pass(&mut Off);
        counters.client_received -= 1;
        counters.matched -= 1;
        let violations = check_conservation(&counters);
        assert!(violations
            .iter()
            .any(|v| v.starts_with("client received: 49")));
        assert!(violations.iter().any(|v| v.starts_with("replies matching")));
    }

    #[test]
    fn a_lost_fan_out_copy_or_a_stuck_execution_is_a_violation() {
        let (_, clean) = small_pass(&mut Off);
        let short = Counters {
            fan_out_copies: clean.fan_out_copies - 1,
            ..clean
        };
        assert_eq!(check_conservation(&short).len(), 1);
        let stuck = Counters {
            in_flight: 1,
            ..clean
        };
        assert_eq!(check_conservation(&stuck).len(), 1);
    }

    #[test]
    fn traced_pass_nests_five_calls_under_each_round_trip() {
        let mut tracer = Tracer::new();
        let (_, counters) = small_pass(&mut tracer);
        assert!(check_conservation(&counters).is_empty());
        assert_eq!(tracer.calls(Op::ServeRoundTrip), 50);
        assert_eq!(tracer.calls(Op::ServeStartSession), 8);
        for op in [
            Op::ServeRequestBuild,
            Op::ServeClientSend,
            Op::ServePump,
            Op::ServeFinish,
            Op::ServeClientDrain,
        ] {
            assert_eq!(tracer.calls(op), 50);
        }
        let root = tracer.agg(Op::ServeRoundTrip);
        assert!(root.self_ns < root.total_ns);
    }
}

//! Live gateway round trip on the wall clock: start a session, send
//! signed Jupyter `execute_request`s over the wire, and watch the
//! replicated replies come back — the minimal version of what the
//! `serve` bin's load generator does at scale.
//!
//! ```text
//! cargo run --release --example live_gateway
//! ```
//!
//! The driver owns a [`RealTimeScheduler`], so the three cells below
//! dispatch at their actual wall-clock deadlines (the whole run takes
//! ~60 ms). Swap in a `DesScheduler` and the identical loop finishes
//! instantly in virtual time — that seam is the point of the
//! `Scheduler` trait.

use notebookos::cluster::ResourceBundle;
use notebookos::core::{client_request, LiveGateway};
use notebookos::des::{Ranked, RealTimeScheduler, Scheduler, SimTime};
use notebookos::jupyter::KernelResourceSpec;

/// Driver events: a user submits cell `i`, or execution `msg_id` hits
/// its completion deadline.
#[derive(PartialEq, Eq)]
enum Ev {
    Submit(u32),
    Done(String),
}

/// Events due at one instant fire in schedule order.
impl Ranked for Ev {}

fn main() {
    let (mut gateway, mut client) = LiveGateway::new(4, ResourceBundle::p3_16xlarge(), 3);
    let spec = KernelResourceSpec {
        millicpus: 4_000,
        memory_mb: 16_384,
        gpus: 1,
        vram_gb: 16,
    };

    let info = gateway
        .start_session("alice", spec, SimTime::ZERO)
        .expect("4 idle hosts can place a 3-replica kernel");
    println!(
        "session alice: kernel {} on replicas {:?} ({} hosts still viable)",
        info.kernel_id,
        info.endpoints,
        gateway.viable_count(spec)
    );

    // Three cells, submitted 5 ms apart, each "running" for 10 ms.
    let mut sched: RealTimeScheduler<Ev> = RealTimeScheduler::new();
    for i in 0..3u32 {
        sched.schedule(SimTime::from_millis(5 * u64::from(i)), Ev::Submit(i));
    }

    while let Some((now, event)) = sched.pop_next() {
        match event {
            Ev::Submit(i) => {
                let request = client_request(
                    format!("cell-{i}"),
                    "alice",
                    &info.kernel_id,
                    format!("model.fit(step={i})"),
                    SimTime::from_millis(10),
                    now,
                );
                client.send(&[], &request);
                for accepted in gateway.pump(now) {
                    println!(
                        "{:>6.1} ms  accepted {} -> {} replicas",
                        now.as_millis_f64(),
                        accepted.msg_id,
                        accepted.fan_out
                    );
                    sched.schedule_in(accepted.duration, Ev::Done(accepted.msg_id));
                }
            }
            Ev::Done(msg_id) => {
                gateway.finish_execution(&msg_id, now);
                let (_, reply) = client
                    .try_recv()
                    .expect("merged reply pending")
                    .expect("gateway signature verifies");
                println!(
                    "{:>6.1} ms  merged reply for {} (ok: {})",
                    now.as_millis_f64(),
                    reply.parent.as_ref().expect("reply has parent").msg_id,
                    reply.is_ok_reply()
                );
            }
        }
    }

    gateway.end_session("alice");
    let stats = gateway.stats();
    println!(
        "done: {} accepted, {} replies, {} fan-out copies, max lateness {:.2} ms",
        stats.accepted,
        stats.replies,
        stats.fan_out_copies,
        sched.max_lateness().as_millis_f64()
    );
}

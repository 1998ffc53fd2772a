//! Heap allocations per served round trip through `LiveGateway`, counted.
//!
//! A round trip is what the `serve-small` ledger workload times, in five
//! steps the test counts apart: build an `execute_request` (its message id
//! included), send it, pump the gateway (read, route, fan out), finish the
//! execution (the merged reply, encoded and sent), and drain the client
//! (decode). On the fixture below — 64 hosts, R = 3, 512 sessions, an
//! 11-byte cell — a round trip made 128.06 allocations while the gateway
//! built all R replies and `wire::encode` allocated each frame twice
//! (finish 59.03, send 14.03). Building only the executor's reply and
//! encoding into one buffer brought it to 76.06. Reading each request in
//! place, borrowing the headers' username and version from the protocol's
//! constants, moving the request's header into the reply and bounding the
//! transport brought it to 46; sizing each reply id up front
//! (`MsgIdGen::next_id`) to 45. Giving each session one slot and keying a
//! request in flight once brought it to 43: the pump owns the request's
//! message id twice (the caller's handle and the in-flight key) and grows
//! the accepted list, where it also owned the id as the router's key and as
//! the gateway's, and the header's session; the reply's parent header takes
//! the session from the slot when the reply is built, one allocation more
//! in finish. Step by step:
//!
//! | step   | read in place | one slot a session |
//! |--------|--------------:|-------------------:|
//! | build  |  14           |  14                |
//! | send   |   3           |   3                |
//! | pump   |   6           |   3                |
//! | finish |  11           |  12                |
//! | drain  |  11           |  11                |
//! | total  |  45           |  43                |
//!
//! Before the read in place, a trip made 76.06 (build 16, send 3.03, pump
//! 22, finish 18.03, drain 17); the .03s were the unbounded channel's block allocation, one per 31
//! messages each way; the bounded queue allocates only when it first grows.
//! The budgets hold the total and the pump, rounded up; what is left is
//! mostly the client's owned request and reply (`wire`'s module docs).
//!
//! This binary holds one test: the counting allocator sees every thread of
//! the process, and no other test may allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use notebookos_cluster::ResourceBundle;
use notebookos_core::{client_request, LiveGateway};
use notebookos_des::SimTime;
use notebookos_jupyter::KernelResourceSpec;

/// The system allocator, counting each call that hands out memory:
/// `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller's contract is passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const HOSTS: usize = 64;
const REPLICAS: u32 = 3;
const SESSIONS: usize = 512;
const CELL: &str = "model.fit()";
const WARM_UP_TRIPS: usize = 2_000;
const COUNTED_TRIPS: usize = 1_000;
/// Allocations a round trip may make (module docs).
const BUDGET_PER_TRIP: f64 = 43.0;
/// Allocations the gateway's pump may make per request (module docs).
const PUMP_BUDGET: f64 = 3.0;

/// The five steps of a round trip, in order, as the ledger's spans name them.
const PHASES: [&str; 5] = ["build", "send", "pump", "finish", "drain"];

struct Fixture {
    gateway: LiveGateway,
    client: notebookos_jupyter::WireEndpoint,
    sessions: Vec<(String, String)>,
    now: SimTime,
    trips: usize,
    /// Allocations made in each of [`PHASES`], summed over the trips made.
    counts: [u64; 5],
}

impl Fixture {
    fn new() -> Fixture {
        let (mut gateway, client) =
            LiveGateway::new(HOSTS, ResourceBundle::p3_16xlarge(), REPLICAS);
        let spec = KernelResourceSpec {
            millicpus: 4000,
            memory_mb: 16_384,
            gpus: 1,
            vram_gb: 16,
        };
        let sessions: Vec<(String, String)> = (0..SESSIONS)
            .map(|s| (format!("s{s}"), format!("kernel-s{s}")))
            .collect();
        for (session, _) in &sessions {
            gateway
                .start_session(session, spec, SimTime::ZERO)
                .expect("64 hosts of 8 GPUs hold 512 one-GPU kernels");
        }
        Fixture {
            gateway,
            client,
            sessions,
            now: SimTime::ZERO,
            trips: 0,
            counts: [0; 5],
        }
    }

    /// One round trip, as the ledger's `serve-small` pass makes it, on the
    /// sessions in a fixed stride order, counting each step's allocations.
    /// Returns whether the one merged reply came back `ok`.
    fn round_trip(&mut self) -> bool {
        let mut mark = CALLS.load(Ordering::Relaxed);
        let mut step_done = |counts: &mut [u64; 5], phase: usize| {
            let now = CALLS.load(Ordering::Relaxed);
            counts[phase] += now - mark;
            mark = now;
        };
        let (session, kernel) = &self.sessions[self.trips * 37 % SESSIONS];
        let msg_id = format!("m{}", self.trips);
        self.trips += 1;
        let step = SimTime::from_micros(10);
        let request = client_request(msg_id.as_str(), session, kernel, CELL, step, self.now);
        step_done(&mut self.counts, 0);
        self.client.send(&[], &request);
        step_done(&mut self.counts, 1);
        let accepted = self.gateway.pump(self.now);
        step_done(&mut self.counts, 2);
        self.now += step;
        for execution in &accepted {
            self.gateway.finish_execution(&execution.msg_id, self.now);
        }
        drop(accepted);
        step_done(&mut self.counts, 3);
        let (replies, _) = self.client.drain();
        let ok = replies.len() == 1 && replies[0].1.is_ok_reply();
        drop(replies);
        step_done(&mut self.counts, 4);
        ok
    }
}

#[test]
fn a_served_round_trip_stays_within_its_allocation_budget() {
    let mut fixture = Fixture::new();
    for _ in 0..WARM_UP_TRIPS {
        assert!(fixture.round_trip());
    }
    fixture.counts = [0; 5];
    let mut ok = 0;
    for _ in 0..COUNTED_TRIPS {
        ok += usize::from(fixture.round_trip());
    }
    assert_eq!(ok, COUNTED_TRIPS);
    assert_eq!(fixture.gateway.stats().replies, fixture.trips as u64);
    let per_trip = fixture
        .counts
        .map(|count| count as f64 / COUNTED_TRIPS as f64);
    for (phase, count) in PHASES.iter().zip(per_trip) {
        println!("{phase:>6}: {count:.2} allocations per round trip");
    }
    let total: f64 = per_trip.iter().sum();
    println!(" total: {total:.2} allocations per round trip");
    assert!(
        per_trip[2] <= PUMP_BUDGET,
        "the pump makes {:.2} allocations a request, budget {PUMP_BUDGET}",
        per_trip[2]
    );
    assert!(
        total <= BUDGET_PER_TRIP,
        "{total:.2} allocations per round trip, budget {BUDGET_PER_TRIP}"
    );
}

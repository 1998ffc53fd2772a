//! Heap allocations per served round trip through `LiveGateway`, counted.
//!
//! A round trip is what the `serve-small` ledger workload times: build an
//! `execute_request`, send it, pump the gateway (decode, route, fan out),
//! finish the execution (the merged reply, encoded and sent), and drain the
//! client (decode). On the fixture below — 64 hosts, R = 3, 512 sessions,
//! an 11-byte cell — a round trip made 128.06 allocations while the gateway
//! built all R replies and `wire::encode` allocated each frame twice
//! (finish 59.03, send 14.03). Building only the executor's reply and
//! encoding into one buffer brought it to 76.06 (finish 18.03, send 3.03);
//! the .06 is the channel's block allocation, one per 31 messages each way.
//! The budget holds that count, rounded up.
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
const BUDGET_PER_TRIP: f64 = 77.0;

struct Fixture {
    gateway: LiveGateway,
    client: notebookos_jupyter::WireEndpoint,
    sessions: Vec<(String, String)>,
    now: SimTime,
    trips: usize,
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
        }
    }

    /// One round trip, as the ledger's `serve-small` pass makes it, on the
    /// sessions in a fixed stride order. Returns whether the one merged
    /// reply came back `ok`.
    fn round_trip(&mut self) -> bool {
        let (session, kernel) = &self.sessions[self.trips * 37 % SESSIONS];
        let msg_id = format!("m{}", self.trips);
        self.trips += 1;
        let step = SimTime::from_micros(10);
        let request = client_request(msg_id.as_str(), session, kernel, CELL, step, self.now);
        self.client.send(&[], &request);
        let accepted = self.gateway.pump(self.now);
        self.now += step;
        for execution in &accepted {
            self.gateway.finish_execution(&execution.msg_id, self.now);
        }
        let (replies, _) = self.client.drain();
        replies.len() == 1 && replies[0].1.is_ok_reply()
    }
}

#[test]
fn a_served_round_trip_stays_within_its_allocation_budget() {
    let mut fixture = Fixture::new();
    for _ in 0..WARM_UP_TRIPS {
        assert!(fixture.round_trip());
    }
    let before = CALLS.load(Ordering::Relaxed);
    let mut ok = 0;
    for _ in 0..COUNTED_TRIPS {
        ok += usize::from(fixture.round_trip());
    }
    let per_trip = (CALLS.load(Ordering::Relaxed) - before) as f64 / COUNTED_TRIPS as f64;
    assert_eq!(ok, COUNTED_TRIPS);
    assert_eq!(fixture.gateway.stats().replies, fixture.trips as u64);
    println!("{per_trip:.2} allocations per round trip");
    assert!(
        per_trip <= BUDGET_PER_TRIP,
        "{per_trip:.2} allocations per round trip, budget {BUDGET_PER_TRIP}"
    );
}

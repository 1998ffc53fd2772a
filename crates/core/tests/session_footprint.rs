//! Heap a live session holds in `LiveGateway`, counted in malloc chunks.
//!
//! A counting allocator keeps the bytes of every live allocation as the
//! system allocator's chunk holds them: the request plus an 8-byte header,
//! rounded up to 16, at least 32 (glibc's chunk on a 64-bit target). The
//! test starts sessions, ends them all, and starts as many again, and reads
//! the held bytes after each step. What a session holds is its share of the
//! session slab, the id index, its id, its route and resources columns, and
//! the placement index's rows for its replicas' subscriptions — all that
//! `start_session` leaves behind, whatever structure it sits in. The
//! returned `ConnectionInfo` is dropped at once, as the serve replay drops
//! it.
//!
//! This binary holds one test: the counting allocator sees every thread of
//! the process, and no other test may allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use notebookos_cluster::ResourceBundle;
use notebookos_core::LiveGateway;
use notebookos_des::SimTime;
use notebookos_jupyter::KernelResourceSpec;

/// The system allocator, keeping the chunk bytes of what is live.
struct Counting;

static HELD: AtomicI64 = AtomicI64::new(0);

/// The malloc chunk a request of `size` bytes takes (module docs).
fn chunk(size: usize) -> i64 {
    ((size + 8 + 15) & !15).max(32) as i64
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD.fetch_add(chunk(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HELD.fetch_add(chunk(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HELD.fetch_add(chunk(new_size) - chunk(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller's contract is passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(chunk(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const HOSTS: usize = 64;
const REPLICAS: u32 = 3;
/// Bytes a live session may hold (module docs).
const BUDGET_PER_SESSION: f64 = 256.0;

fn held() -> i64 {
    HELD.load(Ordering::Relaxed)
}

fn spec() -> KernelResourceSpec {
    KernelResourceSpec {
        millicpus: 4000,
        memory_mb: 16_384,
        gpus: 1,
        vram_gb: 16,
    }
}

/// Starts `ids`' sessions.
fn start_all(gateway: &mut LiveGateway, ids: &[String]) {
    for id in ids {
        let info = gateway.start_session(id, spec(), SimTime::ZERO);
        assert!(info.is_ok(), "{id} starts");
    }
}

#[test]
fn a_live_session_holds_at_most_256_bytes() {
    // A few sizes, so the slab's and the id index's doubling land at
    // different fill levels.
    for sessions in [1_000, 4_096, 10_000] {
        let (mut gateway, _client) =
            LiveGateway::new(HOSTS, ResourceBundle::p3_16xlarge(), REPLICAS);
        let first: Vec<String> = (0..sessions).map(|u| format!("user-{u}")).collect();
        // Ids as long as the first round's, so each takes the same chunk.
        let again: Vec<String> = (0..sessions).map(|u| format!("back-{u}")).collect();
        let per_session = |bytes: i64| bytes as f64 / sessions as f64;
        let empty = held();
        start_all(&mut gateway, &first);
        let live = per_session(held() - empty);
        for id in &first {
            assert!(gateway.end_session(id));
        }
        let left = per_session(held() - empty);
        start_all(&mut gateway, &again);
        let live_again = per_session(held() - empty);
        println!(
            "{sessions} sessions: {live:.1} B each when started, {left:.1} B each left \
             after they ended, {live_again:.1} B each with as many started again"
        );
        assert_eq!(gateway.session_count(), sessions);
        assert!(
            live <= BUDGET_PER_SESSION && live_again <= BUDGET_PER_SESSION,
            "{sessions} sessions: {live:.1} B and {live_again:.1} B a live session, \
             budget {BUDGET_PER_SESSION}"
        );
        // The second round takes the first's slots from the free list: the
        // gateway then holds what it held with the first round live, plus
        // the free list itself, which ending the first round grew to a
        // 4-byte index a slot (at most 8 B a slot with its doubling) and
        // which keeps its capacity.
        assert!(
            live_again <= live + 8.0,
            "{sessions} sessions: {live_again:.1} B a session held the second time, \
             {live:.1} B the first"
        );
    }
}

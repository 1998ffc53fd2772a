//! The pending-event queue.
//!
//! [`EventQueue`] is the ordering backbone for both execution modes: the
//! [`DesScheduler`](crate::scheduler::DesScheduler) /
//! [`RealTimeScheduler`](crate::scheduler::RealTimeScheduler) pair both pop
//! from it, so `(time, seq)` tie-breaking — and therefore determinism — is
//! identical no matter which front end drives the events.
//!
//! # Shape: one sorted run under a heap
//!
//! A simulation loads its whole trace before the first pop, so for most of
//! a run the queue is a large set of events nobody will reorder plus a few
//! live ones. A binary heap pays for that set on every pop: a sift-down
//! over `log n` levels, each a cache miss once the heap outgrows the cache.
//! So a `pop` that finds the run empty and more than `FREEZE_MIN` events in
//! the heap *freezes* them: the heap's vector is sorted in place (no second
//! copy) into a run popped from its end, one move per event. Later
//! `schedule`s go to the heap, which now holds only what was scheduled
//! since, and `pop` / `peek_time` take the smaller of the two heads. When
//! the run drains, the next `pop` may freeze again.
//!
//! Order is unchanged by construction: every pending event is in exactly
//! one of the two structures, each yields its own minimum, and the smaller
//! of two minima is the minimum of the union — under the same total order
//! `(time, seq)`, with `seq` unique, that a lone heap would use. Each event
//! is sorted at most once, so the amortised cost stays `O(log n)` a pop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event: the queue orders by `(time, seq)` so that events
/// scheduled at the same instant fire in the order they were scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Priority queue of future events, ordered by firing time with FIFO
/// tie-breaking.
///
/// # Example
///
/// ```
/// use notebookos_des::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_secs(2), "b");
/// queue.schedule(SimTime::from_secs(1), "a");
/// let (t, e) = queue.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "a"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The frozen run, latest first: its earliest event is its last
    /// element. (`Reverse` is kept so the heap's vector is sorted as is.)
    run: Vec<Reverse<Scheduled<E>>>,
    /// Everything scheduled since the last freeze.
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
}

/// A `pop` freezes the heap only above this many events: where a heap of
/// 64-byte events outgrows L1 — a drain micro-benchmark has sort-then-pop
/// within a quarter of the heap below it and 1.5× (1 Ki) to 3× (256 Ki)
/// ahead above, and the steady-state queues in this repo (serve loop, Raft
/// harness) stay far below it, so only bulk loads are ever sorted.
const FREEZE_MIN: usize = 1024;

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time: at,
            seq,
            event,
        }));
    }

    /// Schedules `event` to fire `delay` after `now`.
    pub fn schedule_in(&mut self, now: SimTime, delay: SimTime, event: E) {
        self.schedule(now.saturating_add(delay), event);
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.run.is_empty() && self.heap.len() > FREEZE_MIN {
            self.run = std::mem::take(&mut self.heap).into_vec();
            // Ascending `Reverse` is descending `(time, seq)`; the keys are
            // unique, so the unstable (allocation-free) sort is exact.
            self.run.sort_unstable();
        }
        let next = if self.run_is_next() {
            self.run.pop()
        } else {
            self.heap.pop()
        };
        next.map(|Reverse(s)| (s.time, s.event))
    }

    /// Whether the earliest pending event is the run's (false when the
    /// queue is empty).
    fn run_is_next(&self) -> bool {
        match (self.run.last(), self.heap.peek()) {
            (Some(Reverse(run)), Some(Reverse(heap))) => run < heap,
            (run, _) => run.is_some(),
        }
    }

    /// Returns the firing time of the earliest pending event without
    /// removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = if self.run_is_next() {
            self.run.last()
        } else {
            self.heap.peek()
        };
        next.map(|Reverse(s)| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether the queue holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Number of events scheduled over the queue's lifetime (a cheap proxy
    /// for "how much simulated work happened").
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1u32);
        q.schedule(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_secs(5), SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    /// The reference: a lone heap of `(time, seq)`, which is what the
    /// queue was before it grew a run.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        seq: u64,
    }

    /// A queue and its model fed the same calls; every call ends by
    /// demanding they agree on everything observable. The event payload is
    /// its own sequence number, so equal pops are equal `(time, seq)`.
    #[derive(Default)]
    struct Pair {
        queue: EventQueue<u64>,
        model: Model,
        /// The time of the last pop: what `schedule_in` is relative to.
        now: SimTime,
    }

    impl Pair {
        fn agree(&self) {
            let head = self.model.heap.peek().map(|Reverse((t, _))| *t);
            assert_eq!(self.queue.peek_time(), head);
            assert_eq!(self.queue.len(), self.model.heap.len());
            assert_eq!(self.queue.is_empty(), self.model.heap.is_empty());
            assert_eq!(self.queue.scheduled_total(), self.model.seq);
        }

        fn schedule(&mut self, at: SimTime) {
            self.queue.schedule(at, self.model.seq);
            self.model.heap.push(Reverse((at, self.model.seq)));
            self.model.seq += 1;
            self.agree();
        }

        fn schedule_in(&mut self, delay: SimTime) {
            self.queue.schedule_in(self.now, delay, self.model.seq);
            let at = self.now.saturating_add(delay);
            self.model.heap.push(Reverse((at, self.model.seq)));
            self.model.seq += 1;
            self.agree();
        }

        fn pop(&mut self) -> bool {
            let expected = self.model.heap.pop().map(|Reverse(key)| key);
            assert_eq!(self.queue.pop(), expected);
            self.agree();
            if let Some((t, _)) = expected {
                self.now = t;
            }
            expected.is_some()
        }

        /// `n` events over `spread` distinct timestamps, the earliest
        /// `after` past `now`.
        fn bulk(&mut self, n: usize, after: u64, spread: u64, salt: u64) {
            for i in 0..n as u64 {
                let jitter = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                self.schedule(self.now + SimTime::from_micros(after + jitter % spread));
            }
        }
    }

    #[test]
    fn freezes_bulk_loads_and_refreezes_after_the_run_drains() {
        let mut pair = Pair::default();
        pair.bulk(FREEZE_MIN, 0, 50, 1);
        assert!(pair.pop());
        assert!(pair.queue.run.is_empty(), "at the constant: still a heap");
        pair.bulk(FREEZE_MIN, 0, 50, 2);
        assert!(pair.pop());
        assert_eq!(pair.queue.run.len(), 2 * FREEZE_MIN - 2, "frozen");
        assert!(pair.queue.heap.is_empty());
        // While the run lasts, new events go to the heap: one before the
        // run's head, one tied with it, some among it, most after it.
        pair.schedule(SimTime::ZERO);
        pair.schedule(pair.now);
        pair.bulk(8, 0, 50, 3);
        pair.bulk(FREEZE_MIN + 1, 50, 200, 4);
        assert_eq!(pair.queue.heap.len(), FREEZE_MIN + 11);
        while !pair.queue.run.is_empty() {
            assert!(pair.pop());
        }
        // The run is gone and the heap is over the constant again.
        assert_eq!(pair.queue.heap.len(), FREEZE_MIN + 1);
        assert!(pair.pop());
        assert_eq!(pair.queue.run.len(), FREEZE_MIN, "frozen a second time");
        while pair.pop() {}
        assert!(pair.queue.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any interleaving of the queue's calls pops exactly what a lone
        /// heap pops, and agrees with it on `peek_time`, `len`, `is_empty`
        /// and `scheduled_total` after every single call.
        #[test]
        fn any_interleaving_matches_a_lone_heap(
            ops in proptest::collection::vec((0u8..8, 0u64..1_000_000), 1..24),
        ) {
            let mut pair = Pair::default();
            for (kind, arg) in ops {
                let n = arg as usize;
                match kind {
                    // Bulk loads below and above the constant, on few
                    // timestamps (FIFO ties) or many.
                    0 => pair.bulk(n % FREEZE_MIN, 0, 1 + arg % 7, arg),
                    1 => pair.bulk(FREEZE_MIN + n % (2 * FREEZE_MIN), arg % 3, 1 + arg % 5000, arg),
                    // Absolute times, often before the current head.
                    2 => pair.schedule(SimTime::from_micros(arg % 3000)),
                    3 => pair.schedule_in(SimTime::from_micros(arg % 100)),
                    // Long drains (the run empties, the next pop may
                    // freeze again) and short ones.
                    4 => for _ in 0..n % (3 * FREEZE_MIN) { if !pair.pop() { break; } },
                    _ => for _ in 0..1 + n % 8 { pair.pop(); },
                }
            }
            while pair.pop() {}
        }
    }

    #[test]
    fn counters_track_usage() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }
}

//! The pending-event queue.
//!
//! [`EventQueue`] is the ordering backbone for both execution modes: the
//! [`DesScheduler`](crate::scheduler::DesScheduler) /
//! [`RealTimeScheduler`](crate::scheduler::RealTimeScheduler) pair both pop
//! from it, so tie-breaking — and therefore determinism — is identical no
//! matter which front end drives the events.
//!
//! # Order: `(time, rank, seq)`
//!
//! Events pop by firing time. Events due at the same instant pop by their
//! [`Ranked::rank`], lowest first, and events of equal rank in the order
//! they were scheduled (`seq`). Most events keep the default rank,
//! [`DYNAMIC_RANK`], so for them the order is `(time, seq)`: first
//! scheduled, first popped. A simulation that feeds its input trace into
//! the queue one arrival at a time gives the arrivals lower ranks, in the
//! order it wants them among themselves. An arrival then pops before
//! anything scheduled for the same instant, whenever it was scheduled —
//! the order it would have had if the whole trace had been loaded before
//! the first pop. The order is a stated rule, not an accident of when
//! each event happened to be scheduled.
//!
//! # Shape: two heaps
//!
//! Events that state a rank below [`DYNAMIC_RANK`] wait in a heap of
//! their own, apart from the dynamic events. A simulation that feeds its
//! trace one arrival at a time keeps that heap one entry deep, so an
//! arrival costs a push and a pop of a one-entry heap rather than a sift
//! up and a sift down through every live event. On the 90-day study
//! (`sim-summer`, 480 k arrivals among 1.2 M events a pass) that made a
//! pass 7 % faster than one heap holding both (alternating ledger runs,
//! 2 vCPUs: faster in 9 of 10).
//!
//! `pop` and `peek_time` take the lesser of the two heads. Order is
//! unchanged by construction: every pending event is in exactly one heap,
//! each yields its own minimum, and the lesser of the minima is the
//! minimum of the union — under the same total order `(time, rank, seq)`,
//! with `seq` unique, that a lone heap would use.
//!
//! Every event in the dynamic heap has [`DYNAMIC_RANK`], so its entries
//! store the key `(time, seq)` without the rank: a 24-byte event makes a
//! 40-byte entry instead of 48, and the heap moves less on every sift.
//! Comparing its head with the ranked heap's puts the rank back.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The rank of an event that states none: it pops after every lower-ranked
/// event due at the same instant, and among its equals in schedule order.
pub const DYNAMIC_RANK: u64 = u64::MAX;

/// Where an event stands among events due at the same instant: the queue
/// orders by `(time, rank, seq)`, lowest first.
///
/// The default method gives every event [`DYNAMIC_RANK`], which leaves the
/// order `(time, seq)`; an event type overrides it only to put some of its
/// events ahead of others at equal times.
///
/// ```
/// use notebookos_des::{EventQueue, Ranked, SimTime, DYNAMIC_RANK};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev {
///     Arrival(u64),
///     Tick,
/// }
///
/// impl Ranked for Ev {
///     fn rank(&self) -> u64 {
///         match *self {
///             Ev::Arrival(i) => i,
///             Ev::Tick => DYNAMIC_RANK,
///         }
///     }
/// }
///
/// let mut queue = EventQueue::new();
/// let t = SimTime::from_secs(1);
/// queue.schedule(t, Ev::Tick);
/// queue.schedule(t, Ev::Arrival(7));
/// assert_eq!(queue.pop(), Some((t, Ev::Arrival(7))));
/// assert_eq!(queue.pop(), Some((t, Ev::Tick)));
/// ```
pub trait Ranked {
    /// The event's rank among events due at the same instant.
    fn rank(&self) -> u64 {
        DYNAMIC_RANK
    }
}

/// Plain values carry no rank: they pop in `(time, seq)` order.
macro_rules! unranked {
    ($($t:ty),*) => { $(impl Ranked for $t {})* };
}

unranked!((), u32, usize, &str);

/// A pending event and the key it pops by, lowest first: `(time, rank,
/// seq)` in the ranked heap, `(time, seq)` in the dynamic one, whose
/// events all share [`DYNAMIC_RANK`] and so need not store it. `seq` is
/// unique, so the event itself never decides.
#[derive(Debug, Clone)]
struct Scheduled<K, E> {
    key: K,
    event: E,
}

impl<K: Ord, E> PartialEq for Scheduled<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<K: Ord, E> Eq for Scheduled<K, E> {}

impl<K: Ord, E> Ord for Scheduled<K, E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<K: Ord, E> PartialOrd for Scheduled<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A [`DYNAMIC_RANK`] event, keyed `(time, seq)`: 40 bytes with a
/// 24-byte event, where the full key would make it 48.
type Dynamic<E> = Reverse<Scheduled<(SimTime, u64), E>>;

/// An event of a lower rank, keyed `(time, rank, seq)`.
type RankedEntry<E> = Reverse<Scheduled<(SimTime, u64, u64), E>>;

/// Priority queue of future events, ordered by firing time, then by
/// [`Ranked::rank`], then first-scheduled first.
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
    /// Every [`DYNAMIC_RANK`] event.
    heap: BinaryHeap<Dynamic<E>>,
    /// Every event that states a lower rank.
    ranked: BinaryHeap<RankedEntry<E>>,
    seq: u64,
}

impl<E: Ranked> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            ranked: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let rank = event.rank();
        if rank == DYNAMIC_RANK {
            let key = (at, seq);
            self.heap.push(Reverse(Scheduled { key, event }));
        } else {
            let key = (at, rank, seq);
            self.ranked.push(Reverse(Scheduled { key, event }));
        }
    }

    /// Schedules `event` to fire `delay` after `now`.
    pub fn schedule_in(&mut self, now: SimTime, delay: SimTime, event: E) {
        self.schedule(now.saturating_add(delay), event);
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ranked_is_next() {
            self.ranked.pop().map(|Reverse(s)| (s.key.0, s.event))
        } else {
            self.heap.pop().map(|Reverse(s)| (s.key.0, s.event))
        }
    }

    /// Whether the earliest pending event is the ranked heap's (false
    /// when that heap is empty).
    fn ranked_is_next(&self) -> bool {
        match (self.ranked.peek(), self.heap.peek()) {
            (Some(Reverse(ranked)), Some(Reverse(dynamic))) => {
                let (time, seq) = dynamic.key;
                ranked.key < (time, DYNAMIC_RANK, seq)
            }
            (ranked, _) => ranked.is_some(),
        }
    }

    /// Returns the firing time of the earliest pending event without
    /// removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.ranked_is_next() {
            self.ranked.peek().map(|Reverse(s)| s.key.0)
        } else {
            self.heap.peek().map(|Reverse(s)| s.key.0)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.ranked.len()
    }

    /// Whether the queue holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events scheduled over the queue's lifetime (a cheap proxy
    /// for "how much simulated work happened").
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }
}

impl<E: Ranked> Default for EventQueue<E> {
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

    /// A test event whose rank is whatever it was given.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Tagged {
        rank: u64,
        seq: u64,
    }

    impl Ranked for Tagged {
        fn rank(&self) -> u64 {
            self.rank
        }
    }

    #[test]
    fn ties_pop_by_rank_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let ranks = [DYNAMIC_RANK, 5, DYNAMIC_RANK, 2, 5, 9];
        for (seq, &rank) in ranks.iter().enumerate() {
            q.schedule(
                t,
                Tagged {
                    rank,
                    seq: seq as u64,
                },
            );
        }
        // A later instant never pops first, whatever its rank.
        q.schedule(t + SimTime::from_micros(1), Tagged { rank: 0, seq: 6 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e.seq)).collect();
        assert_eq!(order, [3, 1, 4, 5, 0, 2, 6]);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_secs(5), SimTime::from_secs(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    /// The reference: a lone heap of `(time, rank, seq)`.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
        seq: u64,
    }

    /// The rank a ranking pair gives its `seq`th event: mostly dynamic,
    /// with a few low ranks that tie among themselves, so every tie kind
    /// and both heaps occur.
    fn rank_of(seq: u64) -> u64 {
        [DYNAMIC_RANK, 3, DYNAMIC_RANK, 1, DYNAMIC_RANK, 3][(seq % 6) as usize]
    }

    /// A queue and its model fed the same calls; every call ends by
    /// demanding they agree on everything observable. The event payload
    /// carries its own rank and sequence number, so equal pops are equal
    /// `(time, rank, seq)`.
    #[derive(Default)]
    struct Pair {
        queue: EventQueue<Tagged>,
        model: Model,
        /// The time of the last pop: what `schedule_in` is relative to.
        now: SimTime,
    }

    impl Pair {
        fn agree(&self) {
            let head = self.model.heap.peek().map(|Reverse((t, _, _))| *t);
            assert_eq!(self.queue.peek_time(), head);
            assert_eq!(self.queue.len(), self.model.heap.len());
            assert_eq!(self.queue.is_empty(), self.model.heap.is_empty());
            assert_eq!(self.queue.scheduled_total(), self.model.seq);
        }

        fn next_event(&mut self, at: SimTime) -> Tagged {
            let seq = self.model.seq;
            let rank = rank_of(seq);
            self.model.heap.push(Reverse((at, rank, seq)));
            self.model.seq += 1;
            Tagged { rank, seq }
        }

        fn schedule(&mut self, at: SimTime) {
            let event = self.next_event(at);
            self.queue.schedule(at, event);
            self.agree();
        }

        fn schedule_in(&mut self, delay: SimTime) {
            let event = self.next_event(self.now.saturating_add(delay));
            self.queue.schedule_in(self.now, delay, event);
            self.agree();
        }

        fn pop(&mut self) -> bool {
            let expected = self.model.heap.pop().map(|Reverse(key)| key);
            let popped = self.queue.pop().map(|(t, e)| (t, e.rank, e.seq));
            assert_eq!(popped, expected);
            self.agree();
            if let Some((t, _, _)) = expected {
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

    /// The size the proptest's bulk loads are drawn around.
    const BULK: usize = 4096;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any interleaving of the queue's calls pops exactly what a lone
        /// `(time, rank, seq)` heap pops, and agrees with it on `peek_time`, `len`, `is_empty`
        /// and `scheduled_total` after every single call.
        #[test]
        fn any_interleaving_matches_a_lone_heap(
            ops in proptest::collection::vec((0u8..8, 0u64..1_000_000), 1..24),
        ) {
            let mut pair = Pair::default();
            for (kind, arg) in ops {
                let n = arg as usize;
                match kind {
                    // Bulk loads of up to a few thousand events, on few
                    // timestamps (rank and FIFO ties) or many.
                    0 => pair.bulk(n % BULK, 0, 1 + arg % 7, arg),
                    1 => pair.bulk(BULK + n % (2 * BULK), arg % 3, 1 + arg % 5000, arg),
                    // Absolute times, often before the current head.
                    2 => pair.schedule(SimTime::from_micros(arg % 3000)),
                    3 => pair.schedule_in(SimTime::from_micros(arg % 100)),
                    // Long drains (often emptying the queue) and short ones.
                    4 => for _ in 0..n % (3 * BULK) { if !pair.pop() { break; } },
                    _ => for _ in 0..1 + n % 8 { pair.pop(); },
                }
            }
            while pair.pop() {}
        }
    }

    /// A dynamic entry holds no rank: with a 24-byte event it is 40
    /// bytes, the key `(time, seq)` and the event.
    #[test]
    fn a_dynamic_entry_of_a_24_byte_event_is_at_most_40_bytes() {
        let size = std::mem::size_of::<Dynamic<[u64; 3]>>();
        assert!(size <= 40, "{size}");
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

//! The pending-event queue.
//!
//! [`EventQueue`] is the ordering backbone for both execution modes: the
//! [`DesScheduler`](crate::scheduler::DesScheduler) /
//! [`RealTimeScheduler`](crate::scheduler::RealTimeScheduler) pair both pop
//! from it, so `(time, seq)` tie-breaking — and therefore determinism — is
//! identical no matter which front end drives the events.

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
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
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
        self.heap.pop().map(|Reverse(s)| (s.time, s.event))
    }

    /// Returns the firing time of the earliest pending event without
    /// removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

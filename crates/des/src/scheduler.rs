//! The clock abstraction separating *what* the platform does from *when*
//! it runs: one object-safe [`Scheduler`] trait with a discrete-event
//! implementation ([`DesScheduler`], bit-identical to driving the
//! [`EventQueue`] directly) and a wall-clock
//! implementation ([`RealTimeScheduler`]) that sleeps until each deadline
//! on a monotonic clock.
//!
//! Event-handling code written against `&mut dyn Scheduler<E>` runs
//! unchanged in both modes: simulated studies pop events instantly in
//! virtual time, while a live service dispatches the same events at their
//! wall-clock deadlines. Time only ever advances to the deadline of a
//! dispatched event, so handler-visible timestamps are identical across
//! the two implementations given the same schedule.
//!
//! # Example
//!
//! ```
//! use notebookos_des::{DesScheduler, Scheduler, SimTime};
//!
//! let mut sched = DesScheduler::new();
//! sched.schedule(SimTime::from_secs(2), "b");
//! sched.schedule(SimTime::from_secs(1), "a");
//! assert_eq!(sched.pop_next(), Some((SimTime::from_secs(1), "a")));
//! assert_eq!(sched.now(), SimTime::from_secs(1));
//! ```

use crate::queue::{EventQueue, Ranked};
use crate::time::SimTime;

/// A deadline-ordered event dispatcher: the minimal interface event
/// handlers need, independent of whether time is simulated or real.
///
/// The trait is object-safe (`&mut dyn Scheduler<E>`), so one handler
/// body serves both the DES studies and the live service. Implementations
/// must dispatch events in `(deadline, rank, schedule order)` order — the
/// [`EventQueue`]'s, with the rank from [`Ranked`] — and advance
/// [`Scheduler::now`] to each dispatched event's deadline.
pub trait Scheduler<E> {
    /// The current logical time: the deadline of the most recently popped
    /// event ([`SimTime::ZERO`] before the first pop).
    fn now(&self) -> SimTime;

    /// Schedules `event` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, event: E);

    /// Schedules `event` to fire `delay` after [`Scheduler::now`]
    /// (saturating). Anchoring at the logical now — not the wall clock —
    /// keeps periodic ticks drift-free under real time.
    fn schedule_in(&mut self, delay: SimTime, event: E);

    /// Removes and returns the earliest pending event, advancing
    /// [`Scheduler::now`] to its deadline. A real-time implementation
    /// blocks until the deadline has passed on the wall clock.
    fn pop_next(&mut self) -> Option<(SimTime, E)>;

    /// The earliest pending deadline, without popping or waiting.
    fn peek_deadline(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn pending(&self) -> usize;

    /// Events scheduled over the scheduler's lifetime (a cheap proxy for
    /// "how much work happened").
    fn scheduled_total(&self) -> u64;

    /// Pops the next event only if its deadline is at or before
    /// `horizon`; events scheduled exactly at the horizon are dispatched.
    /// Returns `None` — without waiting — once the next deadline lies
    /// strictly beyond it, or the queue is empty.
    fn pop_next_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.peek_deadline() {
            Some(deadline) if deadline <= horizon => self.pop_next(),
            _ => None,
        }
    }
}

/// Discrete-event [`Scheduler`]: wraps an [`EventQueue`] and jumps the
/// clock to each deadline instantly.
///
/// Behaviour is bit-identical to the pre-trait engine: the same
/// `(time, rank, seq)` ordering, the same saturating relative scheduling,
/// and a `now` that only advances on dispatch — the golden determinism
/// tests pin this equivalence end to end.
#[derive(Debug)]
pub struct DesScheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E: Ranked> DesScheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        DesScheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }
}

impl<E: Ranked> Default for DesScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Ranked> Scheduler<E> for DesScheduler<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.schedule_in(self.now, delay, event);
    }

    fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue went backwards in time");
        self.now = time;
        Some((time, event))
    }

    fn peek_deadline(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.queue.scheduled_total()
    }
}

/// A monotonic time source a [`RealTimeScheduler`] waits on.
///
/// The production implementation is [`MonotonicClock`];
/// [`ManualClock`] substitutes a hand-advanced clock so real-time
/// scheduling logic is testable without wall-clock sleeps.
pub trait Clock: Send + std::fmt::Debug {
    /// Time elapsed since the clock was created.
    fn now(&self) -> SimTime;

    /// Blocks for (up to) `duration`. Implementations may oversleep; the
    /// scheduler re-checks [`Clock::now`] after every sleep.
    fn sleep(&mut self, duration: SimTime);
}

/// The production [`Clock`]: `std::time::Instant` + `std::thread::sleep`.
#[derive(Debug)]
pub struct MonotonicClock {
    start: std::time::Instant,
}

impl MonotonicClock {
    /// Starts a clock at the current instant.
    pub fn new() -> Self {
        MonotonicClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros().min(u64::MAX as u128) as u64)
    }

    fn sleep(&mut self, duration: SimTime) {
        std::thread::sleep(std::time::Duration::from_micros(duration.as_micros()));
    }
}

/// A hand-advanced [`Clock`] for tests: `sleep` advances `now` by exactly
/// the requested duration and returns immediately, so a
/// [`RealTimeScheduler`] under test runs its full wait loop with zero
/// wall-clock delay.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: SimTime,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        ManualClock::default()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        self.now
    }

    fn sleep(&mut self, duration: SimTime) {
        self.now = self.now.saturating_add(duration);
    }
}

/// Wall-clock [`Scheduler`]: holds the same deterministic
/// [`EventQueue`] ordering as [`DesScheduler`] but blocks until each
/// event's deadline has passed on a monotonic clock before dispatching.
///
/// The wait is a bounded-drift tick loop: each sleep is capped at
/// `MAX_TICK` (20 ms) and the clock is re-read
/// after every sleep, so an oversleeping OS timer can push a dispatch
/// late by at most one tick's oversleep rather than accumulating across
/// the wait. Logical time ([`Scheduler::now`]) is pinned to event
/// deadlines — not the wall reading — so `schedule_in` chains (periodic
/// ticks) stay anchored to their nominal schedule and lateness never
/// compounds. The worst observed lateness is reported by
/// [`RealTimeScheduler::max_lateness`].
#[derive(Debug)]
pub struct RealTimeScheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    clock: Box<dyn Clock>,
    max_lateness: SimTime,
}

/// Per-sleep bound of the wait loop: 20 ms keeps the loop responsive to
/// deadline re-checks without busy-waiting.
const MAX_TICK: SimTime = SimTime::from_millis(20);

impl<E: Ranked> RealTimeScheduler<E> {
    /// Creates a scheduler on a fresh [`MonotonicClock`]; wall time zero
    /// is the moment of this call.
    pub fn new() -> Self {
        Self::with_clock(Box::new(MonotonicClock::new()))
    }

    /// Creates a scheduler on an injected clock (a [`ManualClock`] in
    /// tests).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        RealTimeScheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            clock,
            max_lateness: SimTime::ZERO,
        }
    }

    /// The worst lateness observed so far: how far past its deadline the
    /// tardiest dispatch happened (zero when every event fired on time).
    pub fn max_lateness(&self) -> SimTime {
        self.max_lateness
    }
}

impl<E: Ranked> Default for RealTimeScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Ranked> Scheduler<E> for RealTimeScheduler<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.schedule_in(self.now, delay, event);
    }

    fn pop_next(&mut self) -> Option<(SimTime, E)> {
        let (deadline, event) = self.queue.pop()?;
        loop {
            let wall = self.clock.now();
            if wall >= deadline {
                self.max_lateness = self.max_lateness.max(wall.saturating_sub(deadline));
                break;
            }
            let remaining = deadline.saturating_sub(wall);
            self.clock.sleep(remaining.min(MAX_TICK));
        }
        debug_assert!(deadline >= self.now, "event queue went backwards in time");
        self.now = deadline;
        Some((deadline, event))
    }

    fn peek_deadline(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.queue.scheduled_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives any scheduler to completion, collecting dispatch order.
    fn drain(sched: &mut dyn Scheduler<u32>) -> Vec<(SimTime, u32)> {
        std::iter::from_fn(|| sched.pop_next()).collect()
    }

    #[test]
    fn des_scheduler_matches_event_queue_semantics() {
        let mut sched = DesScheduler::new();
        let mut queue = EventQueue::new();
        // Same schedule: absolute times, FIFO ties, relative offsets.
        for (t, e) in [(3u64, 30u32), (1, 10), (1, 11), (2, 20)] {
            sched.schedule(SimTime::from_secs(t), e);
            queue.schedule(SimTime::from_secs(t), e);
        }
        assert_eq!(sched.scheduled_total(), queue.scheduled_total());
        assert_eq!(sched.pending(), queue.len());
        loop {
            let a = sched.pop_next();
            let b = queue.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn des_schedule_in_is_relative_to_last_dispatch() {
        let mut sched = DesScheduler::new();
        sched.schedule(SimTime::from_secs(5), 1u32);
        sched.pop_next();
        assert_eq!(sched.now(), SimTime::from_secs(5));
        sched.schedule_in(SimTime::from_secs(2), 2);
        assert_eq!(sched.peek_deadline(), Some(SimTime::from_secs(7)));
        // Saturates instead of overflowing.
        sched.schedule_in(SimTime::MAX, 3);
        sched.pop_next();
        assert_eq!(sched.pop_next(), Some((SimTime::MAX, 3)));
    }

    #[test]
    fn pop_next_until_respects_horizon_inclusively() {
        let mut sched = DesScheduler::new();
        sched.schedule(SimTime::from_secs(1), 1u32);
        sched.schedule(SimTime::from_secs(3), 3);
        assert_eq!(
            sched.pop_next_until(SimTime::from_secs(1)),
            Some((SimTime::from_secs(1), 1))
        );
        assert_eq!(sched.pop_next_until(SimTime::from_secs(2)), None);
        assert_eq!(sched.pending(), 1, "beyond-horizon event still pending");
    }

    #[test]
    fn realtime_with_manual_clock_dispatches_at_deadlines() {
        let mut sched = RealTimeScheduler::with_clock(Box::new(ManualClock::new()));
        sched.schedule(SimTime::from_millis(10), 2u32);
        sched.schedule(SimTime::from_millis(5), 1);
        let order = drain(&mut sched);
        assert_eq!(
            order,
            vec![(SimTime::from_millis(5), 1), (SimTime::from_millis(10), 2)]
        );
        assert_eq!(sched.now(), SimTime::from_millis(10));
        // The scheduler slept precisely the remaining gaps, never past them.
        assert_eq!(sched.max_lateness(), SimTime::ZERO);
    }

    /// A [`ManualClock`] that shares its sleep count with the test.
    #[derive(Debug)]
    struct CountingClock {
        inner: ManualClock,
        sleeps: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Clock for CountingClock {
        fn now(&self) -> SimTime {
            self.inner.now()
        }

        fn sleep(&mut self, duration: SimTime) {
            self.sleeps
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.sleep(duration);
        }
    }

    #[test]
    fn realtime_wait_loop_ticks_are_bounded() {
        let sleeps = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let clock = CountingClock {
            inner: ManualClock::new(),
            sleeps: sleeps.clone(),
        };
        let mut sched = RealTimeScheduler::with_clock(Box::new(clock));
        sched.schedule(SimTime::from_millis(210), 0u32);
        sched.pop_next();
        // 210 ms of waiting at the 20 ms tick bound: ten full ticks and a
        // 10 ms remainder, each followed by a fresh clock read.
        assert_eq!(sleeps.load(std::sync::atomic::Ordering::Relaxed), 11);
    }

    #[test]
    fn realtime_past_deadlines_dispatch_immediately_and_record_lateness() {
        let mut clock = ManualClock::new();
        clock.sleep(SimTime::from_millis(8)); // wall already at 8 ms
        let mut sched = RealTimeScheduler::with_clock(Box::new(clock));
        sched.schedule(SimTime::from_millis(3), 1u32);
        let popped = sched.pop_next();
        assert_eq!(popped, Some((SimTime::from_millis(3), 1)));
        // Logical time is the deadline, not the (later) wall reading, so
        // follow-up schedule_in offsets stay anchored to the schedule.
        assert_eq!(sched.now(), SimTime::from_millis(3));
        assert_eq!(sched.max_lateness(), SimTime::from_millis(5));
    }

    #[test]
    fn realtime_periodic_ticks_do_not_drift() {
        let mut sched = RealTimeScheduler::with_clock(Box::new(ManualClock::new()));
        sched.schedule(SimTime::from_millis(10), 0u32);
        for _ in 0..5 {
            let (now, _) = sched.pop_next().expect("tick pending");
            let _ = now;
            sched.schedule_in(SimTime::from_millis(10), 0u32);
        }
        // After five re-schedules the next deadline is exactly 60 ms:
        // anchored at deadlines, not at wall readings.
        assert_eq!(sched.peek_deadline(), Some(SimTime::from_millis(60)));
    }

    #[test]
    fn schedulers_are_object_safe() {
        fn via_dyn(sched: &mut dyn Scheduler<u32>) -> Option<(SimTime, u32)> {
            sched.schedule(SimTime::from_secs(1), 7);
            sched.pop_next()
        }
        let mut des = DesScheduler::new();
        assert_eq!(via_dyn(&mut des), Some((SimTime::from_secs(1), 7)));
        let mut rt = RealTimeScheduler::with_clock(Box::new(ManualClock::new()));
        assert_eq!(via_dyn(&mut rt), Some((SimTime::from_secs(1), 7)));
    }
}

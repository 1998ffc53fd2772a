//! Deterministic discrete-event simulation (DES) core for the NotebookOS
//! reproduction.
//!
//! Every experiment in this repository — the 17.5-hour prototype-scale runs
//! and the 90-day simulation study — executes inside this engine. The engine
//! is deliberately tiny and fully deterministic: virtual time is an integer
//! microsecond counter, events are totally ordered by `(time, rank,
//! sequence)` (see [`Ranked`]), and all randomness flows through a seeded
//! [`SimRng`].
//!
//! # Example
//!
//! ```
//! use notebookos_des::{DesScheduler, Scheduler, SimTime};
//!
//! // The caller owns the loop: pop an event, react, schedule follow-ups.
//! let mut sched = DesScheduler::new();
//! sched.schedule(SimTime::ZERO, "ping");
//! let mut fired = 0;
//! while let Some((_now, event)) = sched.pop_next() {
//!     fired += 1;
//!     if event == "ping" && fired < 3 {
//!         sched.schedule_in(SimTime::from_secs(1), "ping");
//!     }
//! }
//! assert_eq!(fired, 3);
//! assert_eq!(sched.now(), SimTime::from_secs(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod queue;
pub mod rng;
pub mod scheduler;
pub mod time;

pub use dist::{Distribution, Empirical, LogNormal, Uniform};
pub use queue::{EventQueue, Ranked, DYNAMIC_RANK};
pub use rng::SimRng;
pub use scheduler::{
    Clock, DesScheduler, ManualClock, MonotonicClock, RealTimeScheduler, Scheduler,
};
pub use time::SimTime;

#[cfg(test)]
mod tests {
    use super::SimRng;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = SimRng::seed(9);
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
            let u = 3 + rng.index(6);
            assert!((3..9).contains(&u));
            let f = rng.range_f64(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&f));
        }
    }
}

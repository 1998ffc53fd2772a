//! A trace's arrivals, merged one at a time in the order a replay pops
//! them.
//!
//! A trace *arrival* is a session start, a session end or a cell
//! submission: an event the trace fixes before the run, as opposed to the
//! events a replay schedules as it reacts. Two loops replay traces
//! through an event queue: the platform simulation (`notebookos-core`'s
//! `Platform`) and the serve replay (`notebookos-bench`'s `run_serve`).
//! Loading every arrival before the first pop made the queue hold the
//! whole trace (480 868 events on the 90-day study). Instead [`Arrivals`]
//! merges per-session cursors, and each loop keeps exactly one arrival
//! pending: when it pops, the next one is scheduled.
//!
//! That is bit-identical to the bulk load only because the queue's order
//! is a stated rule ([`notebookos_des::Ranked`]): arrival `k` of session
//! `s` — `k = 0` its start, `k = 1` its end, `k = 2 + e` its cell `e` —
//! has the rank `(s, k)` packed into a `u64` ([`Arrival::rank`]), and
//! everything a loop schedules itself has
//! [`DYNAMIC_RANK`](notebookos_des::DYNAMIC_RANK). So at an equal
//! instant an arrival pops before any event the loop scheduled, and
//! arrivals pop among themselves by `(session, k)`: exactly the order the
//! bulk load's sequence numbers gave, which scheduled the whole trace
//! session by session, `k` by `k`, before anything else.
//!
//! The merge places the trace on the loop's clock through a time scale:
//! an instant of `x` trace seconds arrives at `x · scale` seconds. The
//! platform passes 1.0, and `x * 1.0` is exact; the serve replay passes
//! the factor that compresses the trace onto its serving window.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use notebookos_des::SimTime;

use crate::workload::{SessionTrace, WorkloadTrace};

/// One arrival of a trace, by session index (and cell index within the
/// session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Session `s` starts.
    Start(usize),
    /// Session `s` ends.
    End(usize),
    /// Session `s` submits its cell `e`.
    Cell(usize, usize),
}

impl Arrival {
    /// The arrival's rank among events due at the same instant: `(s, k)`
    /// with `s` in the high 32 bits and `k` in the low, so it is below
    /// [`DYNAMIC_RANK`](notebookos_des::DYNAMIC_RANK) for every
    /// `s < 2^32 − 1`.
    pub fn rank(self) -> u64 {
        match self {
            Arrival::Start(s) => arrival_rank(s, 0),
            Arrival::End(s) => arrival_rank(s, 1),
            Arrival::Cell(s, e) => arrival_rank(s, 2 + e),
        }
    }
}

/// The rank of arrival `k` of session `s` ([`Arrival::rank`]).
fn arrival_rank(s: usize, k: usize) -> u64 {
    debug_assert!(s < u32::MAX as usize && k <= u32::MAX as usize);
    (s as u64) << 32 | k as u64
}

/// Arrival `k` of session `s` at `at` as one merge key: the time in the
/// high 64 bits, the rank in the low, so keys order as `(time, s, k)`.
fn key(at: SimTime, s: usize, k: usize) -> u128 {
    u128::from(at.as_micros()) << 64 | u128::from(arrival_rank(s, k))
}

/// The merge of every session's arrivals in `(time, session, k)` order,
/// in memory O(sessions) whatever the number of cells. It has three
/// sources, each in key order: the starts and the ends, each sorted once,
/// and a min-heap holding the next cell of every started session with
/// cells left. A session's first cell enters the heap when the session
/// starts (no cell precedes its start), so the heap holds only sessions in
/// progress.
#[derive(Debug)]
pub struct Arrivals {
    /// Every session's start key, latest first (fed from the back).
    starts: Vec<u128>,
    /// Every session's end key, latest first.
    ends: Vec<u128>,
    /// The next cell of each started session with cells left.
    cells: BinaryHeap<Reverse<u128>>,
    /// Seconds on the loop's clock per trace second.
    scale: f64,
}

impl Arrivals {
    /// The merge over every arrival of `trace`, an instant of `x` trace
    /// seconds arriving at `SimTime::from_secs_f64(x * scale)`.
    ///
    /// # Panics
    ///
    /// Panics if the trace has 2^32 − 1 sessions or more, a session has
    /// 2^32 − 2 cells or more, or a session's cells are not sorted by
    /// submission time or precede its start (the order
    /// [`SessionTrace::events`] documents).
    pub fn new(trace: &WorkloadTrace, scale: f64) -> Self {
        assert!(
            trace.sessions.len() < u32::MAX as usize,
            "too many sessions"
        );
        let at = |secs: f64| SimTime::from_secs_f64(secs * scale);
        let mut starts = Vec::with_capacity(trace.sessions.len());
        let mut ends = Vec::with_capacity(trace.sessions.len());
        for (s, session) in trace.sessions.iter().enumerate() {
            assert!(
                session.events.len() < u32::MAX as usize - 2,
                "too many cells"
            );
            let start = at(session.start_s);
            let first = session.events.first().map(|cell| cell.submit_s);
            assert!(
                first.map_or(true, |t| at(t) >= start)
                    && session
                        .events
                        .windows(2)
                        .all(|w| w[0].submit_s <= w[1].submit_s),
                "session {s}: cells not sorted by submission time after the start"
            );
            starts.push(key(start, s, 0));
            ends.push(key(at(session.end_s), s, 1));
        }
        starts.sort_unstable_by(|a, b| b.cmp(a));
        ends.sort_unstable_by(|a, b| b.cmp(a));
        Arrivals {
            starts,
            ends,
            cells: BinaryHeap::new(),
            scale,
        }
    }

    /// The key of cell `e` of session `s`, if it has one.
    fn cell_key(&self, s: usize, session: &SessionTrace, e: usize) -> Option<u128> {
        let cell = session.events.get(e)?;
        Some(key(
            SimTime::from_secs_f64(cell.submit_s * self.scale),
            s,
            2 + e,
        ))
    }

    /// The next arrival of `trace`, which must be the trace this merge
    /// was built over, and the instant it arrives.
    pub fn next(&mut self, trace: &WorkloadTrace) -> Option<(SimTime, Arrival)> {
        let start = self.starts.last().copied().unwrap_or(u128::MAX);
        let end = self.ends.last().copied().unwrap_or(u128::MAX);
        let cell = self.cells.peek().map_or(u128::MAX, |&Reverse(key)| key);
        let next = start.min(end).min(cell);
        if next == u128::MAX {
            return None;
        }
        let at = SimTime::from_micros((next >> 64) as u64);
        let (s, k) = ((next >> 32) as u32 as usize, next as u32 as usize);
        let session = &trace.sessions[s];
        let arrival = match k {
            0 => {
                self.starts.pop();
                let first = self.cell_key(s, session, 0);
                self.cells.extend(first.map(Reverse));
                Arrival::Start(s)
            }
            1 => {
                self.ends.pop();
                Arrival::End(s)
            }
            _ => {
                let e = k - 2;
                // `next` is the heap's top. A pop sifts to the bottom one
                // comparison a level, and the session's next cell, usually
                // later than most, sifts back up only a little: cheaper
                // than re-keying the top, two comparisons a level.
                self.cells.pop();
                let following = self.cell_key(s, session, e + 1);
                self.cells.extend(following.map(Reverse));
                Arrival::Cell(s, e)
            }
        };
        debug_assert_eq!(arrival.rank(), next as u64);
        Some((at, arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, SyntheticConfig};

    /// The merge yields every arrival of a trace once, in key order: the
    /// starts, ends and cells of every session, each at its scaled
    /// instant, sorted together.
    #[test]
    fn the_merge_yields_every_arrival_in_key_order() {
        for (workload, seed, scale) in [
            (SyntheticConfig::smoke(), 1, 1.0),
            (SyntheticConfig::excerpt_17_5h(), 2, 1.0),
            (SyntheticConfig::flash_crowd_17_5h(), 3, 1.0),
            (SyntheticConfig::smoke(), 4, 30.0 / 3_600.0),
        ] {
            let trace = generate(&workload, seed);
            let at = |secs: f64| SimTime::from_secs_f64(secs * scale);
            let mut want = Vec::new();
            for (s, session) in trace.sessions.iter().enumerate() {
                want.push(key(at(session.start_s), s, 0));
                want.push(key(at(session.end_s), s, 1));
                for (e, cell) in session.events.iter().enumerate() {
                    want.push(key(at(cell.submit_s), s, 2 + e));
                }
            }
            want.sort_unstable();
            let mut arrivals = Arrivals::new(&trace, scale);
            let mut got = Vec::new();
            while let Some((at, arrival)) = arrivals.next(&trace) {
                got.push(u128::from(at.as_micros()) << 64 | u128::from(arrival.rank()));
            }
            assert_eq!(got, want);
        }
    }
}

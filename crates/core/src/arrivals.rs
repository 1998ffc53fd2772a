//! The trace, fed to the event queue one arrival at a time.
//!
//! A trace *arrival* is a session start, a session end or a cell
//! submission: an event the trace fixes before the run, as opposed to the
//! events the platform schedules as it reacts. Loading every arrival
//! before the first pop made the queue hold the whole trace (480 868
//! events on the 90-day study). Instead [`Arrivals`] merges per-session
//! cursors, and the platform keeps exactly one arrival pending: when it
//! pops, the next one is scheduled.
//!
//! That is bit-identical to the bulk load only because the queue's order
//! is a stated rule ([`notebookos_des::Ranked`]): arrival `k` of session
//! `s` — `k = 0` its start, `k = 1` its end, `k = 2 + e` its cell `e` —
//! has the rank `(s, k)` packed into a `u64` ([`arrival_rank`]), and
//! everything the platform schedules has
//! [`DYNAMIC_RANK`](notebookos_des::DYNAMIC_RANK). So at an equal
//! instant an arrival pops before any platform event, and arrivals pop
//! among themselves by `(session, k)`: exactly the order the bulk load's
//! sequence numbers gave, which scheduled the whole trace session by
//! session, `k` by `k`, before anything else.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use notebookos_des::SimTime;
use notebookos_trace::{SessionTrace, WorkloadTrace};

use crate::platform::Ev;

/// The rank of arrival `k` of session `s`: `s` in the high 32 bits, `k` in
/// the low. It is below `DYNAMIC_RANK` for every `s < 2^32 − 1`.
pub(crate) fn arrival_rank(s: usize, k: usize) -> u64 {
    debug_assert!(s < u32::MAX as usize && k <= u32::MAX as usize);
    (s as u64) << 32 | k as u64
}

/// Arrival `k` of session `s` at `at` as one merge key: the time in the
/// high 64 bits, the rank in the low, so keys order as `(time, s, k)`.
fn key(at: SimTime, s: usize, k: usize) -> u128 {
    u128::from(at.as_micros()) << 64 | u128::from(arrival_rank(s, k))
}

/// The key of cell `e` of session `s`, if it has one.
fn cell_key(s: usize, session: &SessionTrace, e: usize) -> Option<u128> {
    let cell = session.events.get(e)?;
    Some(key(SimTime::from_secs_f64(cell.submit_s), s, 2 + e))
}

/// The merge of every session's arrivals in `(time, session, k)` order,
/// in memory O(sessions) whatever the number of cells. It has three
/// sources, each in key order: the starts and the ends, each sorted once,
/// and a min-heap holding the next cell of every started session with
/// cells left. A session's first cell enters the heap when the session
/// starts (no cell precedes its start), so the heap holds only sessions in
/// progress.
#[derive(Debug)]
pub(crate) struct Arrivals {
    /// Every session's start key, latest first (fed from the back).
    starts: Vec<u128>,
    /// Every session's end key, latest first.
    ends: Vec<u128>,
    /// The next cell of each started session with cells left.
    cells: BinaryHeap<Reverse<u128>>,
}

impl Arrivals {
    /// The merge over every arrival of `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the trace has 2^32 − 1 sessions or more, a session has
    /// 2^32 − 2 cells or more, or a session's cells are not sorted by
    /// submission time or precede its start (the order
    /// [`SessionTrace::events`] documents).
    pub(crate) fn new(trace: &WorkloadTrace) -> Self {
        assert!(
            trace.sessions.len() < u32::MAX as usize,
            "too many sessions"
        );
        let mut starts = Vec::with_capacity(trace.sessions.len());
        let mut ends = Vec::with_capacity(trace.sessions.len());
        for (s, session) in trace.sessions.iter().enumerate() {
            assert!(
                session.events.len() < u32::MAX as usize - 2,
                "too many cells"
            );
            let start = SimTime::from_secs_f64(session.start_s);
            let first = session.events.first().map(|cell| cell.submit_s);
            assert!(
                first.map_or(true, |t| SimTime::from_secs_f64(t) >= start)
                    && session
                        .events
                        .windows(2)
                        .all(|w| w[0].submit_s <= w[1].submit_s),
                "session {s}: cells not sorted by submission time after the start"
            );
            starts.push(key(start, s, 0));
            ends.push(key(SimTime::from_secs_f64(session.end_s), s, 1));
        }
        starts.sort_unstable_by(|a, b| b.cmp(a));
        ends.sort_unstable_by(|a, b| b.cmp(a));
        Arrivals {
            starts,
            ends,
            cells: BinaryHeap::new(),
        }
    }

    /// The next arrival of `trace`, which must be the trace this merge
    /// was built over, as the event that delivers it.
    pub(crate) fn next(&mut self, trace: &WorkloadTrace) -> Option<(SimTime, Ev)> {
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
        let event = match k {
            0 => {
                self.starts.pop();
                self.cells.extend(cell_key(s, session, 0).map(Reverse));
                Ev::SessionStart(s)
            }
            1 => {
                self.ends.pop();
                Ev::SessionEnd(s)
            }
            _ => {
                let e = k - 2;
                // `next` is the heap's top. A pop sifts to the bottom one
                // comparison a level, and the session's next cell, usually
                // later than most, sifts back up only a little: cheaper
                // than re-keying the top, two comparisons a level.
                self.cells.pop();
                self.cells.extend(cell_key(s, session, e + 1).map(Reverse));
                Ev::CellSubmit {
                    s,
                    e,
                    submit_us: (session.events[e].submit_s * 1e6) as u64,
                    retry: false,
                }
            }
        };
        debug_assert_eq!(notebookos_des::Ranked::rank(&event), next as u64);
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_trace::{generate, SyntheticConfig};

    /// The merge yields every arrival of a trace once, in key order: the
    /// starts, ends and cells of every session, sorted together.
    #[test]
    fn the_merge_yields_every_arrival_in_key_order() {
        for (workload, seed) in [
            (SyntheticConfig::smoke(), 1),
            (SyntheticConfig::excerpt_17_5h(), 2),
            (SyntheticConfig::flash_crowd_17_5h(), 3),
        ] {
            let trace = generate(&workload, seed);
            let mut want = Vec::new();
            for (s, session) in trace.sessions.iter().enumerate() {
                want.push(key(SimTime::from_secs_f64(session.start_s), s, 0));
                want.push(key(SimTime::from_secs_f64(session.end_s), s, 1));
                want.extend((0..session.events.len()).filter_map(|e| cell_key(s, session, e)));
            }
            want.sort_unstable();
            let mut arrivals = Arrivals::new(&trace);
            let mut got = Vec::new();
            while let Some((at, event)) = arrivals.next(&trace) {
                let rank = notebookos_des::Ranked::rank(&event);
                got.push(u128::from(at.as_micros()) << 64 | u128::from(rank));
            }
            assert_eq!(got, want);
        }
    }
}

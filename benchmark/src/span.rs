//! Spans recorded from outside the library crates: one per call the
//! benchmark makes into a layer, nested under the event, request or node
//! input that caused it. A layer's self time is its span minus its
//! children (choosing-metrics §4). Spans live in memory and are written out
//! once, after the timed work.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

macro_rules! ops {
    ($($name:ident = ($layer:literal, $op:literal),)*) => {
        /// Every call site the benchmark wraps: `(layer, op)`, the layer
        /// named after the crate or module the call lands in.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op { $($name),* }

        impl Op {
            /// All ops, in declaration order (the index into aggregates).
            pub const ALL: &'static [Op] = &[$(Op::$name),*];

            /// The layer this op belongs to.
            pub fn layer(self) -> &'static str {
                match self { $(Op::$name => $layer),* }
            }

            /// The operation name within the layer.
            pub fn name(self) -> &'static str {
                match self { $(Op::$name => $op),* }
            }
        }
    };
}

ops! {
    // sim: the run, the queue, and one handler op per `Ev` variant.
    SimRun = ("benchmark", "sim_pass"),
    DesSchedule = ("des", "schedule"),
    DesPop = ("des", "pop"),
    EvSessionStart = ("core.platform", "session_start"),
    EvSessionEnd = ("core.platform", "session_end"),
    EvCellSubmit = ("core.platform", "cell_submit"),
    EvExecFinish = ("core.platform", "exec_finish"),
    EvAutoscaleTick = ("core.platform", "autoscale_tick"),
    EvMetricsTick = ("core.platform", "metrics_tick"),
    EvOther = ("core.platform", "other_ev"),
    // serve: the round trip and each public call it makes.
    ServeRoundTrip = ("benchmark", "round_trip"),
    ServeRequestBuild = ("core.serve", "request_build"),
    ServeClientSend = ("core.serve", "client_send"),
    ServePump = ("core.serve", "pump"),
    ServeFinish = ("core.serve", "finish"),
    ServeClientDrain = ("core.serve", "client_drain"),
    ServeStartSession = ("core.serve", "start_session"),
    ServeEndSession = ("core.serve", "end_session"),
    // raft: each node input and each storage call under it.
    RaftPropose = ("raft.node", "propose"),
    RaftRecvAppend = ("raft.node", "recv_append"),
    RaftRecvAppendResp = ("raft.node", "recv_append_resp"),
    RaftRecvVote = ("raft.node", "recv_vote"),
    RaftTick = ("raft.node", "tick"),
    StoreAppend = ("raft.storage", "append"),
    StoreSync = ("raft.storage", "sync"),
    StoreHardState = ("raft.storage", "hard_state"),
    StoreTruncate = ("raft.storage", "truncate"),
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace, starting at 1.
    pub id: u32,
    /// The enclosing span's id; 0 at the root.
    pub parent: u32,
    /// What was called.
    pub op: Op,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Running totals for one [`Op`].
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations, children included.
    pub total_ns: u64,
    /// Sum of self times (duration minus children).
    pub self_ns: u64,
    /// Per-call self time, capped at [`SAMPLE_CAP`] samples.
    samples: Vec<u32>,
}

/// Per-op self-time samples kept for the median; beyond this only the
/// totals advance (16 MiB per op at most).
const SAMPLE_CAP: usize = 4 << 20;

/// Spans kept verbatim for the trace file; aggregates cover all of them.
const KEEP_CAP: usize = 200_000;

#[derive(Debug)]
struct Open {
    id: u32,
    op: Op,
    start_ns: u64,
    child_ns: u64,
}

/// The in-memory span recorder. Owned by the driver loop; nothing in the
/// library crates knows it exists.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    kept: Vec<Span>,
    closed: u64,
    next_id: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates an empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            stack: Vec::new(),
            aggs: vec![Agg::default(); Op::ALL.len()],
            kept: Vec::new(),
            closed: 0,
            next_id: 1,
        }
    }

    /// The instant span timestamps count from, for wrappers that stamp
    /// their own calls and hand them over through [`Tracer::leaf`].
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds since [`Tracer::epoch`].
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span at `start_ns` under whatever span is open.
    pub fn enter_at(&mut self, op: Op, start_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            op,
            start_ns,
            child_ns: 0,
        });
    }

    /// Opens a span now.
    pub fn enter(&mut self, op: Op) {
        let now = self.now_ns();
        self.enter_at(op, now);
    }

    /// Closes the innermost open span at `end_ns`.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — a driver bug.
    pub fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let parent = self.stack.last().map_or(0, |p| p.id);
        let span = Span {
            id: open.id,
            parent,
            op: open.op,
            start_ns: open.start_ns,
            end_ns,
        };
        self.close(span, open.child_ns);
    }

    /// Closes the innermost open span now.
    pub fn exit(&mut self) {
        let now = self.now_ns();
        self.exit_at(now);
    }

    /// Records an already-finished call as a child of the open span — how
    /// a wrapper that cannot hold the tracer (the storage under a
    /// `RaftNode`) reports what it timed.
    pub fn leaf(&mut self, op: Op, start_ns: u64, end_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |p| p.id);
        self.close(
            Span {
                id,
                parent,
                op,
                start_ns,
                end_ns,
            },
            0,
        );
    }

    fn close(&mut self, span: Span, child_ns: u64) {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        let self_ns = duration.saturating_sub(child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let agg = &mut self.aggs[span.op as usize];
        agg.calls += 1;
        agg.total_ns += duration;
        agg.self_ns += self_ns;
        if agg.samples.len() < SAMPLE_CAP {
            agg.samples.push(self_ns.min(u64::from(u32::MAX)) as u32);
        }
        self.closed += 1;
        if self.kept.len() < KEEP_CAP {
            self.kept.push(span);
        }
    }

    /// Totals for `op`.
    pub fn agg(&self, op: Op) -> &Agg {
        &self.aggs[op as usize]
    }

    /// Calls recorded for `op`.
    pub fn calls(&self, op: Op) -> u64 {
        self.agg(op).calls
    }

    /// Median self time per call of `op`, ns; 0 when never called.
    pub fn median_self_ns(&mut self, op: Op) -> f64 {
        crate::stats::median_ns(&mut self.aggs[op as usize].samples)
    }

    /// Sum of self time over every op of `layer`, ns.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        Op::ALL
            .iter()
            .filter(|op| op.layer() == layer)
            .map(|&op| self.agg(op).self_ns)
            .sum()
    }

    /// Spans closed so far.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// The spans kept verbatim (the first [`KEEP_CAP`] closed).
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Writes the kept spans as one JSON document. The workload is named
    /// once at the top instead of on every span.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"spans_closed\":{},\"spans_kept\":{},\"spans\":[",
            self.closed,
            self.kept.len()
        )?;
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.op.layer(),
                s.op.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.enter_at(Op::EvCellSubmit, 100);
        t.enter_at(Op::DesSchedule, 120);
        t.exit_at(150); // 30 ns child
        t.leaf(Op::DesSchedule, 160, 170); // 10 ns child
        t.exit_at(200); // 100 ns span
        let parent = t.agg(Op::EvCellSubmit);
        assert_eq!(
            (parent.calls, parent.total_ns, parent.self_ns),
            (1, 100, 60)
        );
        let child = t.agg(Op::DesSchedule);
        assert_eq!((child.calls, child.total_ns, child.self_ns), (2, 40, 40));
        assert_eq!(t.median_self_ns(Op::EvCellSubmit), 60.0);
        assert_eq!(t.layer_self_ns("des"), 40);
    }

    #[test]
    fn grandchildren_are_charged_once() {
        let mut t = Tracer::new();
        t.enter_at(Op::ServeRoundTrip, 0);
        t.enter_at(Op::ServePump, 10);
        t.leaf(Op::StoreSync, 20, 50);
        t.exit_at(60);
        t.exit_at(100);
        // The root loses only its direct child's 50 ns, not 50 + 30.
        assert_eq!(t.agg(Op::ServeRoundTrip).self_ns, 50);
        assert_eq!(t.agg(Op::ServePump).self_ns, 20);
    }

    #[test]
    fn parents_and_ids_link_the_tree() {
        let mut t = Tracer::new();
        t.enter_at(Op::RaftPropose, 0);
        t.leaf(Op::StoreAppend, 1, 2);
        t.exit_at(3);
        t.leaf(Op::RaftTick, 4, 5);
        let kept = t.kept();
        assert_eq!(kept.len(), 3);
        assert_eq!((kept[0].op, kept[0].parent), (Op::StoreAppend, 1));
        assert_eq!(
            (kept[1].op, kept[1].id, kept[1].parent),
            (Op::RaftPropose, 1, 0)
        );
        assert_eq!(kept[2].parent, 0);
        assert_eq!(t.closed(), 3);
    }

    #[test]
    fn never_called_op_reports_zero() {
        let mut t = Tracer::new();
        assert_eq!(t.calls(Op::DesPop), 0);
        assert_eq!(t.median_self_ns(Op::DesPop), 0.0);
    }
}

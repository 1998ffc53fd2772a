//! `sim-summer` and `sim-fleet`: one `Platform` replaying one generated
//! trace per pass, through a plain `DesScheduler` when untraced and
//! through [`TimedScheduler`] when traced.

use std::time::Instant;

use notebookos_core::platform::Ev;
use notebookos_core::{Platform, PlatformConfig, RunMetrics};
use notebookos_des::{DesScheduler, Scheduler, SimTime};
use notebookos_trace::WorkloadTrace;

use crate::harness::{
    chunk_walls, measure, set_end_to_end, write_trace, Off, Opts, PassReport, Passes, Probe,
};
use crate::inputs::{self, SimKind};
use crate::probes;
use crate::report::Outcome;
use crate::span::{Op, Tracer};
use crate::stats::lowest;

/// A `Scheduler<Ev>` that times every call into the wrapped
/// `DesScheduler` and, from the gaps between successive pops, the handler
/// that ran in between. It changes nothing the platform can observe: the
/// traced run's `RunMetrics` must equal the untraced run's.
pub struct TimedScheduler<'a> {
    inner: DesScheduler<Ev>,
    tracer: &'a mut Tracer,
    /// Whether a handler span is open (a pop returned an event).
    handling: bool,
    /// Largest queue length seen after a `schedule`.
    pub pending_max: usize,
    /// When the platform first scheduled anything, i.e. when
    /// `Platform::new` had returned.
    pub first_schedule_ns: Option<u64>,
}

fn op_of(event: &Ev) -> Op {
    match event {
        Ev::SessionStart(_) => Op::EvSessionStart,
        Ev::SessionEnd(_) => Op::EvSessionEnd,
        Ev::CellSubmit { .. } => Op::EvCellSubmit,
        Ev::ExecFinish { .. } => Op::EvExecFinish,
        Ev::AutoscaleTick => Op::EvAutoscaleTick,
        Ev::MetricsTick => Op::EvMetricsTick,
        _ => Op::EvOther,
    }
}

impl<'a> TimedScheduler<'a> {
    /// Wraps a fresh `DesScheduler`.
    pub fn new(tracer: &'a mut Tracer) -> Self {
        TimedScheduler {
            inner: DesScheduler::new(),
            tracer,
            handling: false,
            pending_max: 0,
            first_schedule_ns: None,
        }
    }

    /// Closes the handler span left open by the last pop, if the run ended
    /// with events still queued beyond the horizon.
    pub fn finish(&mut self) {
        if self.handling {
            self.tracer.exit();
            self.handling = false;
        }
    }

    fn timed_schedule(&mut self, schedule: impl FnOnce(&mut DesScheduler<Ev>)) {
        let start = self.tracer.now_ns();
        schedule(&mut self.inner);
        let end = self.tracer.now_ns();
        self.tracer.leaf(Op::DesSchedule, start, end);
        self.first_schedule_ns.get_or_insert(start);
        self.pending_max = self.pending_max.max(self.inner.pending());
    }

    /// One timestamp ends the previous handler and starts the pop; one
    /// more ends the pop and starts the next handler.
    fn timed_pop(
        &mut self,
        pop: impl FnOnce(&mut DesScheduler<Ev>) -> Option<(SimTime, Ev)>,
    ) -> Option<(SimTime, Ev)> {
        let start = self.tracer.now_ns();
        if self.handling {
            self.tracer.exit_at(start);
        }
        let popped = pop(&mut self.inner);
        let end = self.tracer.now_ns();
        self.tracer.leaf(Op::DesPop, start, end);
        self.handling = popped.is_some();
        if let Some((_, event)) = &popped {
            self.tracer.enter_at(op_of(event), end);
        }
        popped
    }
}

impl Scheduler<Ev> for TimedScheduler<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule(&mut self, at: SimTime, event: Ev) {
        self.timed_schedule(|s| s.schedule(at, event));
    }

    fn schedule_in(&mut self, delay: SimTime, event: Ev) {
        self.timed_schedule(|s| s.schedule_in(delay, event));
    }

    fn pop_next(&mut self) -> Option<(SimTime, Ev)> {
        self.timed_pop(|s| s.pop_next())
    }

    fn peek_deadline(&self) -> Option<SimTime> {
        self.inner.peek_deadline()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn scheduled_total(&self) -> u64 {
        self.inner.scheduled_total()
    }

    fn pop_next_until(&mut self, horizon: SimTime) -> Option<(SimTime, Ev)> {
        self.timed_pop(|s| s.pop_next_until(horizon))
    }
}

/// The untraced pass's scheduler: a `DesScheduler` that reads the clock
/// once every `every` pops and does nothing else, so a pass can be cut into
/// fixed-work chunks (see [`crate::harness::best_pass_wall`]). Per call it adds one
/// counter increment to the wrapped scheduler.
struct ChunkClock {
    inner: DesScheduler<Ev>,
    every: u64,
    pops: u64,
    stamps: Vec<Instant>,
}

impl Scheduler<Ev> for ChunkClock {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule(&mut self, at: SimTime, event: Ev) {
        self.inner.schedule(at, event);
    }

    fn schedule_in(&mut self, delay: SimTime, event: Ev) {
        self.inner.schedule_in(delay, event);
    }

    fn pop_next(&mut self) -> Option<(SimTime, Ev)> {
        self.pops += 1;
        if self.pops.is_multiple_of(self.every) {
            self.stamps.push(Instant::now());
        }
        self.inner.pop_next()
    }

    fn peek_deadline(&self) -> Option<SimTime> {
        self.inner.peek_deadline()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn scheduled_total(&self) -> u64 {
        self.inner.scheduled_total()
    }
}

/// Pops per chunk: about 2 ms of either workload.
fn chunk_pops(kind: SimKind) -> u64 {
    match kind {
        SimKind::Summer => 2048,
        SimKind::Fleet => 256,
    }
}

/// What one pass leaves behind for the checks and the rates.
struct PassResult {
    metrics: RunMetrics,
    events: u64,
    /// Wall seconds of each chunk; the whole pass as one chunk when traced.
    chunk_walls: Vec<f64>,
}

fn untraced_pass(config: &PlatformConfig, trace: WorkloadTrace, every: u64) -> PassResult {
    let mut sched = ChunkClock {
        inner: DesScheduler::new(),
        every,
        pops: 0,
        stamps: vec![Instant::now()],
    };
    let platform = Platform::run_with_scheduler(config.clone(), trace, &mut sched);
    sched.stamps.push(Instant::now());
    PassResult {
        metrics: platform.metrics().clone(),
        events: platform.events_processed(),
        chunk_walls: chunk_walls(&sched.stamps),
    }
}

/// Extras only the traced pass can report.
#[derive(Debug, Clone, Copy, Default)]
struct TracedExtras {
    pending_max: usize,
    new_s: f64,
}

fn traced_pass(
    config: &PlatformConfig,
    trace: WorkloadTrace,
    tracer: &mut Tracer,
) -> (PassResult, TracedExtras) {
    let run_start = tracer.now_ns();
    tracer.enter_at(Op::SimRun, run_start);
    let mut sched = TimedScheduler::new(tracer);
    let t = Instant::now();
    let platform = Platform::run_with_scheduler(config.clone(), trace, &mut sched);
    let wall_s = t.elapsed().as_secs_f64();
    sched.finish();
    let extras = TracedExtras {
        pending_max: sched.pending_max,
        new_s: sched
            .first_schedule_ns
            .map_or(0.0, |ns| (ns - run_start) as f64 / 1e9),
    };
    tracer.exit();
    (
        PassResult {
            metrics: platform.metrics().clone(),
            events: platform.events_processed(),
            chunk_walls: vec![wall_s],
        },
        extras,
    )
}

/// The sim output check: a pass's events were attempted, and all of them
/// failed if the pass did not reproduce `reference` bit for bit. Executions
/// the *model* aborts (a migration that gave up) are a simulated result,
/// reported as `sim.aborted_executions`, not a failure of the program.
fn check(reference: &PassResult, pass: PassResult) -> PassReport {
    let same = pass.metrics == reference.metrics && pass.events == reference.events;
    PassReport {
        ops: pass.events,
        failed: if same { 0 } else { pass.events },
        violations: if same {
            Vec::new()
        } else {
            vec!["RunMetrics or event count differ from the first pass".to_string()]
        },
        chunk_walls: pass.chunk_walls,
        ..PassReport::default()
    }
}

/// One phase of a run: passes over the seed's trace for `budget_s`, through
/// a [`TimedScheduler`] when `probe` traces and a plain `DesScheduler`
/// otherwise. The first pass becomes `reference` unless an earlier phase
/// left one; every pass must reproduce it.
fn passes(
    kind: SimKind,
    opts: &Opts,
    budget_s: f64,
    probe: &mut impl Probe,
    reference: &mut Option<PassResult>,
    outcome: &mut Outcome,
) -> (Passes, TracedExtras) {
    let config = inputs::sim_platform_config(kind, opts.smoke, opts.seed);
    let warm_up = !opts.smoke && reference.is_none();
    let mut extras = TracedExtras::default();
    let passes = measure(
        probe,
        budget_s,
        warm_up,
        outcome,
        |_| Ok(inputs::sim_trace(kind, opts.smoke, opts.seed)),
        |trace, probe| {
            let mut pass = match probe.tracer() {
                Some(tracer) => {
                    let (pass, e) = traced_pass(&config, trace, tracer);
                    extras = e;
                    pass
                }
                None => untraced_pass(&config, trace, chunk_pops(kind)),
            };
            if let Some(reference) = reference.as_ref() {
                return check(reference, pass);
            }
            let chunk_walls = std::mem::take(&mut pass.chunk_walls);
            PassReport {
                ops: reference.insert(pass).events,
                chunk_walls,
                ..PassReport::default()
            }
        },
    );
    (passes, extras)
}

/// Runs the workload: end to end (untraced), or layer by layer (traced).
pub fn run(kind: SimKind, name: &'static str, traced: bool, opts: &Opts) -> Outcome {
    if traced {
        return run_traced(kind, name, opts);
    }
    let mut outcome = Outcome::new(name, false);
    let mut reference = None;
    let (p, _) = passes(
        kind,
        opts,
        opts.seconds,
        &mut Off,
        &mut reference,
        &mut outcome,
    );
    let events = reference.map_or(0, |r| r.events);
    set_end_to_end(&mut outcome, events, &p);
    outcome.notes.push(format!(
        "op = one simulated event; {events} events per pass; simulated results are in the traced run"
    ));
    outcome
}

/// The per-layer run: untraced reference passes, traced passes on the same
/// inputs, then the batched probes of the layers `Platform` uses.
fn run_traced(kind: SimKind, name: &'static str, opts: &Opts) -> Outcome {
    let mut outcome = Outcome::new(name, true);
    probes::machine(&mut outcome);

    let mut reference = None;
    let (untraced, _) = passes(
        kind,
        opts,
        opts.seconds / 3.0,
        &mut Off,
        &mut reference,
        &mut outcome,
    );

    let t = Instant::now();
    let trace = inputs::sim_trace(kind, opts.smoke, opts.seed);
    outcome.set("trace.generate_s", t.elapsed().as_secs_f64(), 1);
    outcome.set("trace.events", trace.total_events() as f64, 1);
    drop(trace);

    let mut tracer = Tracer::new();
    let (traced, extras) = passes(
        kind,
        opts,
        opts.seconds / 3.0,
        &mut tracer,
        &mut reference,
        &mut outcome,
    );
    let Some(reference) = reference else {
        return outcome;
    };
    let passes = traced.chunks.len().max(1) as u64;
    // Whole passes on both sides: a traced pass has no chunk stamps.
    let whole = |p: &Passes| {
        lowest(
            &p.chunks
                .iter()
                .map(|c| c.iter().sum())
                .collect::<Vec<f64>>(),
        )
    };
    let traced_wall = whole(&traced);
    let total_wall_ns = traced.total_wall() * 1e9;
    outcome.set(
        "trace_overhead_share",
        traced_wall / whole(&untraced) - 1.0,
        passes,
    );

    for (metric, op) in [
        ("des.schedule_ns", Op::DesSchedule),
        ("des.pop_ns", Op::DesPop),
        ("core.platform.session_start_ns", Op::EvSessionStart),
        ("core.platform.session_end_ns", Op::EvSessionEnd),
        ("core.platform.cell_submit_ns", Op::EvCellSubmit),
        ("core.platform.exec_finish_ns", Op::EvExecFinish),
        ("core.platform.autoscale_tick_ns", Op::EvAutoscaleTick),
        ("core.platform.metrics_tick_ns", Op::EvMetricsTick),
        ("core.platform.other_ev_ns", Op::EvOther),
    ] {
        let calls = tracer.calls(op);
        outcome.set(metric, tracer.median_self_ns(op), calls);
    }
    let schedule_calls = tracer.calls(Op::DesSchedule);
    let pop_calls = tracer.calls(Op::DesPop);
    outcome.set(
        "des.schedule_calls",
        (schedule_calls / passes) as f64,
        passes,
    );
    outcome.set("des.pop_calls", (pop_calls / passes) as f64, passes);
    let des_ns = tracer.layer_self_ns("des") as f64;
    let handle_ns = tracer.layer_self_ns("core.platform") as f64;
    let handled: u64 = Op::ALL
        .iter()
        .filter(|op| op.layer() == "core.platform")
        .map(|&op| tracer.calls(op))
        .sum();
    outcome.set("des.busy_share", des_ns / total_wall_ns, passes);
    outcome.set(
        "core.platform.busy_share",
        handle_ns / total_wall_ns,
        passes,
    );
    outcome.set(
        "core.platform.handle_ns",
        handle_ns / handled.max(1) as f64,
        handled,
    );
    outcome.set("des.pending_max", extras.pending_max as f64, 1);
    outcome.set("core.platform.new_s", extras.new_s, 1);

    let mut sim = reference.metrics;
    outcome.set(
        "sim.gpu_hours_saved",
        sim.gpu_hours_saved_vs_reservation(),
        1,
    );
    outcome.set(
        "sim.interactivity_p99_ms",
        sim.interactivity_ms.percentile(99.0),
        sim.interactivity_ms.len() as u64,
    );
    outcome.set("sim.aborted_executions", sim.counters.aborted as f64, 1);

    let sizes = probes::SimSizes {
        hosts: inputs::sim_fleet_hosts(kind, opts.smoke),
        sessions: inputs::sim_trace_config(kind, opts.smoke).sessions,
        executions: sim.counters.executions as usize,
    };
    probes::sim_layers(&sizes, opts.smoke, &mut outcome);

    // Bottom-up estimate of a pass: the queue's measured busy time plus
    // what `RunCounters` says happened, priced at the probed cost per call
    // (per execution: a commit/release pair, one keyed write, the
    // designation and the sync draws, four CDF records and four timeline
    // sets; per kernel: one top-3 rank and three subscriptions).
    let ns = |name: &str| outcome.get(name).map_or(0.0, |v| v.value);
    let per_execution = ns("cluster.commit_release_ns")
        + ns("datastore.write_keyed_ns")
        + 2.0 * ns("core.election.designation_ns")
        + 4.0 * ns("metrics.cdf_record_ns")
        + 4.0 * ns("metrics.timeline_set_ns");
    let per_kernel = ns("core.policy.rank_top3_ns") + 1.5 * ns("cluster.subscribe_unsubscribe_ns");
    let counters = sim.counters;
    let attributed_ns = des_ns / passes as f64
        + counters.executions as f64 * per_execution
        + counters.kernel_creations as f64 * per_kernel;
    outcome.set(
        "sim.attributed_share",
        attributed_ns / (traced_wall * 1e9),
        passes,
    );

    write_trace(&tracer, opts, &mut outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_inputs() -> (PlatformConfig, WorkloadTrace) {
        (
            inputs::sim_platform_config(SimKind::Summer, true, 3),
            inputs::sim_trace(SimKind::Summer, true, 3),
        )
    }

    #[test]
    fn timed_scheduler_is_transparent_to_the_platform() {
        let (config, trace) = smoke_inputs();
        let plain = untraced_pass(&config, trace.clone(), 1000);
        assert_eq!(plain.chunk_walls.len() as u64, plain.events / 1000 + 1);
        let mut tracer = Tracer::new();
        let (traced, extras) = traced_pass(&config, trace, &mut tracer);
        assert_eq!(traced.metrics, plain.metrics);
        assert_eq!(traced.events, plain.events);
        // One pop per event plus the final empty one; one handler span per
        // event; every schedule seen.
        assert_eq!(tracer.calls(Op::DesPop), plain.events + 1);
        let handled: u64 = Op::ALL
            .iter()
            .filter(|op| op.layer() == "core.platform")
            .map(|&op| tracer.calls(op))
            .sum();
        assert_eq!(handled, plain.events);
        assert!(tracer.calls(Op::DesSchedule) >= plain.events);
        assert!(extras.pending_max > 0 && extras.new_s > 0.0);
        assert_eq!(tracer.calls(Op::SimRun), 1);
    }

    #[test]
    fn a_pass_that_differs_from_the_first_fails_all_its_events() {
        let (config, trace) = smoke_inputs();
        let first = untraced_pass(&config, trace.clone(), 1000);
        let same = check(&first, untraced_pass(&config, trace.clone(), 1000));
        assert_eq!((same.ops, same.failed), (first.events, 0));
        assert!(same.violations.is_empty());
        let mut other = untraced_pass(&config, trace, 1000);
        other.metrics.counters.executions += 1;
        let tampered = check(&first, other);
        assert_eq!(
            (tampered.ops, tampered.failed),
            (first.events, first.events)
        );
        assert_eq!(tampered.violations.len(), 1);
    }
}

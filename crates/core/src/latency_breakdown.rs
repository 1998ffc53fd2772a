//! Per-step critical-path latency accounting (Fig. 15 and Figs. 16–19).
//!
//! The appendix decomposes every execution request into numbered steps.
//! The steps with non-negligible latency — the ones the figures plot — are
//! modelled here; pure forwarding steps are omitted exactly as the paper
//! omits them ("their latency is near zero for all baselines").

use notebookos_metrics::{Cdf, Table};

/// The measured critical-path steps (Fig. 15 numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Step 1 — Global Scheduler request processing: queuing, on-demand
    /// container provisioning, placement decisions.
    GlobalSchedulerRequest,
    /// Step 5 — kernel replica pre-processing (metadata extraction).
    KernelPreprocess,
    /// Step 6 — executor-replica selection protocol (NotebookOS only).
    PrimaryReplicaProtocol,
    /// Step 7 — intermediary interval between selection and execution
    /// (GPU binding + model load to GPU).
    IntermediaryInterval,
    /// Step 8 — the user code's execution itself.
    Execute,
    /// Step 9 — kernel post-processing (state sync / large-object writes;
    /// asynchronous in NotebookOS, on the critical path in the baselines).
    KernelPostprocess,
    /// Step 10 — reply hop from the kernel back to the Local Scheduler.
    ReplyToLocalScheduler,
}

impl Step {
    /// All measured steps in figure order, which is declaration order:
    /// `Step::ALL[step as usize] == step`, so a recorder indexes its
    /// per-step CDFs by the step itself.
    pub const ALL: [Step; 7] = [
        Step::GlobalSchedulerRequest,
        Step::KernelPreprocess,
        Step::PrimaryReplicaProtocol,
        Step::IntermediaryInterval,
        Step::Execute,
        Step::KernelPostprocess,
        Step::ReplyToLocalScheduler,
    ];

    /// The figure's axis label for this step.
    pub fn label(self) -> &'static str {
        match self {
            Step::GlobalSchedulerRequest => "GS P Rq (1)",
            Step::KernelPreprocess => "K PP Rq (5)",
            Step::PrimaryReplicaProtocol => "K PRP (6)",
            Step::IntermediaryInterval => "K PRP Exec (7)",
            Step::Execute => "K Exec (8)",
            Step::KernelPostprocess => "K P Rsp (9)",
            Step::ReplyToLocalScheduler => "LS<-K (10)",
        }
    }
}

/// Collects per-step latency CDFs plus the end-to-end total for one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRecorder {
    policy: String,
    end_to_end: Cdf,
    steps: Vec<(Step, Cdf)>,
}

impl BreakdownRecorder {
    /// Creates a recorder labelled with the policy name.
    pub fn new(policy: impl Into<String>) -> Self {
        let policy = policy.into();
        BreakdownRecorder {
            end_to_end: Cdf::new(format!("{policy}/E2E")),
            steps: Step::ALL
                .iter()
                .map(|&s| (s, Cdf::new(format!("{policy}/{}", s.label()))))
                .collect(),
            policy,
        }
    }

    /// Records one step's latency (milliseconds) for one request.
    pub fn record_step(&mut self, step: Step, millis: f64) {
        self.steps[step as usize].1.record(millis);
    }

    /// Records a request's end-to-end latency (milliseconds).
    pub fn record_end_to_end(&mut self, millis: f64) {
        self.end_to_end.record(millis);
    }

    /// Read access to a step's CDF.
    pub fn step_cdf(&self, step: Step) -> &Cdf {
        &self.steps[step as usize].1
    }

    /// Read access to the end-to-end CDF.
    pub fn end_to_end_cdf(&self) -> &Cdf {
        &self.end_to_end
    }

    /// Renders the Figs. 16–19 row set: one row per step with the
    /// percentile spread in milliseconds.
    pub fn to_table(&self) -> Table {
        let steps = self.steps.iter().map(|(s, c)| (s.label(), c));
        percentile_table(
            format!("Latency breakdown — {}", self.policy),
            "step",
            std::iter::once(("E2E", &self.end_to_end)).chain(steps),
        )
    }
}

/// Renders one row per `(label, cdf)` under a `first`-named label column:
/// the count, then p50, p90, p99 and max in milliseconds, or dashes for an
/// empty CDF.
fn percentile_table<'a>(
    title: String,
    first: &str,
    rows: impl Iterator<Item = (&'a str, &'a Cdf)>,
) -> Table {
    let mut table = Table::new(
        title,
        &[first, "n", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)"],
    );
    for (label, cdf) in rows {
        let mut cdf = cdf.clone();
        let mut row = vec![label.to_string(), cdf.len().to_string()];
        if cdf.is_empty() {
            row.extend(["-"; 4].map(String::from));
        } else {
            for p in [50.0, 90.0, 99.0] {
                row.push(format!("{:.2}", cdf.percentile(p)));
            }
            row.push(format!("{:.2}", cdf.max()));
        }
        table.row_owned(row);
    }
    table
}

/// The phases of one kill→recover cycle in a chaos drill, decomposed the
/// same way [`Step`] decomposes an execution request (§3.2.5 recovery on
/// the availability path instead of the request path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPhase {
    /// Silence → declared failed (heartbeat timeout window).
    Detect,
    /// Declared failed → surviving quorum has a (new) leader accepting
    /// proposals again.
    Failover,
    /// Restart → WAL replayed, log and hard state rebuilt.
    Replay,
    /// Replay done → replica has re-applied every committed entry.
    CatchUp,
}

impl RecoveryPhase {
    /// All phases in cycle order, which is declaration order:
    /// `RecoveryPhase::ALL[phase as usize] == phase`, so a recorder indexes
    /// its per-phase CDFs by the phase itself.
    pub const ALL: [RecoveryPhase; 4] = [
        RecoveryPhase::Detect,
        RecoveryPhase::Failover,
        RecoveryPhase::Replay,
        RecoveryPhase::CatchUp,
    ];

    /// Report label for this phase.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryPhase::Detect => "detect",
            RecoveryPhase::Failover => "failover",
            RecoveryPhase::Replay => "wal-replay",
            RecoveryPhase::CatchUp => "catch-up",
        }
    }
}

/// Collects per-phase recovery latency CDFs across kill/restart cycles —
/// the [`BreakdownRecorder`] pattern applied to the chaos drill.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBreakdown {
    label: String,
    total: Cdf,
    phases: Vec<(RecoveryPhase, Cdf)>,
}

impl RecoveryBreakdown {
    /// Creates a recorder labelled with the drill name.
    pub fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        RecoveryBreakdown {
            total: Cdf::new(format!("{label}/total")),
            phases: RecoveryPhase::ALL
                .iter()
                .map(|&p| (p, Cdf::new(format!("{label}/{}", p.label()))))
                .collect(),
            label,
        }
    }

    /// Records one phase's latency (milliseconds) for one cycle.
    pub fn record_phase(&mut self, phase: RecoveryPhase, millis: f64) {
        self.phases[phase as usize].1.record(millis);
    }

    /// Records a cycle's total kill→recovered latency (milliseconds).
    pub fn record_total(&mut self, millis: f64) {
        self.total.record(millis);
    }

    /// The drill label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Completed cycles recorded.
    pub fn cycles(&self) -> usize {
        self.total.len()
    }

    /// One row per phase plus the total, percentile spread in ms.
    pub fn to_table(&self) -> Table {
        let phases = self.phases.iter().map(|(p, c)| (p.label(), c));
        percentile_table(
            format!("Recovery breakdown — {}", self.label),
            "phase",
            std::iter::once(("total", &self.total)).chain(phases),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_step() {
        let mut r = BreakdownRecorder::new("NotebookOS");
        r.record_step(Step::Execute, 120_000.0);
        r.record_step(Step::PrimaryReplicaProtocol, 25.0);
        r.record_end_to_end(120_050.0);
        assert_eq!(r.step_cdf(Step::Execute).len(), 1);
        assert_eq!(r.step_cdf(Step::PrimaryReplicaProtocol).len(), 1);
        assert_eq!(r.step_cdf(Step::KernelPreprocess).len(), 0);
        assert_eq!(r.end_to_end_cdf().len(), 1);
    }

    #[test]
    fn table_has_a_row_per_step_plus_e2e() {
        let mut r = BreakdownRecorder::new("Batch");
        r.record_step(Step::GlobalSchedulerRequest, 18_000.0);
        let t = r.to_table();
        assert_eq!(t.len(), Step::ALL.len() + 1);
        let rendered = t.to_string();
        assert!(rendered.contains("GS P Rq (1)"));
        assert!(rendered.contains("Batch"));
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Step::Execute.label(), "K Exec (8)");
        assert_eq!(Step::ALL.len(), 7);
    }

    #[test]
    fn steps_index_their_own_cdf() {
        let mut r = BreakdownRecorder::new("NotebookOS");
        for (i, &step) in Step::ALL.iter().enumerate() {
            assert_eq!(step as usize, i);
            for _ in 0..=i {
                r.record_step(step, 1.0);
            }
        }
        for (i, &step) in Step::ALL.iter().enumerate() {
            assert_eq!(r.step_cdf(step).len(), i + 1, "{}", step.label());
            assert!(r.step_cdf(step).name().ends_with(step.label()));
        }
    }

    #[test]
    fn recovery_breakdown_records_phases_and_totals() {
        let mut r = RecoveryBreakdown::new("drill");
        r.record_phase(RecoveryPhase::Detect, 12.0);
        r.record_phase(RecoveryPhase::Replay, 0.4);
        r.record_total(40.0);
        assert_eq!(r.cycles(), 1);
        let recorded: Vec<usize> = r.phases.iter().map(|(_, cdf)| cdf.len()).collect();
        assert_eq!(
            recorded,
            [1, 0, 1, 0],
            "detect and wal-replay, in cycle order"
        );
        let rendered = r.to_table().to_string();
        assert!(rendered.contains("wal-replay"));
        assert!(rendered.contains("drill"));
        assert_eq!(r.to_table().len(), RecoveryPhase::ALL.len() + 1);
    }
}

//! Workload trace types: sessions and the training events within them.

use notebookos_metrics::{Cdf, Timeline};

use crate::models::WorkloadProfile;

/// One user-submitted IDLT task: a cell execution that trains on GPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingEvent {
    /// Submission time, seconds from trace start.
    pub submit_s: f64,
    /// Execution duration in seconds (GPU busy time).
    pub duration_s: f64,
}

impl TrainingEvent {
    /// Completion time of the event.
    pub fn end_s(&self) -> f64 {
        self.submit_s + self.duration_s
    }
}

/// One notebook session: a long-lived kernel with sporadic training events.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// Unique session id within the trace.
    pub id: u64,
    /// Session (container) creation time, seconds from trace start.
    pub start_s: f64,
    /// Session termination time.
    pub end_s: f64,
    /// GPUs the user requested for this session.
    pub gpus: u32,
    /// VRAM per GPU in GB.
    pub vram_gb: u32,
    /// CPU request in millicpus.
    pub millicpus: u64,
    /// Memory request in MB.
    pub memory_mb: u64,
    /// The client's model/dataset assignment.
    pub profile: WorkloadProfile,
    /// Training events, sorted by submission time, all inside
    /// `[start_s, end_s]`.
    pub events: Vec<TrainingEvent>,
}

impl SessionTrace {
    /// Session lifetime in seconds.
    pub fn lifetime_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Fraction of the lifetime during which GPUs are actively used
    /// (the orange series of Fig. 2(c)).
    pub fn busy_fraction(&self) -> f64 {
        if self.lifetime_s() <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.events.iter().map(|e| e.duration_s).sum();
        (busy / self.lifetime_s()).min(1.0)
    }

    /// Per-session inter-arrival times between consecutive submissions
    /// (§2.3.2 measures IATs within each session independently).
    pub fn iats(&self) -> Vec<f64> {
        self.events
            .windows(2)
            .map(|w| w[1].submit_s - w[0].submit_s)
            .collect()
    }
}

/// A complete workload trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadTrace {
    /// All sessions, sorted by start time.
    pub sessions: Vec<SessionTrace>,
}

impl WorkloadTrace {
    /// Total number of training events.
    pub fn total_events(&self) -> usize {
        self.sessions.iter().map(|s| s.events.len()).sum()
    }

    /// End of the trace (latest session end), in seconds.
    pub fn span_s(&self) -> f64 {
        self.sessions.iter().map(|s| s.end_s).fold(0.0, f64::max)
    }

    /// CDF of per-session IATs (Fig. 2(b)).
    pub fn iat_cdf(&self, name: &str) -> Cdf {
        let mut cdf = Cdf::new(name);
        for s in &self.sessions {
            cdf.record_all(s.iats());
        }
        cdf
    }

    /// CDF of per-session GPU busy fractions (Fig. 2(c), orange series).
    /// Only sessions holding GPU reservations contribute.
    pub fn busy_fraction_cdf(&self, name: &str) -> Cdf {
        let mut cdf = Cdf::new(name);
        cdf.record_all(
            self.sessions
                .iter()
                .filter(|s| s.gpus > 0)
                .map(SessionTrace::busy_fraction),
        );
        cdf
    }

    /// Step timeline of the number of active sessions (Figs. 7 and 20,
    /// right axis).
    pub fn active_sessions_timeline(&self) -> Timeline {
        let mut deltas: Vec<(f64, f64)> = Vec::new();
        for s in &self.sessions {
            deltas.push((s.start_s, 1.0));
            deltas.push((s.end_s, -1.0));
        }
        build_delta_timeline("active-sessions", deltas)
    }

    /// Step timeline of the number of concurrently running training events
    /// (Figs. 7 and 20, left axis).
    pub fn active_trainings_timeline(&self) -> Timeline {
        let mut deltas: Vec<(f64, f64)> = Vec::new();
        for s in &self.sessions {
            for e in &s.events {
                deltas.push((e.submit_s, 1.0));
                deltas.push((e.end_s(), -1.0));
            }
        }
        build_delta_timeline("active-trainings", deltas)
    }

    /// Step timeline of GPUs demanded by actively running trainings (the
    /// "oracle" provisioning curve of Fig. 8).
    pub fn oracle_gpu_timeline(&self) -> Timeline {
        let mut deltas: Vec<(f64, f64)> = Vec::new();
        for s in &self.sessions {
            for e in &s.events {
                deltas.push((e.submit_s, f64::from(s.gpus)));
                deltas.push((e.end_s(), -f64::from(s.gpus)));
            }
        }
        build_delta_timeline("oracle-gpus", deltas)
    }

    /// Validates internal consistency (event ordering and containment).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.sessions {
            if s.end_s < s.start_s {
                return Err(format!("session {} ends before it starts", s.id));
            }
            let mut prev = s.start_s;
            for (i, e) in s.events.iter().enumerate() {
                if e.submit_s < prev {
                    return Err(format!("session {} event {i} out of order", s.id));
                }
                if e.duration_s <= 0.0 {
                    return Err(format!("session {} event {i} non-positive duration", s.id));
                }
                if e.end_s() > s.end_s + 1e-6 {
                    return Err(format!("session {} event {i} exceeds session end", s.id));
                }
                prev = e.submit_s;
            }
        }
        Ok(())
    }
}

fn build_delta_timeline(name: &str, mut deltas: Vec<(f64, f64)>) -> Timeline {
    deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut timeline = Timeline::new(name);
    let mut level = 0.0;
    let mut i = 0;
    while i < deltas.len() {
        let t = deltas[i].0;
        while i < deltas.len() && deltas[i].0 == t {
            level += deltas[i].1;
            i += 1;
        }
        timeline.set(t, level);
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::assign_profile;
    use notebookos_des::SimRng;

    fn session(id: u64, start: f64, end: f64, gpus: u32, events: Vec<(f64, f64)>) -> SessionTrace {
        let mut rng = SimRng::seed(id);
        SessionTrace {
            id,
            start_s: start,
            end_s: end,
            gpus,
            vram_gb: 16,
            millicpus: 4000,
            memory_mb: 16_384,
            profile: assign_profile(&mut rng),
            events: events
                .into_iter()
                .map(|(s, d)| TrainingEvent {
                    submit_s: s,
                    duration_s: d,
                })
                .collect(),
        }
    }

    fn sample_trace() -> WorkloadTrace {
        WorkloadTrace {
            sessions: vec![
                session(1, 0.0, 1000.0, 1, vec![(100.0, 50.0), (400.0, 100.0)]),
                session(2, 200.0, 800.0, 2, vec![(300.0, 200.0)]),
                session(3, 0.0, 500.0, 0, vec![]),
            ],
        }
    }

    #[test]
    fn totals_and_span() {
        let t = sample_trace();
        assert_eq!(t.total_events(), 3);
        assert_eq!(t.span_s(), 1000.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn busy_fraction_counts_gpu_sessions_only() {
        let t = sample_trace();
        let mut cdf = t.busy_fraction_cdf("busy");
        assert_eq!(cdf.len(), 2); // CPU-only session excluded
                                  // Session 1: 150/1000; session 2: 200/600.
        assert!((cdf.percentile(0.0) - 0.15).abs() < 1e-9);
        assert!((cdf.percentile(100.0) - 200.0 / 600.0).abs() < 1e-9);
    }

    #[test]
    fn iats_are_per_session() {
        let t = sample_trace();
        let mut cdf = t.iat_cdf("iat");
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.percentile(50.0), 300.0);
    }

    #[test]
    fn active_sessions_timeline_steps() {
        let t = sample_trace();
        let tl = t.active_sessions_timeline();
        assert_eq!(tl.value_at(100.0), 2.0);
        assert_eq!(tl.value_at(250.0), 3.0);
        assert_eq!(tl.value_at(600.0), 2.0);
        assert_eq!(tl.value_at(900.0), 1.0);
        assert_eq!(tl.value_at(1500.0), 0.0);
        assert_eq!(tl.max_value(), 3.0);
    }

    #[test]
    fn active_trainings_and_oracle() {
        let t = sample_trace();
        let trainings = t.active_trainings_timeline();
        // At t=320: session1 idle, session2 training → 1.
        assert_eq!(trainings.value_at(320.0), 1.0);
        // At t=420: session1 (2nd event) + session2 → 2.
        assert_eq!(trainings.value_at(420.0), 2.0);
        let oracle = t.oracle_gpu_timeline();
        // Same instant: 1 GPU (s1) + 2 GPUs (s2) = 3.
        assert_eq!(oracle.value_at(420.0), 3.0);
    }

    #[test]
    fn validate_catches_violations() {
        let mut t = sample_trace();
        t.sessions[0].events[0].duration_s = -1.0;
        assert!(t.validate().is_err());

        let mut t = sample_trace();
        t.sessions[0].events[1].submit_s = 10.0; // before event 0
        assert!(t.validate().is_err());

        let mut t = sample_trace();
        t.sessions[1].end_s = 100.0; // before start of its event
        assert!(t.validate().is_err());
    }

    #[test]
    fn event_end_time() {
        let e = TrainingEvent {
            submit_s: 10.0,
            duration_s: 5.0,
        };
        assert_eq!(e.end_s(), 15.0);
    }
}

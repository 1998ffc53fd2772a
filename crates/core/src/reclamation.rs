//! Idle-reclamation savings analysis (Fig. 13).
//!
//! Platforms reclaim idle notebook sessions to recover resources; without
//! NotebookOS's state replication and persistence, reclamation destroys
//! in-memory state, so on return the user must re-execute previous cells —
//! burning GPU hours. This module replays a workload under a configurable
//! idle-reclamation interval and totals the re-execution GPU-hours that
//! NotebookOS's checkpointing avoids.

use notebookos_metrics::Timeline;
use notebookos_trace::WorkloadTrace;

/// The reclamation intervals Fig. 13 sweeps.
pub const FIG13_INTERVALS_MIN: [u64; 5] = [15, 30, 60, 90, 120];

/// Result of one reclamation sweep.
#[derive(Debug, Clone)]
pub struct ReclamationSavings {
    /// The idle interval in minutes after which a session is reclaimed.
    pub interval_min: u64,
    /// Number of reclamation events across the trace.
    pub reclamations: u64,
    /// Cumulative GPU-hours saved over the trace (step timeline).
    pub saved_timeline: Timeline,
    /// Total GPU-hours saved by the end of the trace.
    pub total_gpu_hours_saved: f64,
}

/// Replays `trace` with an idle-reclamation interval of `interval_min`
/// minutes and computes the GPU-hours NotebookOS saves by not requiring
/// cell re-execution after each reclamation.
///
/// The re-execution cost model: when a session is reclaimed after being
/// idle and the user later submits another cell, every previously executed
/// GPU cell must be re-run to reconstruct the lost state, costing
/// `Σ prior durations × session GPUs`.
pub fn analyze(trace: &WorkloadTrace, interval_min: u64) -> ReclamationSavings {
    let interval_s = interval_min as f64 * 60.0;
    let mut timeline = Timeline::new(format!("gpu-hours-saved-{interval_min}min"));
    let mut total_hours = 0.0;
    let mut reclamations = 0;

    // Collect (time, hours) contributions, then build the cumulative curve
    // in global time order.
    let mut contributions: Vec<(f64, f64)> = Vec::new();
    for session in &trace.sessions {
        if session.gpus == 0 || session.events.is_empty() {
            continue;
        }
        let mut prior_gpu_seconds = 0.0;
        let mut last_activity = session.start_s;
        for event in &session.events {
            let idle = event.submit_s - last_activity;
            if idle > interval_s && prior_gpu_seconds > 0.0 {
                // The session was reclaimed while idle; this submission
                // must first re-execute everything.
                reclamations += 1;
                let hours = prior_gpu_seconds * f64::from(session.gpus) / 3600.0;
                contributions.push((event.submit_s, hours));
            }
            prior_gpu_seconds += event.duration_s;
            last_activity = event.submit_s + event.duration_s;
        }
    }
    contributions.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    for (t, hours) in contributions {
        total_hours += hours;
        timeline.set(t, total_hours);
    }

    ReclamationSavings {
        interval_min,
        reclamations,
        saved_timeline: timeline,
        total_gpu_hours_saved: total_hours,
    }
}

/// Runs the full Fig. 13 sweep.
pub fn fig13_sweep(trace: &WorkloadTrace) -> Vec<ReclamationSavings> {
    FIG13_INTERVALS_MIN
        .iter()
        .map(|&m| analyze(trace, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_des::SimRng;
    use notebookos_trace::{
        generate, SessionTrace, SyntheticConfig, TrainingEvent, WorkloadProfile,
    };

    fn profile() -> WorkloadProfile {
        let mut rng = SimRng::seed(1);
        notebookos_trace::assign_profile(&mut rng)
    }

    fn toy_trace() -> WorkloadTrace {
        // One 2-GPU session: events at t=0 (1000 s), then a 2-hour gap,
        // then t=8200 (500 s).
        WorkloadTrace {
            sessions: vec![SessionTrace {
                id: 0,
                start_s: 0.0,
                end_s: 10_000.0,
                gpus: 2,
                vram_gb: 16,
                millicpus: 4000,
                memory_mb: 16_384,
                profile: profile(),
                events: vec![
                    TrainingEvent {
                        submit_s: 0.0,
                        duration_s: 1000.0,
                    },
                    TrainingEvent {
                        submit_s: 8_200.0,
                        duration_s: 500.0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn short_interval_reclaims_and_saves() {
        // Gap between activity end (1000 s) and next submit (8200 s) is
        // 7200 s = 120 min. A 60-minute interval reclaims.
        let result = analyze(&toy_trace(), 60);
        assert_eq!(result.reclamations, 1);
        // Re-execution would re-run the 1000 s × 2 GPUs = 2000 GPU-s.
        assert!((result.total_gpu_hours_saved - 2000.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn long_interval_never_reclaims() {
        let result = analyze(&toy_trace(), 121);
        assert_eq!(result.reclamations, 0);
        assert_eq!(result.total_gpu_hours_saved, 0.0);
    }

    #[test]
    fn shorter_intervals_save_at_least_as_much() {
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 42);
        let sweep = fig13_sweep(&trace);
        assert_eq!(sweep.len(), 5);
        for pair in sweep.windows(2) {
            assert!(
                pair[0].total_gpu_hours_saved >= pair[1].total_gpu_hours_saved,
                "{} min saved {} < {} min saved {}",
                pair[0].interval_min,
                pair[0].total_gpu_hours_saved,
                pair[1].interval_min,
                pair[1].total_gpu_hours_saved
            );
        }
        // AdobeTrace IATs have a floor of 240 s = 4 min, so a 15-minute
        // interval still reclaims only across longer think gaps — but some
        // exist in any realistic run.
        assert!(sweep[0].reclamations > 0);
    }

    #[test]
    fn cumulative_timeline_is_monotone() {
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 43);
        let result = analyze(&trace, 15);
        let points: Vec<(f64, f64)> = result.saved_timeline.points().collect();
        for w in points.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }
}

//! Round-accurate executor-election latency model used inside the
//! full-platform simulation.
//!
//! The protocol itself (proposals → first-committed-LEAD → votes) runs for
//! real in [`crate::smr`]. Ticking three Raft nodes per kernel continuously
//! through a 90-day trace would generate ~10⁸ no-op heartbeat events, so the
//! platform DES instead samples each election's latency from this model:
//! one calibrated "commit round" distribution per protocol phase. The
//! calibration anchors come straight from Fig. 11's published "Sync"
//! percentiles (p90 = 54.79 ms, p95 = 66.69 ms, p99 = 268.25 ms) — i.e. the
//! end-to-end cost of one Raft synchronization in the prototype, Python/ZMQ
//! overheads included. A dedicated test cross-checks the model against the
//! real-Raft harness ordering.

use notebookos_des::{Distribution, Empirical, SimRng, SimTime};

/// Samples Raft synchronization and election latencies.
#[derive(Debug, Clone)]
pub struct ElectionModel {
    sync_round: Empirical,
}

/// How an execution request's executor was designated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Designation {
    /// The Global Scheduler had enough resource information to pick the
    /// executor directly and converted the other replicas' messages to
    /// `yield_request`s — the Raft LEAD/YIELD phase is bypassed entirely
    /// (§3.2.2).
    Bypassed,
    /// The replicas ran the two-phase LEAD/VOTE election.
    Elected,
    /// Every replica yielded; the election failed and migration follows
    /// (§3.2.3).
    AllYielded,
}

impl ElectionModel {
    /// The default Fig. 11 calibration.
    pub fn new() -> Self {
        ElectionModel {
            // p50 is not published; 18 ms sits on the log-linear
            // interpolation of the published upper percentiles.
            sync_round: Empirical::from_table(&[
                (0.50, 0.018),
                (0.90, 0.054_79),
                (0.95, 0.066_69),
                (0.99, 0.268_25),
            ])
            .with_floor(0.004)
            // One commit round is physically bounded (the prototype's worst
            // observed sync is ~0.27 s); without this cap the Pareto-like
            // tail extrapolation makes latency *sums* diverge.
            .with_ceiling(1.5),
        }
    }

    /// Latency of one Raft synchronization round (one committed append,
    /// observed end-to-end) — the Fig. 11 "Sync" series.
    pub fn sync_latency(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_secs_f64(self.sync_round.sample(rng))
    }

    /// Latency contributed by executor designation on the critical path of
    /// an `execute_request` (Fig. 15 step 6).
    ///
    /// * `Bypassed` — no Raft phase: zero added latency.
    /// * `Elected` — two commit rounds: LEAD/YIELD proposals, then votes.
    /// * `AllYielded` — one commit round to discover the failure (votes
    ///   never happen); migration latency is charged separately.
    pub fn designation_latency(&self, designation: Designation, rng: &mut SimRng) -> SimTime {
        match designation {
            Designation::Bypassed => SimTime::ZERO,
            Designation::Elected => self.sync_latency(rng) + self.sync_latency(rng),
            Designation::AllYielded => self.sync_latency(rng),
        }
    }
}

impl Default for ElectionModel {
    fn default() -> Self {
        ElectionModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[((v.len() - 1) as f64 * p) as usize]
    }

    /// Every constant quantile table the workspace calibrates against —
    /// the three trace profiles' durations and IATs and the sync model —
    /// builds (`Empirical::from_table` panics on a malformed one), and
    /// reproduces its published median.
    #[test]
    fn every_calibrated_quantile_table_builds() {
        use notebookos_trace::TraceProfile;
        let medians = [
            (TraceProfile::adobe().durations, 120.0),
            (TraceProfile::adobe().iats, 300.0),
            (TraceProfile::philly().durations, 621.0),
            (TraceProfile::philly().iats, 44.0),
            (TraceProfile::alibaba().durations, 957.0),
            (TraceProfile::alibaba().iats, 38.0),
            (ElectionModel::new().sync_round, 0.018),
        ];
        for (dist, median) in medians {
            let got = dist.quantile(0.5);
            assert!((got - median).abs() <= 1e-12 * median, "{got} vs {median}");
        }
    }

    #[test]
    fn sync_matches_fig11_percentiles() {
        let model = ElectionModel::new();
        let mut rng = SimRng::seed(1);
        let samples: Vec<f64> = (0..40_000)
            .map(|_| model.sync_latency(&mut rng).as_millis_f64())
            .collect();
        let p90 = percentile(samples.clone(), 0.90);
        let p95 = percentile(samples.clone(), 0.95);
        let p99 = percentile(samples, 0.99);
        assert!((p90 / 54.79 - 1.0).abs() < 0.15, "p90 {p90:.2}");
        assert!((p95 / 66.69 - 1.0).abs() < 0.15, "p95 {p95:.2}");
        assert!((p99 / 268.25 - 1.0).abs() < 0.30, "p99 {p99:.2}");
    }

    #[test]
    fn bypass_is_free() {
        let model = ElectionModel::new();
        let mut rng = SimRng::seed(2);
        assert_eq!(
            model.designation_latency(Designation::Bypassed, &mut rng),
            SimTime::ZERO
        );
    }

    #[test]
    fn contested_costs_two_rounds() {
        let model = ElectionModel::new();
        let mut rng = SimRng::seed(3);
        let n = 5000;
        let elected: f64 = (0..n)
            .map(|_| {
                model
                    .designation_latency(Designation::Elected, &mut rng)
                    .as_secs_f64()
            })
            .sum();
        let yielded: f64 = (0..n)
            .map(|_| {
                model
                    .designation_latency(Designation::AllYielded, &mut rng)
                    .as_secs_f64()
            })
            .sum();
        let ratio = elected / yielded;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn elections_are_tens_of_milliseconds() {
        // §E: "This protocol typically takes tens of milliseconds at most".
        let model = ElectionModel::new();
        let mut rng = SimRng::seed(4);
        let mut v: Vec<f64> = (0..10_000)
            .map(|_| {
                model
                    .designation_latency(Designation::Elected, &mut rng)
                    .as_millis_f64()
            })
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((10.0..120.0).contains(&median), "median {median:.1} ms");
    }
}

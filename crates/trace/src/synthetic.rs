//! Calibrated synthetic workload generators.
//!
//! The paper evaluates on a proprietary Adobe production trace. The
//! generators below are calibrated to every quantile §2.3 publishes, so the
//! scheduling-relevant signal (durations, per-session IATs, session-count
//! ramps, GPU demand) matches the published distributions. The Philly- and
//! Alibaba-shaped profiles exist for the Fig. 2 comparison; the published
//! anchors are their medians plus qualitative "hours-long batch jobs"
//! descriptions, so their upper anchors are chosen to produce the paper's
//! ordering (Adobe ≪ Philly < Alibaba on duration, Adobe ≫ both on IAT).

use notebookos_des::{Distribution, Empirical, SimRng};

use crate::models::assign_profile;
use crate::workload::{SessionTrace, TrainingEvent, WorkloadTrace};

/// Quantile-calibrated shape of one cluster trace.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Task-duration distribution (seconds).
    pub durations: Empirical,
    /// Per-session inter-arrival-time distribution (seconds).
    pub iats: Empirical,
}

impl TraceProfile {
    /// AdobeTrace (§2.3.1–§2.3.2): p50 duration 120 s, p75 300 s, p90
    /// 17 min, p95 36 min, p99 182 min; IAT p50 300 s, p75 480 s, minimum
    /// 240 s; 15-second sampling granularity floors durations.
    pub fn adobe() -> Self {
        TraceProfile {
            name: "AdobeTrace",
            durations: Empirical::from_table(&[
                (0.50, 120.0),
                (0.75, 300.0),
                (0.90, 1_020.0),
                (0.95, 2_160.0),
                (0.99, 10_920.0),
            ])
            .with_floor(15.0)
            // Interactive tasks top out at a few hours; an unbounded
            // Pareto tail (index ≈ 1 here) would let single draws dominate
            // per-session busy-time sums.
            .with_ceiling(14_400.0),
            iats: Empirical::from_table(&[
                (0.50, 300.0),
                (0.75, 480.0),
                (0.90, 1_500.0),
                (0.95, 2_700.0),
                (0.99, 7_200.0),
            ])
            .with_floor(240.0),
        }
    }

    /// PhillyTrace-shaped batch DLT workload: p50 duration 621 s (§2.3.1),
    /// p50 IAT 44 s (§2.3.2); long batch tails.
    pub fn philly() -> Self {
        TraceProfile {
            name: "PhillyTrace",
            durations: Empirical::from_table(&[
                (0.50, 621.0),
                (0.75, 3_600.0),
                (0.90, 18_000.0),
                (0.99, 172_800.0),
            ])
            .with_floor(10.0)
            .with_ceiling(518_400.0),
            iats: Empirical::from_table(&[
                (0.50, 44.0),
                (0.75, 150.0),
                (0.90, 600.0),
                (0.99, 7_200.0),
            ])
            .with_floor(1.0),
        }
    }

    /// AlibabaTrace-shaped MLaaS workload: p50 duration 957 s, p50 IAT 38 s.
    pub fn alibaba() -> Self {
        TraceProfile {
            name: "AlibabaTrace",
            durations: Empirical::from_table(&[
                (0.50, 957.0),
                (0.75, 5_400.0),
                (0.90, 28_800.0),
                (0.99, 259_200.0),
            ])
            .with_floor(10.0)
            .with_ceiling(777_600.0),
            iats: Empirical::from_table(&[
                (0.50, 38.0),
                (0.75, 120.0),
                (0.90, 480.0),
                (0.99, 3_600.0),
            ])
            .with_floor(1.0),
        }
    }
}

/// How session arrivals spread over the trace window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ArrivalPattern {
    /// Arrivals spread over the window with front-loading (uniform^1.5)
    /// so the Fig. 7 ramp starts immediately — the paper's trace shape.
    #[default]
    FrontLoaded,
    /// Flash crowd: arrivals concentrate into `waves` evenly spaced bursts
    /// of `wave_width_s` seconds each — the launch-day / lecture-start
    /// pattern that stresses scale-out and the pre-warm pool.
    FlashCrowd {
        /// Number of bursts across the window (at least 1).
        waves: u32,
        /// Width of each burst in seconds.
        wave_width_s: f64,
    },
    /// Diurnal arrivals: a sinusoidal rate with the given period, peaking
    /// every cycle — the day/night pattern that makes a fleet repeatedly
    /// grow and shrink, exercising scale-in damping (hysteresis).
    Diurnal {
        /// Oscillation period in seconds (e.g. `86_400.0` for daily).
        period_s: f64,
        /// Peak-hour arrival rate divided by trough-hour rate (≥ 1).
        peak_to_trough: f64,
    },
}

/// Configuration for synthesizing a platform workload.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Total sessions arriving over the window.
    pub sessions: usize,
    /// Trace window in seconds.
    pub span_s: f64,
    /// Fraction of sessions that submit GPU training events; the remainder
    /// reserve GPUs but never train (§2.3.3: ~70 % of reserved GPUs are
    /// completely idle for their session's whole lifetime).
    pub gpu_active_fraction: f64,
    /// Fraction of sessions still alive at the end of the window (Fig. 7's
    /// ramp keeps climbing because sessions rarely terminate).
    pub long_lived_fraction: f64,
    /// Distribution of GPUs requested per session as `(gpus, weight)`.
    pub gpu_demand: Vec<(u32, f64)>,
    /// How session arrivals spread over the window.
    pub arrival: ArrivalPattern,
}

impl SyntheticConfig {
    /// The 17.5-hour AdobeTrace excerpt used for the prototype evaluation
    /// (§5.3: sessions ramp 0 → 87, max 90 concurrently; ~26 trainings
    /// active at the end, max 34).
    pub fn excerpt_17_5h() -> Self {
        SyntheticConfig {
            sessions: 90,
            span_s: 17.5 * 3600.0,
            gpu_active_fraction: 0.55,
            long_lived_fraction: 0.96,
            gpu_demand: default_gpu_demand(),
            arrival: ArrivalPattern::FrontLoaded,
        }
    }

    /// The 90-day "summer" workload used for the simulation study (Fig. 20:
    /// sessions ramp to 397 with max 433; trainings mean ≈ 68, max 141).
    pub fn summer_90d() -> Self {
        SyntheticConfig {
            sessions: 433,
            span_s: 90.0 * 86_400.0,
            gpu_active_fraction: 0.55,
            long_lived_fraction: 0.92,
            gpu_demand: default_gpu_demand(),
            arrival: ArrivalPattern::FrontLoaded,
        }
    }

    /// A small workload for fast tests.
    pub fn smoke() -> Self {
        SyntheticConfig {
            sessions: 12,
            span_s: 2.0 * 3600.0,
            gpu_active_fraction: 0.6,
            long_lived_fraction: 0.9,
            gpu_demand: default_gpu_demand(),
            arrival: ArrivalPattern::FrontLoaded,
        }
    }

    /// An excerpt-scale workload whose sessions arrive in three tight
    /// bursts — the flash-crowd scenario the sweep engine ranges over to
    /// stress scale-out and pre-warm provisioning.
    pub fn flash_crowd_17_5h() -> Self {
        SyntheticConfig {
            arrival: ArrivalPattern::FlashCrowd {
                waves: 3,
                wave_width_s: 900.0,
            },
            ..SyntheticConfig::excerpt_17_5h()
        }
    }

    /// An excerpt-scale workload with diurnal arrivals: roughly three
    /// day/night cycles across the window with 4× more arrivals at peak
    /// than at trough, plus enough short-lived sessions that troughs
    /// actually idle the fleet — the scenario that separates hysteresis
    /// from plain threshold scaling.
    pub fn diurnal_17_5h() -> Self {
        SyntheticConfig {
            arrival: ArrivalPattern::Diurnal {
                period_s: 6.0 * 3600.0,
                peak_to_trough: 4.0,
            },
            long_lived_fraction: 0.5,
            ..SyntheticConfig::excerpt_17_5h()
        }
    }
}

/// Probability that a user takes a long break after an iteration completes.
const LONG_BREAK_PROBABILITY: f64 = 0.10;
/// Long-break bounds in seconds (20 minutes to 2.5 hours).
const LONG_BREAK_MIN_S: f64 = 1_200.0;
const LONG_BREAK_MAX_S: f64 = 9_000.0;

fn default_gpu_demand() -> Vec<(u32, f64)> {
    // Most notebooks request 1 GPU; a tail requests a half or full server.
    vec![(1, 0.60), (2, 0.20), (4, 0.12), (8, 0.08)]
}

fn sample_weighted(pairs: &[(u32, f64)], rng: &mut SimRng) -> u32 {
    let total: f64 = pairs.iter().map(|(_, w)| w).sum();
    let mut x = rng.next_f64() * total;
    for &(v, w) in pairs {
        if x < w {
            return v;
        }
        x -= w;
    }
    pairs.last().map(|&(v, _)| v).unwrap_or(1)
}

/// Generates a platform workload with AdobeTrace-shaped events.
///
/// Deterministic for a given `(config, seed)` pair.
pub fn generate(config: &SyntheticConfig, seed: u64) -> WorkloadTrace {
    generate_with_profile(config, &TraceProfile::adobe(), seed)
}

/// Generates a workload with events drawn from an explicit profile.
pub fn generate_with_profile(
    config: &SyntheticConfig,
    profile: &TraceProfile,
    seed: u64,
) -> WorkloadTrace {
    let mut root = SimRng::seed(seed);
    let mut sessions = Vec::with_capacity(config.sessions);
    for i in 0..config.sessions {
        let mut rng = root.fork(i as u64);
        // Arrivals follow the configured pattern; FrontLoaded biases
        // arrivals early (uniform^1.5) while keeping the count increasing
        // all the way to the window's end, so the Fig. 7 ramp starts
        // immediately.
        let start_s = match config.arrival {
            ArrivalPattern::FrontLoaded => config.span_s * rng.next_f64().powf(1.5) * 0.98,
            ArrivalPattern::FlashCrowd {
                waves,
                wave_width_s,
            } => {
                let waves = waves.max(1);
                let wave = rng.index(waves as usize) as f64;
                let base = wave / f64::from(waves) * config.span_s * 0.9;
                (base + rng.next_f64() * wave_width_s.max(0.0)).min(config.span_s * 0.98)
            }
            ArrivalPattern::Diurnal {
                period_s,
                peak_to_trough,
            } => {
                // Rejection-sample an inhomogeneous Poisson-style rate
                // λ(t) ∝ 1 + a·sin(2πt/T) with a = (ρ−1)/(ρ+1), which
                // makes peak/trough rate exactly ρ. Deterministic: the
                // loop only consumes this session's forked stream.
                let period = period_s.max(1.0);
                let amp = ((peak_to_trough.max(1.0) - 1.0) / (peak_to_trough.max(1.0) + 1.0))
                    .clamp(0.0, 0.999);
                let window = config.span_s * 0.98;
                loop {
                    let t = rng.next_f64() * window;
                    let rate = 1.0 + amp * (std::f64::consts::TAU * t / period).sin();
                    if rng.next_f64() * (1.0 + amp) < rate {
                        break t;
                    }
                }
            }
        };
        let end_s = if rng.chance(config.long_lived_fraction) {
            config.span_s
        } else {
            // Early leavers stay for 10–60 % of the remaining window.
            start_s + (config.span_s - start_s) * rng.range_f64(0.1, 0.6)
        };
        let gpus = sample_weighted(&config.gpu_demand, &mut rng);
        let gpu_active = rng.chance(config.gpu_active_fraction);

        let mut events = Vec::new();
        if gpu_active {
            // First submission after an initial development period.
            let mut t = start_s + profile.iats.sample(&mut rng);
            while t < end_s {
                let duration = profile.durations.sample(&mut rng);
                if t + duration > end_s {
                    break;
                }
                events.push(TrainingEvent {
                    submit_s: t,
                    duration_s: duration,
                });
                // §2.3.2: users iterate *after* a task completes, so the
                // next submission follows completion plus think time.
                t = t + duration + profile.iats.sample(&mut rng);
                // §2.3.3: sessions spend most of their lifetime idle — on
                // top of per-iteration think time, users step away for
                // meals/meetings. Without these gaps every window-filling
                // session's busy fraction converges to d̄/(d̄ + īat) ≈ 0.4,
                // well above the published ~31 % p90.
                if rng.chance(LONG_BREAK_PROBABILITY) {
                    t += rng.range_f64(LONG_BREAK_MIN_S, LONG_BREAK_MAX_S);
                }
            }
        }

        sessions.push(SessionTrace {
            id: i as u64,
            start_s,
            end_s,
            gpus,
            vram_gb: 16,
            millicpus: 4_000 + 2_000 * u64::from(gpus),
            memory_mb: 16_384 + 8_192 * u64::from(gpus),
            profile: assign_profile(&mut rng),
            events,
        });
    }
    sort_by_start(&mut sessions);
    for (i, s) in sessions.iter_mut().enumerate() {
        s.id = i as u64;
    }
    WorkloadTrace { sessions }
}

/// Orders sessions by start instant, ties in generation order (what a
/// stable sort by `start_s` gives). Sorts `(start_s, index)` keys, then
/// walks the cycles of that permutation with one swap per position: at
/// most one swap per session, where a merge sort moves each session
/// about log n times.
fn sort_by_start(sessions: &mut [SessionTrace]) {
    let mut order: Vec<(f64, usize)> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| (s.start_s, i))
        .collect();
    order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
    // `from[k]`: where the session that belongs at `k` is before the
    // moves. Each cycle is walked once; a visited position points at
    // itself.
    let mut from: Vec<usize> = order.into_iter().map(|(_, i)| i).collect();
    for start in 0..from.len() {
        let mut k = start;
        while from[k] != start {
            let next = from[k];
            sessions.swap(k, next);
            from[k] = k;
            k = next;
        }
        from[k] = k;
    }
}

/// Samples standalone `(duration, iat)` streams from a profile — used for
/// Fig. 2's pure distribution comparison without platform semantics.
pub fn sample_distributions(profile: &TraceProfile, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SimRng::seed(seed);
    let durations = profile.durations.sample_n(&mut rng, n);
    let iats = profile.iats.sample_n(&mut rng, n);
    (durations, iats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpt_matches_published_quantiles() {
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 1);
        trace.validate().expect("valid trace");
        let mut durations = notebookos_metrics::Cdf::new("dur");
        for s in &trace.sessions {
            durations.record_all(s.events.iter().map(|e| e.duration_s));
        }
        assert!(durations.len() > 300, "enough events: {}", durations.len());
        let p50 = durations.percentile(50.0);
        let p75 = durations.percentile(75.0);
        assert!((90.0..160.0).contains(&p50), "p50 {p50}");
        assert!((220.0..400.0).contains(&p75), "p75 {p75}");

        let mut iats = trace.iat_cdf("iat");
        let i50 = iats.percentile(50.0);
        assert!(iats.min() >= 240.0, "min IAT {}", iats.min());
        // Generated IATs include the completed task's duration, so the
        // median sits a bit above the pure 300 s think-time anchor.
        assert!((300.0..700.0).contains(&i50), "iat p50 {i50}");
    }

    #[test]
    fn excerpt_session_ramp_matches_fig7() {
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 1);
        let sessions = trace.active_sessions_timeline();
        let span = trace.span_s();
        assert!(sessions.max_value() <= 90.0);
        let at_end = sessions.value_at(span * 0.999);
        assert!((80.0..=90.0).contains(&at_end), "end sessions {at_end}");
        let trainings = trace.active_trainings_timeline();
        let mean = trainings.time_mean(0.0, span);
        assert!((7.0..35.0).contains(&mean), "mean trainings {mean}");
        assert!(
            trainings.max_value() <= 60.0,
            "max trainings {}",
            trainings.max_value()
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let cfg = SyntheticConfig::flash_crowd_17_5h();
        let trace = generate(&cfg, 11);
        trace.validate().expect("valid trace");
        let ArrivalPattern::FlashCrowd {
            waves,
            wave_width_s,
        } = cfg.arrival
        else {
            panic!("flash-crowd config");
        };
        // Every arrival sits inside one of the waves' windows.
        for s in &trace.sessions {
            let in_a_wave = (0..waves).any(|w| {
                let base = f64::from(w) / f64::from(waves) * cfg.span_s * 0.9;
                s.start_s >= base - 1e-9 && s.start_s <= base + wave_width_s + 1e-9
            });
            assert!(in_a_wave, "arrival {} outside every wave", s.start_s);
        }
        // And the bursts are real: each wave gets a meaningful share.
        for w in 0..waves {
            let base = f64::from(w) / f64::from(waves) * cfg.span_s * 0.9;
            let n = trace
                .sessions
                .iter()
                .filter(|s| s.start_s >= base && s.start_s <= base + wave_width_s)
                .count();
            assert!(n >= 15, "wave {w} holds only {n} of 90 sessions");
        }
        assert_eq!(generate(&cfg, 11), generate(&cfg, 11), "deterministic");
    }

    #[test]
    fn diurnal_concentrates_arrivals_at_peaks() {
        let cfg = SyntheticConfig {
            sessions: 600,
            ..SyntheticConfig::diurnal_17_5h()
        };
        let trace = generate(&cfg, 9);
        trace.validate().expect("valid trace");
        let ArrivalPattern::Diurnal { period_s, .. } = cfg.arrival else {
            panic!("diurnal config");
        };
        // The rate peaks in the first half of every cycle (sin > 0) and
        // troughs in the second; with ρ = 4 the halves' mean rates are
        // 1 ± 2a/π ≈ 1.38 vs 0.62, so peak halves collect over twice the
        // arrivals of trough halves.
        let (mut peak, mut trough) = (0u32, 0u32);
        for s in &trace.sessions {
            let phase = (s.start_s.rem_euclid(period_s)) / period_s;
            if phase < 0.5 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak * 2 > trough * 3,
            "peak halves {peak} vs trough halves {trough}"
        );
        assert_eq!(generate(&cfg, 9), generate(&cfg, 9), "deterministic");
    }

    #[test]
    fn front_loaded_default_is_unchanged() {
        // The arrival-pattern field must not disturb the calibrated
        // default: explicit FrontLoaded equals the named constructors.
        let cfg = SyntheticConfig::excerpt_17_5h();
        assert_eq!(cfg.arrival, ArrivalPattern::default());
    }

    #[test]
    fn determinism() {
        let cfg = SyntheticConfig::smoke();
        assert_eq!(generate(&cfg, 7), generate(&cfg, 7));
        assert_ne!(generate(&cfg, 7), generate(&cfg, 8));
    }

    #[test]
    fn profiles_preserve_paper_ordering() {
        let n = 20_000;
        let (adobe_d, adobe_i) = sample_distributions(&TraceProfile::adobe(), n, 1);
        let (philly_d, philly_i) = sample_distributions(&TraceProfile::philly(), n, 2);
        let (ali_d, ali_i) = sample_distributions(&TraceProfile::alibaba(), n, 3);
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        // §2.3.1: Adobe 120 s ≪ Philly 621 s < Alibaba 957 s.
        let (a, p, l) = (median(adobe_d), median(philly_d), median(ali_d));
        assert!(a < p && p < l, "durations {a} {p} {l}");
        assert!((a / 120.0 - 1.0).abs() < 0.15);
        assert!((p / 621.0 - 1.0).abs() < 0.15);
        assert!((l / 957.0 - 1.0).abs() < 0.15);
        // §2.3.2: Adobe 300 s ≫ Philly 44 s > Alibaba 38 s.
        let (ai, pi, li) = (median(adobe_i), median(philly_i), median(ali_i));
        assert!(ai > pi && pi > li, "iats {ai} {pi} {li}");
    }

    #[test]
    fn busy_fractions_are_low() {
        // §2.3.3: sessions use their GPUs a small fraction of their
        // lifetime; 90 % of sessions at most ~31 %.
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 3);
        let mut busy = trace.busy_fraction_cdf("busy");
        let p50 = busy.percentile(50.0);
        let p90 = busy.percentile(90.0);
        assert!(p50 < 0.2, "p50 busy {p50}");
        assert!(p90 < 0.5, "p90 busy {p90}");
    }

    #[test]
    fn events_never_overlap_within_session() {
        let trace = generate(&SyntheticConfig::excerpt_17_5h(), 4);
        for s in &trace.sessions {
            for w in s.events.windows(2) {
                assert!(
                    w[1].submit_s >= w[0].end_s(),
                    "§2.3.2: users do not submit concurrent tasks"
                );
            }
        }
    }

    #[test]
    fn summer_config_scales_up() {
        let cfg = SyntheticConfig::summer_90d();
        let trace = generate(&cfg, 5);
        trace.validate().expect("valid");
        let sessions = trace.active_sessions_timeline();
        assert!(sessions.max_value() <= 433.0);
        assert!(sessions.value_at(cfg.span_s * 0.999) > 350.0);
    }

    /// The key sort and the cycle moves order sessions as the stable sort
    /// by start did, ties in generation order, on starts drawn from a few
    /// values so that most of them tie.
    #[test]
    fn sorting_keys_orders_sessions_as_the_stable_sort_did() {
        let mut rng = SimRng::seed(11);
        let template = generate(&SyntheticConfig::smoke(), 1).sessions[0].clone();
        for n in [0, 1, 2, 7, 64, 1000] {
            let mut sessions: Vec<SessionTrace> = (0..n)
                .map(|i| SessionTrace {
                    id: i as u64,
                    start_s: rng.below(1 + n as u64 / 8) as f64,
                    ..template.clone()
                })
                .collect();
            let mut stable = sessions.clone();
            stable.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).expect("finite"));
            sort_by_start(&mut sessions);
            let ids = |v: &[SessionTrace]| v.iter().map(|s| s.id).collect::<Vec<_>>();
            assert_eq!(ids(&sessions), ids(&stable), "{n} sessions");
        }
    }

    #[test]
    fn weighted_sampling_respects_support() {
        let mut rng = SimRng::seed(9);
        for _ in 0..500 {
            let v = sample_weighted(&default_gpu_demand(), &mut rng);
            assert!(matches!(v, 1 | 2 | 4 | 8));
        }
    }
}

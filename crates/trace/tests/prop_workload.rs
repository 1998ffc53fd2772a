//! Property tests for the workload generators.

use proptest::prelude::*;

use notebookos_trace::{generate, ArrivalPattern, SyntheticConfig};

fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (
        1usize..40,
        (1800.0f64..36_000.0),
        (0.0f64..1.0),
        (0.0f64..1.0),
    )
        .prop_map(
            |(sessions, span_s, gpu_active, long_lived)| SyntheticConfig {
                sessions,
                span_s,
                gpu_active_fraction: gpu_active,
                long_lived_fraction: long_lived,
                gpu_demand: vec![(1, 0.5), (2, 0.3), (4, 0.15), (8, 0.05)],
                arrival: ArrivalPattern::FrontLoaded,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated trace is internally consistent: ordered events that
    /// fit inside their sessions, positive durations.
    #[test]
    fn generated_traces_validate(config in arb_config(), seed in any::<u64>()) {
        let trace = generate(&config, seed);
        prop_assert_eq!(trace.sessions.len(), config.sessions);
        prop_assert!(trace.validate().is_ok());
        for s in &trace.sessions {
            prop_assert!(s.start_s >= 0.0 && s.end_s <= config.span_s + 1e-6);
            prop_assert!(matches!(s.gpus, 1 | 2 | 4 | 8));
        }
    }

    /// Generation is a pure function of (config, seed).
    #[test]
    fn generation_deterministic(config in arb_config(), seed in any::<u64>()) {
        prop_assert_eq!(generate(&config, seed), generate(&config, seed));
    }

    /// Busy fractions are valid fractions, and the timelines never go
    /// negative.
    #[test]
    fn derived_series_are_sane(config in arb_config(), seed in any::<u64>()) {
        let trace = generate(&config, seed);
        for s in &trace.sessions {
            let f = s.busy_fraction();
            prop_assert!((0.0..=1.0).contains(&f));
        }
        for (_, v) in trace.active_sessions_timeline().points() {
            prop_assert!(v >= 0.0);
        }
        for (_, v) in trace.active_trainings_timeline().points() {
            prop_assert!(v >= 0.0);
        }
        for (_, v) in trace.oracle_gpu_timeline().points() {
            prop_assert!(v >= 0.0);
        }
    }

    /// Diurnal arrival counts oscillate with the *configured* period:
    /// whatever the period and contrast, the halves of each cycle where
    /// the sinusoidal rate is high collect more arrivals than the low
    /// halves, and the pattern stays deterministic and in-window.
    #[test]
    fn diurnal_arrivals_oscillate_with_configured_period(
        cycles in 2u32..6,
        peak_to_trough in 3.0f64..8.0,
        seed in 0u64..1000,
    ) {
        let span_s = 12.0 * 3600.0;
        let period_s = span_s / f64::from(cycles);
        let config = SyntheticConfig {
            sessions: 400,
            span_s,
            gpu_active_fraction: 0.3,
            long_lived_fraction: 0.5,
            gpu_demand: vec![(1, 1.0)],
            arrival: ArrivalPattern::Diurnal { period_s, peak_to_trough },
        };
        let trace = generate(&config, seed);
        prop_assert!(trace.validate().is_ok());
        let (mut peak, mut trough) = (0u32, 0u32);
        for s in &trace.sessions {
            prop_assert!(s.start_s <= span_s * 0.98 + 1e-9, "arrival in window");
            let phase = s.start_s.rem_euclid(period_s) / period_s;
            if phase < 0.5 { peak += 1 } else { trough += 1 }
        }
        // With ρ ≥ 3 the half-cycle rate means are 1 ± 2a/π, a ≥ 0.5, so
        // the peak share is ≥ 62 % in expectation; 55 % is a safe floor
        // for 400 samples.
        prop_assert!(
            f64::from(peak) > 0.55 * f64::from(peak + trough),
            "peak {} trough {} (period {:.0}s)", peak, trough, period_s
        );
        prop_assert_eq!(generate(&config, seed), generate(&config, seed));
    }
}

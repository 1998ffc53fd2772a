//! Property tests for the metric collectors. The histogram CDF is held to
//! the exact sample CDF it replaced (`src/exact.rs`, test-only) on random
//! multisets: log-normal and heavy-tailed draws, ties, zeros of both
//! signs, negatives, non-finite values and magnitudes across many octaves.

#[path = "../src/exact.rs"]
mod exact;

use proptest::prelude::*;

use exact::Exact;
use notebookos_metrics::{Cdf, Timeline};

const EPS: f64 = Cdf::RELATIVE_ERROR;
const PERCENTILES: [f64; 8] = [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0];

/// One sample: a mix of the shapes latencies take, plus the edge values
/// the histogram must count exactly or drop. Every finite value is normal
/// or zero (the error bound is stated for normal values).
fn sample() -> impl Strategy<Value = f64> {
    let log_normal =
        (0.0f64..1.0, 0.0f64..1.0, -3.0f64..12.0, 0.1f64..3.0).prop_map(|(u, v, mu, sigma)| {
            // Box–Muller; `1 - u` keeps the logarithm finite.
            let z = (-2.0 * (1.0 - u).ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            (mu + sigma * z).exp()
        });
    let pareto = (0.0f64..1.0, 0.5f64..3.0).prop_map(|(u, alpha)| (1.0 - u).powf(-1.0 / alpha));
    let octaves = (0.0f64..1.0, -60i32..60, any::<bool>()).prop_map(|(m, e, negative)| {
        let v = (1.0 + m) * 2f64.powi(e);
        if negative {
            -v
        } else {
            v
        }
    });
    let ties = (0u32..40).prop_map(|k| f64::from(k) * 12.5);
    prop_oneof![
        6 => log_normal.clone(),
        2 => log_normal.prop_map(|v| -v),
        3 => pareto,
        3 => octaves,
        2 => ties,
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ]
}

fn record(samples: &[f64]) -> (Cdf, Exact) {
    let mut cdf = Cdf::new("prop");
    let mut exact = Exact::default();
    for &v in samples {
        cdf.record(v);
        exact.record(v);
    }
    (cdf, exact)
}

/// |estimate − exact| ≤ ε·((1−f)·|x_lo| + f·|x_hi|), plus a few ulps for
/// the two interpolations' own rounding.
fn check_percentiles(cdf: &mut Cdf, exact: &Exact) -> Result<(), TestCaseError> {
    for p in PERCENTILES {
        let (x_lo, x_hi, f) = exact.bracket(p);
        let bound = EPS * ((1.0 - f) * x_lo.abs() + f * x_hi.abs())
            + 4.0 * f64::EPSILON * (x_lo.abs() + x_hi.abs());
        let (got, want) = (cdf.percentile(p), exact.percentile(p));
        prop_assert!(
            (got - want).abs() <= bound,
            "p{}: {} vs exact {} (bound {})",
            p,
            got,
            want,
            bound
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every query against the exact reference: count, min, max and the
    /// recording-order mean exactly, percentiles within their bound, and
    /// `fraction_at_most(v)` between the exact fractions at v·(1 ∓ 2ε).
    #[test]
    fn cdf_matches_the_exact_reference(samples in proptest::collection::vec(sample(), 0..400)) {
        let (mut cdf, exact) = record(&samples);
        prop_assert_eq!(cdf.len(), exact.len());
        if exact.len() == 0 {
            prop_assert!(cdf.is_empty());
            prop_assert_eq!(cdf.fraction_at_most(0.0), 0.0);
            return Ok(());
        }
        prop_assert_eq!(cdf.min(), exact.min());
        prop_assert_eq!(cdf.max(), exact.max());
        prop_assert_eq!(cdf.mean().to_bits(), exact.mean().to_bits());
        check_percentiles(&mut cdf, &exact)?;
        prop_assert_eq!(cdf.fraction_at_most(0.0), exact.fraction_at_most(0.0));
        for &s in samples.iter().filter(|s| s.is_finite()).take(12) {
            for v in [s, s * (1.0 - EPS / 2.0), s * (1.0 + EPS / 2.0)] {
                let got = cdf.fraction_at_most(v);
                let margin = 2.0 * EPS * v.abs();
                prop_assert!(
                    exact.fraction_at_most(v - margin) <= got
                        && got <= exact.fraction_at_most(v + margin),
                    "fraction_at_most({}) = {}",
                    v,
                    got
                );
            }
        }
    }

    /// Percentiles are monotone in `p` and bounded by min/max.
    #[test]
    fn cdf_percentiles_monotone(samples in proptest::collection::vec(-1.0e6f64..1.0e6, 1..300)) {
        let mut cdf = Cdf::new("prop");
        cdf.record_all(samples.iter().copied());
        let mut prev = cdf.percentile(0.0);
        prop_assert_eq!(prev, cdf.min());
        for p in 1..=100 {
            let v = cdf.percentile(p as f64);
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert_eq!(prev, cdf.max());
        // fraction_at_most is consistent with percentile.
        let p50 = cdf.percentile(50.0);
        prop_assert!(cdf.fraction_at_most(p50) >= 0.5 - 1.0 / samples.len() as f64);
    }

    /// Pooling parts holds what recording all their samples into one
    /// collector holds, bucket for bucket, so it answers every query as
    /// that collector does; only the sum is associated differently.
    #[test]
    fn cdf_merge_equals_recording_all(
        parts in proptest::collection::vec(proptest::collection::vec(sample(), 0..120), 0..5),
    ) {
        let cdfs: Vec<Cdf> = parts.iter().map(|p| record(p).0).collect();
        let mut pooled = Cdf::merged("prop", &cdfs);
        let all: Vec<f64> = parts.concat();
        let (mut whole, exact) = record(&all);
        prop_assert_eq!(pooled.len(), whole.len());
        prop_assert_eq!(pooled.zeros(), whole.zeros());
        prop_assert_eq!(pooled.range(), whole.range());
        prop_assert_eq!(
            pooled.positive_buckets().collect::<Vec<_>>(),
            whole.positive_buckets().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            pooled.negative_buckets().collect::<Vec<_>>(),
            whole.negative_buckets().collect::<Vec<_>>()
        );
        let magnitude: f64 = all.iter().filter(|v| v.is_finite()).map(|v| v.abs()).sum();
        prop_assert!((pooled.sum() - whole.sum()).abs() <= all.len() as f64 * f64::EPSILON * magnitude);
        if !whole.is_empty() {
            for p in PERCENTILES {
                prop_assert_eq!(pooled.percentile(p).to_bits(), whole.percentile(p).to_bits());
            }
            check_percentiles(&mut pooled, &exact)?;
        }
    }

    /// A timeline's integral is additive over adjacent windows.
    #[test]
    fn timeline_integral_additive(points in proptest::collection::vec((0u32..10_000, 0.0f64..100.0), 1..60), split in 0u32..10_000) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut timeline = Timeline::new("prop");
        for (t, v) in sorted {
            timeline.set(f64::from(t), v);
        }
        let end = 10_000.0;
        let mid = f64::from(split).min(end);
        let whole = timeline.integral(0.0, end);
        let parts = timeline.integral(0.0, mid) + timeline.integral(mid, end);
        prop_assert!((whole - parts).abs() < 1e-6 * whole.abs().max(1.0));
    }

    /// `value_at` returns the most recent change point's value.
    #[test]
    fn timeline_value_at_is_last_change(updates in proptest::collection::vec((0u32..1000, -50.0f64..50.0), 1..40), query in 0u32..1000) {
        let mut sorted = updates.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut timeline = Timeline::new("prop");
        for &(t, v) in &sorted {
            timeline.set(f64::from(t), v);
        }
        let expected = sorted
            .iter()
            .rev()
            .find(|&&(t, _)| f64::from(t) <= f64::from(query))
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        prop_assert_eq!(timeline.value_at(f64::from(query)), expected);
    }
}

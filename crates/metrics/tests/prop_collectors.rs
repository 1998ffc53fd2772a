//! Property tests for the metric collectors. The histogram CDF is held to
//! the exact sample CDF it replaced (`src/exact.rs`, test-only) on random
//! multisets: log-normal and heavy-tailed draws, ties, zeros of both
//! signs, negatives, non-finite values and magnitudes across many octaves.
//! The compact timeline is held bit for bit to the plain vector of change
//! points it replaced ([`PlainTimeline`]) on random gauges: µs and off-grid
//! times, long gaps, same-instant supersedes, integral and fractional
//! values, `-0.0`, NaN and infinities.

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

/// The timeline as a plain vector of `(time, value)` change points: what
/// [`Timeline`] was before it encoded them, and the reference it is held
/// to. Every method is the old one, float operation for float operation.
#[derive(Debug, Default, Clone)]
struct PlainTimeline {
    points: Vec<(f64, f64)>,
}

impl PlainTimeline {
    fn set(&mut self, at: f64, value: f64) {
        if let Some(&(last, prev)) = self.points.last() {
            assert!(at >= last, "went backwards");
            if value == prev {
                return;
            }
            if at == last {
                self.points.pop();
            }
        }
        self.points.push((at, value));
    }

    fn value_at(&self, at: f64) -> f64 {
        match self.points.partition_point(|&(t, _)| t <= at) {
            0 => 0.0,
            idx => self.points[idx - 1].1,
        }
    }

    fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    fn integral(&self, start: f64, end: f64) -> f64 {
        assert!(end >= start);
        let mut area = 0.0;
        let mut t = start;
        let mut v = self.value_at(start);
        for &(pt, pv) in &self.points {
            if pt <= start {
                continue;
            }
            if pt >= end {
                break;
            }
            area += v * (pt - t);
            t = pt;
            v = pv;
        }
        area + v * (end - t)
    }

    fn time_mean(&self, start: f64, end: f64) -> f64 {
        assert!(end > start);
        self.integral(start, end) / (end - start)
    }
}

/// One `set` of a generated gauge: how far time moves (`0` keeps the
/// instant, superseding) and what the value becomes, as raw draws that
/// [`gauge`] turns into times and values.
type Step = (u8, u64, u8, i64);

/// Replays `steps` into a compact timeline and its plain reference.
fn gauge(start: u8, steps: &[Step]) -> (Timeline, PlainTimeline) {
    let mut t = [0.0, -0.0, 1.5, 1e-7][usize::from(start % 4)];
    let mut v = 0.0;
    let mut timeline = Timeline::new("prop");
    let mut plain = PlainTimeline::default();
    for &(time_kind, dt, value_kind, x) in steps {
        let grid = |us: u64| (us as f64 / 1e6).max(t);
        let micros = (t.max(0.0) * 1e6).ceil() as u64;
        t = match time_kind % 8 {
            0 => t,
            1..=3 => grid(micros + dt % 10_000_000),
            4 => grid(micros + dt % (1 << 36)), // gaps of hours to days
            5 => t + (dt % 1000) as f64 / 3.0,  // off the µs grid
            6 => f64::from_bits(t.abs().to_bits() + 1), // one ulp later
            _ => grid(micros + 1),
        };
        let whole = if v == f64::from(v as i32) { v } else { 0.0 };
        v = match value_kind % 14 {
            0 => v, // a no-op
            1..=5 => whole + [1.0, -1.0, 2.0, -8.0, 16.0][(x.unsigned_abs() % 5) as usize],
            6 => (x % 1000) as f64, // any step
            7 => (x.signum() as f64) * (2f64.powi(53) + (x % 3) as f64 * 2.0),
            8 => x as f64 / 7.0, // fractional
            9 => -0.0,
            10 => f64::NAN,
            11 => [f64::INFINITY, f64::NEG_INFINITY][(x & 1) as usize],
            12 => 0.0,
            _ => whole + 3.0,
        };
        timeline.set(t, v);
        plain.set(t, v);
    }
    (timeline, plain)
}

/// Whether two computed results are the same bits — or both NaN, whose
/// sign and payload Rust leaves to the compiler (an optimised build may
/// swap the operands of a `+` and so propagate the other NaN).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan()
}

fn bits(points: impl IntoIterator<Item = (f64, f64)>) -> Vec<(u64, u64)> {
    points
        .into_iter()
        .map(|(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
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

    /// The compact timeline answers every query with the bits the plain
    /// vector of change points did (a computed NaN's sign and payload
    /// aside; see [`same`]): `points`, `value_at` at, just before
    /// and just after change points (and far off), `max_value`,
    /// `integral` and `time_mean` over windows inside and across it, and
    /// equality with its own clone (false exactly when a value is NaN).
    /// Runs reach 3 000 points, past the checkpoint index's 1 024.
    #[test]
    fn timeline_matches_the_plain_vector_bit_for_bit(
        start in 0u8..4,
        steps in proptest::collection::vec((0u8..8, 0u64..u64::MAX, 0u8..14, -1_000_000i64..1_000_000), 1..3_000),
        picks in proptest::collection::vec(0usize..3_000, 24),
    ) {
        let (timeline, plain) = gauge(start, &steps);
        prop_assert_eq!(bits(timeline.points()), bits(plain.points.iter().copied()));
        prop_assert_eq!(timeline.points().len(), plain.points.len());
        prop_assert!(same(timeline.max_value(), plain.max_value()));
        prop_assert_eq!(timeline == timeline.clone(), plain.points == plain.points.clone());

        let n = plain.points.len();
        let (first, last) = (plain.points[0].0, plain.points[n - 1].0);
        let mut queries = vec![first - 1.0, last + 1.0, f64::NAN, 0.0, -0.0];
        for &i in &picks {
            let at = plain.points[i % n].0;
            queries.extend([at, at - 1e-6, at + 1e-6, at - 0.5, at + 0.5]);
        }
        for &q in &queries {
            prop_assert_eq!(timeline.value_at(q).to_bits(), plain.value_at(q).to_bits(), "value_at({})", q);
        }
        let mut windows: Vec<f64> = queries.into_iter().filter(|q| !q.is_nan()).collect();
        windows.sort_by(f64::total_cmp);
        // Neighbouring instants, and wide windows between picked ones.
        let mut spans: Vec<(f64, f64)> = windows.chunks(2).map(|w| (w[0], w[w.len() - 1])).collect();
        for pair in picks.chunks(2) {
            let (i, j) = (pair[0] % windows.len(), pair[1] % windows.len());
            spans.push((windows[i.min(j)], windows[i.max(j)]));
        }
        for (a, b) in spans {
            let (got, want) = (timeline.integral(a, b), plain.integral(a, b));
            prop_assert!(same(got, want), "integral({}, {}): {} vs {}", a, b, got, want);
            if b > a {
                prop_assert!(same(timeline.time_mean(a, b), plain.time_mean(a, b)));
            }
        }
        prop_assert!(same(
            timeline.integral(first - 1.0, last + 1.0),
            plain.integral(first - 1.0, last + 1.0)
        ));
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

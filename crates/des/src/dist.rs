//! Sampling distributions.
//!
//! Implemented from scratch over [`SimRng`]'s uniform draws. The workload
//! generators lean on two families:
//!
//! * [`LogNormal`] — the classic heavy-tailed model for task durations; the
//!   paper's duration CDFs are close to log-normal in the body.
//! * [`Empirical`] — a piecewise quantile function anchored at the exact
//!   percentiles the paper publishes (e.g. AdobeTrace p50 = 120 s,
//!   p75 = 300 s, p90 = 1020 s, ...), interpolated in log-space so the tail
//!   behaves like the published one. It takes the anchors' logarithms
//!   once, when built, since the simulator draws from it per cell (one
//!   Raft sync latency per execution).

use crate::rng::SimRng;

/// A sampleable real-valued distribution.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Draws `n` samples into a vector.
    fn sample_n(&self, rng: &mut SimRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the underlying normal's
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Fits a log-normal to two published quantiles.
    ///
    /// Given `(p_a, value_a)` and `(p_b, value_b)` with `p_a < p_b`, solves
    /// for `(mu, sigma)` so the distribution passes through both anchors.
    /// This is how the workload generators are calibrated to the paper's
    /// CDFs.
    ///
    /// # Panics
    ///
    /// Panics if quantiles are out of `(0, 1)`, misordered, or values are
    /// non-positive.
    pub fn from_quantiles(p_a: f64, value_a: f64, p_b: f64, value_b: f64) -> Self {
        assert!(0.0 < p_a && p_a < p_b && p_b < 1.0, "quantiles misordered");
        assert!(value_a > 0.0 && value_b > 0.0, "values must be positive");
        let z_a = standard_normal_quantile(p_a);
        let z_b = standard_normal_quantile(p_b);
        let sigma = (value_b.ln() - value_a.ln()) / (z_b - z_a);
        let mu = value_a.ln() - sigma * z_a;
        LogNormal::new(mu, sigma.max(0.0))
    }

    /// The distribution's median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Draws a standard-normal variate via the Box–Muller transform.
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = rng.next_f64_open();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Inverse CDF of the standard normal (Acklam's rational approximation,
/// max absolute error ~1.15e-9 — far below workload-model noise).
pub fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// An empirical distribution defined by quantile anchors, interpolated
/// piecewise in log-space (geometric interpolation).
///
/// This lets the workload generators pin the *exact* percentiles the paper
/// publishes and interpolate plausibly between them, with heavy-tail-friendly
/// behaviour past the last anchor.
///
/// # Example
///
/// ```
/// use notebookos_des::{Distribution, Empirical, SimRng};
///
/// // AdobeTrace task durations (seconds) from §2.3.1.
/// let durations = Empirical::from_quantiles(&[
///     (0.50, 120.0),
///     (0.75, 300.0),
///     (0.90, 1020.0),
///     (0.95, 2160.0),
///     (0.99, 10920.0),
/// ]).unwrap();
/// let mut rng = SimRng::seed(1);
/// let sample = durations.sample(&mut rng);
/// assert!(sample > 0.0);
/// ```
///
/// Every logarithm a draw needs from the anchors is taken once, when the
/// distribution is built (and the floor's again in
/// [`Empirical::with_floor`]): the values' `ln`, and the tail's anchor
/// `ln`, `logit` and slope. A [`Empirical::quantile`] call takes only the
/// `ln` of its own `p` (in the tail) and one `exp`, on the same operands as
/// computing every logarithm per call, so it returns the same bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Sorted `(quantile, value, ln value)` anchors; always bracketed by an
    /// implicit minimum and a tail extrapolation.
    anchors: Vec<(f64, f64, f64)>,
    /// `ln` of the lower bound (the value of the 0th quantile).
    ln_floor: f64,
    /// The extrapolated tail past the last anchor `(qb, vb)`:
    /// `(ln vb, logit qb, slope)`, the slope that of the last segment in
    /// (logit, log-value) space.
    tail: (f64, f64, f64),
    /// Optional upper bound truncating the extrapolated tail.
    ceiling: Option<f64>,
}

/// Error constructing an [`Empirical`] distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmpiricalError {
    /// Fewer than two anchors supplied.
    TooFewAnchors,
    /// Quantiles not strictly increasing in `(0, 1)`, or values not
    /// non-decreasing and positive.
    Malformed,
}

impl std::fmt::Display for EmpiricalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmpiricalError::TooFewAnchors => write!(f, "need at least two quantile anchors"),
            EmpiricalError::Malformed => {
                write!(
                    f,
                    "anchors must be strictly increasing in (0, 1) with positive values"
                )
            }
        }
    }
}

impl std::error::Error for EmpiricalError {}

impl Empirical {
    /// Builds a distribution from `(quantile, value)` anchors.
    ///
    /// The floor (0th percentile) defaults to a fraction of the first
    /// anchor's value; use [`Empirical::with_floor`] to pin it (e.g. the
    /// 15-second AdobeTrace sampling granularity).
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two anchors are given, quantiles are
    /// not strictly increasing inside `(0, 1)`, or values are non-positive
    /// or decreasing.
    pub fn from_quantiles(anchors: &[(f64, f64)]) -> Result<Self, EmpiricalError> {
        if anchors.len() < 2 {
            return Err(EmpiricalError::TooFewAnchors);
        }
        for window in anchors.windows(2) {
            let (qa, va) = window[0];
            let (qb, vb) = window[1];
            if !(0.0 < qa && qa < qb && qb < 1.0) || va <= 0.0 || vb < va {
                return Err(EmpiricalError::Malformed);
            }
        }
        let floor = (anchors[0].1 * 0.05).max(f64::MIN_POSITIVE);
        let (qa, va) = anchors[anchors.len() - 2];
        let (qb, vb) = anchors[anchors.len() - 1];
        let slope = (vb.ln() - va.ln()) / (logit(qb) - logit(qa));
        Ok(Empirical {
            anchors: anchors.iter().map(|&(q, v)| (q, v, v.ln())).collect(),
            ln_floor: floor.ln(),
            tail: (vb.ln(), logit(qb), slope),
            ceiling: None,
        })
    }

    /// Builds a distribution from a constant calibration table: anchors
    /// written in the program, not read from its input.
    ///
    /// # Panics
    ///
    /// Panics if the table is malformed (the conditions under which
    /// [`Empirical::from_quantiles`] errs). A malformed constant is a bug
    /// in the program rather than bad input, so it is not returned to a
    /// caller who could do nothing with it: every calibrated table in the
    /// workspace is built by a tier-1 test
    /// (`election::tests::every_calibrated_quantile_table_builds` in
    /// `notebookos-core`).
    pub fn from_table(anchors: &'static [(f64, f64)]) -> Self {
        match Self::from_quantiles(anchors) {
            Ok(dist) => dist,
            Err(err) => panic!("malformed quantile table {anchors:?}: {err}"),
        }
    }

    /// Sets the minimum sample value (the 0th-percentile anchor).
    ///
    /// # Panics
    ///
    /// Panics if `floor` is non-positive or exceeds the first anchor value.
    pub fn with_floor(mut self, floor: f64) -> Self {
        assert!(floor > 0.0 && floor <= self.anchors[0].1);
        self.ln_floor = floor.ln();
        self
    }

    /// Truncates the extrapolated tail at `ceiling` (the 100th-percentile
    /// anchor).
    ///
    /// Without a ceiling the Pareto-like extrapolation past the last anchor
    /// has a tail index near 1 for steep published percentiles, so sample
    /// *sums* are dominated by the single largest draw. Models of
    /// physically bounded quantities (e.g. one Raft commit round) should
    /// pin a ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `ceiling` is below the last anchor value.
    pub fn with_ceiling(mut self, ceiling: f64) -> Self {
        let last = self.anchors[self.anchors.len() - 1].1;
        assert!(
            ceiling >= last,
            "ceiling {ceiling} below last anchor {last}"
        );
        self.ceiling = Some(ceiling);
        self
    }

    /// Evaluates the quantile function at `p` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
        let (q0, _, ln0) = self.anchors[0];
        if p <= q0 {
            return geo_lerp(0.0, self.ln_floor, q0, ln0, p);
        }
        for window in self.anchors.windows(2) {
            let (qa, _, ln_a) = window[0];
            let (qb, _, ln_b) = window[1];
            if p <= qb {
                return geo_lerp(qa, ln_a, qb, ln_b, p);
            }
        }
        // Tail beyond the last anchor: extrapolate with the slope of the
        // last segment in (logit, log-value) space, which produces a
        // Pareto-like tail.
        let (ln_b, logit_b, slope) = self.tail;
        let tail = (ln_b + slope * (logit(p) - logit_b)).exp();
        match self.ceiling {
            Some(ceiling) => tail.min(ceiling),
            None => tail,
        }
    }

    /// The distribution's median (quantile at 0.5).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Avoid the extreme open-interval endpoints.
        let p = rng.next_f64_open().clamp(1e-9, 1.0 - 1e-9);
        self.quantile(p)
    }
}

fn logit(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

/// Geometric interpolation between `(qa, va)` and `(qb, vb)` evaluated at
/// `p`, from the values' logarithms `ln_a` and `ln_b` (every value an
/// [`Empirical`] holds, floor included, is positive).
fn geo_lerp(qa: f64, ln_a: f64, qb: f64, ln_b: f64, p: f64) -> f64 {
    let t = (p - qa) / (qb - qa);
    (ln_a + t * (ln_b - ln_a)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(dist: &impl Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::seed(seed);
        dist.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_mean_matches() {
        let d = Uniform::new(2.0, 4.0);
        let m = mean_of(&d, 1, 100_000);
        assert!((m - 3.0).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = SimRng::seed(3);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| 10.0 + 2.0 * standard_normal(&mut rng))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::from_quantiles(0.5, 120.0, 0.9, 1020.0);
        assert!((d.median() - 120.0).abs() < 1e-6);
        // Empirically check the 90th percentile.
        let mut rng = SimRng::seed(4);
        let mut samples = d.sample_n(&mut rng, 100_000);
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p90 = samples[90_000];
        assert!((p90 / 1020.0 - 1.0).abs() < 0.05, "p90 {p90}");
    }

    #[test]
    fn normal_quantile_is_accurate() {
        assert!((standard_normal_quantile(0.5)).abs() < 1e-8);
        assert!((standard_normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((standard_normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((standard_normal_quantile(0.9) - 1.281552).abs() < 1e-4);
    }

    #[test]
    fn empirical_hits_anchors() {
        let d = Empirical::from_quantiles(&[(0.5, 120.0), (0.75, 300.0), (0.9, 1020.0)]).unwrap();
        assert!((d.quantile(0.5) - 120.0).abs() < 1e-9);
        assert!((d.quantile(0.75) - 300.0).abs() < 1e-9);
        assert!((d.quantile(0.9) - 1020.0).abs() < 1e-9);
        // Monotone between anchors.
        let mut prev = 0.0;
        for i in 1..200 {
            let q = d.quantile(i as f64 / 200.0);
            assert!(q >= prev, "quantile not monotone at {i}");
            prev = q;
        }
    }

    #[test]
    fn empirical_tail_extends_beyond_last_anchor() {
        let d = Empirical::from_quantiles(&[(0.5, 120.0), (0.9, 1020.0)]).unwrap();
        assert!(d.quantile(0.99) > 1020.0);
        assert!(d.quantile(0.999) > d.quantile(0.99));
    }

    #[test]
    fn empirical_respects_floor() {
        let d = Empirical::from_quantiles(&[(0.5, 120.0), (0.9, 1020.0)])
            .unwrap()
            .with_floor(15.0);
        let mut rng = SimRng::seed(5);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 15.0 - 1e-9);
        }
    }

    #[test]
    fn empirical_ceiling_truncates_tail() {
        let d = Empirical::from_quantiles(&[(0.5, 120.0), (0.9, 1020.0)])
            .unwrap()
            .with_ceiling(2000.0);
        assert!(d.quantile(0.9999999) <= 2000.0);
        // Anchors and the body are unaffected.
        assert!((d.quantile(0.5) - 120.0).abs() < 1e-9);
        assert!((d.quantile(0.9) - 1020.0).abs() < 1e-9);
        let mut rng = SimRng::seed(11);
        for _ in 0..50_000 {
            assert!(d.sample(&mut rng) <= 2000.0);
        }
    }

    #[test]
    #[should_panic(expected = "below last anchor")]
    fn empirical_ceiling_below_anchor_panics() {
        let _ = Empirical::from_quantiles(&[(0.5, 120.0), (0.9, 1020.0)])
            .unwrap()
            .with_ceiling(100.0);
    }

    #[test]
    fn empirical_rejects_malformed() {
        assert_eq!(
            Empirical::from_quantiles(&[(0.5, 120.0)]),
            Err(EmpiricalError::TooFewAnchors)
        );
        assert_eq!(
            Empirical::from_quantiles(&[(0.9, 120.0), (0.5, 300.0)]),
            Err(EmpiricalError::Malformed)
        );
        assert_eq!(
            Empirical::from_quantiles(&[(0.5, 300.0), (0.9, 120.0)]),
            Err(EmpiricalError::Malformed)
        );
        assert_eq!(
            Empirical::from_quantiles(&[(0.5, -1.0), (0.9, 120.0)]),
            Err(EmpiricalError::Malformed)
        );
    }

    /// `Empirical::quantile` as it was when it took every logarithm per
    /// call, over explicit anchors, floor and ceiling.
    fn quantile_per_call_ln(
        anchors: &[(f64, f64)],
        floor: f64,
        ceiling: Option<f64>,
        p: f64,
    ) -> f64 {
        fn geo_lerp(qa: f64, va: f64, qb: f64, vb: f64, p: f64) -> f64 {
            let t = (p - qa) / (qb - qa);
            if va <= 0.0 {
                return va + t * (vb - va);
            }
            (va.ln() + t * (vb.ln() - va.ln())).exp()
        }
        let first = anchors[0];
        if p <= first.0 {
            return geo_lerp(0.0, floor, first.0, first.1, p);
        }
        for window in anchors.windows(2) {
            let (qa, va) = window[0];
            let (qb, vb) = window[1];
            if p <= qb {
                return geo_lerp(qa, va, qb, vb, p);
            }
        }
        let (qa, va) = anchors[anchors.len() - 2];
        let (qb, vb) = anchors[anchors.len() - 1];
        let slope = (vb.ln() - va.ln()) / (logit(qb) - logit(qa));
        let tail = (vb.ln() + slope * (logit(p) - logit(qb))).exp();
        match ceiling {
            Some(ceiling) => tail.min(ceiling),
            None => tail,
        }
    }

    #[test]
    fn quantile_matches_the_per_call_ln_form_bit_for_bit() {
        let shapes: [&[(f64, f64)]; 3] = [
            &[(0.5, 120.0), (0.9, 1020.0)],
            &[
                (0.50, 120.0),
                (0.75, 300.0),
                (0.90, 1020.0),
                (0.95, 2160.0),
                (0.99, 10920.0),
            ],
            // Shaped like the election model's Raft sync round, with two
            // equal neighbouring values.
            &[
                (0.1, 0.004),
                (0.5, 0.018),
                (0.9, 0.054_79),
                (0.95, 0.054_79),
                (0.99, 0.268_25),
            ],
        ];
        let mut rng = SimRng::seed(29);
        let mut checked = [0usize; 3]; // floor segment, interior, tail
        for anchors in shapes {
            let built = Empirical::from_quantiles(anchors).unwrap();
            let default_floor = (anchors[0].1 * 0.05).max(f64::MIN_POSITIVE);
            let last = anchors[anchors.len() - 1];
            let variants = [
                (built.clone(), default_floor, None),
                (
                    built.clone().with_floor(anchors[0].1 / 8.0),
                    anchors[0].1 / 8.0,
                    None,
                ),
                (built.clone().with_floor(anchors[0].1), anchors[0].1, None),
                (
                    built.clone().with_ceiling(last.1 * 3.0),
                    default_floor,
                    Some(last.1 * 3.0),
                ),
                (
                    built.clone().with_floor(0.001).with_ceiling(last.1),
                    0.001,
                    Some(last.1),
                ),
            ];
            for (dist, floor, ceiling) in variants {
                let mut ps: Vec<f64> = anchors.iter().map(|&(q, _)| q).collect();
                ps.extend([1e-9, 1e-300, 0.5, 1.0 - 1e-9, 1.0 - f64::EPSILON]);
                for _ in 0..20_000 {
                    ps.push(rng.next_f64_open());
                    // Crowd the ends: the floor segment and the far tail.
                    ps.push(rng.next_f64_open() * anchors[0].0);
                    ps.push(1.0 - rng.next_f64_open() * (1.0 - last.0));
                }
                for p in ps {
                    let got = dist.quantile(p);
                    let want = quantile_per_call_ln(anchors, floor, ceiling, p);
                    assert_eq!(got.to_bits(), want.to_bits(), "p {p:e}: {got} vs {want}");
                    let segment = if p <= anchors[0].0 {
                        0
                    } else if p <= last.0 {
                        1
                    } else {
                        2
                    };
                    checked[segment] += 1;
                }
            }
        }
        assert!(checked.iter().all(|&n| n > 10_000), "{checked:?}");
    }

    #[test]
    fn empirical_sampling_matches_quantiles() {
        let d = Empirical::from_quantiles(&[(0.5, 120.0), (0.75, 300.0), (0.9, 1020.0)]).unwrap();
        let mut rng = SimRng::seed(6);
        let mut samples = d.sample_n(&mut rng, 200_000);
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = samples[100_000];
        let p90 = samples[180_000];
        assert!((p50 / 120.0 - 1.0).abs() < 0.05, "p50 {p50}");
        assert!((p90 / 1020.0 - 1.0).abs() < 0.05, "p90 {p90}");
    }
}

//! Cumulative-distribution collectors in bounded memory.
//!
//! A [`Cdf`] is a log-linear histogram: every power of two is cut into
//! 2^7 = 128 equal sub-buckets, and a sample's bucket index is its
//! magnitude's bit pattern shifted right by 45, i.e. its exponent and the
//! top 7 bits of its mantissa. Each sign keeps one dense `Vec<u64>` of
//! counts spanning the lowest to the highest index it has touched, so
//! memory depends on the range of the samples, never on how many there
//! are: at most 2^18 counters per sign (every finite `f64`), and 128 per
//! octave the samples span — 35 octaves, 4480 counters, hold everything
//! from 1e-3 to 1e7.
//!
//! # What is exact
//!
//! The count, the number of zeros (`0.0` and `-0.0`), the smallest and
//! the largest sample, and the sum in recording order, so
//! [`Cdf::len`], [`Cdf::min`], [`Cdf::max`] and [`Cdf::mean`] are the
//! exact values, and [`Cdf::fraction_at_most`]`(0.0)` is exact. Merging
//! adds counts, so pooling parts holds the same buckets as recording all
//! their samples into one collector.
//!
//! # The error bound
//!
//! A bucket stands for its samples by its *representative*: its midpoint,
//! clamped to `[min, max]`. For normal values (magnitude ≥ 2^-1022) every
//! representative is within [`Cdf::RELATIVE_ERROR`] ε = 2^-8 ≈ 0.39 % of
//! each sample it stands for: a bucket is 2^-7 of its octave's lower edge
//! wide, and the midpoint is half that from either end.
//!
//! [`Cdf::percentile`] keeps the rule of the exact sample CDF: rank =
//! p/100·(n−1), interpolated linearly between the values at the floor
//! and ceiling ranks. Each of those values is its bucket's
//! representative, except that rank 0 is the exact minimum and rank n−1
//! the exact maximum. With f the interpolation fraction and x_lo, x_hi
//! the exact samples at the two ranks, the estimate is within
//! ε·((1−f)·|x_lo| + f·|x_hi|) of the exact percentile.
//!
//! [`Cdf::fraction_at_most`]`(v)` counts the buckets whose representative
//! is at most `v`, so it lies between the exact fractions at v·(1 ∓ 2ε).

use std::fmt;

/// Sub-buckets per power of two, as a power of two.
const SUB_BUCKET_BITS: u32 = 7;
/// A magnitude's bits shifted right by this are its bucket index.
const SHIFT: u32 = f64::MANTISSA_DIGITS - 1 - SUB_BUCKET_BITS;
const SIGN_BIT: u64 = 1 << 63;

/// Collects samples and answers percentile/mean/CDF queries from a
/// log-linear histogram (see the [module docs](self) for the error bound
/// and what stays exact).
///
/// # Example
///
/// ```
/// use notebookos_metrics::Cdf;
///
/// let mut cdf = Cdf::new("latency-ms");
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     cdf.record(v);
/// }
/// // p50 interpolates between 2.0's and 3.0's bucket midpoints.
/// let p50 = cdf.percentile(50.0);
/// assert!((p50 - 2.5).abs() <= 2.5 * Cdf::RELATIVE_ERROR);
/// assert_eq!(cdf.fraction_at_most(2.5), 0.5);
/// // Count, mean, min and max are exact.
/// assert_eq!((cdf.len(), cdf.mean(), cdf.min(), cdf.max()), (4, 2.5, 1.0, 4.0));
/// ```
///
/// Two collectors are equal when their labels and every field are: any
/// change to any bucket, or to the recording-order sum, makes them differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    name: String,
    count: u64,
    zeros: u64,
    sum: f64,
    /// `+∞` while empty, so the first sample always replaces it.
    min: f64,
    /// `−∞` while empty.
    max: f64,
    pos: Buckets,
    neg: Buckets,
}

/// One sign's counts: `counts[k]` is the count of bucket `first + k`,
/// spanning exactly the lowest to the highest index touched (so equal
/// histograms have equal vectors, whatever order they were filled in).
#[derive(Debug, Clone, Default, PartialEq)]
struct Buckets {
    first: u32,
    counts: Vec<u64>,
}

impl Buckets {
    fn increment(&mut self, index: u32) {
        // An index below `first` wraps to a huge offset and misses too.
        let offset = index.wrapping_sub(self.first) as usize;
        match self.counts.get_mut(offset) {
            Some(count) => *count += 1,
            None => {
                self.cover(index);
                self.counts[(index - self.first) as usize] = 1;
            }
        }
    }

    /// Widens the span, if need be, to include `index`.
    #[cold]
    fn cover(&mut self, index: u32) {
        if self.counts.is_empty() {
            self.first = index;
            self.counts.push(0);
        } else if index < self.first {
            let extra = (self.first - index) as usize;
            self.counts.splice(0..0, std::iter::repeat(0).take(extra));
            self.first = index;
        } else {
            let len = (index - self.first) as usize + 1;
            if len > self.counts.len() {
                self.counts.resize(len, 0);
            }
        }
    }

    fn merge(&mut self, other: &Buckets) {
        let Some(last) = other.counts.len().checked_sub(1) else {
            return;
        };
        self.cover(other.first);
        self.cover(other.first + last as u32);
        let start = (other.first - self.first) as usize;
        for (mine, &theirs) in self.counts[start..].iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Every bucket in the span as `(index, count)`, ascending by index.
    fn all(&self) -> impl DoubleEndedIterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(k, &count)| (self.first + k as u32, count))
    }

    /// Occupied buckets as `(index, count)`, ascending by index.
    fn occupied(&self) -> impl DoubleEndedIterator<Item = (u32, u64)> + '_ {
        self.all().filter(|&(_, count)| count > 0)
    }
}

/// Walks `(index, count)` pairs until the 0-based `rank` falls in one:
/// `Ok(index)`, or `Err(rank)` less every count walked past.
fn find(buckets: impl Iterator<Item = (u32, u64)>, mut rank: u64) -> Result<u32, u64> {
    for (index, count) in buckets {
        if rank < count {
            return Ok(index);
        }
        rank -= count;
    }
    Err(rank)
}

/// The midpoint of bucket `index`'s magnitudes. Both edges and the
/// midpoint are exact `f64`s; the top bucket's upper edge is `+∞`, which
/// the clamp to `[min, max]` brings back.
fn midpoint(index: u32) -> f64 {
    let low = f64::from_bits(u64::from(index) << SHIFT);
    let high = f64::from_bits(u64::from(index + 1) << SHIFT);
    low + (high - low) / 2.0
}

impl Cdf {
    /// ε: every representative of a normal sample is within this share of
    /// it (2^-8, half a sub-bucket's width relative to its octave).
    pub const RELATIVE_ERROR: f64 = 1.0 / (1u64 << (SUB_BUCKET_BITS + 1)) as f64;

    /// Creates an empty collector labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Cdf {
            name: name.into(),
            count: 0,
            zeros: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            pos: Buckets::default(),
            neg: Buckets::default(),
        }
    }

    /// The collector's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample. Non-finite samples are ignored (they would poison
    /// every percentile).
    #[inline]
    pub fn record(&mut self, value: f64) {
        let bits = value.to_bits();
        let magnitude = bits & !SIGN_BIT;
        // Zeros and non-finite values share one rarely taken branch: every
        // finite non-zero magnitude is 1..INFINITY, so after a wrapping
        // decrement only zero (to u64::MAX) and ±∞/NaN reach INFINITY - 1.
        if magnitude.wrapping_sub(1) >= f64::INFINITY.to_bits() - 1 {
            if magnitude != 0 {
                return;
            }
            self.zeros += 1;
        } else if bits == magnitude {
            self.pos.increment((magnitude >> SHIFT) as u32);
        } else {
            self.neg.increment((magnitude >> SHIFT) as u32);
        }
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Records many samples.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// Folds another collector's counts into this one — the aggregation
    /// primitive multi-run sweeps use to build a pooled distribution. The
    /// result holds the same buckets, count, zeros, minimum and maximum as
    /// recording both sides' samples into one collector would; its sum is
    /// this side's plus the other's.
    pub fn merge(&mut self, other: &Cdf) {
        self.count += other.count;
        self.zeros += other.zeros;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.pos.merge(&other.pos);
        self.neg.merge(&other.neg);
    }

    /// Builds one pooled collector labelled `name` from many parts.
    ///
    /// # Example
    ///
    /// ```
    /// use notebookos_metrics::Cdf;
    ///
    /// let mut a = Cdf::new("a");
    /// a.record(1.0);
    /// let mut b = Cdf::new("b");
    /// b.record(3.0);
    /// let mut pooled = Cdf::merged("pooled", [&a, &b]);
    /// assert_eq!(pooled.len(), 2);
    /// assert_eq!(pooled.percentile(50.0), 2.0);
    /// ```
    pub fn merged<'a, I: IntoIterator<Item = &'a Cdf>>(name: impl Into<String>, parts: I) -> Cdf {
        let mut out = Cdf::new(name);
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// How many samples were `0.0` or `-0.0`.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Sum of the samples, added in recording order (merges add the parts'
    /// sums).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The exact `(min, max)`, or `None` for an empty collector.
    pub fn range(&self) -> Option<(f64, f64)> {
        (!self.is_empty()).then_some((self.min, self.max))
    }

    /// Occupied buckets of the positive samples as `(index, count)`,
    /// ascending. A bucket's index is its magnitudes' bits shifted right
    /// by 45.
    pub fn positive_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.pos.occupied()
    }

    /// Occupied buckets of the negative samples' magnitudes as
    /// `(index, count)`, ascending by index.
    pub fn negative_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.neg.occupied()
    }

    /// Every occupied bucket as `(representative, count)`, in ascending
    /// order of value (clamping is monotone, so this stays ascending).
    fn ascending(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let neg = self.neg.occupied().rev().map(|(i, c)| (-midpoint(i), c));
        let zeros = (self.zeros > 0).then_some((0.0, self.zeros));
        let pos = self.pos.occupied().map(|(i, c)| (midpoint(i), c));
        neg.chain(zeros).chain(pos).map(|(v, c)| (self.clamp(v), c))
    }

    /// The value at 0-based `rank`: exact at either end, else the
    /// representative of the bucket holding that rank.
    fn value_at(&self, rank: u64) -> f64 {
        if rank == 0 {
            return self.min;
        }
        if rank + 1 >= self.count {
            return self.max;
        }
        let rank = match find(self.neg.all().rev(), rank) {
            Ok(index) => return self.clamp(-midpoint(index)),
            Err(rest) => rest,
        };
        let Some(rank) = rank.checked_sub(self.zeros) else {
            return 0.0;
        };
        match find(self.pos.all(), rank) {
            Ok(index) => self.clamp(midpoint(index)),
            Err(_) => unreachable!("rank past the last of {} samples", self.count),
        }
    }

    fn clamp(&self, v: f64) -> f64 {
        v.max(self.min).min(self.max)
    }

    /// Linearly-interpolated percentile `p` in `[0, 100]`, within
    /// [`Cdf::RELATIVE_ERROR`] of the exact one (module docs).
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.quantile(p)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        assert!(!self.is_empty(), "percentile of empty CDF `{}`", self.name);
        if self.count == 1 {
            return self.min;
        }
        let rank = p / 100.0 * (self.count - 1) as f64;
        let lo = rank.floor();
        let frac = rank - lo;
        let low = self.value_at(lo as u64);
        let high = self.value_at(rank.ceil() as u64);
        low + frac * (high - low)
    }

    /// Arithmetic mean of the samples (their recording-order sum over n).
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty CDF `{}`", self.name);
        self.sum / self.count as f64
    }

    /// Smallest recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn min(&mut self) -> f64 {
        self.range().expect("min of empty CDF").0
    }

    /// Largest recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn max(&mut self) -> f64 {
        self.range().expect("max of empty CDF").1
    }

    /// Fraction of samples `<= value`, in `[0, 1]`, counting each bucket
    /// whose representative is `<= value`; exact at `0.0`, below the
    /// minimum and at or above the maximum. Returns 0 for an empty
    /// collector.
    pub fn fraction_at_most(&mut self, value: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let count: u64 = self
            .ascending()
            .take_while(|&(v, _)| v <= value)
            .map(|(_, c)| c)
            .sum();
        count as f64 / self.count as f64
    }

    /// The conventional summary row used throughout EXPERIMENTS.md:
    /// `(p50, p75, p90, p95, p99)`.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn summary(&mut self) -> [f64; 5] {
        self.summary_row()
    }

    fn summary_row(&self) -> [f64; 5] {
        [50.0, 75.0, 90.0, 95.0, 99.0].map(|p| self.quantile(p))
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "{}: (empty)", self.name);
        }
        let [p50, p75, p90, p95, p99] = self.summary_row();
        write!(
            f,
            "{}: n={} mean={:.3} p50={:.3} p75={:.3} p90={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.name,
            self.count,
            self.mean(),
            p50,
            p75,
            p90,
            p95,
            p99,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::Exact;

    fn filled() -> Cdf {
        cdf("t", (1..=100).map(|i| i as f64))
    }

    fn cdf(name: &str, samples: impl IntoIterator<Item = f64>) -> Cdf {
        let mut c = Cdf::new(name);
        c.record_all(samples);
        c
    }

    #[test]
    fn percentiles_interpolate() {
        let mut c = filled();
        assert_eq!(c.percentile(0.0), 1.0);
        assert_eq!(c.percentile(100.0), 100.0);
        // 50 and 51 are each within ε of their buckets' midpoints.
        let p50 = c.percentile(50.0);
        assert!((p50 - 50.5).abs() <= Cdf::RELATIVE_ERROR * 51.0, "{p50}");
    }

    #[test]
    fn mean_min_max() {
        let mut c = filled();
        assert_eq!(c.mean(), 50.5);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 100.0);
    }

    #[test]
    fn fraction_at_most_counts_inclusive() {
        let mut c = filled();
        // 50 sits in the bucket [50, 50.25): it counts from its
        // representative 50.125 on, within 2ε of the exact answer.
        assert_eq!(c.fraction_at_most(50.0), 0.49);
        assert_eq!(c.fraction_at_most(50.125), 0.5);
        assert_eq!(c.fraction_at_most(0.0), 0.0);
        assert_eq!(c.fraction_at_most(1000.0), 1.0);
        assert_eq!(c.fraction_at_most(100.0), 1.0);
        assert_eq!(c.fraction_at_most(0.999), 0.0);
        assert_eq!(Cdf::new("e").fraction_at_most(1.0), 0.0);
    }

    #[test]
    fn zeros_and_negatives_are_counted_exactly_at_zero() {
        let mut c = cdf("t", [-3.0, -0.0, 0.0, 0.0, 2.5, 1e-300, -1e300]);
        assert_eq!(c.zeros(), 3);
        assert_eq!(c.fraction_at_most(0.0), 5.0 / 7.0);
        assert_eq!(c.fraction_at_most(-1e-300), 2.0 / 7.0);
        assert_eq!(c.min(), -1e300);
        assert_eq!(c.max(), 2.5);
        assert_eq!(c.negative_buckets().count(), 2);
        assert_eq!(c.positive_buckets().count(), 2);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut c = Cdf::new("t");
        c.record(f64::NAN);
        c.record(f64::INFINITY);
        c.record(f64::NEG_INFINITY);
        c.record(1.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c, cdf("t", [1.0]));
    }

    #[test]
    fn single_sample_percentile() {
        let mut c = Cdf::new("one");
        c.record(7.3);
        assert_eq!(c.percentile(0.0), 7.3);
        assert_eq!(c.percentile(99.0), 7.3);
    }

    #[test]
    fn display_is_nonempty() {
        let c = Cdf::new("empty");
        assert!(format!("{c}").contains("empty"));
        let f = filled();
        assert!(format!("{f}").contains("n=100"));
        assert!(format!("{f}").contains("max=100.000"));
    }

    #[test]
    fn bucket_index_is_the_exponent_and_top_seven_mantissa_bits() {
        // [1, 2) is one octave of 128 buckets of width 1/128.
        let one = 1.0f64.to_bits() >> SHIFT;
        let c = cdf("t", [1.0, 1.0 + 1.0 / 128.0, 2.0 - f64::EPSILON, 2.0]);
        let buckets: Vec<(u32, u64)> = c.positive_buckets().collect();
        assert_eq!(
            buckets,
            [
                (one as u32, 1),
                (one as u32 + 1, 1),
                (one as u32 + 127, 1),
                (one as u32 + 128, 1)
            ]
        );
        assert_eq!(midpoint(one as u32), 1.0 + 1.0 / 256.0);
        assert_eq!(Cdf::RELATIVE_ERROR, 2f64.powi(-8));
    }

    /// Feeding 10^6 samples spanning [1e-3, 1e7] of either sign touches
    /// at most 35 octaves of 128 counters a sign, whatever the count; the
    /// hard ceiling, every finite `f64`, is 2^18 counters a sign
    /// (`f64::MAX`'s index is 2^18 − 129).
    #[test]
    fn footprint_is_bounded_by_the_range_not_the_count() {
        let mut c = Cdf::new("wide");
        let (lo, hi) = (1e-3f64.ln(), 1e7f64.ln());
        let n = 1_000_000;
        for i in 0..n {
            let v = (lo + (hi - lo) * i as f64 / (n - 1) as f64).exp();
            c.record(if i % 2 == 0 { v } else { -v });
        }
        assert_eq!(c.len(), n);
        assert!(c.pos.counts.len() <= 128 * 35, "{}", c.pos.counts.len());
        assert!(c.neg.counts.len() <= 128 * 35, "{}", c.neg.counts.len());
        assert!(f64::MAX.to_bits() >> SHIFT < 1 << 18);
    }

    #[test]
    fn spans_grow_at_either_end_and_stay_canonical() {
        let ascending = cdf("t", [1.0, 10.0, 1000.0]);
        let descending = cdf("t", [1000.0, 10.0, 1.0]);
        assert_eq!(ascending.pos, descending.pos);
        // Sums differ only by association; here both are exact.
        assert_eq!(ascending, descending);
        let mut merged = cdf("t", [10.0]);
        merged.merge(&cdf("u", [1000.0]));
        merged.merge(&cdf("u", [1.0]));
        assert_eq!(merged, ascending);
    }

    #[test]
    fn merge_adds_counts_bucket_for_bucket() {
        let a = cdf("m", [5.0, 1.0, -3.0, 0.0]);
        let b = cdf("other", [4.0, 2.0, 2.0, 1e6]);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut all = Cdf::new("m");
        all.record_all([5.0, 1.0, -3.0, 0.0, 4.0, 2.0, 2.0, 1e6]);
        assert_eq!(merged, all);
        // Merging an empty collector changes nothing; merging into one
        // copies the other side.
        let before = merged.clone();
        merged.merge(&Cdf::new("e"));
        assert_eq!(merged, before);
        assert_eq!(Cdf::merged("m", [&all]), all);
    }

    /// The exact reference still answers the old rule: interpolation
    /// between sorted samples at floor and ceiling ranks.
    #[test]
    fn every_query_is_within_its_bound_of_the_exact_reference() {
        let samples = [0.5, 3.0, -7.25, 0.0, 1e6, 2.5e-3, 42.0, 42.0, -0.0, 9.75];
        let mut exact = Exact::default();
        let mut c = Cdf::new("t");
        for v in samples {
            exact.record(v);
            c.record(v);
        }
        assert_eq!(c.len(), exact.len());
        assert_eq!(c.min(), exact.min());
        assert_eq!(c.max(), exact.max());
        assert_eq!(c.mean().to_bits(), exact.mean().to_bits());
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let (x_lo, x_hi, f) = exact.bracket(p);
            let bound = Cdf::RELATIVE_ERROR * ((1.0 - f) * x_lo.abs() + f * x_hi.abs());
            let got = c.percentile(p);
            let want = exact.percentile(p);
            assert!(
                (got - want).abs() <= bound * (1.0 + 1e-12),
                "p{p}: {got} vs {want}"
            );
        }
        for v in [0.0, 3.0, 41.9, 42.0, -7.25, 1e7] {
            let e = 2.0 * Cdf::RELATIVE_ERROR;
            let got = c.fraction_at_most(v);
            assert!(exact.fraction_at_most(v - e * v.abs()) <= got);
            assert!(got <= exact.fraction_at_most(v + e * v.abs()));
        }
        assert_eq!(c.fraction_at_most(0.0), exact.fraction_at_most(0.0));
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn empty_percentile_panics() {
        Cdf::new("e").percentile(50.0);
    }
}

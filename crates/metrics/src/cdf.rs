//! Cumulative-distribution collectors.

use std::fmt;

/// Collects samples and answers percentile/mean/CDF queries.
///
/// Samples are cached unsorted and sorted lazily on the first query after an
/// insert, so recording stays O(1) on the hot path of a simulation.
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
/// assert_eq!(cdf.percentile(50.0), 2.5);
/// assert_eq!(cdf.fraction_at_most(2.0), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Cdf {
    name: String,
    samples: Vec<f64>,
    sorted: bool,
}

/// Two collectors are equal when they carry the same label and the same
/// multiset of samples (queries sort samples in place, so recording order
/// is deliberately not part of equality).
impl PartialEq for Cdf {
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name || self.samples.len() != other.samples.len() {
            return false;
        }
        let mut a = self.samples.clone();
        let mut b = other.samples.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        a == b
    }
}

impl Cdf {
    /// Creates an empty collector labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Cdf {
            name: name.into(),
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// The collector's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample. Non-finite samples are ignored (they would poison
    /// every percentile). An insert that keeps the samples ascending keeps
    /// the collector sorted, so later queries and merges skip the sort.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.sorted = self.sorted && self.samples.last().map_or(true, |&last| last <= value);
            self.samples.push(value);
        }
    }

    /// Records many samples.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.record(v);
        }
    }

    /// The recorded samples (order reflects queries: percentile and friends
    /// sort in place).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The samples in canonical ascending (`total_cmp`) order, without
    /// mutating the collector — the order reports persist, chosen so the
    /// same multiset always serializes to the same bytes no matter how
    /// the run recorded or merged it (the golden reports' byte compare
    /// depends on this).
    pub fn canonical_samples(&self) -> Vec<f64> {
        let mut out = self.samples.clone();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Folds another collector's samples into this one — the aggregation
    /// primitive multi-run sweeps use to build a pooled distribution.
    ///
    /// When both sides are already sorted (each has answered at least one
    /// query, or is empty), the two sorted runs are merged in O(n) and
    /// the result *stays* sorted — so pooling k queried collectors costs
    /// O(total) instead of the O(total log total) re-sort the next query
    /// would otherwise pay. Otherwise samples are appended and the next
    /// query sorts as usual; both paths produce the same multiset.
    pub fn merge(&mut self, other: &Cdf) {
        if self.sorted && other.sorted {
            // Samples never contain non-finite values (`record` drops
            // them), so a plain `<=` merge is total; taking from `self`
            // on ties keeps the merge stable.
            let mut merged = Vec::with_capacity(self.samples.len() + other.samples.len());
            let mut a = self.samples.iter().copied().peekable();
            let mut b = other.samples.iter().copied().peekable();
            while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
                if x <= y {
                    merged.push(x);
                    a.next();
                } else {
                    merged.push(y);
                    b.next();
                }
            }
            merged.extend(a);
            merged.extend(b);
            self.samples = merged;
            // `sorted` stays true.
        } else {
            self.record_all(other.samples.iter().copied());
        }
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
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
            self.sorted = true;
        }
    }

    /// Linearly-interpolated percentile `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        assert!(!self.is_empty(), "percentile of empty CDF `{}`", self.name);
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.samples[lo] + frac * (self.samples[hi] - self.samples[lo])
    }

    /// Arithmetic mean of the samples.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty CDF `{}`", self.name);
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        *self.samples.first().expect("min of empty CDF")
    }

    /// Largest recorded sample.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.samples.last().expect("max of empty CDF")
    }

    /// Fraction of samples `<= value`, in `[0, 1]`. Returns 0 for an empty
    /// collector.
    pub fn fraction_at_most(&mut self, value: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let count = self.samples.partition_point(|&s| s <= value);
        count as f64 / self.samples.len() as f64
    }

    /// The conventional summary row used throughout EXPERIMENTS.md:
    /// `(p50, p75, p90, p95, p99)`.
    ///
    /// # Panics
    ///
    /// Panics if the collector is empty.
    pub fn summary(&mut self) -> [f64; 5] {
        [
            self.percentile(50.0),
            self.percentile(75.0),
            self.percentile(90.0),
            self.percentile(95.0),
            self.percentile(99.0),
        ]
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut copy = self.clone();
        if copy.is_empty() {
            return write!(f, "{}: (empty)", self.name);
        }
        let [p50, p75, p90, p95, p99] = copy.summary();
        write!(
            f,
            "{}: n={} mean={:.3} p50={:.3} p75={:.3} p90={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.name,
            copy.len(),
            copy.mean(),
            p50,
            p75,
            p90,
            p95,
            p99,
            copy.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!((c.percentile(50.0) - 50.5).abs() < 1e-9);
    }

    #[test]
    fn mean_min_max() {
        let mut c = filled();
        assert!((c.mean() - 50.5).abs() < 1e-9);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 100.0);
    }

    #[test]
    fn fraction_at_most_counts_inclusive() {
        let mut c = filled();
        assert!((c.fraction_at_most(50.0) - 0.5).abs() < 1e-9);
        assert_eq!(c.fraction_at_most(0.0), 0.0);
        assert_eq!(c.fraction_at_most(1000.0), 1.0);
        assert_eq!(Cdf::new("e").fraction_at_most(1.0), 0.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut c = Cdf::new("t");
        c.record(f64::NAN);
        c.record(f64::INFINITY);
        c.record(1.0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn single_sample_percentile() {
        let mut c = Cdf::new("one");
        c.record(7.0);
        assert_eq!(c.percentile(0.0), 7.0);
        assert_eq!(c.percentile(99.0), 7.0);
    }

    #[test]
    fn display_is_nonempty() {
        let c = Cdf::new("empty");
        assert!(format!("{c}").contains("empty"));
        let f = filled();
        assert!(format!("{f}").contains("n=100"));
    }

    #[test]
    fn sorted_merge_stays_sorted_and_matches_naive() {
        let mut a = cdf("m", [5.0, 1.0, 3.0]);
        let mut b = cdf("other", [4.0, 2.0, 2.0]);
        a.percentile(50.0); // sorts a
        b.percentile(50.0); // sorts b
        a.merge(&b);
        assert_eq!(
            a.samples(),
            &[1.0, 2.0, 2.0, 3.0, 4.0, 5.0],
            "merged in order"
        );
        // Merging into an empty (sorted) collector keeps order too —
        // the shape `Cdf::merged` builds pooled distributions with.
        let mut pooled = Cdf::new("pooled");
        pooled.merge(&a);
        pooled.merge(&b);
        assert_eq!(pooled.len(), 9);
        assert!(pooled.samples().windows(2).all(|w| w[0] <= w[1]));
        // The naive (unsorted) path records the same multiset.
        let mut naive = cdf("m", [5.0, 1.0, 3.0]);
        naive.merge(&cdf("x", [4.0, 2.0, 2.0]));
        assert_eq!(naive.len(), 6);
        assert_eq!(naive.percentile(100.0), 5.0);
    }

    #[test]
    fn in_order_loads_arrive_sorted() {
        // Ascending inserts keep the collector sorted; the first
        // out-of-order insert clears the flag.
        let mut c = cdf("t", [1.0, 2.0, 2.0, 9.0]);
        assert!(c.sorted);
        c.record(3.0);
        assert!(!c.sorted);
        assert!(!cdf("t", [5.0, 1.0]).sorted);
        assert!(Cdf::new("e").sorted);
    }

    #[test]
    fn canonical_samples_are_order_independent() {
        let a = cdf("t", [3.0, 1.0, 2.0]);
        let b = cdf("t", [2.0, 3.0, 1.0]);
        assert_eq!(a.canonical_samples(), b.canonical_samples());
        assert_eq!(a.canonical_samples(), vec![1.0, 2.0, 3.0]);
        // Non-mutating: the collector's own sample order is untouched.
        assert_eq!(a.samples(), &[3.0, 1.0, 2.0]);
        // Round trip: canonical samples load back as a sorted collector
        // equal (as a multiset) to the original.
        let reloaded = cdf("t", a.canonical_samples());
        assert!(reloaded.sorted);
        assert_eq!(reloaded, a);
    }

    /// Property test (seeded xorshift cases): pooling collectors loaded
    /// from canonical order never sorts again and answers every query
    /// identically to pooling the raw unsorted recordings.
    #[test]
    fn pooled_canonical_loads_match_unsorted_pooling() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..50 {
            let runs: Vec<Vec<f64>> = (0..1 + case % 5)
                .map(|_| {
                    let n = (next() * 40.0) as usize;
                    (0..n).map(|_| (next() * 1e3).round() / 10.0).collect()
                })
                .collect();
            let raw: Vec<Cdf> = runs
                .iter()
                .map(|r| cdf("part", r.iter().copied()))
                .collect();
            let loaded: Vec<Cdf> = raw
                .iter()
                .map(|c| cdf("part", c.canonical_samples()))
                .collect();
            assert!(loaded.iter().all(|c| c.sorted), "case {case}: loads sorted");
            let mut pooled_loaded = Cdf::merged("pooled", &loaded);
            let mut pooled_raw = Cdf::merged("pooled", &raw);
            assert!(
                pooled_loaded.sorted,
                "case {case}: sorted merge never degrades to append"
            );
            assert_eq!(pooled_loaded, pooled_raw, "case {case}: same multiset");
            assert_eq!(
                pooled_loaded.canonical_samples(),
                pooled_raw.canonical_samples(),
                "case {case}: same bytes when persisted"
            );
            if !pooled_loaded.is_empty() {
                for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                    assert_eq!(
                        pooled_loaded.percentile(p),
                        pooled_raw.percentile(p),
                        "case {case}: percentile {p}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn empty_percentile_panics() {
        Cdf::new("e").percentile(50.0);
    }
}

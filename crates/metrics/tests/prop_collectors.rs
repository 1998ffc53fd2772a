//! Property tests for the metric collectors.

use proptest::prelude::*;

use notebookos_metrics::{Cdf, Timeline};

fn cdf(name: &str, samples: &[f64]) -> Cdf {
    let mut c = Cdf::new(name);
    c.record_all(samples.iter().copied());
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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

    /// The sorted-run fast path of `Cdf::merge` (both sides queried →
    /// O(n) two-run merge that stays sorted) is indistinguishable from
    /// the naive append-then-resort path: same multiset, same
    /// percentiles, and the result needs no further sort.
    #[test]
    fn cdf_sorted_merge_equals_naive_merge(
        a in proptest::collection::vec(-1.0e6f64..1.0e6, 0..200),
        b in proptest::collection::vec(-1.0e6f64..1.0e6, 0..200),
    ) {
        // Sorted path: query both sides first so their caches are sorted.
        let mut left = cdf("prop", &a);
        let mut right = cdf("prop-b", &b);
        if !left.is_empty() { left.percentile(50.0); }
        if !right.is_empty() { right.percentile(50.0); }
        let mut fast = left.clone();
        fast.merge(&right);

        // Naive path: unsorted append (at least one side unsorted).
        let mut naive = cdf("prop", &a);
        naive.merge(&cdf("prop-b", &b));

        prop_assert_eq!(&fast, &naive, "same label and multiset");
        // The fast path's samples are already in ascending order.
        prop_assert!(fast.samples().windows(2).all(|w| w[0] <= w[1]));
        if !fast.is_empty() {
            let mut naive_q = naive.clone();
            for p in [0.0, 25.0, 50.0, 90.0, 100.0] {
                prop_assert_eq!(fast.percentile(p), naive_q.percentile(p));
            }
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

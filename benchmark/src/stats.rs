//! Order statistics for the ledger: medians, percentiles, and the rule
//! that says which tail percentile a sample can support.

/// Whether a sample of `n` supports reporting percentile `p`: at least ten
/// samples must lie beyond it (choosing-metrics §1). Counted in parts per
/// 10 000, in integers, so that 10 000 samples support p99.9 exactly.
pub fn supports(n: usize, p: f64) -> bool {
    let beyond_per_10k = (10_000.0 - p * 100.0).round() as usize;
    n * beyond_per_10k >= 10 * 10_000
}

/// Percentile `p` (0–100) of an ascending slice, nearest-rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty sample, the ledger's convention for "layer not exercised".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The lowest of `values`; 0 for an empty sample. Used where the samples
/// are the same fixed work repeated, so that all that separates them is
/// noise, and noise only adds time.
pub fn lowest(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of integer nanosecond samples, sorting in place.
pub fn median_ns(samples: &mut [u32]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    f64::from(percentile_sorted(samples, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // The highest percentile each sample size supports.
        for (n, top) in [
            (20, 50.0),
            (99, 50.0),
            (100, 90.0),
            (999, 90.0),
            (1000, 99.0),
            (9999, 99.0),
            (10_000, 99.9),
            (99_999, 99.9),
            (100_000, 99.99),
        ] {
            let ladder = [50.0, 90.0, 99.0, 99.9, 99.99];
            let highest = ladder.iter().rfind(|&&p| supports(n, p));
            assert_eq!(highest, Some(&top), "n = {n}");
        }
        assert!(!supports(19, 50.0));
        assert!(supports(6000, 99.0));
        assert!(!supports(600, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7u32], 99.0), 7);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_ns(&mut [9, 1, 5]), 5.0);
        assert_eq!(lowest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(lowest(&[]), 0.0);
    }
}

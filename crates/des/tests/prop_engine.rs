//! Property tests for the DES core: event ordering, RNG determinism, and
//! distribution sanity.

use proptest::prelude::*;

use notebookos_des::{Distribution, EventQueue, LogNormal, SimRng, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events always pop in non-decreasing time order, with FIFO ties.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_micros(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((t, idx)) = queue.pop() {
            prop_assert!(t >= last_time);
            if t > last_time {
                seen_at_time.clear();
            }
            // FIFO within a timestamp: indices increase.
            if let Some(&prev) = seen_at_time.last() {
                prop_assert!(idx > prev, "tie broken out of order");
            }
            seen_at_time.push(idx);
            last_time = t;
        }
    }

    /// Forked RNG streams are reproducible from the same root seed.
    #[test]
    fn rng_forks_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = SimRng::seed(seed);
        let mut b = SimRng::seed(seed);
        let mut fa = a.fork(stream);
        let mut fb = b.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    /// Log-normal fitting hits the requested quantile pair.
    #[test]
    fn lognormal_fit_hits_anchors(median in 1.0f64..1000.0, ratio in 1.1f64..50.0) {
        let p90_value = median * ratio;
        let dist = LogNormal::from_quantiles(0.5, median, 0.9, p90_value);
        prop_assert!((dist.median() / median - 1.0).abs() < 1e-9);
        // Sampled median lands near the anchor.
        let mut rng = SimRng::seed(7);
        let mut samples = dist.sample_n(&mut rng, 4001);
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got = samples[2000];
        prop_assert!((got / median - 1.0).abs() < 0.2, "sampled median {got} vs {median}");
    }

    /// SimTime arithmetic: conversion round trips and ordering. Bounded to
    /// 2^52 µs (~142 years) — the range where `f64` second conversions are
    /// exact at millisecond precision.
    #[test]
    fn simtime_round_trips(us in 0u64..(1u64 << 52)) {
        let t = SimTime::from_micros(us);
        prop_assert_eq!(t.as_micros(), us);
        prop_assert_eq!(
            SimTime::from_secs_f64(t.as_secs_f64()).as_micros() / 1_000,
            t.as_micros() / 1_000
        );
        prop_assert!(t + SimTime::from_micros(1) > t);
    }
}

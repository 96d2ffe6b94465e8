//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simcore::stats::quantile;
use simcore::{EventQueue, RngStream, RunningStats, Series, SimDuration, SimTime};

proptest! {
    #[test]
    fn event_queue_pops_in_sorted_stable_order(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::new(t), i);
        }
        let mut expected: Vec<(f64, usize)> =
            times.iter().copied().zip(0..times.len()).collect();
        // Stable sort by time — matches the queue's (time, seq) order.
        expected.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.time.as_f64(), e.event));
        }
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn welford_merge_equals_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let (left_xs, right_xs) = xs.split_at(split);
        let mut left = RunningStats::new();
        for &x in left_xs {
            left.push(x);
        }
        let mut right = RunningStats::new();
        for &x in right_xs {
            right.push(x);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((left.variance() - whole.variance()).abs()
            < 1e-5 * (1.0 + whole.variance().abs()));
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn quantiles_are_bounded_and_monotone(
        xs in prop::collection::vec(-1e3f64..1e3, 1..60),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a <= b, "quantiles must be monotone: q({lo})={a} > q({hi})={b}");
        prop_assert!(a >= min && b <= max);
    }

    #[test]
    fn rng_streams_are_reproducible_and_label_separated(seed in any::<u64>()) {
        let a: Vec<f64> = {
            let mut r = RngStream::root(seed).derive("x");
            (0..16).map(|_| r.unit()).collect()
        };
        let b: Vec<f64> = {
            let mut r = RngStream::root(seed).derive("x");
            (0..16).map(|_| r.unit()).collect()
        };
        prop_assert_eq!(&a, &b);
        let c: Vec<f64> = {
            let mut r = RngStream::root(seed).derive("y");
            (0..16).map(|_| r.unit()).collect()
        };
        prop_assert_ne!(&a, &c);
    }

    #[test]
    fn uniform_draws_respect_bounds(seed in any::<u64>(), lo in -1e3f64..1e3, width in 1e-3f64..1e3) {
        let mut r = RngStream::root(seed);
        let hi = lo + width;
        for _ in 0..64 {
            let x = r.uniform(lo, hi);
            prop_assert!((lo..hi).contains(&x));
        }
    }

    #[test]
    fn exponential_is_positive(seed in any::<u64>(), mean in 1e-3f64..1e3) {
        let mut r = RngStream::root(seed);
        for _ in 0..64 {
            prop_assert!(r.exponential(mean) >= 0.0);
        }
    }

    #[test]
    fn sim_time_arithmetic_is_consistent(a in 0.0f64..1e9, d in 0.0f64..1e6) {
        let t = SimTime::new(a);
        let later = t + SimDuration::new(d);
        prop_assert!(later >= t);
        prop_assert!((later.since(t).as_f64() - d).abs() < 1e-6 * (1.0 + d));
        prop_assert_eq!(t.since(later), SimDuration::ZERO);
    }

    #[test]
    fn series_lookup_is_pointwise(ys in prop::collection::vec(0.1f64..1e3, 1..30)) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let a = Series::from_xy("a", &xs, &ys);
        prop_assert_eq!(a.len(), ys.len());
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert_eq!(a.y_at(x), Some(y));
        }
    }
}

//! Order statistics for timings: nearest-rank percentiles, with a floor on
//! how many samples must lie beyond a reported tail.

/// Samples that must lie beyond a reported tail percentile. A tail that
/// rests on fewer samples is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples, or
/// `None` for no samples or a `p` outside `(0, 100]`.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let r = (p * n as f64 / 100.0).ceil() as usize;
    Some(r.clamp(1, n))
}

/// Nearest-rank `p`-th percentile of ascending `sorted`: the smallest
/// sample with at least `p` % of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// [`nearest_rank`] for a tail percentile: `None` unless at least
/// [`MIN_BEYOND`] samples lie above the rank.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    let r = rank(sorted.len(), p)?;
    (sorted.len() - r >= MIN_BEYOND).then(|| sorted[r - 1])
}

/// `v` in ascending order.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of `v`; `None` when `v` is empty.
pub fn median(v: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(v.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: u32) -> Vec<f64> {
        (1..=n).map(f64::from).collect()
    }

    #[test]
    fn nearest_rank_is_the_smallest_sample_covering_p() {
        let v = one_to(100);
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&one_to(7), 50.0), Some(4.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 0.0), None);
        assert_eq!(nearest_rank(&v, 100.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_rank() {
        // p99 of 1000 samples is rank 990: exactly ten samples lie beyond.
        assert_eq!(tail(&one_to(1000), 99.0), Some(990.0));
        assert_eq!(tail(&one_to(999), 99.0), None);
        assert_eq!(tail(&one_to(100), 90.0), Some(90.0));
        assert_eq!(tail(&one_to(100), 91.0), None);
        assert_eq!(tail(&one_to(20), 50.0), Some(10.0));
        assert_eq!(tail(&one_to(19), 50.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}

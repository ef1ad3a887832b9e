//! Order statistics for latency samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer would make the tail a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile (`0 < p < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorts ascending (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p50_is_reported_for_twenty_samples() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}

//! Sample statistics: means, medians, tail percentiles and the quartile
//! spread the benchmark's own steadiness rule is stated in.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Arithmetic mean (0 for an empty sample, which reads as "no such
/// statements" in a metric).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Ascending copy of a sample.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-quantile (`0 < p < 1`) of an ascending sample, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let idx = ((n as f64) * p).ceil() as usize;
    let idx = idx.clamp(1, n.max(1)) - 1;
    (n > 0 && n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 the sample supports
/// (at least [`MIN_BEYOND`] samples beyond it), with its value.
pub fn highest_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find_map(|p| percentile(sorted, p).map(|v| (p, v)))
}

/// First and third quartile by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)` — the rule the benchmark's spread
/// bound is stated in.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    let at = |k: usize| {
        // position k*(n+1)/4 in 1-based exclusive interpolation
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples: index 989, ten samples beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99.9 would leave one sample beyond.
        assert_eq!(percentile(&v, 0.999), None);
        assert_eq!(highest_percentile(&v), Some((0.99, 990.0)));
        // 999 samples: p99 leaves only nine beyond, so p90 is the highest.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(highest_percentile(&v[..999]).map(|(p, _)| p), Some(0.9));
        // Fewer than 20 samples support not even a median.
        assert_eq!(highest_percentile(&v[..19]), None);
        assert_eq!(highest_percentile(&v[..20]), Some((0.5, 10.0)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

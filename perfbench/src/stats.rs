//! Order statistics for the reported timings.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by linear interpolation between
/// closest ranks (the same rule as numpy's default); 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile of `n` samples that has at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when there are too few
/// samples for any. With `n` samples, the sample at rank `n - 10`
/// (1-based) still has ten above it, which makes it the
/// `100 * (n - 10) / n`-th percentile.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 90.0) - 90.1).abs() < 1e-9);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // p90 needs a hundred samples: ten beyond it.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert!(highest_supported_percentile(99).unwrap() < 90.0);
        for n in 11..400usize {
            let p = highest_supported_percentile(n).unwrap();
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&values, p);
            let beyond = values.iter().filter(|&&v| v > cut).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n}: {beyond} beyond p{p}");
        }
        assert_eq!(highest_supported_percentile(40), Some(75.0));
    }
}

//! Percentiles under the benchmark's reporting rule, and the quartiles
//! `compare` judges spreads with.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported; below that the tail is a handful of outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    Some(sorted[rank(sorted.len(), q)?])
}

/// Index of the nearest-rank `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The `q` percentile, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let index = rank(sorted.len(), q)?;
    (sorted.len() - 1 - index >= MIN_BEYOND).then(|| sorted[index])
}

/// Sorts samples ascending (they are never NaN: every sample is a duration
/// or a count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The arithmetic mean, or `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The median of ascending samples, averaging the middle pair.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles of ascending samples, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so spreads read the same here as in any external check. Needs at least
/// two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread.
pub fn spread(sorted: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(sorted)?;
    let median = median(sorted)?;
    (median != 0.0).then(|| (q3 - q1) / median.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: the 990th is p99 and exactly ten lie beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99), Some(990.0));
        // 999 samples leave only nine beyond: the tail is withheld.
        assert_eq!(tail(&thousand[..999], 0.99), None);
        // The median needs no tail support.
        assert_eq!(percentile(&thousand[..5], 0.5), Some(3.0));
        assert_eq!(tail(&thousand[..5], 0.5), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 0.2), Some(1.0));
        assert_eq!(percentile(&samples, 0.21), Some(2.0));
        assert_eq!(percentile(&samples, 1.0), Some(5.0));
        assert_eq!(median(&samples), Some(3.0));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(mean(&samples), Some(3.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), Some((1.25, 7.0)));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]: the
        // clamped index extrapolates past the data.
        assert_eq!(quartiles(&[3.0, 9.0]), Some((1.5, 10.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = spread(&ten).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }
}

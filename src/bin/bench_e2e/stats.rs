//! Order statistics for latency samples.

/// Percentiles the tail rule may pick from, ascending, in hundredths of
/// a percent so that ranks are exact integers.
const LADDER: [usize; 7] = [5000, 7500, 9000, 9500, 9900, 9990, 9999];

/// Nearest rank of the `pct`-hundredths percentile among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile (in hundredths of a percent) of an ascending
/// slice; 0 for an empty one.
fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted.get(rank(sorted.len(), pct) - 1).copied().unwrap_or(0.0)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail percentile to report for `n` samples: the highest one on the
/// ladder that still has at least ten samples beyond it. Below twenty
/// samples even the median has fewer than ten beyond it, and the median
/// is reported.
fn tail_percentile(n: usize) -> usize {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| n.saturating_sub(rank(n, pct)) >= 10)
        .unwrap_or(LADDER[0])
}

/// `(percentile used, its value)` by the tail rule.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let pct = tail_percentile(values.len());
    (pct as f64 / 100.0, percentile(&sorted(values), pct))
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the contract's spread). `None` below two values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        for (n, pct) in [
            (0, 5000),
            (19, 5000),
            (20, 5000),
            (39, 5000),
            (40, 7500),
            (99, 7500),
            (100, 9000),
            (199, 9000),
            (200, 9500),
            (1_000, 9900),
            (10_000, 9990),
            (100_000, 9999),
        ] {
            assert_eq!(tail_percentile(n), pct, "n = {n}");
        }
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_the_reported_value() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = tail(&values);
        assert_eq!(pct, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 5000), 2.0);
        assert_eq!(percentile(&v, 7500), 3.0);
        assert_eq!(percentile(&v, 10_000), 4.0);
        assert_eq!(percentile(&[], 5000), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}

//! Order statistics over timing samples.

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of **sorted** `sorted`: the smallest sample with
/// at least `p` of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` in `n` samples. The epsilon keeps
/// products such as `0.99 * 2000` from rounding up past their exact value.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above percentile `p`'s rank in a sample of `n`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// The highest of `candidates` (ascending) that leaves at least ten samples
/// beyond it in a sample of `n`, or `None` when even the lowest does not.
pub fn highest_supported(candidates: &[f64], n: usize) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(p, n) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the spread the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The tail percentile of one pass: p99 where the pass leaves ten samples
/// beyond it, else the highest lower percentile that does (smoke runs).
pub fn tail_percentile(pass_sorted: &[f64]) -> f64 {
    let p = highest_supported(&[0.5, 0.9, 0.99], pass_sorted.len()).unwrap_or(0.5);
    nearest_rank(pass_sorted, p)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 2 000 samples: p99 is the 1 980th, leaving 20 beyond it.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), 1980.0);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(samples_beyond(0.99, 2000), 20);
        assert_eq!(samples_beyond(0.99, 999), 9);
        assert_eq!(samples_beyond(0.50, 20), 10);
        let ladder = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_supported(&ladder, 19), None);
        assert_eq!(highest_supported(&ladder, 20), Some(0.5));
        assert_eq!(highest_supported(&ladder, 999), Some(0.9));
        assert_eq!(highest_supported(&ladder, 1000), Some(0.99));
        assert_eq!(highest_supported(&ladder, 2000), Some(0.99));
        assert_eq!(highest_supported(&ladder, 10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(spread(&v), 1.0);
    }
}

//! Order statistics for the report: medians, quartiles and tail
//! percentiles that refuse to pretend at small sample counts.

/// Sorted copy of `xs` (total order, so a stray NaN cannot panic).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), so a spread
/// computed here equals the one the acceptance driver computes.
/// Fewer than two samples have no spread: both quartiles are the value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (`0.0` when the median
/// is zero).
pub fn relative_spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    ((q3 - q1) / m).abs()
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it in a sample of `n` — the only tail a report may
/// quote. `None` when even the 75th has fewer (n < 40): the caller must
/// then say "too few samples" instead of printing a tail.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // (percentile, per-mille of the sample beyond it) — integers, so
    // that 10 000 samples do have ten beyond the 99.9th.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Values checked against `statistics.quantiles(xs, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((relative_spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(5), None);
        assert_eq!(highest_percentile(39), None);
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(600), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }
}

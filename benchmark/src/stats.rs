//! Order statistics used by every report.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so spreads
/// reported here match a reader's own check. Fewer than two values give
/// that value three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 when the median is).
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile `p` (0–100] of an ascending slice: the value
/// at rank `ceil(p/100 · n)`. Returns 0 for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank `ceil(p/100 · n)`, with a tolerance so that decimal
/// percentiles such as 99.9 do not round up a whole rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The percentiles a tail is reported at, highest last.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten
/// samples beyond it among `n` samples, so a reported tail always rests
/// on ten observations. `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(p, n) + 10)
}

/// Ascending copy of `xs` (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&xs, 100.0), 100.0);
        assert_eq!(nearest_rank(&xs, 0.1), 1.0);
        // Rank ceil(0.9 · 5) = 5: the maximum of five samples.
        assert_eq!(nearest_rank(&sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]), 90.0), 5.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&thousand, 99.9), 999.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None, "p50 has only 9 beyond it");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0), "p90 has 9 beyond it");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }
}

//! Order statistics over timing samples.

/// How many samples must lie beyond a percentile before it is reported as
/// resolved: below that, the "percentile" is one or two outliers.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// numbers here match the ones the acceptance check computes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the run-to-run spread.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank `pct`-th percentile; NaN when empty.
pub fn percentile(xs: &[f64], pct: usize) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).max(1)
}

/// The tail rule: a percentile counts only when at least
/// [`TAIL_SAMPLES`] samples lie beyond it (1000 samples for p99, 100 for
/// p90).
pub fn tail_resolved(n: usize, pct: usize) -> bool {
    n > 0 && n - rank(n, pct) >= TAIL_SAMPLES
}

/// The highest of p99, p95, p90, p75 and p50 that passes the tail rule,
/// and its value; `None` for fewer than 20 samples.
pub fn tail(xs: &[f64]) -> Option<(usize, f64)> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|&pct| tail_resolved(xs.len(), pct))
        .map(|pct| (pct, percentile(xs, pct)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4)
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(!tail_resolved(0, 95));
        assert!(!tail_resolved(199, 95));
        assert!(tail_resolved(200, 95));
        assert!(!tail_resolved(999, 99));
        assert!(tail_resolved(1000, 99));
        assert!(tail_resolved(100, 90));
        assert!(!tail_resolved(8, 100));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), 990.0);
        assert_eq!(xs.len() - 990, TAIL_SAMPLES);
        assert_eq!(percentile(&xs[..200], 95), 190.0);
        assert_eq!(percentile(&xs[..8], 100), 8.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
        assert_eq!(percentile(&xs[..20], 10), 2.0);
        assert_eq!(tail(&xs), Some((99, 990.0)));
        assert_eq!(tail(&xs[..200]), Some((95, 190.0)));
        assert_eq!(tail(&xs[..20]), Some((50, 10.0)));
        assert_eq!(tail(&xs[..19]), None);
    }
}

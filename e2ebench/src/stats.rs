//! Small statistics helpers: nearest-rank percentiles with the
//! "ten samples beyond" rule, medians, and log-log exponent fits.

/// How many samples must lie strictly beyond a reported percentile for
/// it to be trusted as a tail estimate.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`), or
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] strictly beyond
/// the nearest-rank `p` percentile: p99 needs 1000 samples, p50 needs 20.
pub fn tail_supported(n: usize, p: f64) -> bool {
    let rank = (n as f64 * p).ceil() as usize;
    n > 0 && n - rank.clamp(1, n) >= TAIL_SAMPLES
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median (mean of the middle pair for even counts), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Least-squares slope of `ln y` against `ln x`: the scaling exponent
/// of `y ~ x^k`. Points with a non-positive coordinate are skipped;
/// fewer than two usable points (or no spread in `x`) give 0.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(100, 0.99));
        // p50 needs twenty samples.
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn exponent_fit_recovers_power_laws() {
        let pts = |k: f64| -> Vec<(f64, f64)> {
            [1.0, 2.0, 4.0, 8.0, 16.0, 32.0].iter().map(|&x| (x, 3.0 * f64::powf(x, k))).collect()
        };
        for k in [0.0, 1.0, 1.2, 2.0] {
            assert!((fit_exponent(&pts(k)) - k).abs() < 1e-9, "k = {k}");
        }
        // Zero or negative samples are skipped, not logged.
        assert!((fit_exponent(&[(1.0, 0.0), (2.0, 4.0), (4.0, 16.0)]) - 2.0).abs() < 1e-9);
        assert_eq!(fit_exponent(&[(2.0, 5.0)]), 0.0);
        assert_eq!(fit_exponent(&[(2.0, 5.0), (2.0, 9.0)]), 0.0);
    }
}

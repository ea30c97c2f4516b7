//! Summary statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p/100 · n)`. The samples
//! above that rank are the ones "beyond" the percentile; a percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (`0 < p <= 100`) of `samples`; `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest rank of `p`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// Fewest samples for which at least [`MIN_BEYOND`] lie beyond `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(p, n) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Median (the 50th nearest-rank percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Geometric mean of strictly positive values; `None` when empty or when a
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn sample_counts_beyond_p90() {
        assert_eq!(samples_beyond(90.0, 100), 10);
        assert_eq!(samples_beyond(90.0, 99), 9);
        assert_eq!(samples_beyond(90.0, 0), 0);
        assert_eq!(samples_beyond(50.0, 13), 6);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(50.0), 20);
        for n in 1..300 {
            assert_eq!(
                samples_beyond(90.0, n) >= MIN_BEYOND,
                n >= min_samples_for(90.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn geometric_mean() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[2.0, f64::NAN]), None);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0; 13]).unwrap() - 5.0).abs() < 1e-12);
        // Equal weight: one slow query cannot dominate as in a sum.
        let g = geomean(&[1.0, 1.0, 1.0, 1000.0]).unwrap();
        assert!((g - 1000f64.powf(0.25)).abs() < 1e-9);
    }
}

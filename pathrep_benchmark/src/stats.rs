//! Order statistics that refuse percentiles the sample cannot support.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (so p99 needs at least 1 000
/// samples, p999 at least 10 000).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_is_refused_below_one_thousand_samples() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(989.0));
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(v.iter().filter(|&&x| x > 989.0).count(), MIN_BEYOND);
    }
}
